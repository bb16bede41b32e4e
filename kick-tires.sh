#!/usr/bin/env bash
# Reproduce every paper figure and table in one command.
#
#   ./kick-tires.sh            quick budget (seconds, CI-friendly)
#   ./kick-tires.sh --full     full paper budget (minutes)
#
# Builds the workspace in release mode, smoke-tests the multi-tenant
# service layer end to end (`serve_sim --quick`), the heterogeneous
# mixes and the benchmark harness (`evbench --smoke`), then drives the
# declarative conformance suite in `specs/*.json`: each spec runs one
# figure/table/service binary in a sandboxed output directory and
# checks its report against golden snapshots (f64 bit-equality) and
# structural assertions. Exit code 0 means everything reproduced.
#
# Known flags (anything else fails loudly — a typo'd `--ful` must
# never silently run the default budget):
#
#   --quick | --full           budget selection (default --quick)
#   --filter <substr>          run the subset of specs matching <substr>
#   --workers <n>              conformance worker threads (0 = auto)
#   --specs <dir>              spec directory (default ./specs)
#   --json <path>              write the suite report as JSON
#
#   UPDATE_GOLDEN=1 ./kick-tires.sh    regenerate golden snapshots

set -euo pipefail

cd "$(dirname "$0")"

budget="--quick"
specs_given=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --full) budget="--full"; shift ;;
        --quick) budget="--quick"; shift ;;
        --filter|--workers|--json)
            if [ $# -lt 2 ]; then
                echo "kick-tires: $1 needs a value" >&2
                exit 2
            fi
            extra+=("$1" "$2"); shift 2 ;;
        --specs)
            if [ $# -lt 2 ]; then
                echo "kick-tires: --specs needs a directory" >&2
                exit 2
            fi
            specs_given=1
            extra+=("$1" "$2"); shift 2 ;;
        *)
            echo "kick-tires: unknown argument \`$1\`" >&2
            echo "known flags: --quick --full --filter <substr> --workers <n> --specs <dir> --json <path>" >&2
            exit 2 ;;
    esac
done
if [ "$specs_given" -eq 0 ]; then
    extra+=("--specs" "specs")
fi

echo "== kick-tires: building release binaries =="
cargo build --release --quiet

echo "== kick-tires: service-layer smoke (serve_sim --quick) =="
cargo run --release --quiet --bin serve_sim -- --quick

echo "== kick-tires: heterogeneous-mix smoke (fig9_multi_task --mix gnn-heavy --playback) =="
cargo run --release --quiet --bin fig9_multi_task -- --quick --mix gnn-heavy --playback

echo "== kick-tires: corner-frontend smoke (serve_sim --corner) =="
cargo run --release --quiet --bin serve_sim -- --quick --corner

echo "== kick-tires: benchmark smoke (evbench --smoke) =="
cargo run --release --quiet --offline --manifest-path evbench/Cargo.toml -- --smoke

echo "== kick-tires: running conformance suite ($budget) =="
exec cargo run --release --quiet --bin conformance -- "$budget" ${extra[@]+"${extra[@]}"}
