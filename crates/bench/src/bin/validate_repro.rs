//! Reproduction validator: runs every experiment at reduced budget and
//! checks the paper's claims from the [`ev_bench::claims`] ledger,
//! printing a PASS/FAIL checklist.
//!
//! ```bash
//! cargo run --release -p ev-bench --bin validate_repro
//! ```

use ev_bench::claims;
use ev_bench::experiments::{figure1, figure10, figure3, figure5, figure8, figure9, table1};
use ev_bench::report::CommonArgs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Always runs the quick budget and writes no artifact: `--quick` is
    // accepted as a no-op, anything else (including `--json`) is an error.
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    if let Some(path) = &args.json {
        return Err(format!(
            "validate_repro writes no JSON artifact (got --json {})",
            path.display()
        )
        .into());
    }
    println!("Validating the Ev-Edge reproduction against the paper's claims (quick budget)\n");
    let fig8 = figure8(true)?;
    let sections = [
        ("Table 1 — network inventory", claims::table1(&table1()?)),
        (
            "Figure 1 — wasted operations",
            claims::figure1(&figure1(true)?),
        ),
        (
            "Figure 3 — frame density spread",
            claims::figure3(&figure3(true)?),
        ),
        (
            "Figure 5 — temporal burstiness",
            claims::figure5(&figure5(true)?),
        ),
        ("Figure 8 — single-task speedups", claims::figure8(&fig8)),
        ("Table 2 — accuracy within ΔA", claims::table2(&fig8)),
        (
            "Figure 9 — multi-task mapping",
            claims::figure9(&figure9(true)?),
        ),
        (
            "Figure 10 — search quality",
            claims::figure10(&figure10(true)?),
        ),
    ];
    let (mut passed, mut failed) = (0, 0);
    for (i, (title, checks)) in sections.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{title}");
        for check in checks {
            println!("  {check}");
            if check.passed {
                passed += 1;
            } else {
                failed += 1;
            }
        }
    }
    println!("\n{passed} checks passed, {failed} failed");
    if failed > 0 {
        std::process::exit(1);
    }
    Ok(())
}
