//! Property tests for the reservation timeline: across random
//! sequences of single reservations, back-to-back run chains and
//! multi-chain waves (including out-of-range queues), the batched
//! `reserve_run` / `reserve_runs` entry points of [`DeviceTimeline`]
//! book exactly the slots that one `reserve_next` call per slot books —
//! the invariant `MappedJobModel`'s run batching rests on.

use ev_core::{TimeDelta, Timestamp};
use ev_platform::timeline::{DeviceTimeline, ReservationTimeline, RunRequest};
use proptest::prelude::*;

const QUEUES: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Next {
        queue: usize,
        ready: u64,
        duration: i64,
    },
    Run {
        queue: usize,
        ready: u64,
        durations: Vec<i64>,
    },
    Wave {
        chains: Vec<(usize, u64, Vec<i64>)>,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // `QUEUES + 1` makes out-of-range queues reachable: the batched and
    // per-slot paths must fail them identically.
    let chains = prop::collection::vec(
        (
            0usize..QUEUES + 1,
            0u64..50_000,
            prop::collection::vec(0i64..2_000, 0..4),
        ),
        1..4,
    );
    (0usize..3, chains).prop_map(|(kind, mut chains)| match kind {
        0 => {
            let (queue, ready, durations) = chains.swap_remove(0);
            Op::Next {
                queue,
                ready,
                duration: durations.first().copied().unwrap_or(7),
            }
        }
        1 => {
            let (queue, ready, durations) = chains.swap_remove(0);
            Op::Run {
                queue,
                ready,
                durations,
            }
        }
        _ => Op::Wave { chains },
    })
}

type Slots = Vec<Vec<(Timestamp, Timestamp)>>;

/// Applies `op` through the batched entry points.
fn apply_batched(tl: &mut DeviceTimeline, op: &Op) -> Result<Slots, String> {
    match op {
        Op::Next {
            queue,
            ready,
            duration,
        } => tl
            .reserve_next(*queue, us(*ready), TimeDelta::from_micros(*duration))
            .map(|slot| vec![vec![slot]])
            .map_err(|e| e.to_string()),
        Op::Run {
            queue,
            ready,
            durations,
        } => tl
            .reserve_run(*queue, us(*ready), &deltas(durations))
            .map(|slots| vec![slots])
            .map_err(|e| e.to_string()),
        Op::Wave { chains } => {
            let durations: Vec<Vec<TimeDelta>> =
                chains.iter().map(|(_, _, ds)| deltas(ds)).collect();
            let requests: Vec<RunRequest<'_>> = chains
                .iter()
                .zip(&durations)
                .map(|(&(queue, ready, _), durations)| RunRequest {
                    queue,
                    ready: us(ready),
                    durations,
                })
                .collect();
            tl.reserve_runs(&requests).map_err(|e| e.to_string())
        }
    }
}

/// Applies `op` one `reserve_next` per slot, each slot of a chain ready
/// when the previous one ends.
fn apply_per_slot(tl: &mut DeviceTimeline, op: &Op) -> Result<Slots, String> {
    let chains = match op {
        Op::Next {
            queue,
            ready,
            duration,
        } => vec![(*queue, *ready, vec![*duration])],
        Op::Run {
            queue,
            ready,
            durations,
        } => vec![(*queue, *ready, durations.clone())],
        Op::Wave { chains } => chains.clone(),
    };
    let mut out = Vec::with_capacity(chains.len());
    for (queue, ready, durations) in chains {
        let mut slots = Vec::with_capacity(durations.len());
        let mut next_ready = us(ready);
        for d in deltas(&durations) {
            let slot = tl
                .reserve_next(queue, next_ready, d)
                .map_err(|e| e.to_string())?;
            next_ready = slot.1;
            slots.push(slot);
        }
        out.push(slots);
    }
    Ok(out)
}

fn us(micros: u64) -> Timestamp {
    Timestamp::from_micros(micros)
}

fn deltas(micros: &[i64]) -> Vec<TimeDelta> {
    micros
        .iter()
        .map(|&us| TimeDelta::from_micros(us))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched ≡ per-slot: identical slots, identical failures and
    /// identical timeline state after every random operation sequence.
    #[test]
    fn timelines_agree(ops in prop::collection::vec(arb_op(), 1..20)) {
        let mut batched = DeviceTimeline::new(QUEUES);
        let mut per_slot = DeviceTimeline::new(QUEUES);
        for op in &ops {
            let b = apply_batched(&mut batched, op);
            let p = apply_per_slot(&mut per_slot, op);
            prop_assert_eq!(b.is_ok(), p.is_ok(), "success parity on {:?}", op);
            if let Ok(slots) = &b {
                prop_assert_eq!(slots, p.as_ref().expect("parity checked"));
            }
            // A failing wave keeps the chains booked before the failing
            // one on both paths, so the states never drift apart.
            prop_assert_eq!(&batched, &per_slot);
        }
    }
}
