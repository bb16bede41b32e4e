//! Host-speed calibration.
//!
//! The host's clock drifts by 10–20% over tens of seconds. A fixed loop
//! timed right after every iteration tracks that drift, and scaling
//! the iteration time by `REFERENCE_MS / calibration time` turns host
//! ms into *reference ms*: the time the iteration would have taken had
//! the loop run at its reference speed. On a steady host the two agree.
//!
//! The loop is part of the benchmark, not of the program under test,
//! so it never changes between the commits being compared: eight
//! independent integer chains with no memory traffic. Measured next to
//! the workloads, its time follows their clock-driven changes within a
//! few percent. It barely sees the host's slow phases of contention
//! for shared caches; the parent leaves those out by taking a run's
//! best invocation (see `spec::set_value`).

use std::hint::black_box;
use std::time::Instant;

/// Calibration loop rounds (≈1 ms on a 2.1 GHz Xeon core).
const ROUNDS: u64 = 600_000;

/// The calibration loop's time on the reference host, ms: a
/// Sapphire Rapids Xeon vCPU at its usual clock.
pub const REFERENCE_MS: f64 = 1.0;

/// Runs the calibration loop once; returns its host time in ms.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..black_box(ROUNDS) {
        for (i, x) in lanes.iter_mut().enumerate() {
            *x = (*x ^ (*x >> 3)).wrapping_add(i as u64 + 0x9E37);
        }
    }
    black_box(lanes);
    start.elapsed().as_secs_f64() * 1e3
}

/// `host_ms` in reference ms, given the calibration time measured
/// next to it.
pub fn to_reference_ms(host_ms: f64, calibration_ms: f64) -> f64 {
    host_ms * REFERENCE_MS / calibration_ms
}
