//! Quickstart: synthesize a modeled MVSEC event stream, convert it with
//! E2SF, aggregate with DSFA, and run a real spiking-network forward pass.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use ev_core::event::SensorGeometry;
use ev_core::generator::RateProfile;
use ev_core::time::{TimeWindow, Timestamp};
use ev_datasets::mvsec::{Sequence, SequenceId};
use ev_edge::dsfa::{Dsfa, DsfaConfig};
use ev_edge::e2sf::{E2sf, E2sfConfig};
use ev_nn::forward::{Activation, Executor};
use ev_nn::zoo::{NetworkId, ZooConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. 100 ms of a 32×32 crop of modeled MVSEC indoor_flying1, at a
    //    steady 20k events/s.
    let sequence = Sequence {
        geometry: SensorGeometry::new(32, 32),
        profile: RateProfile::Constant(20_000.0),
        ..SequenceId::IndoorFlying1.sequence()
    };
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(100));
    let events = sequence.generate(window)?;
    let intervals = sequence.frame_intervals(window);
    println!(
        "stream: {} events over {} grayscale-frame intervals",
        events.len(),
        intervals.len()
    );

    // 2. E2SF: raw events → two-channel sparse frames, 4 bins per interval.
    let e2sf = E2sf::new(E2sfConfig::new(4));
    let frames = e2sf.convert_intervals(&events, &intervals)?;
    let mean_fill: f64 =
        frames.iter().map(|f| f.spatial_density()).sum::<f64>() / frames.len() as f64;
    println!(
        "e2sf:   {} sparse frames, mean fill {:.2}% (dense frames would store 100%)",
        frames.len(),
        mean_fill * 100.0
    );

    // 3. DSFA: merge frames under time/density thresholds.
    let mut dsfa = Dsfa::new(DsfaConfig::default())?;
    let mut batches = Vec::new();
    for frame in frames {
        if let Some(batch) = dsfa.push(frame)? {
            batches.push(batch);
        }
    }
    if let Some(batch) = dsfa.flush(window.end()) {
        batches.push(batch);
    }
    println!(
        "dsfa:   {} batches (merge factor {:.2} frames per merged frame)",
        batches.len(),
        dsfa.stats().mean_merge_factor()
    );

    // 4. A real forward pass through DOTIE (1 spiking layer) on the first
    //    merged frame — actual sparse-convolution arithmetic.
    let zoo = ZooConfig {
        height: 32,
        width: 32,
        ..ZooConfig::small()
    };
    let mut executor = Executor::new(NetworkId::Dotie.build(&zoo)?, 42);
    let first = &batches
        .first()
        .ok_or("no batches produced")?
        .frames
        .first()
        .ok_or("empty batch")?
        .frame;
    let result = executor.run(&Activation::Sparse(first.tensor().clone()))?;
    let work = result.total_actual();
    let dense = result.total_dense_equivalent();
    println!(
        "dotie:  {} MACs executed ({}% of the {} dense MACs)",
        work.macs,
        work.macs * 100 / dense.macs.max(1),
        dense.macs
    );
    println!("done.");
    Ok(())
}
