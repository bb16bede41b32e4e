//! Concurrent perception: the complete Ev-Edge system (paper Figure 4)
//! with two tasks running at once — each with its own camera stream, E2SF
//! binning and DSFA aggregation — contending for the Xavier AGX model
//! under an NMP-searched mapping.
//!
//! ```bash
//! cargo run --release --example concurrent_perception
//! ```

use ev_core::time::{TimeWindow, Timestamp};
use ev_datasets::mvsec::SequenceId;
use ev_edge::dsfa::{CMode, DsfaConfig};
use ev_edge::multipipe::{run_multi_task_streams, MultiTaskRuntimeConfig, StreamTask};
use ev_edge::nmp::baseline;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::FitnessConfig;
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::task_spec_for;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two concurrent tasks: object tracking on a fast drone stream and
    // depth estimation on a driving stream.
    let zoo = ZooConfig::mvsec();
    let problem = MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![
            task_spec_for(NetworkId::Dotie, &zoo, 1.0)?,
            task_spec_for(NetworkId::E2Depth, &zoo, 1.0)?,
        ],
    )?;
    let streams = vec![
        StreamTask {
            sequence: SequenceId::IndoorFlying2.sequence(),
            bins_per_interval: 12,
            dsfa: DsfaConfig {
                cmode: CMode::CBatch, // tracking keeps temporal resolution
                mb_size: 1,
                ..DsfaConfig::default()
            },
        },
        StreamTask {
            sequence: SequenceId::DenseTown10.sequence(),
            bins_per_interval: 4,
            dsfa: DsfaConfig::default(), // depth tolerates cAdd merging
        },
    ];
    let config = MultiTaskRuntimeConfig::new(TimeWindow::new(
        Timestamp::ZERO,
        Timestamp::from_millis(150),
    ));

    let nmp = run_nmp(
        &problem,
        NmpConfig {
            population: 24,
            generations: 20,
            ..NmpConfig::default()
        },
        FitnessConfig::default(),
    )?;

    println!("concurrent perception over a 150 ms window (DOTIE + E2Depth)\n");
    for (name, candidate) in [
        ("RR-Network", baseline::rr_network(&problem)),
        ("Ev-Edge-NMP", nmp.best),
    ] {
        let report = run_multi_task_streams(&problem, &candidate, &streams, config)?;
        println!("{name}:");
        for t in &report.per_task {
            println!(
                "  {:<10} {:>4} arrivals  {:>4} done  {:>3} dropped  mean {:>7.2} ms  worst {:>7.2} ms",
                t.name,
                t.arrivals,
                t.completed,
                t.dropped,
                t.mean_latency.as_millis_f64(),
                t.max_latency.as_millis_f64(),
            );
        }
        let busiest = report.utilization.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "  makespan {:.1} ms, energy {}, busiest engine at {:.0}%\n",
            report.makespan.as_secs_f64() * 1e3,
            report.energy,
            busiest * 100.0
        );
    }
    println!(
        "Each task's DSFA adapts independently: tracking batches without merging\n\
         (cBatch), depth merges frames under backlog (cAdd). Inferences share the\n\
         platform under the searched mapping."
    );
    Ok(())
}
