//! Single-task runtime pipeline: SpikeFlowNet optical flow on an
//! `indoor_flying` stream, comparing every Ev-Edge optimization level
//! (the paper's Figure 8 experiment, one network).
//!
//! ```bash
//! cargo run --release --example optical_flow_pipeline
//! ```

use ev_core::time::{TimeWindow, Timestamp};
use ev_datasets::mvsec::SequenceId;
use ev_edge::pipeline::{run_single_task, PipelineOptions, PipelineSetup, PipelineVariant};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = NetworkId::SpikeFlowNet;
    let setup = PipelineSetup {
        platform: Platform::xavier_agx(),
        network,
        zoo: ZooConfig::mvsec(),
        sequence: SequenceId::IndoorFlying1.sequence(),
        window: TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(200)),
    };

    println!(
        "SpikeFlowNet on indoor_flying1 ({} ms simulated stream)\n",
        setup.window.duration().as_millis_f64()
    );
    println!(
        "{:<22} {:>9} {:>7} {:>9} {:>10} {:>8}",
        "variant", "makespan", "jobs", "energy", "metric", "speedup"
    );

    // One call: every variant runs over one event stream and E2SF pass.
    let runs =
        PipelineVariant::FIGURE8.map(|variant| PipelineOptions::for_variant(variant, network));
    let reports = run_single_task(&setup, &runs)?;
    let baseline_ms = reports[0].makespan.as_secs_f64() * 1e3;
    for report in &reports {
        let ms = report.makespan.as_secs_f64() * 1e3;
        println!(
            "{:<22} {:>7.1}ms {:>7} {:>9} {:>7.3}AEE {:>7.2}x",
            report.variant.label(),
            ms,
            report.inferences,
            format!("{}", report.energy),
            report.metric,
            baseline_ms / ms,
        );
    }
    println!(
        "\nDense processing backlogs during event bursts; E2SF cuts wasted work on the\n\
         spiking encoder, DSFA merges frames under pressure, and NMP re-maps layers\n\
         and precision within the ΔA accuracy budget."
    );
    Ok(())
}
