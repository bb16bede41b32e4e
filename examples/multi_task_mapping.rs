//! Multi-task mapping with the Network Mapper: map a mixed SNN-ANN
//! workload (Fusion-FlowNet + HALSIE + DOTIE + E2Depth) onto the Xavier
//! AGX model and compare against round-robin policies (the paper's
//! Figure 9 experiment).
//!
//! ```bash
//! cargo run --release --example multi_task_mapping
//! ```

use ev_edge::nmp::baseline;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator};
use ev_edge::nmp::TaskMix;
use ev_nn::zoo::ZooConfig;
use ev_platform::pe::Platform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fusion-FlowNet, HALSIE, DOTIE and E2Depth, each under its Table 2 ΔA.
    let problem =
        TaskMix::MixedSnnAnn.build_problem(Platform::xavier_agx(), &ZooConfig::mvsec())?;
    println!(
        "mixed SNN-ANN workload: {} layers across {} networks\n",
        problem.node_count(),
        problem.tasks().len()
    );

    // Baselines.
    let mut evaluator = FitnessEvaluator::new(&problem, FitnessConfig::default());
    let rr_net = evaluator.evaluate(&baseline::rr_network(&problem))?;
    let rr_layer = evaluator.evaluate(&baseline::rr_layer(&problem))?;

    // Evolutionary search.
    let result = run_nmp(
        &problem,
        NmpConfig {
            population: 32,
            generations: 25,
            ..NmpConfig::default()
        },
        FitnessConfig::default(),
    )?;

    let ms = |d: ev_core::TimeDelta| d.as_secs_f64() * 1e3;
    println!("RR-Network: {:>7.2} ms", ms(rr_net.max_latency));
    println!("RR-Layer:   {:>7.2} ms", ms(rr_layer.max_latency));
    println!(
        "Ev-Edge-NMP:{:>7.2} ms  ({:.2}x vs RR-Network, {:.2}x vs RR-Layer)\n",
        ms(result.report.max_latency),
        ms(rr_net.max_latency) / ms(result.report.max_latency),
        ms(rr_layer.max_latency) / ms(result.report.max_latency),
    );

    // Where did the layers land?
    println!("searched mapping (per network):");
    for (t, task) in problem.tasks().iter().enumerate() {
        let mut per_pe = std::collections::BTreeMap::new();
        for l in 0..task.graph.len() {
            let a = result.best.assignment(problem.global_index(t, l));
            let element = problem.platform().element(a.pe)?;
            *per_pe
                .entry(format!("{}@{}", element.name, a.precision))
                .or_insert(0usize) += 1;
        }
        let summary: Vec<String> = per_pe.iter().map(|(k, v)| format!("{v}x {k}")).collect();
        println!(
            "  {:<16} deg {:.3} (ΔA {:.3}): {}",
            task.name,
            result.report.per_task_degradation[t],
            task.max_degradation,
            summary.join(", ")
        );
    }
    println!(
        "\nconvergence: gen0 best {:.4} → gen{} best {:.4} ({} evaluations, {} cache hits)",
        result.history.first().map(|g| g.best_score).unwrap_or(0.0),
        result.history.len() - 1,
        result.history.last().map(|g| g.best_score).unwrap_or(0.0),
        result.evaluations,
        result.cache_hits
    );
    Ok(())
}
