//! Mapping baselines: all-GPU and the round-robin policies of Figure 9.

use crate::nmp::candidate::{Assignment, Candidate};
use crate::nmp::multitask::MultiTaskProblem;
use crate::EvEdgeError;
use ev_nn::Precision;
use ev_platform::pe::PeId;

/// Every layer on the GPU at full precision — the paper's single-task
/// baseline ("an all-GPU implementation").
///
/// # Errors
///
/// Returns [`EvEdgeError::MissingPe`] if the platform has no element named
/// `gpu`.
pub fn all_gpu(problem: &MultiTaskProblem) -> Result<Candidate, EvEdgeError> {
    let gpu = problem
        .platform()
        .id_by_name("gpu")
        .ok_or(EvEdgeError::MissingPe { name: "gpu" })?;
    Ok(Candidate::from_assignments(
        (0..problem.node_count())
            .map(|_| Assignment {
                pe: gpu,
                precision: Precision::Fp32,
            })
            .collect(),
    ))
}

/// Highest-fidelity precision an element supports.
///
/// # Panics
///
/// Panics if the element supports no precision.
fn best_precision(problem: &MultiTaskProblem, pe: PeId) -> Precision {
    problem.precisions(pe)[0]
}

/// The processing elements a round-robin DNN scheduler cycles over: the
/// deep-learning engines (GPU and DLAs). The CPU runs the runtime itself;
/// no round-robin deployment policy schedules whole CNNs onto it.
fn rr_pes(problem: &MultiTaskProblem) -> Vec<PeId> {
    let elements = problem.platform().elements();
    let accelerators: Vec<PeId> = problem
        .pe_ids()
        .iter()
        .copied()
        .filter(|id| elements[id.0].kind != ev_platform::pe::PeKind::Cpu)
        .collect();
    if accelerators.is_empty() {
        problem.pe_ids().to_vec()
    } else {
        accelerators
    }
}

/// RR-Network (paper §6): a coarse-grained round-robin that assigns each
/// network wholly to one deep-learning engine, cycling over the engines.
pub fn rr_network(problem: &MultiTaskProblem) -> Candidate {
    let pes = rr_pes(problem);
    let mut assignments = Vec::with_capacity(problem.node_count());
    for global in 0..problem.node_count() {
        let (task, _) = problem.node(global);
        let pe = pes[task % pes.len()];
        assignments.push(Assignment {
            pe,
            precision: best_precision(problem, pe),
        });
    }
    Candidate::from_assignments(assignments)
}

/// RR-Layer (paper §6): a fine-grained round-robin that assigns each layer
/// to the next deep-learning engine in cyclic order.
pub fn rr_layer(problem: &MultiTaskProblem) -> Candidate {
    let pes = rr_pes(problem);
    let assignments = (0..problem.node_count())
        .map(|global| {
            let pe = pes[global % pes.len()];
            Assignment {
                pe,
                precision: best_precision(problem, pe),
            }
        })
        .collect();
    Candidate::from_assignments(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::fitness::{FitnessConfig, FitnessEvaluator};
    use crate::nmp::multitask::TaskSpec;
    use ev_nn::zoo::{NetworkId, ZooConfig};
    use ev_platform::pe::Platform;

    fn problem() -> MultiTaskProblem {
        let cfg = ZooConfig::small();
        MultiTaskProblem::new(
            Platform::xavier_agx(),
            vec![
                TaskSpec::new(
                    NetworkId::EvFlowNet.build(&cfg).unwrap(),
                    NetworkId::EvFlowNet.accuracy_model(),
                    0.04,
                ),
                TaskSpec::new(
                    NetworkId::E2Depth.build(&cfg).unwrap(),
                    NetworkId::E2Depth.accuracy_model(),
                    0.02,
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_gpu_maps_everything_to_gpu() {
        let p = problem();
        let c = all_gpu(&p).unwrap();
        assert!(c.is_valid(&p));
        let gpu = p.platform().id_by_name("gpu").unwrap();
        assert!(c.assignments().iter().all(|a| a.pe == gpu));
        assert!(c
            .assignments()
            .iter()
            .all(|a| a.precision == Precision::Fp32));
    }

    #[test]
    fn rr_network_is_per_task_constant() {
        let p = problem();
        let c = rr_network(&p);
        assert!(c.is_valid(&p));
        // Task 0 → PE0 (cpu), task 1 → PE1 (gpu).
        let t0_pe = c.assignment(0).pe;
        for l in 0..p.tasks()[0].graph.len() {
            assert_eq!(c.assignment(p.global_index(0, l)).pe, t0_pe);
        }
        let t1_pe = c.assignment(p.global_index(1, 0)).pe;
        assert_ne!(t0_pe, t1_pe);
    }

    #[test]
    fn rr_layer_cycles_over_accelerators() {
        let p = problem();
        let c = rr_layer(&p);
        assert!(c.is_valid(&p));
        let cpu = p.platform().id_by_name("cpu").unwrap();
        let pes = rr_pes(&p);
        assert_eq!(pes.len(), 3, "gpu + two DLAs");
        for g in 0..p.node_count() {
            assert_eq!(c.assignment(g).pe, pes[g % pes.len()]);
            assert_ne!(c.assignment(g).pe, cpu, "RR never schedules onto the CPU");
        }
    }

    #[test]
    fn rr_baselines_evaluate_and_rank() {
        let p = problem();
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        let net = eval.evaluate(&rr_network(&p)).unwrap();
        let layer = eval.evaluate(&rr_layer(&p)).unwrap();
        // Both produce finite latencies; RR-Layer pays cross-PE transfers
        // for every edge but parallelizes, RR-Network serializes each task
        // on one element. No universal order — just sanity.
        assert!(net.max_latency.as_micros() > 0);
        assert!(layer.max_latency.as_micros() > 0);
    }
}
