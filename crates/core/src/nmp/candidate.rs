//! Mapping candidates: per-layer (processing element, precision) choices.
//!
//! A candidate assigns every node of the multi-task graph to a processing
//! element and a precision that element supports (paper Figure 7a). The
//! search space is `(#Precisions × #PEs)^(#Layers)` — the exponential blow-
//! up that motivates evolutionary search over exhaustive enumeration.
//!
//! Random draws read the problem's draw tables, so drawing an assignment
//! allocates nothing. [`Candidate::crossover`] returns a reference to the
//! chosen parent, and [`Candidate::clone_from`] copies a parent into a
//! candidate's existing buffer, so the search breeds a child without
//! allocating one.

use crate::nmp::multitask::MultiTaskProblem;
use ev_nn::Precision;
use ev_platform::pe::PeId;
use rand::Rng;

/// One layer's mapping choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Assignment {
    /// The processing element.
    pub pe: PeId,
    /// The precision the layer runs at.
    pub precision: Precision,
}

/// A complete mapping of the multi-task graph.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Candidate {
    assignments: Vec<Assignment>,
}

impl Clone for Candidate {
    fn clone(&self) -> Self {
        Candidate {
            assignments: self.assignments.clone(),
        }
    }

    /// Copies `source` into this candidate's buffer, allocating only if
    /// it is too small.
    fn clone_from(&mut self, source: &Self) {
        self.assignments.clone_from(&source.assignments);
    }
}

impl Candidate {
    /// Builds a candidate from explicit assignments.
    ///
    /// Validity (PE supports precision) is the caller's responsibility;
    /// [`Candidate::is_valid`] checks it.
    pub fn from_assignments(assignments: Vec<Assignment>) -> Self {
        Candidate { assignments }
    }

    /// A uniformly random valid candidate.
    pub fn random<R: Rng>(problem: &MultiTaskProblem, rng: &mut R) -> Self {
        let assignments = (0..problem.node_count())
            .map(|_| random_assignment(problem, rng, false))
            .collect();
        Candidate { assignments }
    }

    /// A random candidate restricted to full-precision (FP32) capable
    /// elements — the Ev-Edge-NMP-FP variant of the paper's §6.
    pub fn random_fp<R: Rng>(problem: &MultiTaskProblem, rng: &mut R) -> Self {
        let assignments = (0..problem.node_count())
            .map(|_| random_assignment(problem, rng, true))
            .collect();
        Candidate { assignments }
    }

    /// The per-node assignments.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The assignment of one global node.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn assignment(&self, global: usize) -> Assignment {
        self.assignments[global]
    }

    /// Whether every assignment is executable on the platform.
    pub fn is_valid(&self, problem: &MultiTaskProblem) -> bool {
        self.assignments.iter().all(|a| {
            problem
                .platform()
                .element(a.pe)
                .map(|e| e.supports(a.precision))
                .unwrap_or(false)
        })
    }

    /// Replaces `layers` random node assignments with fresh random choices
    /// (the paper's mutation operator).
    pub fn mutate<R: Rng>(
        &mut self,
        problem: &MultiTaskProblem,
        rng: &mut R,
        layers: usize,
        fp_only: bool,
    ) {
        if self.assignments.is_empty() {
            return;
        }
        for _ in 0..layers {
            let idx = rng.gen_range(0..self.assignments.len());
            self.assignments[idx] = random_assignment(problem, rng, fp_only);
        }
    }

    /// The paper's crossover: of two neighbouring parents, one is chosen
    /// as the child with equal likelihood. The child is the chosen parent;
    /// the caller copies it where the child should live.
    pub fn crossover<'a, R: Rng>(a: &'a Candidate, b: &'a Candidate, rng: &mut R) -> &'a Candidate {
        if rng.gen::<bool>() {
            a
        } else {
            b
        }
    }

    /// A stable hash for fitness caching ("fitness scores are cached for
    /// each new candidate and reused", paper §4.3.1).
    pub fn cache_key(&self) -> u64 {
        // FNV-1a over (pe, precision) pairs: the id's low byte, then the
        // precision tag. An id past 255 sets the tag's high bit and then
        // hashes the id's other seven bytes, so every assignment's bytes
        // decode one way and ids below 256 keep their two-byte keys.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in &self.assignments {
            let id = (a.pe.0 as u64).to_le_bytes();
            let wide = a.pe.0 > 0xff;
            h = fnv1a(h, id[0]);
            h = fnv1a(h, precision_tag(a.precision) | if wide { 0x80 } else { 0 });
            if wide {
                h = id[1..].iter().fold(h, |h, &byte| fnv1a(h, byte));
            }
        }
        h
    }
}

fn fnv1a(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
}

fn precision_tag(p: Precision) -> u8 {
    match p {
        Precision::Int8 => 0,
        Precision::Fp16 => 1,
        Precision::Fp32 => 2,
    }
}

fn random_assignment<R: Rng>(problem: &MultiTaskProblem, rng: &mut R, fp_only: bool) -> Assignment {
    if fp_only {
        let pes = problem.fp32_pes();
        let pe = pes[rng.gen_range(0..pes.len())];
        return Assignment {
            pe,
            precision: Precision::Fp32,
        };
    }
    let pes = problem.pe_ids();
    let pe = pes[rng.gen_range(0..pes.len())];
    let precisions = problem.precisions(pe);
    let precision = precisions[rng.gen_range(0..precisions.len())];
    Assignment { pe, precision }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::multitask::TaskSpec;
    use ev_nn::zoo::{NetworkId, ZooConfig};
    use ev_platform::pe::Platform;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem() -> MultiTaskProblem {
        let cfg = ZooConfig::small();
        MultiTaskProblem::new(
            Platform::xavier_agx(),
            vec![TaskSpec::new(
                NetworkId::SpikeFlowNet.build(&cfg).unwrap(),
                NetworkId::SpikeFlowNet.accuracy_model(),
                0.03,
            )],
        )
        .unwrap()
    }

    #[test]
    fn random_candidates_are_valid() {
        let p = problem();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let c = Candidate::random(&p, &mut rng);
            assert!(c.is_valid(&p));
            assert_eq!(c.assignments().len(), p.node_count());
        }
    }

    #[test]
    fn fp_candidates_use_only_fp32() {
        let p = problem();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let c = Candidate::random_fp(&p, &mut rng);
        assert!(c.is_valid(&p));
        for a in c.assignments() {
            assert_eq!(a.precision, Precision::Fp32);
            // Only CPU (0) and GPU (1) support FP32 on Xavier.
            assert!(a.pe.0 <= 1);
        }
    }

    #[test]
    fn mutation_changes_assignments_but_keeps_validity() {
        let p = problem();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let original = Candidate::random(&p, &mut rng);
        let mut mutated = original.clone();
        mutated.mutate(&p, &mut rng, 4, false);
        assert!(mutated.is_valid(&p));
        // With 4 mutations over 14 nodes, the key should change with
        // overwhelming probability under this seed.
        assert_ne!(original.cache_key(), mutated.cache_key());
    }

    #[test]
    fn crossover_picks_one_parent() {
        let p = problem();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = Candidate::random(&p, &mut rng);
        let b = Candidate::random(&p, &mut rng);
        for _ in 0..10 {
            let child = Candidate::crossover(&a, &b, &mut rng);
            assert!(*child == a || *child == b);
        }
    }

    #[test]
    fn cache_keys_below_id_256_are_two_bytes_per_layer() {
        let p = problem();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..20 {
            let c = Candidate::random(&p, &mut rng);
            let two_bytes = c.assignments().iter().fold(0xcbf2_9ce4_8422_2325, |h, a| {
                fnv1a(fnv1a(h, a.pe.0 as u8), precision_tag(a.precision))
            });
            assert_eq!(c.cache_key(), two_bytes);
        }
    }

    #[test]
    fn cache_key_is_stable_and_discriminative() {
        let p = problem();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = Candidate::random(&p, &mut rng);
        assert_eq!(a.cache_key(), a.clone().cache_key());
        let b = Candidate::random(&p, &mut rng);
        assert_ne!(a.cache_key(), b.cache_key());
    }
}
