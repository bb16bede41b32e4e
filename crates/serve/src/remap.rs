//! Incremental NMP remapping across tenant churn.
//!
//! Every epoch needs a mapping for its live mix. Three sources, in
//! preference order:
//!
//! 1. **Cached** — the per-(platform × mix) table already holds a
//!    tuning for this exact mix; replay its candidate verbatim.
//! 2. **Carried** — the mix drifted from the last *tuned* mix by at
//!    most the configured threshold: copy every retained tenant's
//!    per-layer assignments from the previous epoch's mapping and fill
//!    new tenants from the round-robin baseline. No search runs.
//! 3. **Tuned** — the drift crossed the threshold (or nothing was ever
//!    tuned): run one NMP search on the live mix and cache its winner
//!    together with the `NmpConfig` that earned it, so the identical
//!    search replays bit for bit on demand.
//!
//! Drift is multiset Jaccard distance over the mixes' network lists —
//! insensitive to tenant order and names, sensitive to how much of the
//! workload actually changed.

use crate::ServeError;
use ev_edge::nmp::baseline;
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::FitnessConfig;
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::{PlatformPreset, TaskMix, ZooPreset};
use ev_nn::zoo::NetworkId;
use serde::{Deserialize, Serialize};

/// How an epoch obtained its mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingSource {
    /// A fresh NMP search of the live mix (the first epoch, or drift
    /// past the threshold).
    Tuned,
    /// Replayed from the per-(platform × mix) cache.
    Cached,
    /// Carried over from the previous epoch's mapping (drift within
    /// the threshold): retained tenants keep their assignments, new
    /// tenants start from the round-robin baseline.
    Carried,
    /// No tenants were live; nothing ran.
    Idle,
}

impl MappingSource {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MappingSource::Tuned => "tuned",
            MappingSource::Cached => "cached",
            MappingSource::Carried => "carried",
            MappingSource::Idle => "idle",
        }
    }
}

fn counts(list: &[NetworkId]) -> Vec<(NetworkId, usize)> {
    let mut out: Vec<(NetworkId, usize)> = Vec::new();
    for &n in list {
        match out.iter_mut().find(|(k, _)| *k == n) {
            Some(entry) => entry.1 += 1,
            None => out.push((n, 1)),
        }
    }
    out
}

/// Multiset Jaccard distance between two network mixes, in `[0, 1]`:
/// `0.0` for identical workloads (regardless of tenant order), `1.0`
/// for disjoint ones. Two empty mixes are identical.
pub fn mix_drift(a: &[NetworkId], b: &[NetworkId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let ca = counts(a);
    let cb = counts(b);
    let mut intersection = 0usize;
    let mut union = 0usize;
    for &(n, na) in &ca {
        let nb = cb.iter().find(|(k, _)| *k == n).map_or(0, |(_, c)| *c);
        intersection += na.min(nb);
        union += na.max(nb);
    }
    for &(n, nb) in &cb {
        if !ca.iter().any(|(k, _)| *k == n) {
            union += nb;
        }
    }
    1.0 - intersection as f64 / union as f64
}

/// Builds the next epoch's mapping without a search: each task of the
/// new problem that matches a previous task by network (consumed in
/// task order, so duplicate networks pair up one-to-one) copies that
/// task's per-layer assignments; unmatched tasks take their slice of
/// the round-robin baseline.
///
/// `prev_networks` / `networks` are the task-order network lists of
/// the two problems — same zoo scale, so matched tasks have identical
/// layer counts.
pub fn carry_over_mapping(
    prev_problem: &MultiTaskProblem,
    prev_candidate: &Candidate,
    prev_networks: &[NetworkId],
    problem: &MultiTaskProblem,
    networks: &[NetworkId],
) -> Candidate {
    let mut assignments = baseline::rr_network(problem).assignments().to_vec();
    let mut used = vec![false; prev_networks.len()];
    for (task, &net) in networks.iter().enumerate() {
        let Some(prev_task) = prev_networks
            .iter()
            .enumerate()
            .position(|(i, &p)| !used[i] && p == net)
        else {
            continue;
        };
        used[prev_task] = true;
        let layers = problem.shares(task).len();
        debug_assert_eq!(layers, prev_problem.shares(prev_task).len());
        for layer in 0..layers {
            assignments[problem.global_index(task, layer)] =
                prev_candidate.assignment(prev_problem.global_index(prev_task, layer));
        }
    }
    Candidate::from_assignments(assignments)
}

/// One cached tuning: everything needed to re-run the search that
/// produced it and check the result bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEntry {
    /// The tuned mix.
    pub mix: TaskMix,
    /// The platform it was tuned for.
    pub platform: PlatformPreset,
    /// The zoo scale it was tuned at.
    pub zoo: ZooPreset,
    /// The search that produced the mapping, with `workers: 0`.
    pub nmp: NmpConfig,
    /// The mapping the search produced.
    pub candidate: Candidate,
    /// Bit pattern of the search's fitness score.
    pub score_bits: u64,
}

impl MixEntry {
    /// Rebuilds this entry's problem and re-runs the cached `NmpConfig`'s
    /// search from scratch on `workers` threads (no bit depends on them),
    /// returning whether it reproduces the cached mapping and score **bit
    /// for bit**.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction and search errors.
    pub fn verify_replay(&self, workers: usize) -> Result<bool, ServeError> {
        let problem = self
            .mix
            .build_problem(self.platform.build(), &self.zoo.config())?;
        let mut nmp = self.nmp;
        nmp.workers = workers;
        let replayed = run_nmp(&problem, nmp, FitnessConfig::default())?;
        Ok(replayed.best == self.candidate && replayed.report.score.to_bits() == self.score_bits)
    }
}

/// The per-(platform × mix) tuning table, plus the last tuned mix the
/// drift threshold is measured against.
#[derive(Debug, Clone, Default)]
pub struct MappingCache {
    entries: Vec<MixEntry>,
    last_tuned: Option<Vec<NetworkId>>,
}

impl MappingCache {
    /// An empty cache.
    pub fn new() -> Self {
        MappingCache::default()
    }

    /// The cached tuning for an exact (platform, mix) pair, if any.
    pub fn lookup(&self, platform: PlatformPreset, mix: &TaskMix) -> Option<&MixEntry> {
        self.entries
            .iter()
            .find(|e| e.platform == platform && &e.mix == mix)
    }

    /// Caches a tuning and makes its mix the drift anchor.
    pub fn insert(&mut self, entry: MixEntry) {
        self.last_tuned = Some(entry.mix.networks());
        self.entries.push(entry);
    }

    /// Drift of `networks` from the last tuned mix; `None` before any
    /// tune.
    pub fn drift_from_last_tuned(&self, networks: &[NetworkId]) -> Option<f64> {
        self.last_tuned
            .as_deref()
            .map(|tuned| mix_drift(tuned, networks))
    }

    /// Every cached tuning, in insertion order.
    pub fn entries(&self) -> &[MixEntry] {
        &self.entries
    }

    /// Replays every cached tuning on `workers` threads ([`MixEntry::verify_replay`]);
    /// `true` only if each reproduces its mapping bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first replay error.
    pub fn verify_replays(&self, workers: usize) -> Result<bool, ServeError> {
        for entry in &self.entries {
            if !entry.verify_replay(workers)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_order_insensitive_multiset_distance() {
        use NetworkId::{Dotie, E2Depth, Halsie};
        assert_eq!(mix_drift(&[], &[]), 0.0);
        assert_eq!(mix_drift(&[Dotie, E2Depth], &[E2Depth, Dotie]), 0.0);
        assert_eq!(mix_drift(&[Dotie], &[E2Depth]), 1.0);
        assert_eq!(mix_drift(&[], &[Dotie]), 1.0);
        // One join onto two retained: 1 - 2/3.
        let d = mix_drift(&[Dotie, E2Depth], &[Dotie, E2Depth, Halsie]);
        assert!((d - 1.0 / 3.0).abs() < 1e-12);
        // Multiset: a duplicate counts.
        let d = mix_drift(&[Dotie, Dotie], &[Dotie]);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn carry_over_preserves_retained_assignments() {
        use ev_edge::nmp::ZooPreset;
        use NetworkId::{Dotie, E2Depth, Halsie};
        let zoo = ZooPreset::Small.config();
        let platform = || PlatformPreset::XavierAgx.build();
        let mix = |networks: Vec<NetworkId>| TaskMix::Custom {
            networks,
            delta_scale: 1.0,
        };
        let prev_nets = vec![Dotie, E2Depth];
        let prev_problem = mix(prev_nets.clone())
            .build_problem(platform(), &zoo)
            .unwrap();
        // A non-baseline previous mapping so copying is observable.
        let mut prev_assignments = baseline::rr_network(&prev_problem).assignments().to_vec();
        prev_assignments.rotate_left(1);
        let prev = Candidate::from_assignments(prev_assignments);

        let nets = vec![E2Depth, Halsie, Dotie];
        let problem = mix(nets.clone()).build_problem(platform(), &zoo).unwrap();
        let carried = carry_over_mapping(&prev_problem, &prev, &prev_nets, &problem, &nets);

        // Retained tenants keep their per-layer assignments (matched by
        // network, independent of task order)...
        for (task, prev_task, layers) in [
            (0usize, 1usize, problem.shares(0).len()),
            (2, 0, problem.shares(2).len()),
        ] {
            for layer in 0..layers {
                assert_eq!(
                    carried.assignment(problem.global_index(task, layer)),
                    prev.assignment(prev_problem.global_index(prev_task, layer)),
                    "task {task} layer {layer}"
                );
            }
        }
        // ...and the joiner takes its round-robin baseline slice.
        let rr = baseline::rr_network(&problem);
        for layer in 0..problem.shares(1).len() {
            assert_eq!(
                carried.assignment(problem.global_index(1, layer)),
                rr.assignment(problem.global_index(1, layer))
            );
        }
    }

    #[test]
    fn cache_lookup_is_exact_and_anchors_drift() {
        let cache = MappingCache::new();
        assert!(cache.drift_from_last_tuned(&[NetworkId::Dotie]).is_none());
        assert!(cache
            .lookup(
                PlatformPreset::XavierAgx,
                &TaskMix::Custom {
                    networks: vec![NetworkId::Dotie],
                    delta_scale: 1.0
                }
            )
            .is_none());
    }
}
