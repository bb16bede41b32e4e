//! Task-accuracy degradation model.
//!
//! **Substitution note**: the paper evaluates quantized candidates on a
//! validation subset of MVSEC/DENSE with pretrained
//! weights. Without those assets, this module provides the interface the
//! Network Mapper needs — a monotone, layer-sensitive map from (per-layer
//! precision, DSFA aggregation aggressiveness) to metric degradation —
//! anchored to the paper's Table 2 endpoints: full precision reproduces the
//! baseline metric exactly, and the reference Ev-Edge configuration
//! reproduces the reported degraded metric.

use crate::quant::Precision;
use core::fmt;

/// The metric a task reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Average endpoint error (optical flow) — lower is better.
    Aee,
    /// Mean intersection-over-union (segmentation/tracking) — higher is
    /// better.
    MIou,
    /// Average absolute depth error — lower is better.
    AvgError,
}

impl MetricKind {
    /// Whether a larger metric value is better.
    pub const fn higher_is_better(self) -> bool {
        matches!(self, MetricKind::MIou)
    }

    /// Unit suffix for display.
    pub const fn unit(self) -> &'static str {
        match self {
            MetricKind::Aee => "AEE",
            MetricKind::MIou => "mIOU",
            MetricKind::AvgError => "AvgErr",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = if self.higher_is_better() {
            "↑"
        } else {
            "↓"
        };
        write!(f, "{}{arrow}", self.unit())
    }
}

/// Accuracy model of one task/network pair.
///
/// Degradation combines two sources:
///
/// * **Quantization noise**: each layer contributes noise proportional to
///   its share of total compute times its precision's
///   [`Precision::noise_weight`]; contributions combine in quadrature
///   (independent noise sources) and scale the network's anchored all-INT8
///   degradation.
/// * **Aggregation loss**: DSFA merging reduces temporal resolution; an
///   aggressiveness in `[0, 1]` scales the anchored aggregation
///   degradation.
///
/// # Examples
///
/// ```
/// use ev_nn::accuracy::{AccuracyModel, MetricKind};
/// use ev_nn::quant::Precision;
///
/// let model = AccuracyModel::new(MetricKind::Aee, 0.93, 0.05, 0.02);
/// // Full precision, no aggregation: no degradation.
/// let d0 = model.degradation(&[0.5, 0.5], &[Precision::Fp32, Precision::Fp32], 0.0);
/// assert_eq!(d0, 0.0);
/// // All-INT8 reaches the anchored degradation.
/// let d8 = model.degradation(&[0.5, 0.5], &[Precision::Int8, Precision::Int8], 0.0);
/// assert!((d8 - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyModel {
    metric: MetricKind,
    baseline: f64,
    /// Metric degradation when every layer runs INT8 (anchor).
    full_int8_degradation: f64,
    /// Metric degradation at maximum DSFA aggregation (anchor).
    full_aggregation_degradation: f64,
}

impl AccuracyModel {
    /// Creates a model anchored at the given degradations.
    ///
    /// # Panics
    ///
    /// Panics if either anchored degradation is negative.
    pub fn new(
        metric: MetricKind,
        baseline: f64,
        full_int8_degradation: f64,
        full_aggregation_degradation: f64,
    ) -> Self {
        assert!(
            full_int8_degradation >= 0.0 && full_aggregation_degradation >= 0.0,
            "anchored degradations must be non-negative"
        );
        AccuracyModel {
            metric,
            baseline,
            full_int8_degradation,
            full_aggregation_degradation,
        }
    }

    /// The metric kind.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// The full-precision baseline metric value (paper Table 2 "Baseline").
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Metric degradation for per-layer compute shares (must sum to ≈1),
    /// per-layer precisions, and DSFA aggregation aggressiveness `agg ∈
    /// [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `shares` and `precisions` lengths differ.
    pub fn degradation(&self, shares: &[f64], precisions: &[Precision], agg: f64) -> f64 {
        assert_eq!(
            shares.len(),
            precisions.len(),
            "one precision per layer share"
        );
        let quant_noise: f64 = shares
            .iter()
            .zip(precisions)
            .map(|(s, p)| s * p.noise_weight() * p.noise_weight())
            .sum::<f64>()
            .sqrt();
        self.full_int8_degradation * quant_noise
            + self.full_aggregation_degradation * agg.clamp(0.0, 1.0)
    }

    /// The metric value after applying `degradation`.
    pub fn degraded_metric(&self, degradation: f64) -> f64 {
        if self.metric.higher_is_better() {
            self.baseline - degradation
        } else {
            self.baseline + degradation
        }
    }
}

/// Uniform compute shares for `n` layers (helper for callers without a
/// workload breakdown).
pub fn uniform_shares(n: usize) -> Vec<f64> {
    if n == 0 {
        Vec::new()
    } else {
        vec![1.0 / n as f64; n]
    }
}

/// Normalizes layer MAC counts into compute shares.
pub fn shares_from_macs(macs: &[u64]) -> Vec<f64> {
    let total: u64 = macs.iter().sum();
    if total == 0 {
        return uniform_shares(macs.len());
    }
    macs.iter().map(|m| *m as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AccuracyModel {
        AccuracyModel::new(MetricKind::Aee, 1.0, 0.1, 0.04)
    }

    #[test]
    fn full_precision_no_aggregation_is_exact() {
        let m = model();
        let d = m.degradation(&uniform_shares(4), &[Precision::Fp32; 4], 0.0);
        assert_eq!(d, 0.0);
        assert_eq!(m.degraded_metric(d), 1.0);
    }

    #[test]
    fn all_int8_hits_anchor() {
        let m = model();
        let d = m.degradation(&uniform_shares(4), &[Precision::Int8; 4], 0.0);
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_aggregation_hits_anchor() {
        let m = model();
        let d = m.degradation(&uniform_shares(2), &[Precision::Fp32; 2], 1.0);
        assert!((d - 0.04).abs() < 1e-12);
        // Aggregation clamps above 1.
        let d2 = m.degradation(&uniform_shares(2), &[Precision::Fp32; 2], 5.0);
        assert!((d2 - 0.04).abs() < 1e-12);
    }

    #[test]
    fn degradation_is_monotone_in_precision() {
        let m = model();
        let shares = uniform_shares(3);
        let d32 = m.degradation(&shares, &[Precision::Fp32; 3], 0.0);
        let d16 = m.degradation(&shares, &[Precision::Fp16; 3], 0.0);
        let d8 = m.degradation(&shares, &[Precision::Int8; 3], 0.0);
        assert!(d32 < d16 && d16 < d8);
    }

    #[test]
    fn bigger_layers_matter_more() {
        let m = model();
        // INT8 on the 90%-of-compute layer hurts more than on the 10% layer.
        let d_big = m.degradation(&[0.9, 0.1], &[Precision::Int8, Precision::Fp32], 0.0);
        let d_small = m.degradation(&[0.9, 0.1], &[Precision::Fp32, Precision::Int8], 0.0);
        assert!(d_big > d_small);
    }

    #[test]
    fn higher_is_better_flips_direction() {
        let miou = AccuracyModel::new(MetricKind::MIou, 66.31, 2.0, 0.5);
        assert!(miou.degraded_metric(2.13) < 66.31);
        let aee = model();
        assert!(aee.degraded_metric(0.03) > 1.0);
    }

    #[test]
    fn share_helpers() {
        assert_eq!(uniform_shares(0).len(), 0);
        let s = shares_from_macs(&[100, 300]);
        assert!((s[0] - 0.25).abs() < 1e-12);
        assert!((s[1] - 0.75).abs() < 1e-12);
        let z = shares_from_macs(&[0, 0]);
        assert_eq!(z, vec![0.5, 0.5]);
    }

    #[test]
    fn metric_display() {
        assert_eq!(MetricKind::Aee.to_string(), "AEE↓");
        assert_eq!(MetricKind::MIou.to_string(), "mIOU↑");
    }
}
