//! Roofline latency and energy models.
//!
//! A layer's latency on a processing element is the dispatch overhead plus
//! the larger of its compute time and its memory time (a classic roofline).
//! Sparse-aware elements skip work in proportion to the activation density
//! and their [`crate::pe::ProcessingElement::sparse_efficiency`]; the DLA's
//! dense datapath pays full cost regardless of sparsity — this asymmetry is
//! exactly what makes the Network Mapper's choices non-trivial.

use crate::energy::Energy;
use crate::pe::{PeId, Platform};
use crate::PlatformError;
use ev_core::TimeDelta;
use ev_nn::graph::LayerWorkload;
use ev_nn::{Domain, Precision};

/// Execution context of one layer invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerContext {
    /// Numeric precision the layer runs at.
    pub precision: Precision,
    /// Input activation density in `[0, 1]` (1.0 = dense).
    pub density: f64,
    /// Batch size (merged sparse frames executed together).
    pub batch: usize,
}

impl Default for LayerContext {
    fn default() -> Self {
        LayerContext {
            precision: Precision::Fp32,
            density: 1.0,
            batch: 1,
        }
    }
}

impl LayerContext {
    /// Sets the precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the activation density.
    ///
    /// # Panics
    ///
    /// Panics if `density` is outside `[0, 1]`.
    pub fn with_density(mut self, density: f64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        self.density = density;
        self
    }

    /// Sets the batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be nonzero");
        self.batch = batch;
        self
    }
}

/// Latency + energy of one modeled execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Wall-clock latency.
    pub latency: TimeDelta,
    /// Energy consumed.
    pub energy: Energy,
    /// Effective MACs after sparsity skipping.
    pub effective_macs: f64,
}

/// Effective fraction of dense work a PE performs at a given input density.
///
/// `factor = density + (1 - density) · (1 - sparse_efficiency)`: a fully
/// sparse-capable element (`sparse_efficiency = 1`) does `density` of the
/// work; a dense-only element does all of it.
pub fn sparsity_work_factor(sparse_efficiency: f64, density: f64) -> f64 {
    let d = density.clamp(0.0, 1.0);
    d + (1.0 - d) * (1.0 - sparse_efficiency.clamp(0.0, 1.0))
}

/// Models one layer's execution on one processing element.
///
/// # Errors
///
/// Returns [`PlatformError`] when the element is unknown or does not
/// support the requested precision.
///
/// # Examples
///
/// ```
/// use ev_platform::latency::{layer_cost, LayerContext};
/// use ev_platform::pe::Platform;
/// use ev_nn::graph::LayerWorkload;
/// use ev_nn::{Domain, Precision};
///
/// # fn main() -> Result<(), ev_platform::PlatformError> {
/// let platform = Platform::xavier_agx();
/// let gpu = platform.id_by_name("gpu").expect("gpu exists");
/// let workload = LayerWorkload {
///     macs: 100_000_000,
///     input_bytes: 1 << 20,
///     output_bytes: 1 << 20,
///     param_bytes: 1 << 16,
///     domain: Domain::Ann,
/// };
/// let dense = layer_cost(&platform, gpu, &workload, LayerContext::default())?;
/// let sparse = layer_cost(&platform, gpu, &workload,
///     LayerContext::default().with_density(0.05))?;
/// assert!(sparse.latency < dense.latency);
/// # Ok(())
/// # }
/// ```
pub fn layer_cost(
    platform: &Platform,
    pe: PeId,
    workload: &LayerWorkload,
    ctx: LayerContext,
) -> Result<CostEstimate, PlatformError> {
    let element = platform.element(pe)?;
    let peak = element.peak_macs_at(ctx.precision)?;
    let batch = ctx.batch.max(1) as f64;

    let factor = sparsity_work_factor(element.sparse_efficiency, ctx.density);
    let effective_macs = workload.macs as f64 * factor * batch;

    let efficiency = element.efficiency_at(ctx.batch);
    let t_compute = effective_macs / (peak * efficiency);

    let precision_scale = ctx.precision.bytes() as f64 / 4.0;
    let activation_bytes =
        (workload.input_bytes + workload.output_bytes) as f64 * precision_scale * batch;
    let param_bytes = workload.param_bytes as f64 * precision_scale;
    let bytes = activation_bytes + param_bytes;
    let t_mem = bytes / platform.memory_bandwidth;

    let t_total = element.dispatch_overhead_s + t_compute.max(t_mem);

    let e_compute = effective_macs * element.energy_per_mac_at(ctx.precision)?;
    let e_mem = bytes * platform.dram_energy_per_byte;
    let e_static = element.idle_power_w * t_total;
    Ok(CostEstimate {
        latency: TimeDelta::from_secs_f64(t_total),
        energy: Energy::from_joules(e_compute + e_mem + e_static),
        effective_macs,
    })
}

/// Models a cross-PE activation transfer through unified memory.
///
/// Same-element "transfers" are free (data stays in place). Cross-element
/// transfers pay the fixed base latency plus bandwidth time, and DRAM
/// energy for a write + read of the payload.
pub fn transfer_cost(
    platform: &Platform,
    src: PeId,
    dst: PeId,
    bytes: u64,
    precision: Precision,
) -> CostEstimate {
    if src == dst {
        return CostEstimate {
            latency: TimeDelta::ZERO,
            energy: Energy::ZERO,
            effective_macs: 0.0,
        };
    }
    let payload = bytes as f64 * precision.bytes() as f64 / 4.0;
    let t = platform.transfer_base_latency_s + payload / platform.memory_bandwidth;
    let e = 2.0 * payload * platform.dram_energy_per_byte;
    CostEstimate {
        latency: TimeDelta::from_secs_f64(t),
        energy: Energy::from_joules(e),
        effective_macs: 0.0,
    }
}

/// Estimated density of the activations entering an SNN layer versus an
/// ANN layer when the workload runs on sparse inputs.
///
/// SNN layers see spike trains (very sparse); ANN layers see dense feature
/// maps unless the caller measured otherwise.
pub fn default_domain_density(domain: Domain) -> f64 {
    match domain {
        Domain::Snn => 0.08,
        Domain::Ann => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(macs: u64) -> LayerWorkload {
        LayerWorkload {
            macs,
            input_bytes: 1 << 18,
            output_bytes: 1 << 18,
            param_bytes: 1 << 14,
            domain: Domain::Ann,
        }
    }

    fn platform() -> Platform {
        Platform::xavier_agx()
    }

    #[test]
    fn sparsity_factor_bounds() {
        assert_eq!(sparsity_work_factor(1.0, 0.1), 0.1);
        assert_eq!(sparsity_work_factor(0.0, 0.1), 1.0);
        let mid = sparsity_work_factor(0.5, 0.1);
        assert!(mid > 0.1 && mid < 1.0);
    }

    #[test]
    fn gpu_faster_than_cpu_for_big_layers() {
        let p = platform();
        let w = workload(500_000_000);
        let gpu = layer_cost(
            &p,
            p.id_by_name("gpu").unwrap(),
            &w,
            LayerContext::default(),
        )
        .unwrap();
        let cpu = layer_cost(
            &p,
            p.id_by_name("cpu").unwrap(),
            &w,
            LayerContext::default(),
        )
        .unwrap();
        assert!(gpu.latency < cpu.latency);
    }

    #[test]
    fn cpu_can_win_tiny_layers() {
        // Dispatch overhead dominates tiny layers; the CPU's 5 µs beats the
        // GPU's 30 µs.
        let p = platform();
        let w = LayerWorkload {
            macs: 10_000,
            input_bytes: 1 << 10,
            output_bytes: 1 << 10,
            param_bytes: 1 << 8,
            domain: Domain::Ann,
        };
        let gpu = layer_cost(
            &p,
            p.id_by_name("gpu").unwrap(),
            &w,
            LayerContext::default(),
        )
        .unwrap();
        let cpu = layer_cost(
            &p,
            p.id_by_name("cpu").unwrap(),
            &w,
            LayerContext::default(),
        )
        .unwrap();
        assert!(cpu.latency < gpu.latency);
    }

    #[test]
    fn lower_precision_is_faster_and_cheaper() {
        let p = platform();
        let w = workload(1_000_000_000);
        let gpu = p.id_by_name("gpu").unwrap();
        let f32c = layer_cost(&p, gpu, &w, LayerContext::default()).unwrap();
        let f16c = layer_cost(
            &p,
            gpu,
            &w,
            LayerContext::default().with_precision(Precision::Fp16),
        )
        .unwrap();
        let i8c = layer_cost(
            &p,
            gpu,
            &w,
            LayerContext::default().with_precision(Precision::Int8),
        )
        .unwrap();
        assert!(f16c.latency < f32c.latency);
        assert!(i8c.latency < f16c.latency);
        assert!(i8c.energy < f32c.energy);
    }

    #[test]
    fn density_helps_gpu_but_not_dla() {
        let p = platform();
        let w = workload(1_000_000_000);
        let sparse = LayerContext::default()
            .with_precision(Precision::Int8)
            .with_density(0.05);
        let dense = LayerContext::default().with_precision(Precision::Int8);
        let gpu = p.id_by_name("gpu").unwrap();
        let dla = p.id_by_name("dla0").unwrap();
        let gpu_sparse = layer_cost(&p, gpu, &w, sparse).unwrap();
        let gpu_dense = layer_cost(&p, gpu, &w, dense).unwrap();
        let dla_sparse = layer_cost(&p, dla, &w, sparse).unwrap();
        let dla_dense = layer_cost(&p, dla, &w, dense).unwrap();
        assert!(gpu_sparse.latency < gpu_dense.latency);
        assert_eq!(dla_sparse.latency, dla_dense.latency);
    }

    #[test]
    fn batching_amortizes_overhead() {
        let p = platform();
        let w = workload(50_000_000);
        let gpu = p.id_by_name("gpu").unwrap();
        let single = layer_cost(&p, gpu, &w, LayerContext::default()).unwrap();
        let batched = layer_cost(&p, gpu, &w, LayerContext::default().with_batch(8)).unwrap();
        let per_sample_single = single.latency.as_secs_f64();
        let per_sample_batched = batched.latency.as_secs_f64() / 8.0;
        assert!(
            per_sample_batched < per_sample_single,
            "batched {per_sample_batched} should beat single {per_sample_single}"
        );
    }

    #[test]
    fn unsupported_precision_errors() {
        let p = platform();
        let w = workload(1_000_000);
        let dla = p.id_by_name("dla0").unwrap();
        assert!(matches!(
            layer_cost(&p, dla, &w, LayerContext::default()),
            Err(PlatformError::UnsupportedPrecision { .. })
        ));
    }

    #[test]
    fn transfers_cost_nothing_on_same_pe() {
        let p = platform();
        let gpu = p.id_by_name("gpu").unwrap();
        let dla = p.id_by_name("dla0").unwrap();
        let same = transfer_cost(&p, gpu, gpu, 1 << 20, Precision::Fp32);
        assert_eq!(same.latency, TimeDelta::ZERO);
        let cross = transfer_cost(&p, gpu, dla, 1 << 20, Precision::Fp32);
        assert!(cross.latency > TimeDelta::ZERO);
        // Reduced precision shrinks payload time.
        let cross8 = transfer_cost(&p, gpu, dla, 1 << 20, Precision::Int8);
        assert!(cross8.latency < cross.latency);
    }

    #[test]
    fn snn_density_default_is_sparse() {
        assert!(default_domain_density(Domain::Snn) < 0.2);
        assert_eq!(default_domain_density(Domain::Ann), 1.0);
    }
}
