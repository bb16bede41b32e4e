//! Processing elements and the heterogeneous platform.
//!
//! **Substitution note**: the paper runs on an NVIDIA Jetson Xavier AGX
//! (8-core Carmel CPU, 512-core Volta GPU, 2× DLA) and
//! profiles layers with TensorRT. This module models those processing
//! elements analytically from public platform specifications; the profile
//! tables downstream play the role TensorRT measurements play in the paper.
//! Absolute numbers are model outputs; the relative structure (which PE
//! wins for which layer/precision, communication penalties) is what the
//! Network Mapper's search exercises.

use crate::PlatformError;
use core::fmt;
use ev_nn::Precision;

/// Kind of processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// General-purpose CPU cluster.
    Cpu,
    /// Programmable GPU.
    Gpu,
    /// Fixed-function deep-learning accelerator (dense only).
    Dla,
    /// Reconfigurable composable-dataflow fabric (FPGA-like): spatial
    /// pipelines stream sparse event data with no per-kernel launches.
    Dataflow,
}

impl fmt::Display for PeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeKind::Cpu => f.write_str("CPU"),
            PeKind::Gpu => f.write_str("GPU"),
            PeKind::Dla => f.write_str("DLA"),
            PeKind::Dataflow => f.write_str("DF"),
        }
    }
}

/// Index of a processing element within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId(pub usize);

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// Performance/energy description of one processing element.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingElement {
    /// Display name (e.g. "gpu", "dla0").
    pub name: String,
    /// Element kind.
    pub kind: PeKind,
    /// Peak MAC throughput per precision, MACs/second. Absent precision =
    /// unsupported on this element.
    pub peak_macs: Vec<(Precision, f64)>,
    /// Fraction of peak sustained by a well-batched kernel, in `(0, 1]`.
    pub efficiency_max: f64,
    /// Fraction of peak sustained by a single unbatched inference.
    pub efficiency_single: f64,
    /// Per-kernel dispatch/launch overhead, seconds.
    pub dispatch_overhead_s: f64,
    /// How much of input sparsity the element converts into skipped work,
    /// in `[0, 1]` (0 = dense-only datapath).
    pub sparse_efficiency: f64,
    /// Idle (leakage + clock) power attributed while busy, watts.
    pub idle_power_w: f64,
    /// Dynamic energy per MAC per precision, joules.
    pub energy_per_mac: Vec<(Precision, f64)>,
}

impl ProcessingElement {
    /// Peak MAC/s at `precision`, or an error when unsupported.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnsupportedPrecision`] if this element has
    /// no datapath for `precision`.
    pub fn peak_macs_at(&self, precision: Precision) -> Result<f64, PlatformError> {
        self.peak_macs
            .iter()
            .find(|(p, _)| *p == precision)
            .map(|(_, v)| *v)
            .ok_or(PlatformError::UnsupportedPrecision {
                pe: self.name.clone(),
                precision,
            })
    }

    /// Whether the element supports `precision`.
    pub fn supports(&self, precision: Precision) -> bool {
        self.peak_macs.iter().any(|(p, _)| *p == precision)
    }

    /// The precisions this element supports, highest fidelity first.
    pub fn supported_precisions(&self) -> Vec<Precision> {
        let mut out: Vec<Precision> = self.peak_macs.iter().map(|(p, _)| *p).collect();
        out.sort();
        out.reverse();
        out
    }

    /// Dynamic energy per MAC at `precision`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnsupportedPrecision`] if unsupported.
    pub fn energy_per_mac_at(&self, precision: Precision) -> Result<f64, PlatformError> {
        self.energy_per_mac
            .iter()
            .find(|(p, _)| *p == precision)
            .map(|(_, v)| *v)
            .ok_or(PlatformError::UnsupportedPrecision {
                pe: self.name.clone(),
                precision,
            })
    }

    /// Sustained efficiency at a batch size (dispatch amortization grows
    /// utilization from `efficiency_single` toward `efficiency_max`).
    pub fn efficiency_at(&self, batch: usize) -> f64 {
        let b = batch.max(1) as f64;
        self.efficiency_max - (self.efficiency_max - self.efficiency_single) / b
    }
}

/// A heterogeneous edge platform: processing elements sharing a unified
/// memory.
///
/// # Examples
///
/// ```
/// use ev_platform::pe::Platform;
/// use ev_nn::Precision;
///
/// let p = Platform::xavier_agx();
/// assert_eq!(p.elements().len(), 4); // CPU, GPU, DLA0, DLA1
/// assert!(!p.element_by_name("dla0").unwrap().supports(Precision::Fp32));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    elements: Vec<ProcessingElement>,
    /// Unified-memory bandwidth, bytes/second.
    pub memory_bandwidth: f64,
    /// Fixed latency of a cross-PE transfer through unified memory, seconds.
    pub transfer_base_latency_s: f64,
    /// DRAM access energy, joules/byte.
    pub dram_energy_per_byte: f64,
    /// Always-on module power (board rails, DRAM refresh), watts —
    /// consumed for the whole duration of a run.
    pub static_power_w: f64,
}

impl Platform {
    /// Builds a platform from elements.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty.
    pub fn new(
        name: impl Into<String>,
        elements: Vec<ProcessingElement>,
        memory_bandwidth: f64,
        transfer_base_latency_s: f64,
        dram_energy_per_byte: f64,
    ) -> Self {
        assert!(!elements.is_empty(), "platform needs at least one element");
        Platform {
            name: name.into(),
            elements,
            memory_bandwidth,
            transfer_base_latency_s,
            dram_energy_per_byte,
            static_power_w: 0.0,
        }
    }

    /// The NVIDIA Jetson Xavier AGX model used throughout the evaluation.
    ///
    /// Throughputs derive from public specifications (Volta GPU ≈1.4 FP32
    /// TFLOPS, 2× NVDLA ≈5 INT8 TOPS each, 8-core Carmel CPU, 137 GB/s
    /// LPDDR4x), derated by realistic kernel efficiencies.
    pub fn xavier_agx() -> Platform {
        let cpu = ProcessingElement {
            name: "cpu".to_string(),
            kind: PeKind::Cpu,
            peak_macs: vec![(Precision::Fp32, 36e9), (Precision::Int8, 144e9)],
            efficiency_max: 0.55,
            efficiency_single: 0.45,
            dispatch_overhead_s: 5e-6,
            sparse_efficiency: 0.95,
            idle_power_w: 1.5,
            energy_per_mac: vec![(Precision::Fp32, 50e-12), (Precision::Int8, 20e-12)],
        };
        let gpu = ProcessingElement {
            name: "gpu".to_string(),
            kind: PeKind::Gpu,
            // Effective (kernel-achievable) peaks: reduced-precision gains
            // on Jetson-class GPUs are well below the datasheet ratios at
            // batch 1 (launch/memory overheads), so FP16 ≈ 1.4x and
            // INT8 ≈ 2.1x over FP32.
            peak_macs: vec![
                (Precision::Fp32, 0.7e12),
                (Precision::Fp16, 1.0e12),
                (Precision::Int8, 1.5e12),
            ],
            efficiency_max: 0.5,
            efficiency_single: 0.3,
            dispatch_overhead_s: 30e-6,
            // Sparse gather/scatter kernels recover only part of the
            // sparsity (index handling, poor coalescing): caps the
            // sparse-execution gain near 2x, as observed on real GPUs.
            sparse_efficiency: 0.5,
            idle_power_w: 4.0,
            energy_per_mac: vec![
                (Precision::Fp32, 20e-12),
                (Precision::Fp16, 12e-12),
                (Precision::Int8, 8e-12),
            ],
        };
        let dla = |n: usize| ProcessingElement {
            name: format!("dla{n}"),
            kind: PeKind::Dla,
            peak_macs: vec![(Precision::Fp16, 0.5e12), (Precision::Int8, 1.0e12)],
            efficiency_max: 0.65,
            efficiency_single: 0.4,
            dispatch_overhead_s: 100e-6,
            sparse_efficiency: 0.0, // fixed-function dense datapath
            idle_power_w: 0.8,
            energy_per_mac: vec![(Precision::Fp16, 6e-12), (Precision::Int8, 4e-12)],
        };
        let mut platform = Platform::new(
            "Jetson Xavier AGX",
            vec![cpu, gpu, dla(0), dla(1)],
            137e9,
            20e-6,
            30e-12,
        );
        // Xavier module baseline draw (clocks, DRAM refresh, rails) — the
        // component Tegrastats measures regardless of load.
        platform.static_power_w = 10.0;
        platform
    }

    /// A Jetson-Orin-class platform: stronger GPU (Ampere-like), stronger
    /// DLAs, faster LPDDR5 memory. Used by the cross-platform extension
    /// experiments; same modeling philosophy as [`Platform::xavier_agx`].
    pub fn orin_like() -> Platform {
        let cpu = ProcessingElement {
            name: "cpu".to_string(),
            kind: PeKind::Cpu,
            peak_macs: vec![(Precision::Fp32, 90e9), (Precision::Int8, 360e9)],
            efficiency_max: 0.55,
            efficiency_single: 0.45,
            dispatch_overhead_s: 4e-6,
            sparse_efficiency: 0.95,
            idle_power_w: 2.0,
            energy_per_mac: vec![(Precision::Fp32, 35e-12), (Precision::Int8, 14e-12)],
        };
        let gpu = ProcessingElement {
            name: "gpu".to_string(),
            kind: PeKind::Gpu,
            peak_macs: vec![
                (Precision::Fp32, 2.0e12),
                (Precision::Fp16, 3.0e12),
                (Precision::Int8, 4.5e12),
            ],
            efficiency_max: 0.5,
            efficiency_single: 0.3,
            dispatch_overhead_s: 25e-6,
            sparse_efficiency: 0.55,
            idle_power_w: 6.0,
            energy_per_mac: vec![
                (Precision::Fp32, 12e-12),
                (Precision::Fp16, 7e-12),
                (Precision::Int8, 5e-12),
            ],
        };
        let dla = |n: usize| ProcessingElement {
            name: format!("dla{n}"),
            kind: PeKind::Dla,
            peak_macs: vec![(Precision::Fp16, 1.5e12), (Precision::Int8, 3.0e12)],
            efficiency_max: 0.65,
            efficiency_single: 0.4,
            dispatch_overhead_s: 80e-6,
            sparse_efficiency: 0.0,
            idle_power_w: 1.0,
            energy_per_mac: vec![(Precision::Fp16, 4e-12), (Precision::Int8, 2.5e-12)],
        };
        let mut platform = Platform::new(
            "Jetson Orin class",
            vec![cpu, gpu, dla(0), dla(1)],
            204e9,
            15e-6,
            25e-12,
        );
        platform.static_power_w = 12.0;
        platform
    }

    /// A Jetson-Nano-class platform: one small GPU, no DLA — the minimal
    /// commodity edge device. NMP's options shrink to CPU-vs-GPU and
    /// precision only.
    pub fn nano_like() -> Platform {
        let cpu = ProcessingElement {
            name: "cpu".to_string(),
            kind: PeKind::Cpu,
            peak_macs: vec![(Precision::Fp32, 12e9), (Precision::Int8, 48e9)],
            efficiency_max: 0.5,
            efficiency_single: 0.4,
            dispatch_overhead_s: 6e-6,
            sparse_efficiency: 0.95,
            idle_power_w: 1.0,
            energy_per_mac: vec![(Precision::Fp32, 60e-12), (Precision::Int8, 25e-12)],
        };
        let gpu = ProcessingElement {
            name: "gpu".to_string(),
            kind: PeKind::Gpu,
            peak_macs: vec![(Precision::Fp32, 0.23e12), (Precision::Fp16, 0.35e12)],
            efficiency_max: 0.5,
            efficiency_single: 0.3,
            dispatch_overhead_s: 40e-6,
            sparse_efficiency: 0.5,
            idle_power_w: 2.0,
            energy_per_mac: vec![(Precision::Fp32, 30e-12), (Precision::Fp16, 18e-12)],
        };
        let mut platform = Platform::new("Jetson Nano class", vec![cpu, gpu], 25e9, 30e-6, 40e-12);
        platform.static_power_w = 4.0;
        platform
    }

    /// An FPGA-like composable-dataflow platform: a host CPU plus two
    /// reconfigurable fabric partitions whose spatial pipelines stream
    /// sparse event data directly (EvGNN-style accelerators). Peak
    /// throughput sits well below the Jetson GPUs, but the fabric
    /// converts almost all input sparsity into skipped work
    /// (`sparse_efficiency` 0.9) and pays no per-kernel launch cost —
    /// so data-dependent workloads (graph networks, corner frontends)
    /// invert the usual PE ranking and stress the mapper's choices.
    pub fn composable_dataflow() -> Platform {
        let cpu = ProcessingElement {
            name: "cpu".to_string(),
            kind: PeKind::Cpu,
            peak_macs: vec![(Precision::Fp32, 24e9), (Precision::Int8, 96e9)],
            efficiency_max: 0.55,
            efficiency_single: 0.45,
            dispatch_overhead_s: 5e-6,
            sparse_efficiency: 0.95,
            idle_power_w: 1.2,
            energy_per_mac: vec![(Precision::Fp32, 55e-12), (Precision::Int8, 22e-12)],
        };
        let fabric = |n: usize| ProcessingElement {
            name: format!("df{n}"),
            kind: PeKind::Dataflow,
            peak_macs: vec![(Precision::Fp16, 0.3e12), (Precision::Int8, 0.6e12)],
            // Spatial pipelines sustain close to peak once configured,
            // and reconfiguration is amortized across a stream: no
            // per-kernel dispatch, high single-inference efficiency.
            efficiency_max: 0.8,
            efficiency_single: 0.7,
            dispatch_overhead_s: 2e-6,
            sparse_efficiency: 0.9,
            idle_power_w: 0.6,
            energy_per_mac: vec![(Precision::Fp16, 5e-12), (Precision::Int8, 3e-12)],
        };
        let mut platform = Platform::new(
            "Composable dataflow fabric",
            vec![cpu, fabric(0), fabric(1)],
            38e9,
            10e-6,
            35e-12,
        );
        platform.static_power_w = 5.0;
        platform
    }

    /// The platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The processing elements.
    pub fn elements(&self) -> &[ProcessingElement] {
        &self.elements
    }

    /// The element with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownPe`] for out-of-range ids.
    pub fn element(&self, id: PeId) -> Result<&ProcessingElement, PlatformError> {
        self.elements
            .get(id.0)
            .ok_or(PlatformError::UnknownPe { id })
    }

    /// Looks an element up by name.
    pub fn element_by_name(&self, name: &str) -> Option<&ProcessingElement> {
        self.elements.iter().find(|e| e.name == name)
    }

    /// The id of the element with `name`.
    pub fn id_by_name(&self, name: &str) -> Option<PeId> {
        self.elements.iter().position(|e| e.name == name).map(PeId)
    }

    /// All element ids.
    pub fn pe_ids(&self) -> Vec<PeId> {
        (0..self.elements.len()).map(PeId).collect()
    }

    /// Ids of elements supporting `precision`.
    pub fn pes_supporting(&self, precision: Precision) -> Vec<PeId> {
        self.pe_ids()
            .into_iter()
            .filter(|id| self.elements[id.0].supports(precision))
            .collect()
    }

    /// Scheduler queue count: one per element plus the unified-memory queue
    /// (the paper's §4.3.2 establishes "an execution queue for each device
    /// including unified memory").
    pub fn queue_count(&self) -> usize {
        self.elements.len() + 1
    }

    /// The queue index reserved for unified-memory transfers.
    pub fn memory_queue(&self) -> usize {
        self.elements.len()
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} PEs)", self.name, self.elements.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_has_expected_elements() {
        let p = Platform::xavier_agx();
        assert_eq!(p.elements().len(), 4);
        assert_eq!(p.element_by_name("gpu").unwrap().kind, PeKind::Gpu);
        assert_eq!(p.queue_count(), 5);
        assert_eq!(p.memory_queue(), 4);
        assert_eq!(p.id_by_name("cpu"), Some(PeId(0)));
        assert!(p.element(PeId(9)).is_err());
    }

    #[test]
    fn dla_is_dense_and_reduced_precision() {
        let p = Platform::xavier_agx();
        let dla = p.element_by_name("dla0").unwrap();
        assert!(!dla.supports(Precision::Fp32));
        assert!(dla.supports(Precision::Int8));
        assert_eq!(dla.sparse_efficiency, 0.0);
        assert!(dla.peak_macs_at(Precision::Fp32).is_err());
    }

    #[test]
    fn precision_filtering() {
        let p = Platform::xavier_agx();
        let fp32 = p.pes_supporting(Precision::Fp32);
        assert_eq!(fp32.len(), 2); // cpu + gpu
        let int8 = p.pes_supporting(Precision::Int8);
        assert_eq!(int8.len(), 4);
    }

    #[test]
    fn efficiency_grows_with_batch() {
        let p = Platform::xavier_agx();
        let gpu = p.element_by_name("gpu").unwrap();
        let e1 = gpu.efficiency_at(1);
        let e4 = gpu.efficiency_at(4);
        let e64 = gpu.efficiency_at(64);
        assert!(e1 < e4 && e4 < e64);
        assert!(e64 <= gpu.efficiency_max);
        assert_eq!(e1, gpu.efficiency_single);
    }

    #[test]
    fn supported_precisions_ordered() {
        let p = Platform::xavier_agx();
        let gpu = p.element_by_name("gpu").unwrap();
        assert_eq!(
            gpu.supported_precisions(),
            vec![Precision::Fp32, Precision::Fp16, Precision::Int8]
        );
    }

    #[test]
    fn orin_outpaces_xavier() {
        let xavier = Platform::xavier_agx();
        let orin = Platform::orin_like();
        let peak = |p: &Platform| {
            p.element_by_name("gpu")
                .unwrap()
                .peak_macs_at(Precision::Fp16)
                .unwrap()
        };
        assert!(peak(&orin) > 2.0 * peak(&xavier));
        assert!(orin.memory_bandwidth > xavier.memory_bandwidth);
    }

    #[test]
    fn nano_has_no_dla_and_no_int8_gpu() {
        let nano = Platform::nano_like();
        assert_eq!(nano.elements().len(), 2);
        assert!(nano.element_by_name("dla0").is_none());
        let gpu = nano.element_by_name("gpu").unwrap();
        assert!(!gpu.supports(Precision::Int8));
        assert_eq!(nano.pes_supporting(Precision::Int8).len(), 1); // cpu only
    }

    #[test]
    fn composable_dataflow_is_sparse_first() {
        let p = Platform::composable_dataflow();
        assert_eq!(p.elements().len(), 3);
        let df = p.element_by_name("df0").unwrap();
        assert_eq!(df.kind, PeKind::Dataflow);
        assert!(!df.supports(Precision::Fp32));
        // The fabric trades raw peak for sparsity conversion and cheap
        // dispatch — the inversion the heterogeneous mixes exercise.
        let gpu = Platform::xavier_agx();
        let jetson_gpu = gpu.element_by_name("gpu").unwrap();
        assert!(
            df.peak_macs_at(Precision::Int8).unwrap()
                < jetson_gpu.peak_macs_at(Precision::Int8).unwrap()
        );
        assert!(df.sparse_efficiency > jetson_gpu.sparse_efficiency);
        assert!(df.dispatch_overhead_s < jetson_gpu.dispatch_overhead_s);
        assert_eq!(PeKind::Dataflow.to_string(), "DF");
    }

    #[test]
    fn gpu_outpaces_cpu() {
        let p = Platform::xavier_agx();
        let gpu = p.element_by_name("gpu").unwrap();
        let cpu = p.element_by_name("cpu").unwrap();
        assert!(
            gpu.peak_macs_at(Precision::Fp32).unwrap()
                > 10.0 * cpu.peak_macs_at(Precision::Fp32).unwrap()
        );
    }
}
