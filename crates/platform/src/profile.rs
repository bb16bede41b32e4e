//! Pre-recorded layer cost tables.
//!
//! The paper measures per-layer execution times at each precision with
//! TensorRT "before the search process begins" (§4.3.2 and §5). A
//! [`NetworkProfile`] is that recorded table: every (layer, PE, precision)
//! combination the platform supports, evaluated once through the latency
//! model, then looked up in O(1) by the Network Mapper's thousands of
//! candidate evaluations.

use crate::latency::{default_domain_density, layer_cost, CostEstimate, LayerContext};
use crate::pe::{PeId, Platform};
use crate::PlatformError;
use ev_nn::graph::LayerWorkload;
use ev_nn::Precision;

/// Slots per processing element: one per [`Precision`].
const PRECISIONS: usize = Precision::ALL.len();

/// The slot of `(pe, precision)`: PE-major, precisions in declaration
/// order (INT8, FP16, FP32).
fn slot(pe: PeId, precision: Precision) -> usize {
    pe.0 * PRECISIONS + precision as usize
}

/// Cost table of one layer: one slot per (PE, precision), empty where
/// the element does not support the precision.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerProfile {
    slots: Vec<Option<CostEstimate>>,
}

impl LayerProfile {
    /// The recorded cost for `(pe, precision)`, if that combination is
    /// supported. An id past the platform's last element has none.
    pub fn cost(&self, pe: PeId, precision: Precision) -> Option<CostEstimate> {
        if pe.0 >= self.slots.len() / PRECISIONS {
            return None;
        }
        self.slots[slot(pe, precision)]
    }
}

/// Recorded per-layer cost tables for one network on one platform.
///
/// # Examples
///
/// ```
/// use ev_platform::pe::Platform;
/// use ev_platform::profile::NetworkProfile;
/// use ev_nn::zoo::{NetworkId, ZooConfig};
/// use ev_nn::Precision;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::xavier_agx();
/// let graph = NetworkId::E2Depth.build(&ZooConfig::small())?;
/// let profile = NetworkProfile::record(&platform, &graph.workloads(), None)?;
/// let gpu = platform.id_by_name("gpu").expect("gpu");
/// assert!(profile.layer(0).cost(gpu, Precision::Fp32).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    layers: Vec<LayerProfile>,
}

impl NetworkProfile {
    /// Records the table by evaluating the platform model for every
    /// supported (layer, PE, precision) combination.
    ///
    /// `densities` supplies measured per-layer input densities (e.g. from a
    /// real forward pass); when absent, domain defaults apply (SNN layers
    /// sparse, ANN layers dense).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::ProfileShapeMismatch`] if `densities` is
    /// provided with a different length than `workloads`.
    pub fn record(
        platform: &Platform,
        workloads: &[LayerWorkload],
        densities: Option<&[f64]>,
    ) -> Result<NetworkProfile, PlatformError> {
        if let Some(d) = densities {
            if d.len() != workloads.len() {
                return Err(PlatformError::ProfileShapeMismatch {
                    layers: workloads.len(),
                    densities: d.len(),
                });
            }
        }
        let mut layers = Vec::with_capacity(workloads.len());
        for (i, w) in workloads.iter().enumerate() {
            let density = densities
                .map(|d| d[i])
                .unwrap_or_else(|| default_domain_density(w.domain));
            let mut slots = vec![None; platform.elements().len() * PRECISIONS];
            for pe in platform.pe_ids() {
                let element = platform.element(pe).expect("id from platform");
                for precision in element.supported_precisions() {
                    let ctx = LayerContext::default()
                        .with_precision(precision)
                        .with_density(density);
                    let cost = layer_cost(platform, pe, w, ctx).expect("supported combination");
                    slots[slot(pe, precision)] = Some(cost);
                }
            }
            layers.push(LayerProfile { slots });
        }
        Ok(NetworkProfile { layers })
    }

    /// Number of profiled layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The profile of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn layer(&self, index: usize) -> &LayerProfile {
        &self.layers[index]
    }

    /// Iterates over layer profiles.
    pub fn iter(&self) -> core::slice::Iter<'_, LayerProfile> {
        self.layers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_nn::zoo::{NetworkId, ZooConfig};

    fn sample() -> (Platform, NetworkProfile) {
        let platform = Platform::xavier_agx();
        let graph = NetworkId::SpikeFlowNet.build(&ZooConfig::small()).unwrap();
        let profile = NetworkProfile::record(&platform, &graph.workloads(), None).unwrap();
        (platform, profile)
    }

    #[test]
    fn covers_all_supported_combinations() {
        let (platform, profile) = sample();
        let gpu = platform.id_by_name("gpu").unwrap();
        let dla = platform.id_by_name("dla0").unwrap();
        for layer in profile.iter() {
            assert!(layer.cost(gpu, Precision::Fp32).is_some());
            assert!(layer.cost(gpu, Precision::Int8).is_some());
            assert!(layer.cost(dla, Precision::Fp32).is_none()); // unsupported
            assert!(layer.cost(dla, Precision::Int8).is_some());
            // 4 PEs: cpu (2 precisions) + gpu (3) + 2×dla (2 each) = 9.
            let supported = platform
                .pe_ids()
                .into_iter()
                .flat_map(|pe| Precision::ALL.map(|p| layer.cost(pe, p)))
                .flatten()
                .count();
            assert_eq!(supported, 9);
            let past_last = PeId(platform.elements().len());
            assert!(layer.cost(past_last, Precision::Int8).is_none());
            assert!(layer.cost(PeId(usize::MAX), Precision::Fp32).is_none());
        }
    }

    #[test]
    fn density_override_changes_costs() {
        let platform = Platform::xavier_agx();
        // MVSEC scale: compute dominates dispatch, so density is visible.
        let graph = NetworkId::AdaptiveSpikeNet
            .build(&ZooConfig::mvsec())
            .unwrap();
        let workloads = graph.workloads();
        let sparse = NetworkProfile::record(&platform, &workloads, None).unwrap();
        let dense_densities = vec![1.0; workloads.len()];
        let dense = NetworkProfile::record(&platform, &workloads, Some(&dense_densities)).unwrap();
        let gpu = platform.id_by_name("gpu").unwrap();
        // SNN layers profiled at default (sparse) density are cheaper.
        let s = sparse.layer(1).cost(gpu, Precision::Fp16).unwrap();
        let d = dense.layer(1).cost(gpu, Precision::Fp16).unwrap();
        assert!(s.latency < d.latency);
    }

    #[test]
    fn density_length_validated() {
        let platform = Platform::xavier_agx();
        let graph = NetworkId::Dotie.build(&ZooConfig::small()).unwrap();
        let err = NetworkProfile::record(&platform, &graph.workloads(), Some(&[0.5, 0.5]));
        assert!(matches!(
            err,
            Err(PlatformError::ProfileShapeMismatch { .. })
        ));
    }
}
