//! Real forward execution of network graphs.
//!
//! The executor runs genuine arithmetic (via `ev-sparse` kernels) over a
//! network graph: convolutions over event/spike tensors, dense kernels for
//! ANN layers, and stateful LIF dynamics for spiking layers. Weights are
//! synthesized deterministically (the paper uses pretrained checkpoints we
//! do not have; Ev-Edge itself only needs shapes, work, and activation
//! sparsity, which real execution provides).
//!
//! # Which convolution runs
//!
//! The executor picks the kernel of every convolution over a
//! [`SparseTensor`]: each `SpikingConv2d` (whose dense inputs are made
//! sparse first), and each `Conv2d` or `Head` fed an
//! [`Activation::Sparse`]. Below `DENSE_KERNEL_DENSITY` (0.1) nonzeros per
//! `[C, H, W]` element it runs `conv2d_sparse`; at or above it,
//! `conv2d_dense` on [`SparseTensor::to_dense`]. The test reads
//! `nnz / (C·H·W)` in O(1). A dense input always runs `conv2d_dense`.
//!
//! The threshold sits between the densities at which the scatter stops
//! beating the dense kernel on the layers the zoo networks run over sparse
//! inputs at 64×64 (`cargo bench -p ev-bench --bench sparse_conv`, three
//! runs on a 2-vCPU x86-64 host):
//!
//! | layer                                        | crossover |
//! |----------------------------------------------|-----------|
//! | 2→8, 3×3, stride 2 on 64×64 (encoder inputs) | ≈0.05     |
//! | 2→20, 5×5 on 64×64 (DOTIE)                   | ≈0.08     |
//! | 64→64, 3×3 on 4×4 (encoder residuals)        | ≈0.15     |
//!
//! On 64×64 frames of density 0.3, thresholds from 0.05 to 0.15 ran the
//! four networks of evbench's `kernels_dense` within 1% of each other, and
//! 0.2 about 2% slower.
//!
//! Either way the layer reports the scatter's work: the dense branch
//! counts it with `sparse_conv_work`. So the op counts stay analytic and
//! do not depend on which kernel ran, and neither do Fig. 1's effectual
//! fractions.
//!
//! The choice never changes an output bit. Both kernels add each output's
//! terms in (ci, iy, ix) order, and the dense one also adds the zero
//! products the scatter skips. With a finite weight such a product is
//! `±0.0`, which changes only a running sum of `-0.0`, and a sum that
//! starts at `+0.0` or at a bias other than `-0.0` never is `-0.0`. That
//! is the precondition: finite weights and no `-0.0` bias element.
//! `make_weights` meets it, since it scales `2u - 1` (never `-0.0`) by a
//! positive finite factor, and a test checks every zoo network at seeds
//! 0–31.

use crate::graph::NetworkGraph;
use crate::layer::{LayerId, LayerKind, Shape};
use crate::snn::LifState;
use crate::NnError;
use ev_sparse::coo::SparseTensor;
use ev_sparse::csr::CsrMatrix;
use ev_sparse::dense::Tensor;
use ev_sparse::graph::{gather_mean, grid_adjacency};
use ev_sparse::opcount::{OpCount, WorkComparison};
use ev_sparse::ops::conv::{
    conv2d_dense, conv2d_sparse, conv_transpose2d_dense, sparse_conv_work, Conv2dSpec,
};
use ev_sparse::ops::linear::{linear, relu_in_place};
use ev_sparse::ops::pool::{max_pool2d, Pool2dSpec};
use ev_sparse::SparseError;
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;

/// Input density (nonzeros per `[C, H, W]` element) from which a
/// convolution over a sparse input runs `conv2d_dense` instead of
/// `conv2d_sparse`. The module docs give the measured crossovers it is
/// taken from.
const DENSE_KERNEL_DENSITY: f64 = 0.1;

/// A value flowing along a graph edge.
#[derive(Debug, Clone, PartialEq)]
pub enum Activation {
    /// Sparse `[C, H, W]` tensor (event frames, spike maps).
    Sparse(SparseTensor),
    /// Dense `[C, H, W]` tensor.
    Dense(Tensor),
    /// Flat feature vector.
    Flat(Vec<f32>),
}

impl Activation {
    /// Fraction of nonzero elements.
    pub fn density(&self) -> f64 {
        match self {
            Activation::Sparse(s) => s.density(),
            Activation::Dense(d) => d.density(),
            Activation::Flat(v) => {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().filter(|x| **x != 0.0).count() as f64 / v.len() as f64
                }
            }
        }
    }

    /// A dense `[C, H, W]` view: dense tensors are borrowed, sparse ones
    /// converted.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ActivationKind`] for flat activations.
    pub fn to_dense_chw(&self) -> Result<Cow<'_, Tensor>, NnError> {
        match self {
            Activation::Sparse(s) => Ok(Cow::Owned(s.to_dense())),
            Activation::Dense(d) => Ok(Cow::Borrowed(d)),
            Activation::Flat(_) => Err(NnError::ActivationKind {
                expected: "[C,H,W]",
                actual: "flat vector",
            }),
        }
    }

    /// Flattens to a feature vector.
    pub fn to_flat(&self) -> Vec<f32> {
        match self {
            Activation::Sparse(s) => s.to_dense().into_vec(),
            Activation::Dense(d) => d.as_slice().to_vec(),
            Activation::Flat(v) => v.clone(),
        }
    }
}

/// Per-layer record from one forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTrace {
    /// The layer.
    pub layer: LayerId,
    /// Work performed vs dense-equivalent work.
    pub work: WorkComparison,
    /// Density of the layer's output activation.
    pub output_density: f64,
}

/// Result of one forward pass (one timestep for SNNs).
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardResult {
    /// Output activations of the graph's sink layers.
    pub outputs: Vec<(LayerId, Activation)>,
    /// Per-layer execution traces in topological order.
    pub traces: Vec<LayerTrace>,
}

impl ForwardResult {
    /// Sum of actual work over all layers.
    pub fn total_actual(&self) -> OpCount {
        self.traces.iter().map(|t| t.work.actual).sum()
    }

    /// Sum of dense-equivalent work over all layers.
    pub fn total_dense_equivalent(&self) -> OpCount {
        self.traces.iter().map(|t| t.work.dense_equivalent).sum()
    }
}

/// Synthesized parameters of one layer.
#[derive(Debug, Clone)]
struct LayerWeights {
    weight: Tensor,
    bias: Vec<f32>,
}

/// Executes a [`NetworkGraph`] with deterministic synthetic weights.
///
/// # Examples
///
/// ```
/// use ev_nn::forward::{Activation, Executor};
/// use ev_nn::zoo::{self, ZooConfig};
/// use ev_sparse::coo::{SparseEntry, SparseTensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ZooConfig::tiny();
/// let graph = zoo::dotie(&cfg)?;
/// let mut exec = Executor::new(graph, 42);
/// let input = SparseTensor::from_entries(cfg.input_channels, cfg.height, cfg.width, vec![
///     SparseEntry::new(0, 4, 4, 1.0),
/// ])?;
/// let result = exec.run(&Activation::Sparse(input))?;
/// assert_eq!(result.traces.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Executor {
    graph: NetworkGraph,
    weights: HashMap<LayerId, LayerWeights>,
    lif_states: HashMap<LayerId, LifState>,
    /// CSR grid adjacencies for graph-conv layers, built on first use.
    adjacency: HashMap<LayerId, CsrMatrix>,
}

impl Executor {
    /// Creates an executor, synthesizing weights from `seed`.
    pub fn new(graph: NetworkGraph, seed: u64) -> Self {
        let mut weights = HashMap::new();
        let mut lif_states = HashMap::new();
        for layer in graph.layers() {
            let lseed = seed
                .wrapping_mul(0x100_0003)
                .wrapping_add(layer.id.0 as u64);
            match &layer.kind {
                LayerKind::Conv2d(c) => {
                    weights.insert(
                        layer.id,
                        make_weights(
                            &[c.out_channels, c.in_channels, c.kernel, c.kernel],
                            c.in_channels * c.kernel * c.kernel,
                            c.out_channels,
                            lseed,
                            1.0,
                        ),
                    );
                }
                LayerKind::SpikingConv2d { conv: c, .. } => {
                    // Higher gain so synthetic spiking layers actually fire.
                    weights.insert(
                        layer.id,
                        make_weights(
                            &[c.out_channels, c.in_channels, c.kernel, c.kernel],
                            c.in_channels * c.kernel * c.kernel,
                            c.out_channels,
                            lseed,
                            3.0,
                        ),
                    );
                    if let Shape::Chw { c: oc, h, w } = graph.output_shape(layer.id) {
                        let lif_cfg = match &layer.kind {
                            LayerKind::SpikingConv2d { lif, .. } => *lif,
                            _ => unreachable!(),
                        };
                        lif_states.insert(layer.id, LifState::new(oc, h, w, lif_cfg));
                    }
                }
                LayerKind::ConvTranspose2d(c) => {
                    weights.insert(
                        layer.id,
                        make_weights(
                            &[c.in_channels, c.out_channels, c.kernel, c.kernel],
                            c.in_channels * c.kernel * c.kernel,
                            c.out_channels,
                            lseed,
                            1.0,
                        ),
                    );
                }
                LayerKind::Linear {
                    in_features,
                    out_features,
                } => {
                    weights.insert(
                        layer.id,
                        make_weights(
                            &[*out_features, *in_features],
                            *in_features,
                            *out_features,
                            lseed,
                            1.0,
                        ),
                    );
                }
                LayerKind::Head {
                    in_channels,
                    out_channels,
                } => {
                    weights.insert(
                        layer.id,
                        make_weights(
                            &[*out_channels, *in_channels, 1, 1],
                            *in_channels,
                            *out_channels,
                            lseed,
                            1.0,
                        ),
                    );
                }
                LayerKind::GraphConv(g) => {
                    weights.insert(
                        layer.id,
                        make_weights(
                            &[g.out_features, g.in_features],
                            g.in_features,
                            g.out_features,
                            lseed,
                            1.0,
                        ),
                    );
                }
                LayerKind::MaxPool2d { .. } | LayerKind::Concat => {}
            }
        }
        Executor {
            graph,
            weights,
            lif_states,
            adjacency: HashMap::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &NetworkGraph {
        &self.graph
    }

    /// Resets all spiking-layer membranes (call between inferences).
    pub fn reset_state(&mut self) {
        for lif in self.lif_states.values_mut() {
            lif.reset();
        }
    }

    /// Runs one forward pass (one timestep for spiking layers; membranes
    /// persist across calls until [`Executor::reset_state`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when kernel execution fails (shape bugs) or an
    /// activation kind does not match a layer's expectation.
    pub fn run(&mut self, input: &Activation) -> Result<ForwardResult, NnError> {
        let mut values: Vec<Option<Activation>> = vec![None; self.graph.len()];
        let mut traces = Vec::with_capacity(self.graph.len());
        let layers: Vec<_> = self.graph.layers().to_vec();
        for layer in &layers {
            let preds = self.graph.predecessors(layer.id).to_vec();
            let inputs: Vec<&Activation> = if preds.is_empty() {
                vec![input]
            } else {
                preds
                    .iter()
                    .map(|p| values[p.0].as_ref().ok_or(NnError::UnknownLayer { id: *p }))
                    .collect::<Result<_, _>>()?
            };
            let (out, work) = self.execute_layer(layer.id, &layer.kind, &inputs)?;
            let density = out.density();
            traces.push(LayerTrace {
                layer: layer.id,
                work,
                output_density: density,
            });
            values[layer.id.0] = Some(out);
        }
        let outputs = self
            .graph
            .outputs()
            .into_iter()
            .map(|id| (id, values[id.0].take().expect("computed above")))
            .collect();
        Ok(ForwardResult { outputs, traces })
    }

    /// Runs a sequence of timestep inputs through the network (spiking
    /// membranes persist across the sequence), resetting state first.
    ///
    /// # Errors
    ///
    /// Propagates the first failing timestep's error.
    pub fn run_sequence(&mut self, inputs: &[Activation]) -> Result<Vec<ForwardResult>, NnError> {
        self.reset_state();
        inputs.iter().map(|i| self.run(i)).collect()
    }

    fn execute_layer(
        &mut self,
        id: LayerId,
        kind: &LayerKind,
        inputs: &[&Activation],
    ) -> Result<(Activation, WorkComparison), NnError> {
        let wrap = |e: ev_sparse::SparseError| NnError::Kernel {
            layer: id,
            source: e,
        };
        match kind {
            LayerKind::Conv2d(c) => {
                let spec = Conv2dSpec {
                    stride: c.stride,
                    padding: c.padding,
                };
                let (mut out, work) = conv2d_biased(id, inputs[0], &self.weights[&id], spec)?;
                let (relu_ops, _) = relu_in_place(&mut out);
                let work = WorkComparison {
                    actual: work.actual + relu_ops,
                    dense_equivalent: work.dense_equivalent + relu_ops,
                };
                Ok((Activation::Dense(out), work))
            }
            LayerKind::SpikingConv2d { conv: c, .. } => {
                let spec = Conv2dSpec {
                    stride: c.stride,
                    padding: c.padding,
                };
                let lw = &self.weights[&id];
                let sparse_in = match inputs[0] {
                    Activation::Sparse(s) => Cow::Borrowed(s),
                    other => {
                        let dense = other.to_dense_chw()?;
                        Cow::Owned(SparseTensor::from_dense(&dense, 0.0).map_err(wrap)?)
                    }
                };
                let (current, conv_work) =
                    conv2d_events(&sparse_in, &lw.weight, None, spec).map_err(wrap)?;
                let lif = self
                    .lif_states
                    .get_mut(&id)
                    .expect("spiking layer has LIF state");
                let (spikes, lif_ops) = lif.step(&current).map_err(wrap)?;
                let work = WorkComparison {
                    actual: conv_work.actual + lif_ops,
                    dense_equivalent: conv_work.dense_equivalent + lif_ops,
                };
                Ok((Activation::Sparse(spikes), work))
            }
            LayerKind::ConvTranspose2d(c) => {
                let dense = inputs[0].to_dense_chw()?;
                let lw = &self.weights[&id];
                let (mut out, ops) =
                    conv_transpose2d_dense(&dense, &lw.weight, Some(&lw.bias), c.stride, c.padding)
                        .map_err(wrap)?;
                let (relu_ops, _) = relu_in_place(&mut out);
                let total = ops + relu_ops;
                Ok((
                    Activation::Dense(out),
                    WorkComparison {
                        actual: total,
                        dense_equivalent: total,
                    },
                ))
            }
            LayerKind::MaxPool2d { kernel } => {
                let dense = inputs[0].to_dense_chw()?;
                let (out, ops) = max_pool2d(&dense, Pool2dSpec::new(*kernel)).map_err(wrap)?;
                Ok((
                    Activation::Dense(out),
                    WorkComparison {
                        actual: ops,
                        dense_equivalent: ops,
                    },
                ))
            }
            LayerKind::Linear { .. } => {
                let x = inputs[0].to_flat();
                let lw = &self.weights[&id];
                let (y, ops) = linear(&lw.weight, &x, Some(&lw.bias)).map_err(wrap)?;
                Ok((
                    Activation::Flat(y),
                    WorkComparison {
                        actual: ops,
                        dense_equivalent: ops,
                    },
                ))
            }
            LayerKind::Concat => {
                let all_sparse = inputs.iter().all(|a| matches!(a, Activation::Sparse(_)));
                if all_sparse {
                    let tensors: Vec<SparseTensor> = inputs
                        .iter()
                        .map(|a| match a {
                            Activation::Sparse(s) => s.clone(),
                            _ => unreachable!(),
                        })
                        .collect();
                    let out = SparseTensor::concat_channels(&tensors).map_err(wrap)?;
                    let ops = OpCount {
                        macs: 0,
                        adds: 0,
                        bytes_read: out.storage_bytes(),
                        bytes_written: out.storage_bytes(),
                    };
                    Ok((
                        Activation::Sparse(out),
                        WorkComparison {
                            actual: ops,
                            dense_equivalent: ops,
                        },
                    ))
                } else {
                    let denses: Vec<Cow<'_, Tensor>> = inputs
                        .iter()
                        .map(|a| a.to_dense_chw())
                        .collect::<Result<_, _>>()?;
                    let out = concat_dense_channels(&denses).map_err(wrap)?;
                    let ops = OpCount {
                        macs: 0,
                        adds: 0,
                        bytes_read: (out.len() * 4) as u64,
                        bytes_written: (out.len() * 4) as u64,
                    };
                    Ok((
                        Activation::Dense(out),
                        WorkComparison {
                            actual: ops,
                            dense_equivalent: ops,
                        },
                    ))
                }
            }
            LayerKind::GraphConv(g) => {
                let dense = inputs[0].to_dense_chw()?;
                let (f_in, f_out) = (g.in_features, g.out_features);
                let (h, w) = (g.nodes_h, g.nodes_w);
                let nodes = g.nodes();
                // Re-layout [C,H,W] into node-major [nodes, features] for the
                // neighborhood gather.
                let mut node_feats = Vec::with_capacity(nodes * f_in);
                for n in 0..nodes {
                    let (r, c) = (n / w, n % w);
                    for k in 0..f_in {
                        node_feats.push(dense.get(&[k, r, c]));
                    }
                }
                let x = Tensor::from_vec(&[nodes, f_in], node_feats).map_err(wrap)?;
                if let std::collections::hash_map::Entry::Vacant(e) = self.adjacency.entry(id) {
                    e.insert(grid_adjacency(h, w, g.radius).map_err(wrap)?);
                }
                let adj = &self.adjacency[&id];
                let (gathered, gather_work) = gather_mean(adj, &x).map_err(wrap)?;
                // Per-node linear transform + ReLU, back into [C,H,W] layout.
                let lw = &self.weights[&id];
                let wslice = lw.weight.as_slice();
                let mut out = Tensor::zeros(&[f_out, h, w]);
                for n in 0..nodes {
                    let (r, c) = (n / w, n % w);
                    for o in 0..f_out {
                        let mut acc = lw.bias[o];
                        for k in 0..f_in {
                            acc += wslice[o * f_in + k] * gathered.get(&[n, k]);
                        }
                        out.set(&[o, r, c], acc.max(0.0));
                    }
                }
                let transform = OpCount {
                    macs: (nodes * f_in * f_out) as u64,
                    adds: (nodes * f_out) as u64,
                    bytes_read: ((nodes * f_in + f_in * f_out + f_out) * 4) as u64,
                    bytes_written: (nodes * f_out * 4) as u64,
                };
                let work = WorkComparison {
                    actual: gather_work.actual + transform,
                    dense_equivalent: gather_work.dense_equivalent + transform,
                };
                Ok((Activation::Dense(out), work))
            }
            LayerKind::Head { .. } => {
                let spec = Conv2dSpec {
                    stride: 1,
                    padding: 0,
                };
                let (out, work) = conv2d_biased(id, inputs[0], &self.weights[&id], spec)?;
                Ok((Activation::Dense(out), work))
            }
        }
    }
}

/// A convolution with bias over a `[C, H, W]` activation: a sparse input on
/// the kernel [`conv2d_events`] picks, a dense one on `conv2d_dense`.
fn conv2d_biased(
    id: LayerId,
    input: &Activation,
    lw: &LayerWeights,
    spec: Conv2dSpec,
) -> Result<(Tensor, WorkComparison), NnError> {
    let wrap = |source| NnError::Kernel { layer: id, source };
    match input {
        Activation::Sparse(s) => conv2d_events(s, &lw.weight, Some(&lw.bias), spec).map_err(wrap),
        other => {
            let dense = other.to_dense_chw()?;
            let (out, ops) =
                conv2d_dense(&dense, &lw.weight, Some(&lw.bias), spec).map_err(wrap)?;
            Ok((
                out,
                WorkComparison {
                    actual: ops,
                    dense_equivalent: ops,
                },
            ))
        }
    }
}

/// Whether a convolution over `input` runs `conv2d_dense`: whether its
/// density is at least [`DENSE_KERNEL_DENSITY`].
fn runs_dense(input: &SparseTensor) -> bool {
    input.density() >= DENSE_KERNEL_DENSITY
}

/// A convolution over a sparse input, on the kernel [`runs_dense`] picks.
/// Either way it returns the scatter's work, so the op counts do not
/// depend on the choice.
fn conv2d_events(
    input: &SparseTensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    spec: Conv2dSpec,
) -> Result<(Tensor, WorkComparison), SparseError> {
    if !runs_dense(input) {
        return conv2d_sparse(input, weight, bias, spec);
    }
    let (out, _) = conv2d_dense(&input.to_dense(), weight, bias, spec)?;
    Ok((out, sparse_conv_work(input, weight, spec)?))
}

/// Measures per-layer *input* activation densities by running real
/// forward passes over sample inputs — the measurements the platform
/// model's profile tables consume instead of domain defaults
/// (`ev_platform::profile::NetworkProfile::record` takes these as its
/// `densities` argument, closing the loop between real execution at
/// reduced scale and the analytical model at full scale).
///
/// The executor's state is reset first; densities average over the sample
/// inputs.
///
/// # Errors
///
/// Propagates forward-execution errors; returns
/// [`NnError::ActivationKind`]-free results for any input kind.
pub fn measured_input_densities(
    executor: &mut Executor,
    inputs: &[Activation],
) -> Result<Vec<f64>, NnError> {
    let layer_count = executor.graph().len();
    let mut sums = vec![0.0f64; layer_count];
    let mut runs = 0usize;
    executor.reset_state();
    for input in inputs {
        let result = executor.run(input)?;
        let out_density: Vec<f64> = result.traces.iter().map(|t| t.output_density).collect();
        for layer in executor.graph().layers() {
            let preds = executor.graph().predecessors(layer.id);
            let d = if preds.is_empty() {
                input.density()
            } else {
                preds.iter().map(|p| out_density[p.0]).sum::<f64>() / preds.len() as f64
            };
            sums[layer.id.0] += d;
        }
        runs += 1;
    }
    if runs == 0 {
        return Ok(vec![1.0; layer_count]);
    }
    Ok(sums.into_iter().map(|s| s / runs as f64).collect())
}

/// Concatenates dense `[C, H, W]` tensors along channels.
fn concat_dense_channels<T: Borrow<Tensor>>(
    tensors: &[T],
) -> Result<Tensor, ev_sparse::SparseError> {
    let first = tensors
        .first()
        .ok_or(ev_sparse::SparseError::EmptyInput)?
        .borrow();
    let (h, w) = (first.shape()[1], first.shape()[2]);
    let c_total: usize = tensors.iter().map(|t| t.borrow().shape()[0]).sum();
    let mut data = Vec::with_capacity(c_total * h * w);
    for t in tensors {
        let t = t.borrow();
        if t.shape()[1] != h || t.shape()[2] != w {
            return Err(ev_sparse::SparseError::TensorShapeMismatch {
                left: [first.shape()[0], h, w],
                right: [t.shape()[0], t.shape()[1], t.shape()[2]],
            });
        }
        data.extend_from_slice(t.as_slice());
    }
    Tensor::from_vec(&[c_total, h, w], data)
}

/// Weights uniform in `±gain/√fan_in` and biases in a tenth of that range:
/// finite, and no bias element is `-0.0`, as the kernel choice requires
/// (see the module docs).
fn make_weights(
    shape: &[usize],
    fan_in: usize,
    out_channels: usize,
    seed: u64,
    gain: f32,
) -> LayerWeights {
    let mut weight = Tensor::zeros(shape);
    let scale = gain / (fan_in as f32).sqrt();
    weight.fill_pseudorandom(seed, scale);
    let mut bias_t = Tensor::zeros(&[out_channels]);
    bias_t.fill_pseudorandom(seed ^ 0xB1A5, scale * 0.1);
    LayerWeights {
        weight,
        bias: bias_t.into_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::layer::{Conv2dCfg, ConvT2dCfg, LifCfg};
    use crate::zoo::{NetworkId, ZooConfig};
    use crate::Task;
    use ev_sparse::coo::SparseEntry;

    fn tiny_hybrid() -> NetworkGraph {
        let mut b = GraphBuilder::new(
            "tiny-hybrid",
            Task::OpticalFlow,
            Shape::Chw { c: 2, h: 16, w: 16 },
        );
        let s1 = b
            .layer(
                "s1",
                LayerKind::SpikingConv2d {
                    conv: Conv2dCfg::down(2, 4, 3),
                    lif: LifCfg {
                        leak: 1.0,
                        threshold: 0.05,
                        reset_to_zero: true,
                    },
                },
                &[],
            )
            .unwrap();
        let a1 = b
            .layer("a1", LayerKind::Conv2d(Conv2dCfg::same(4, 4, 3)), &[s1])
            .unwrap();
        let u1 = b
            .layer(
                "u1",
                LayerKind::ConvTranspose2d(ConvT2dCfg::up2(4, 4)),
                &[a1],
            )
            .unwrap();
        let _h = b
            .layer(
                "head",
                LayerKind::Head {
                    in_channels: 4,
                    out_channels: 2,
                },
                &[u1],
            )
            .unwrap();
        b.finish().unwrap()
    }

    fn event_input() -> Activation {
        let entries = (0..12)
            .map(|k| SparseEntry::new(k % 2, (k * 3) % 16, (k * 5) % 16, 1.0))
            .collect();
        Activation::Sparse(SparseTensor::from_entries(2, 16, 16, entries).unwrap())
    }

    #[test]
    fn forward_produces_head_output() {
        let mut exec = Executor::new(tiny_hybrid(), 7);
        let result = exec.run(&event_input()).unwrap();
        assert_eq!(result.traces.len(), 4);
        assert_eq!(result.outputs.len(), 1);
        match &result.outputs[0].1 {
            Activation::Dense(t) => assert_eq!(t.shape(), &[2, 16, 16]),
            other => panic!("expected dense head output, got {other:?}"),
        }
    }

    #[test]
    fn sparse_input_does_less_work_than_dense_equivalent() {
        let mut exec = Executor::new(tiny_hybrid(), 7);
        let result = exec.run(&event_input()).unwrap();
        let actual = result.total_actual();
        let dense = result.total_dense_equivalent();
        assert!(
            actual.macs < dense.macs,
            "sparse {} should be < dense {}",
            actual.macs,
            dense.macs
        );
    }

    #[test]
    fn execution_is_deterministic() {
        let mut a = Executor::new(tiny_hybrid(), 9);
        let mut b = Executor::new(tiny_hybrid(), 9);
        assert_eq!(
            a.run(&event_input()).unwrap(),
            b.run(&event_input()).unwrap()
        );
        let mut c = Executor::new(tiny_hybrid(), 10);
        // Different seeds give different weights (outputs differ).
        assert_ne!(
            a.run(&event_input()).unwrap(),
            c.run(&event_input()).unwrap()
        );
    }

    #[test]
    fn lif_state_persists_then_resets() {
        let mut exec = Executor::new(tiny_hybrid(), 7);
        let r1 = exec.run(&event_input()).unwrap();
        let r2 = exec.run(&event_input()).unwrap();
        // Same input, but membranes have integrated: spike outputs differ in
        // general. (The first layer's output density may change.)
        let d1 = r1.traces[0].output_density;
        let d2 = r2.traces[0].output_density;
        exec.reset_state();
        let r3 = exec.run(&event_input()).unwrap();
        assert_eq!(r1, r3, "reset must restore the initial state");
        // d1/d2 comparison is informational; no assertion on inequality as
        // integration may or may not change spike counts.
        let _ = (d1, d2);
    }

    #[test]
    fn run_sequence_resets_first() {
        let mut exec = Executor::new(tiny_hybrid(), 7);
        let _warmup = exec.run(&event_input()).unwrap();
        let seq = exec.run_sequence(&[event_input(), event_input()]).unwrap();
        let mut fresh = Executor::new(tiny_hybrid(), 7);
        let fresh_first = fresh.run(&event_input()).unwrap();
        assert_eq!(seq[0], fresh_first);
        assert_eq!(seq.len(), 2);
    }

    #[test]
    fn dense_input_also_works() {
        let mut exec = Executor::new(tiny_hybrid(), 7);
        let dense = Activation::Dense(Tensor::full(&[2, 16, 16], 0.1));
        let result = exec.run(&dense).unwrap();
        assert_eq!(result.traces.len(), 4);
    }

    #[test]
    fn measured_densities_reflect_sparsity() {
        let mut exec = Executor::new(tiny_hybrid(), 7);
        let densities =
            measured_input_densities(&mut exec, &[event_input(), event_input()]).unwrap();
        assert_eq!(densities.len(), 4);
        // Layer 0 sees the sparse event frame.
        assert!(densities[0] < 0.1, "input density {densities:?}");
        // Everything is a valid density.
        for d in &densities {
            assert!((0.0..=1.0).contains(d));
        }
        // No inputs → dense defaults.
        let empty = measured_input_densities(&mut exec, &[]).unwrap();
        assert_eq!(empty, vec![1.0; 4]);
    }

    /// A `[2, 32, 32]` frame with `density · 2048` entries at distinct
    /// sites, valued 1 or 2 like E2SF event counts.
    fn frame_at(density: f64) -> SparseTensor {
        let total = 2 * 32 * 32;
        let entries = (0..(density * total as f64).round() as usize)
            .map(|k| {
                // 1021 is odd, so k · 1021 mod 2048 visits distinct sites.
                let site = k * 1021 % total;
                let (c, rest) = (site / 1024, site % 1024);
                SparseEntry::new(
                    c as u32,
                    (rest / 32) as u32,
                    (rest % 32) as u32,
                    1.0 + (k % 2) as f32,
                )
            })
            .collect();
        SparseTensor::from_entries(2, 32, 32, entries).unwrap()
    }

    fn one_layer(kind: LayerKind) -> NetworkGraph {
        let mut b = GraphBuilder::new(
            "one-layer",
            Task::OpticalFlow,
            Shape::Chw { c: 2, h: 32, w: 32 },
        );
        b.layer("l", kind, &[]).unwrap();
        b.finish().unwrap()
    }

    /// Every output bit of a pass, in order.
    fn output_bits(result: &ForwardResult) -> Vec<u32> {
        result
            .outputs
            .iter()
            .flat_map(|(_, a)| a.to_flat())
            .map(f32::to_bits)
            .collect()
    }

    #[test]
    fn the_dense_kernel_starts_at_the_threshold() {
        // Over 1000 elements, `at` entries make a density equal to the
        // threshold itself (checked), and one entry fewer falls below it.
        let at = (DENSE_KERNEL_DENSITY * 1000.0).round() as usize;
        assert_eq!(at as f64 / 1000.0, DENSE_KERNEL_DENSITY);
        let with = |n: usize| {
            let entries = (0..n)
                .map(|k| {
                    SparseEntry::new((k / 100) as u32, (k / 10 % 10) as u32, (k % 10) as u32, 1.0)
                })
                .collect();
            SparseTensor::from_entries(10, 10, 10, entries).unwrap()
        };
        assert!(!runs_dense(&with(at - 1)));
        assert!(runs_dense(&with(at)));
    }

    #[test]
    fn a_sparse_input_conv_matches_the_scatter_on_either_side_of_the_threshold() {
        let cfg = Conv2dCfg::down(2, 8, 3);
        let spec = Conv2dSpec {
            stride: cfg.stride,
            padding: cfg.padding,
        };
        for density in [0.01, 0.3] {
            let frame = frame_at(density);
            assert_eq!(runs_dense(&frame), density >= DENSE_KERNEL_DENSITY);
            let mut exec = Executor::new(one_layer(LayerKind::Conv2d(cfg)), 3);
            let got = exec.run(&Activation::Sparse(frame.clone())).unwrap();
            let lw = &exec.weights[&LayerId(0)];
            let (mut out, work) = conv2d_sparse(&frame, &lw.weight, Some(&lw.bias), spec).unwrap();
            let (relu_ops, _) = relu_in_place(&mut out);
            let want = ForwardResult {
                traces: vec![LayerTrace {
                    layer: LayerId(0),
                    work: WorkComparison {
                        actual: work.actual + relu_ops,
                        dense_equivalent: work.dense_equivalent + relu_ops,
                    },
                    output_density: out.density(),
                }],
                outputs: vec![(LayerId(0), Activation::Dense(out))],
            };
            assert_eq!(got, want, "density {density}");
            assert_eq!(output_bits(&got), output_bits(&want), "density {density}");
        }
    }

    #[test]
    fn a_spiking_conv_matches_the_scatter_on_either_side_of_the_threshold() {
        // DOTIE's layer at the small zoo width.
        let conv = Conv2dCfg::same(2, 20, 5);
        let lif = LifCfg {
            leak: 0.9,
            threshold: 0.5,
            reset_to_zero: false,
        };
        let spec = Conv2dSpec {
            stride: conv.stride,
            padding: conv.padding,
        };
        for density in [0.01, 0.3] {
            let frame = frame_at(density);
            assert_eq!(runs_dense(&frame), density >= DENSE_KERNEL_DENSITY);
            let mut exec = Executor::new(one_layer(LayerKind::SpikingConv2d { conv, lif }), 3);
            let mut membrane = LifState::new(20, 32, 32, lif);
            // Two steps, so the second starts from a charged membrane.
            for step in 0..2 {
                let got = exec.run(&Activation::Sparse(frame.clone())).unwrap();
                let lw = &exec.weights[&LayerId(0)];
                let (current, work) = conv2d_sparse(&frame, &lw.weight, None, spec).unwrap();
                let (spikes, lif_ops) = membrane.step(&current).unwrap();
                let want = ForwardResult {
                    traces: vec![LayerTrace {
                        layer: LayerId(0),
                        work: WorkComparison {
                            actual: work.actual + lif_ops,
                            dense_equivalent: work.dense_equivalent + lif_ops,
                        },
                        output_density: spikes.density(),
                    }],
                    outputs: vec![(LayerId(0), Activation::Sparse(spikes))],
                };
                assert_eq!(exec.lif_states[&LayerId(0)], membrane);
                assert_eq!(got, want, "density {density}, step {step}");
                assert_eq!(
                    output_bits(&got),
                    output_bits(&want),
                    "density {density}, step {step}"
                );
            }
        }
    }

    #[test]
    fn synthesized_weights_are_finite_and_no_bias_is_negative_zero() {
        // The precondition under which the two convolutions agree bit for
        // bit, so the density choice cannot change an output.
        let networks = NetworkId::TABLE1.into_iter().chain([
            NetworkId::EvFlowNet,
            NetworkId::GraphNet,
            NetworkId::CornerNet,
        ]);
        for network in networks {
            for cfg in [ZooConfig::tiny(), ZooConfig::small()] {
                let graph = network.build(&cfg).unwrap();
                for seed in 0..32 {
                    let exec = Executor::new(graph.clone(), seed);
                    for (id, lw) in &exec.weights {
                        assert!(
                            lw.weight.as_slice().iter().all(|w| w.is_finite()),
                            "{network:?} layer {id} seed {seed}"
                        );
                        assert!(
                            lw.bias
                                .iter()
                                .all(|b| b.is_finite() && b.to_bits() != (-0.0f32).to_bits()),
                            "{network:?} layer {id} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn concat_dense_helper() {
        let a = Tensor::full(&[1, 2, 2], 1.0);
        let b = Tensor::full(&[2, 2, 2], 2.0);
        let cat = concat_dense_channels(&[a, b]).unwrap();
        assert_eq!(cat.shape(), &[3, 2, 2]);
        assert_eq!(cat.get(&[0, 0, 0]), 1.0);
        assert_eq!(cat.get(&[2, 1, 1]), 2.0);
    }
}
