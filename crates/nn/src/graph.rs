//! Network graphs: DAGs of layers with shape inference and workload
//! extraction.
//!
//! The Network Mapper (paper §4.3) operates on "multi-task input graphs"
//! whose nodes are network layers and whose edges are data dependencies.
//! [`NetworkGraph`] is the single-network building block; the multi-task
//! graph in `ev-edge` composes several of these.

use crate::layer::{Conv2dCfg, Domain, Layer, LayerId, LayerKind, Shape};
use crate::NnError;
use crate::Task;
use core::fmt;

/// A directed acyclic graph of layers for one network.
///
/// Build with [`GraphBuilder`]; the builder validates acyclicity (by
/// construction: edges may only point forward), connectivity, and infers
/// the shape on every edge.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkGraph {
    name: String,
    task: Task,
    layers: Vec<Layer>,
    /// `preds[i]` are the predecessor layer ids of layer `i`, in input order.
    preds: Vec<Vec<LayerId>>,
    /// Inferred output shape per layer.
    out_shapes: Vec<Shape>,
    input_shape: Shape,
}

impl NetworkGraph {
    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task this network solves.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The layers in topological (insertion) order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0]
    }

    /// Predecessors of a layer (empty for input-connected layers).
    pub fn predecessors(&self, id: LayerId) -> &[LayerId] {
        &self.preds[id.0]
    }

    /// The network input shape.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The inferred output shape of a layer.
    pub fn output_shape(&self, id: LayerId) -> Shape {
        self.out_shapes[id.0]
    }

    /// Ids of layers with no successors (the network outputs).
    pub fn outputs(&self) -> Vec<LayerId> {
        let mut has_succ = vec![false; self.layers.len()];
        for preds in &self.preds {
            for p in preds {
                has_succ[p.0] = true;
            }
        }
        self.layers
            .iter()
            .filter(|l| !has_succ[l.id.0])
            .map(|l| l.id)
            .collect()
    }

    /// Counts layers per domain, returning `(snn, ann)`.
    pub fn domain_counts(&self) -> (usize, usize) {
        let snn = self
            .layers
            .iter()
            .filter(|l| l.domain() == Domain::Snn)
            .count();
        (snn, self.layers.len() - snn)
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.kind.param_count()).sum()
    }

    /// Per-layer workload descriptors (dense MACs, activation/parameter
    /// bytes) for the platform latency model.
    pub fn workloads(&self) -> Vec<LayerWorkload> {
        self.layers
            .iter()
            .map(|l| {
                let in_shapes: Vec<Shape> = if self.preds[l.id.0].is_empty() {
                    vec![self.input_shape]
                } else {
                    self.preds[l.id.0]
                        .iter()
                        .map(|p| self.out_shapes[p.0])
                        .collect()
                };
                let out_shape = self.out_shapes[l.id.0];
                LayerWorkload::infer(l, &in_shapes, out_shape)
            })
            .collect()
    }
}

impl fmt::Display for NetworkGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (snn, ann) = self.domain_counts();
        write!(
            f,
            "{} ({}; {} layers: {} SNN, {} ANN)",
            self.name,
            self.task,
            self.len(),
            snn,
            ann
        )
    }
}

/// Compute/memory workload of one layer on one inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerWorkload {
    /// Dense multiply-accumulate count.
    pub macs: u64,
    /// Input activation bytes (fp32).
    pub input_bytes: u64,
    /// Output activation bytes (fp32).
    pub output_bytes: u64,
    /// Parameter bytes (fp32).
    pub param_bytes: u64,
    /// Execution domain.
    pub domain: Domain,
}

impl LayerWorkload {
    /// Derives the workload from a layer and its inferred shapes.
    pub fn infer(layer: &Layer, in_shapes: &[Shape], out_shape: Shape) -> LayerWorkload {
        let input_bytes: u64 = in_shapes.iter().map(Shape::bytes_fp32).sum();
        let output_bytes = out_shape.bytes_fp32();
        let param_bytes = (layer.kind.param_count() * 4) as u64;
        let macs = match (&layer.kind, out_shape) {
            (LayerKind::Conv2d(c), Shape::Chw { h, w, .. })
            | (LayerKind::SpikingConv2d { conv: c, .. }, Shape::Chw { h, w, .. }) => {
                (c.out_channels * h * w * c.in_channels * c.kernel * c.kernel) as u64
            }
            (LayerKind::ConvTranspose2d(c), Shape::Chw { .. }) => {
                // Work is proportional to the *input* spatial size.
                let (ih, iw) = match in_shapes.first() {
                    Some(Shape::Chw { h, w, .. }) => (*h, *w),
                    _ => (1, 1),
                };
                (c.in_channels * ih * iw * c.out_channels * c.kernel * c.kernel) as u64
            }
            (
                LayerKind::Head {
                    in_channels,
                    out_channels,
                },
                Shape::Chw { h, w, .. },
            ) => (in_channels * out_channels * h * w) as u64,
            (
                LayerKind::Linear {
                    in_features,
                    out_features,
                },
                _,
            ) => (in_features * out_features) as u64,
            (LayerKind::GraphConv(g), _) => {
                // Neighbourhood gather over the grid adjacency, then the
                // shared per-node linear transform.
                g.edges() * g.in_features as u64
                    + (g.nodes() * g.in_features * g.out_features) as u64
            }
            (LayerKind::MaxPool2d { .. }, _) | (LayerKind::Concat, _) => 0,
            _ => 0,
        };
        LayerWorkload {
            macs,
            input_bytes,
            output_bytes,
            param_bytes,
            domain: layer.domain(),
        }
    }
}

/// Incremental builder for [`NetworkGraph`].
///
/// # Examples
///
/// ```
/// use ev_nn::graph::GraphBuilder;
/// use ev_nn::layer::{Conv2dCfg, LayerKind, Shape};
/// use ev_nn::Task;
///
/// # fn main() -> Result<(), ev_nn::NnError> {
/// let mut b = GraphBuilder::new("tiny", Task::OpticalFlow, Shape::Chw { c: 2, h: 16, w: 16 });
/// let conv = b.layer("enc1", LayerKind::Conv2d(Conv2dCfg::down(2, 8, 3)), &[])?;
/// let head = b.layer("head", LayerKind::Head { in_channels: 8, out_channels: 2 }, &[conv])?;
/// let graph = b.finish()?;
/// assert_eq!(graph.len(), 2);
/// assert_eq!(graph.outputs(), vec![head]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    task: Task,
    input_shape: Shape,
    layers: Vec<Layer>,
    preds: Vec<Vec<LayerId>>,
    out_shapes: Vec<Shape>,
}

impl GraphBuilder {
    /// Starts a graph for a network consuming `input_shape`.
    pub fn new(name: impl Into<String>, task: Task, input_shape: Shape) -> Self {
        GraphBuilder {
            name: name.into(),
            task,
            input_shape,
            layers: Vec::new(),
            preds: Vec::new(),
            out_shapes: Vec::new(),
        }
    }

    /// Appends a layer fed by `preds` (the network input when empty),
    /// returning its id. Shape inference runs immediately.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] variants for unknown predecessors, duplicate
    /// names, or shape-incompatible configurations.
    pub fn layer(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        preds: &[LayerId],
    ) -> Result<LayerId, NnError> {
        let name = name.into();
        if self.layers.iter().any(|l| l.name == name) {
            return Err(NnError::DuplicateLayerName { name });
        }
        for p in preds {
            if p.0 >= self.layers.len() {
                return Err(NnError::UnknownLayer { id: *p });
            }
        }
        let in_shapes: Vec<Shape> = if preds.is_empty() {
            vec![self.input_shape]
        } else {
            preds.iter().map(|p| self.out_shapes[p.0]).collect()
        };
        let out_shape = infer_shape(&kind, &in_shapes, &name)?;
        let id = LayerId(self.layers.len());
        self.layers.push(Layer { id, name, kind });
        self.preds.push(preds.to_vec());
        self.out_shapes.push(out_shape);
        Ok(id)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyGraph`] for a graph with no layers.
    pub fn finish(self) -> Result<NetworkGraph, NnError> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyGraph);
        }
        Ok(NetworkGraph {
            name: self.name,
            task: self.task,
            layers: self.layers,
            preds: self.preds,
            out_shapes: self.out_shapes,
            input_shape: self.input_shape,
        })
    }
}

fn infer_shape(kind: &LayerKind, in_shapes: &[Shape], name: &str) -> Result<Shape, NnError> {
    let incompatible = |reason: String| NnError::IncompatibleShape {
        layer: name.to_string(),
        reason,
    };
    let single_chw = || -> Result<(usize, usize, usize), NnError> {
        match in_shapes {
            [Shape::Chw { c, h, w }] => Ok((*c, *h, *w)),
            _ => Err(incompatible(format!(
                "expected one [C,H,W] input, got {in_shapes:?}"
            ))),
        }
    };
    match kind {
        LayerKind::Conv2d(cfg) | LayerKind::SpikingConv2d { conv: cfg, .. } => {
            let (c, h, w) = single_chw()?;
            if c != cfg.in_channels {
                return Err(incompatible(format!(
                    "conv expects {} input channels, got {c}",
                    cfg.in_channels
                )));
            }
            let os = conv_out(h, w, cfg)?;
            Ok(Shape::Chw {
                c: cfg.out_channels,
                h: os.0,
                w: os.1,
            })
        }
        LayerKind::ConvTranspose2d(cfg) => {
            let (c, h, w) = single_chw()?;
            if c != cfg.in_channels {
                return Err(incompatible(format!(
                    "convT expects {} input channels, got {c}",
                    cfg.in_channels
                )));
            }
            let ho = (h - 1) * cfg.stride + cfg.kernel - 2 * cfg.padding;
            let wo = (w - 1) * cfg.stride + cfg.kernel - 2 * cfg.padding;
            Ok(Shape::Chw {
                c: cfg.out_channels,
                h: ho,
                w: wo,
            })
        }
        LayerKind::MaxPool2d { kernel } => {
            let (c, h, w) = single_chw()?;
            if h < *kernel || w < *kernel {
                return Err(incompatible(format!(
                    "pool window {kernel} exceeds input {h}x{w}"
                )));
            }
            Ok(Shape::Chw {
                c,
                h: h / kernel,
                w: w / kernel,
            })
        }
        LayerKind::Linear {
            in_features,
            out_features,
        } => {
            let n = match in_shapes {
                [s] => s.elements(),
                _ => {
                    return Err(incompatible("linear expects one input".to_string()));
                }
            };
            if n != *in_features {
                return Err(incompatible(format!(
                    "linear expects {in_features} features, got {n}"
                )));
            }
            Ok(Shape::Flat { n: *out_features })
        }
        LayerKind::Concat => {
            let mut iter = in_shapes.iter();
            let first = iter
                .next()
                .ok_or_else(|| incompatible("concat needs at least one input".to_string()))?;
            let (mut c_total, h0, w0) = match first {
                Shape::Chw { c, h, w } => (*c, *h, *w),
                Shape::Flat { .. } => {
                    return Err(incompatible("concat requires [C,H,W] inputs".to_string()));
                }
            };
            for s in iter {
                match s {
                    Shape::Chw { c, h, w } if *h == h0 && *w == w0 => c_total += c,
                    other => {
                        return Err(incompatible(format!(
                            "concat input {other} mismatches {h0}x{w0}"
                        )));
                    }
                }
            }
            Ok(Shape::Chw {
                c: c_total,
                h: h0,
                w: w0,
            })
        }
        LayerKind::Head {
            in_channels,
            out_channels,
        } => {
            let (c, h, w) = single_chw()?;
            if c != *in_channels {
                return Err(incompatible(format!(
                    "head expects {in_channels} channels, got {c}"
                )));
            }
            Ok(Shape::Chw {
                c: *out_channels,
                h,
                w,
            })
        }
        LayerKind::GraphConv(g) => {
            let (c, h, w) = single_chw()?;
            if c != g.in_features || h != g.nodes_h || w != g.nodes_w {
                return Err(incompatible(format!(
                    "graph conv expects [{}, {}, {}] node features, got [{c}, {h}, {w}]",
                    g.in_features, g.nodes_h, g.nodes_w
                )));
            }
            Ok(Shape::Chw {
                c: g.out_features,
                h: g.nodes_h,
                w: g.nodes_w,
            })
        }
    }
}

fn conv_out(h: usize, w: usize, cfg: &Conv2dCfg) -> Result<(usize, usize), NnError> {
    let dim = |d: usize| -> Option<usize> {
        let padded = d + 2 * cfg.padding;
        if padded < cfg.kernel || cfg.stride == 0 {
            None
        } else {
            Some((padded - cfg.kernel) / cfg.stride + 1)
        }
    };
    match (dim(h), dim(w)) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(NnError::IncompatibleShape {
            layer: "conv".to_string(),
            reason: format!("kernel {} does not fit {h}x{w}", cfg.kernel),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvT2dCfg, LifCfg};

    fn input() -> Shape {
        Shape::Chw { c: 2, h: 32, w: 32 }
    }

    #[test]
    fn linear_chain_shapes() {
        let mut b = GraphBuilder::new("chain", Task::OpticalFlow, input());
        let c1 = b
            .layer("c1", LayerKind::Conv2d(Conv2dCfg::down(2, 8, 3)), &[])
            .unwrap();
        let c2 = b
            .layer("c2", LayerKind::Conv2d(Conv2dCfg::down(8, 16, 3)), &[c1])
            .unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.output_shape(c1), Shape::Chw { c: 8, h: 16, w: 16 });
        assert_eq!(g.output_shape(c2), Shape::Chw { c: 16, h: 8, w: 8 });
        assert_eq!(g.outputs(), vec![c2]);
        assert_eq!(g.predecessors(c2), &[c1]);
    }

    #[test]
    fn concat_skip_connection() {
        let mut b = GraphBuilder::new("skip", Task::OpticalFlow, input());
        let enc = b
            .layer("enc", LayerKind::Conv2d(Conv2dCfg::down(2, 8, 3)), &[])
            .unwrap();
        let deep = b
            .layer("deep", LayerKind::Conv2d(Conv2dCfg::same(8, 8, 3)), &[enc])
            .unwrap();
        let cat = b.layer("cat", LayerKind::Concat, &[enc, deep]).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(
            g.output_shape(cat),
            Shape::Chw {
                c: 16,
                h: 16,
                w: 16
            }
        );
    }

    #[test]
    fn transpose_restores_size() {
        let mut b = GraphBuilder::new("updown", Task::DepthEstimation, input());
        let d = b
            .layer("down", LayerKind::Conv2d(Conv2dCfg::down(2, 4, 3)), &[])
            .unwrap();
        let u = b
            .layer(
                "up",
                LayerKind::ConvTranspose2d(ConvT2dCfg::up2(4, 2)),
                &[d],
            )
            .unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.output_shape(u), Shape::Chw { c: 2, h: 32, w: 32 });
    }

    #[test]
    fn validation_errors() {
        let mut b = GraphBuilder::new("bad", Task::OpticalFlow, input());
        let c1 = b
            .layer("c1", LayerKind::Conv2d(Conv2dCfg::down(2, 8, 3)), &[])
            .unwrap();
        // Duplicate name.
        assert!(matches!(
            b.layer("c1", LayerKind::Concat, &[c1]),
            Err(NnError::DuplicateLayerName { .. })
        ));
        // Unknown predecessor.
        assert!(matches!(
            b.layer("x", LayerKind::Concat, &[LayerId(99)]),
            Err(NnError::UnknownLayer { .. })
        ));
        // Channel mismatch.
        assert!(matches!(
            b.layer("y", LayerKind::Conv2d(Conv2dCfg::same(3, 4, 3)), &[c1]),
            Err(NnError::IncompatibleShape { .. })
        ));
        // Empty graph.
        assert!(matches!(
            GraphBuilder::new("e", Task::OpticalFlow, input()).finish(),
            Err(NnError::EmptyGraph)
        ));
    }

    #[test]
    fn workloads_account_macs() {
        let mut b = GraphBuilder::new("w", Task::OpticalFlow, input());
        let c1 = b
            .layer("c1", LayerKind::Conv2d(Conv2dCfg::down(2, 8, 3)), &[])
            .unwrap();
        let _h = b
            .layer(
                "head",
                LayerKind::Head {
                    in_channels: 8,
                    out_channels: 2,
                },
                &[c1],
            )
            .unwrap();
        let g = b.finish().unwrap();
        let w = g.workloads();
        // conv: 8 out-ch × 16×16 out × 2 in-ch × 9 = 36864 MACs.
        assert_eq!(w[0].macs, 36_864);
        assert_eq!(w[0].input_bytes, (2 * 32 * 32 * 4) as u64);
        // head: 8×2×16×16 = 4096 MACs.
        assert_eq!(w[1].macs, 4_096);
        assert_eq!(w[1].domain, Domain::Ann);
    }

    #[test]
    fn spiking_layers_counted() {
        let mut b = GraphBuilder::new("s", Task::OpticalFlow, input());
        let s1 = b
            .layer(
                "s1",
                LayerKind::SpikingConv2d {
                    conv: Conv2dCfg::down(2, 8, 3),
                    lif: LifCfg::default(),
                },
                &[],
            )
            .unwrap();
        let _c = b
            .layer("a1", LayerKind::Conv2d(Conv2dCfg::same(8, 8, 3)), &[s1])
            .unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.domain_counts(), (1, 1));
    }

    #[test]
    fn pool_and_linear_shapes() {
        let mut b = GraphBuilder::new("pl", Task::ObjectTracking, input());
        let p = b
            .layer("pool", LayerKind::MaxPool2d { kernel: 4 }, &[])
            .unwrap();
        let l = b
            .layer(
                "fc",
                LayerKind::Linear {
                    in_features: 2 * 8 * 8,
                    out_features: 10,
                },
                &[p],
            )
            .unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.output_shape(p), Shape::Chw { c: 2, h: 8, w: 8 });
        assert_eq!(g.output_shape(l), Shape::Flat { n: 10 });
    }
}
