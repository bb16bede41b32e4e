//! Event-graph kernels: grid adjacency, neighborhood gather, and
//! active-set dilation.
//!
//! EvGNN-style event-driven graph networks (PAPERS.md: EvGNN) treat the
//! sensor plane as a graph — one node per pixel site, edges between
//! spatial neighbours — and only touch the nodes an event stream has
//! activated. The kernels here are the substrate for that workload
//! class: a CSR adjacency over the node grid, a neighbourhood
//! gather with exact operation accounting (the data-dependent
//! cost the scheduler must absorb), and per-event active-set updates
//! whose dilation from layer to layer is exactly the receptive-field
//! growth of a graph-convolution stack.

use crate::csr::CsrMatrix;
use crate::dense::Tensor;
use crate::opcount::{OpCount, WorkComparison};
use crate::SparseError;

/// A fixed spatial graph over an `height × width` node grid: every node
/// is connected to the nodes within Chebyshev distance `radius`
/// (excluding itself), with unit edge weights.
///
/// # Examples
///
/// ```
/// use ev_sparse::graph::EventGraph;
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let g = EventGraph::grid(4, 4, 1)?;
/// assert_eq!(g.nodes(), 16);
/// // A corner node has 3 neighbours, an interior node 8.
/// assert_eq!(g.adjacency().row(0).0.len(), 3);
/// assert_eq!(g.adjacency().row(5).0.len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventGraph {
    adj: CsrMatrix,
    height: usize,
    width: usize,
    radius: usize,
}

impl EventGraph {
    /// Builds the grid graph.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EmptyInput`] when either grid dimension is
    /// zero, and [`SparseError::ShapeMismatch`] when the node count
    /// overflows the `u32` column index space.
    pub fn grid(height: usize, width: usize, radius: usize) -> Result<Self, SparseError> {
        let adj = grid_adjacency(height, width, radius)?;
        Ok(EventGraph {
            adj,
            height,
            width,
            radius,
        })
    }

    /// The CSR adjacency (row `i` lists the neighbours of node `i`).
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adj
    }

    /// Node count (`height × width`).
    pub fn nodes(&self) -> usize {
        self.height * self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Neighbourhood radius.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Marks the node under an event at `(row, col)` active — the
    /// per-event graph update: O(1), no neighbour traffic until a layer
    /// dilates the set.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EntryOutOfBounds`] for coordinates outside
    /// the grid and [`SparseError::ShapeMismatch`] when `active` does
    /// not have one slot per node.
    pub fn inject_event(
        &self,
        active: &mut [bool],
        row: usize,
        col: usize,
    ) -> Result<(), SparseError> {
        if active.len() != self.nodes() {
            return Err(SparseError::ShapeMismatch {
                expected: self.nodes(),
                actual: active.len(),
            });
        }
        if row >= self.height || col >= self.width {
            return Err(SparseError::EntryOutOfBounds {
                channel: 0,
                row: row as u32,
                col: col as u32,
            });
        }
        active[row * self.width + col] = true;
        Ok(())
    }

    /// One layer of active-set dilation: a node is active afterwards iff
    /// it was active or has an active neighbour — the receptive-field
    /// growth of one graph-convolution layer. Returns the new set and
    /// the work done (edge scans counted as adds).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] when `active` does not
    /// have one slot per node.
    pub fn dilate(&self, active: &[bool]) -> Result<(Vec<bool>, OpCount), SparseError> {
        dilate_active(&self.adj, active)
    }
}

/// Builds the CSR adjacency of the `height × width` grid with Chebyshev
/// neighbourhood `radius` (self-loops excluded, unit weights).
///
/// # Errors
///
/// Returns [`SparseError::EmptyInput`] when either dimension is zero,
/// and [`SparseError::ShapeMismatch`] when `height × width` overflows
/// `u32` (CSR column indices).
pub fn grid_adjacency(
    height: usize,
    width: usize,
    radius: usize,
) -> Result<CsrMatrix, SparseError> {
    if height == 0 || width == 0 {
        return Err(SparseError::EmptyInput);
    }
    let nodes = height * width;
    if nodes > u32::MAX as usize {
        return Err(SparseError::ShapeMismatch {
            expected: u32::MAX as usize,
            actual: nodes,
        });
    }
    let r = radius as isize;
    let mut triplets = Vec::with_capacity(grid_edge_count(height, width, radius) as usize);
    for row in 0..height as isize {
        for col in 0..width as isize {
            let node = (row * width as isize + col) as u32;
            for dr in -r..=r {
                let nr = row + dr;
                if nr < 0 || nr >= height as isize {
                    continue;
                }
                for dc in -r..=r {
                    if dr == 0 && dc == 0 {
                        continue;
                    }
                    let nc = col + dc;
                    if nc < 0 || nc >= width as isize {
                        continue;
                    }
                    triplets.push((node, (nr * width as isize + nc) as u32, 1.0));
                }
            }
        }
    }
    CsrMatrix::from_triplets(nodes, nodes, &triplets)
}

/// Closed-form edge count of [`grid_adjacency`] — the per-layer
/// gather/scatter work a cost model can quote without building the
/// matrix: `Σ_{(dr,dc)≠(0,0), |dr|,|dc| ≤ radius} (h−|dr|)·(w−|dc|)`.
pub fn grid_edge_count(height: usize, width: usize, radius: usize) -> u64 {
    let (h, w) = (height as u64, width as u64);
    let r = radius as u64;
    let mut edges = 0u64;
    for dr in 0..=r.min(h.saturating_sub(1)) {
        for dc in 0..=r.min(w.saturating_sub(1)) {
            if dr == 0 && dc == 0 {
                continue;
            }
            // (±dr, ±dc) directions: 2 when one offset is zero, else 4.
            let directions = if dr == 0 || dc == 0 { 2 } else { 4 };
            edges += directions * (h - dr) * (w - dc);
        }
    }
    edges
}

/// Neighbourhood gather: `out[i] = (x[i] + Σ_{j∈N(i)} a_ij·x[j]) / (1 + deg(i))`
/// — the mean over each node's closed neighbourhood, weighted by the
/// adjacency values. `features` is `[nodes, f]` row-major. Work is
/// proportional to the stored edges; the dense equivalent is the full
/// `nodes × nodes` aggregation.
///
/// # Errors
///
/// Returns [`SparseError::RankMismatch`] unless `features` has rank 2,
/// and [`SparseError::ShapeMismatch`] when its row count differs from
/// the adjacency's node count.
pub fn gather_mean(
    adj: &CsrMatrix,
    features: &Tensor,
) -> Result<(Tensor, WorkComparison), SparseError> {
    if features.rank() != 2 {
        return Err(SparseError::RankMismatch {
            expected: 2,
            actual: features.rank(),
        });
    }
    let (nodes, f) = (features.shape()[0], features.shape()[1]);
    if nodes != adj.n_rows() || adj.n_cols() != adj.n_rows() {
        return Err(SparseError::ShapeMismatch {
            expected: adj.n_rows(),
            actual: nodes,
        });
    }
    let x = features.as_slice();
    let mut out = Tensor::zeros(&[nodes, f]);
    let dst_all = out.as_mut_slice();
    for (i, dst) in dst_all.chunks_exact_mut(f.max(1)).enumerate() {
        if f == 0 {
            break;
        }
        let (cols, vals) = adj.row(i);
        dst.copy_from_slice(&x[i * f..(i + 1) * f]);
        for (c, v) in cols.iter().zip(vals) {
            let src = &x[*c as usize * f..(*c as usize + 1) * f];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += v * s;
            }
        }
        let norm = 1.0 / (1.0 + cols.len() as f32);
        for d in dst.iter_mut() {
            *d *= norm;
        }
    }
    let nnz = adj.nnz() as u64;
    let work = WorkComparison {
        actual: OpCount {
            macs: nnz * f as u64,
            adds: nodes as u64 * f as u64,
            bytes_read: nnz * (8 + 4 * f as u64) + (nodes * f * 4) as u64,
            bytes_written: (nodes * f * 4) as u64,
        },
        dense_equivalent: OpCount {
            macs: (nodes * nodes * f) as u64,
            adds: (nodes * f) as u64,
            bytes_read: ((nodes * nodes + nodes * f) * 4) as u64,
            bytes_written: (nodes * f * 4) as u64,
        },
    };
    Ok((out, work))
}

/// One step of active-set dilation over an arbitrary adjacency: the
/// result marks every node that was active or has an active in-edge
/// neighbour. Edge scans are counted as adds.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] when `active` does not have
/// one slot per adjacency row.
pub fn dilate_active(
    adj: &CsrMatrix,
    active: &[bool],
) -> Result<(Vec<bool>, OpCount), SparseError> {
    if active.len() != adj.n_rows() || adj.n_cols() != adj.n_rows() {
        return Err(SparseError::ShapeMismatch {
            expected: adj.n_rows(),
            actual: active.len(),
        });
    }
    let mut out = active.to_vec();
    let mut scanned = 0u64;
    for (i, slot) in out.iter_mut().enumerate() {
        if *slot {
            continue;
        }
        let (cols, _) = adj.row(i);
        scanned += cols.len() as u64;
        if cols.iter().any(|&c| active[c as usize]) {
            *slot = true;
        }
    }
    let ops = OpCount {
        macs: 0,
        adds: scanned,
        bytes_read: scanned * 4 + active.len() as u64,
        bytes_written: out.len() as u64,
    };
    Ok((out, ops))
}

/// Fraction of active nodes, in `[0, 1]` (0 for an empty set).
pub fn active_fraction(active: &[bool]) -> f64 {
    if active.is_empty() {
        return 0.0;
    }
    active.iter().filter(|&&a| a).count() as f64 / active.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_adjacency_matches_closed_form_count() {
        for (h, w, r) in [(1, 1, 1), (3, 4, 1), (5, 5, 2), (2, 7, 3)] {
            let adj = grid_adjacency(h, w, r).unwrap();
            assert_eq!(
                adj.nnz() as u64,
                grid_edge_count(h, w, r),
                "{h}x{w} radius {r}"
            );
        }
    }

    #[test]
    fn grid_adjacency_is_symmetric() {
        let adj = grid_adjacency(4, 5, 2).unwrap();
        assert_eq!(adj.transpose(), adj);
    }

    #[test]
    fn zero_radius_has_no_edges() {
        let adj = grid_adjacency(3, 3, 0).unwrap();
        assert_eq!(adj.nnz(), 0);
        assert_eq!(grid_edge_count(3, 3, 0), 0);
    }

    #[test]
    fn empty_grid_is_rejected() {
        assert!(matches!(
            grid_adjacency(0, 4, 1),
            Err(SparseError::EmptyInput)
        ));
    }

    #[test]
    fn inject_and_dilate_grow_the_neighbourhood() {
        let g = EventGraph::grid(5, 5, 1).unwrap();
        let mut active = vec![false; g.nodes()];
        g.inject_event(&mut active, 2, 2).unwrap();
        assert_eq!(active.iter().filter(|&&a| a).count(), 1);
        let (once, ops) = g.dilate(&active).unwrap();
        assert_eq!(once.iter().filter(|&&a| a).count(), 9);
        assert!(ops.adds > 0);
        let (twice, _) = g.dilate(&once).unwrap();
        assert_eq!(twice.iter().filter(|&&a| a).count(), 25);
        assert!((active_fraction(&twice) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inject_rejects_out_of_grid_events() {
        let g = EventGraph::grid(3, 3, 1).unwrap();
        let mut active = vec![false; g.nodes()];
        assert!(g.inject_event(&mut active, 3, 0).is_err());
        let mut short = vec![false; 4];
        assert!(g.inject_event(&mut short, 0, 0).is_err());
    }

    #[test]
    fn gather_mean_averages_the_closed_neighbourhood() {
        // 1x3 path graph: node 1 has neighbours 0 and 2.
        let adj = grid_adjacency(1, 3, 1).unwrap();
        let x = Tensor::from_vec(&[3, 1], vec![3.0, 0.0, 6.0]).unwrap();
        let (out, work) = gather_mean(&adj, &x).unwrap();
        // node 0: (3 + 0) / 2; node 1: (0 + 3 + 6) / 3; node 2: (6 + 0) / 2.
        assert_eq!(out.as_slice(), &[1.5, 3.0, 3.0]);
        assert_eq!(work.actual.macs, adj.nnz() as u64);
        assert!(work.actual.macs <= work.dense_equivalent.macs);
    }

    #[test]
    fn kernels_reject_mismatched_shapes() {
        let adj = grid_adjacency(2, 2, 1).unwrap();
        let bad = Tensor::zeros(&[3, 2]);
        assert!(gather_mean(&adj, &bad).is_err());
        assert!(dilate_active(&adj, &[true; 3]).is_err());
        let rank1 = Tensor::zeros(&[4]);
        assert!(gather_mean(&adj, &rank1).is_err());
    }
}
