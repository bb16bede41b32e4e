//! Leaky integrate-and-fire (LIF) neuron dynamics.
//!
//! SNN layers in the model zoo are spiking convolutions: the convolution
//! output is injected as synaptic current into a grid of LIF neurons whose
//! binary spike output (a sparse tensor) feeds the next layer. Membrane
//! state persists across the timesteps of one inference (paper §2: event
//! frames presented "sequentially over B/k timesteps").

use crate::layer::LifCfg;
use ev_sparse::coo::{SparseEntry, SparseTensor};
use ev_sparse::dense::Tensor;
use ev_sparse::opcount::OpCount;
use ev_sparse::SparseError;

/// Membrane state of a `[C, H, W]` grid of LIF neurons.
///
/// # Examples
///
/// ```
/// use ev_nn::layer::LifCfg;
/// use ev_nn::snn::LifState;
/// use ev_sparse::dense::Tensor;
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let mut lif = LifState::new(1, 2, 2, LifCfg { leak: 1.0, threshold: 1.0, reset_to_zero: true });
/// // Inject current 0.6 everywhere twice: second step crosses threshold.
/// let current = Tensor::full(&[1, 2, 2], 0.6);
/// let (spikes1, _) = lif.step(&current)?;
/// assert_eq!(spikes1.nnz(), 0);
/// let (spikes2, _) = lif.step(&current)?;
/// assert_eq!(spikes2.nnz(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifState {
    channels: usize,
    height: usize,
    width: usize,
    cfg: LifCfg,
    membrane: Vec<f32>,
}

impl LifState {
    /// Creates a neuron grid at rest.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if `cfg.leak` is outside `(0, 1]`
    /// or `cfg.threshold` is not positive.
    pub fn new(channels: usize, height: usize, width: usize, cfg: LifCfg) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "neuron grid dimensions must be nonzero"
        );
        assert!(
            cfg.leak > 0.0 && cfg.leak <= 1.0,
            "leak must be in (0, 1], got {}",
            cfg.leak
        );
        assert!(
            cfg.threshold > 0.0,
            "threshold must be positive, got {}",
            cfg.threshold
        );
        LifState {
            channels,
            height,
            width,
            cfg,
            membrane: vec![0.0; channels * height * width],
        }
    }

    /// The neuron configuration.
    pub fn cfg(&self) -> LifCfg {
        self.cfg
    }

    /// Shape as `[C, H, W]`.
    pub fn shape(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Advances one timestep with dense input current `[C, H, W]`,
    /// returning the emitted spikes (values 1.0) and the work performed.
    ///
    /// Dynamics: `V ← leak·V + I`; spike where `V ≥ threshold`; reset by
    /// subtraction or to zero per [`LifCfg::reset_to_zero`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `current` has a different
    /// shape.
    pub fn step(&mut self, current: &Tensor) -> Result<(SparseTensor, OpCount), SparseError> {
        if current.shape() != [self.channels, self.height, self.width] {
            return Err(SparseError::ShapeMismatch {
                expected: self.membrane.len(),
                actual: current.len(),
            });
        }
        let mut entries = Vec::new();
        let inp = current.as_slice();
        let hw = self.height * self.width;
        for (idx, (v, i)) in self.membrane.iter_mut().zip(inp).enumerate() {
            *v = *v * self.cfg.leak + i;
            if *v >= self.cfg.threshold {
                let c = idx / hw;
                let r = (idx % hw) / self.width;
                let col = idx % self.width;
                entries.push(SparseEntry::new(c as u32, r as u32, col as u32, 1.0));
                if self.cfg.reset_to_zero {
                    *v = 0.0;
                } else {
                    *v -= self.cfg.threshold;
                }
            }
        }
        let spikes = SparseTensor::from_entries(self.channels, self.height, self.width, entries)?;
        let ops = OpCount {
            macs: self.membrane.len() as u64, // leak multiply + add
            adds: spikes.nnz() as u64,        // resets
            bytes_read: (current.len() * 4) as u64 + (self.membrane.len() * 4) as u64,
            bytes_written: (self.membrane.len() * 4) as u64 + spikes.storage_bytes(),
        };
        Ok((spikes, ops))
    }

    /// Returns all membranes to rest.
    pub fn reset(&mut self) {
        self.membrane.fill(0.0);
    }

    /// Immutable view of the membrane potentials.
    pub fn membrane(&self) -> &[f32] {
        &self.membrane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(leak: f32, threshold: f32, reset_to_zero: bool) -> LifCfg {
        LifCfg {
            leak,
            threshold,
            reset_to_zero,
        }
    }

    #[test]
    fn integrates_to_threshold() {
        let mut lif = LifState::new(1, 1, 1, cfg(1.0, 1.0, true));
        let current = Tensor::full(&[1, 1, 1], 0.4);
        let mut spikes = 0;
        for _ in 0..5 {
            let (s, _) = lif.step(&current).unwrap();
            spikes += s.nnz();
        }
        // 0.4, 0.8, 1.2(spike,reset), 0.4, 0.8 → exactly one spike.
        assert_eq!(spikes, 1);
    }

    #[test]
    fn leak_prevents_integration() {
        // With strong leak, 0.4 input saturates at 0.4/(1-0.5) = 0.8 < 1.0.
        let mut lif = LifState::new(1, 1, 1, cfg(0.5, 1.0, true));
        let current = Tensor::full(&[1, 1, 1], 0.4);
        for _ in 0..50 {
            let (s, _) = lif.step(&current).unwrap();
            assert_eq!(s.nnz(), 0);
        }
    }

    #[test]
    fn reset_by_subtraction_keeps_residual() {
        let mut lif = LifState::new(1, 1, 1, cfg(1.0, 1.0, false));
        let current = Tensor::full(&[1, 1, 1], 1.5);
        let (s, _) = lif.step(&current).unwrap();
        assert_eq!(s.nnz(), 1);
        assert!((lif.membrane()[0] - 0.5).abs() < 1e-6);
        lif.reset();
        assert_eq!(lif.membrane()[0], 0.0);
    }

    #[test]
    fn spikes_are_sparse_binary() {
        let mut lif = LifState::new(2, 4, 4, cfg(0.9, 1.0, true));
        let mut current = Tensor::zeros(&[2, 4, 4]);
        current.set(&[1, 2, 3], 5.0);
        let (s, ops) = lif.step(&current).unwrap();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(1, 2, 3), 1.0);
        assert_eq!(ops.macs, 32); // one MAC per neuron
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut lif = LifState::new(1, 2, 2, LifCfg::default());
        let wrong = Tensor::zeros(&[1, 3, 3]);
        assert!(lif.step(&wrong).is_err());
    }

    #[test]
    #[should_panic(expected = "leak")]
    fn invalid_leak_rejected() {
        let _ = LifState::new(1, 1, 1, cfg(0.0, 1.0, true));
    }
}
