//! Numeric precision.
//!
//! The Network Mapper searches over per-layer precision (paper §4.3:
//! "quantized linearly based on the layer bit-widths specified in the
//! candidate set"). This module provides the precision lattice the Jetson
//! Xavier AGX exposes through TensorRT (FP32/FP16/INT8); the accuracy
//! model prices a precision through [`Precision::noise_weight`].

use core::fmt;

/// A numeric precision available on at least one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Precision {
    /// 8-bit integer (symmetric, per-tensor scale).
    Int8,
    /// IEEE 754 half precision.
    Fp16,
    /// IEEE 754 single precision.
    Fp32,
}

impl Precision {
    /// All precisions, slowest-error to highest-fidelity.
    pub const ALL: [Precision; 3] = [Precision::Int8, Precision::Fp16, Precision::Fp32];

    /// Storage bytes per element.
    pub const fn bytes(self) -> u64 {
        match self {
            Precision::Int8 => 1,
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
        }
    }

    /// Nominal bit width.
    pub const fn bits(self) -> u32 {
        match self {
            Precision::Int8 => 8,
            Precision::Fp16 => 16,
            Precision::Fp32 => 32,
        }
    }

    /// Relative quantization-noise weight used by the accuracy model,
    /// normalized so INT8 = 1.0 (FP32 is exact; FP16's 10-bit mantissa
    /// contributes a small but nonzero noise).
    pub const fn noise_weight(self) -> f64 {
        match self {
            Precision::Int8 => 1.0,
            Precision::Fp16 => 0.12,
            Precision::Fp32 => 0.0,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Int8 => f.write_str("INT8"),
            Precision::Fp16 => f.write_str("FP16"),
            Precision::Fp32 => f.write_str("FP32"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_metadata() {
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert!(Precision::Int8 < Precision::Fp32);
        assert_eq!(Precision::Fp32.noise_weight(), 0.0);
    }
}
