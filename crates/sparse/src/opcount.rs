//! Operation accounting.
//!
//! Every kernel in this crate reports how much arithmetic it actually
//! performed ([`OpCount`]) alongside how much a dense implementation of the
//! same layer would have performed. The gap between the two is the
//! "redundant and wasteful operations" the paper's Figure 1 quantifies.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign};

/// Arithmetic and memory-traffic counters for one kernel invocation.
///
/// # Examples
///
/// ```
/// use ev_sparse::opcount::OpCount;
///
/// let a = OpCount { macs: 10, adds: 2, bytes_read: 64, bytes_written: 32 };
/// let b = OpCount { macs: 5, ..OpCount::ZERO };
/// assert_eq!((a + b).macs, 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct OpCount {
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Standalone additions (accumulator merges, bias adds).
    pub adds: u64,
    /// Bytes read from operand storage.
    pub bytes_read: u64,
    /// Bytes written to result storage.
    pub bytes_written: u64,
}

impl OpCount {
    /// The zero count.
    pub const ZERO: OpCount = OpCount {
        macs: 0,
        adds: 0,
        bytes_read: 0,
        bytes_written: 0,
    };

    /// Total arithmetic operations (MACs counted as one op each).
    pub fn total_ops(&self) -> u64 {
        self.macs + self.adds
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl Add for OpCount {
    type Output = OpCount;
    fn add(self, rhs: OpCount) -> OpCount {
        OpCount {
            macs: self.macs + rhs.macs,
            adds: self.adds + rhs.adds,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
        }
    }
}

impl AddAssign for OpCount {
    fn add_assign(&mut self, rhs: OpCount) {
        *self = *self + rhs;
    }
}

impl Sum for OpCount {
    fn sum<I: Iterator<Item = OpCount>>(iter: I) -> OpCount {
        iter.fold(OpCount::ZERO, Add::add)
    }
}

impl fmt::Display for OpCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} MACs, {} adds, {}B read, {}B written",
            self.macs, self.adds, self.bytes_read, self.bytes_written
        )
    }
}

/// A kernel result paired with the dense-equivalent work, quantifying how
/// much arithmetic sparsity saved.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkComparison {
    /// Work actually performed (sparsity-aware).
    pub actual: OpCount,
    /// Work a dense implementation of the same layer performs.
    pub dense_equivalent: OpCount,
}

impl WorkComparison {
    /// Fraction of dense MACs that were actually needed, in `[0, 1]`
    /// (1.0 when the dense equivalent is zero).
    pub fn effectual_fraction(&self) -> f64 {
        if self.dense_equivalent.macs == 0 {
            1.0
        } else {
            self.actual.macs as f64 / self.dense_equivalent.macs as f64
        }
    }
}

impl Add for WorkComparison {
    type Output = WorkComparison;
    fn add(self, rhs: WorkComparison) -> WorkComparison {
        WorkComparison {
            actual: self.actual + rhs.actual,
            dense_equivalent: self.dense_equivalent + rhs.dense_equivalent,
        }
    }
}

impl AddAssign for WorkComparison {
    fn add_assign(&mut self, rhs: WorkComparison) {
        *self = *self + rhs;
    }
}

impl Sum for WorkComparison {
    fn sum<I: Iterator<Item = WorkComparison>>(iter: I) -> WorkComparison {
        iter.fold(WorkComparison::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcount_addition() {
        let a = OpCount {
            macs: 3,
            adds: 1,
            bytes_read: 10,
            bytes_written: 4,
        };
        let sum: OpCount = [a, a, OpCount::ZERO].into_iter().sum();
        assert_eq!(sum.macs, 6);
        assert_eq!(sum.total_ops(), 8);
        assert_eq!(sum.total_bytes(), 28);
    }

    #[test]
    fn work_comparison_fractions() {
        let w = WorkComparison {
            actual: OpCount {
                macs: 10,
                ..OpCount::ZERO
            },
            dense_equivalent: OpCount {
                macs: 100,
                ..OpCount::ZERO
            },
        };
        assert!((w.effectual_fraction() - 0.1).abs() < 1e-12);
        let empty = WorkComparison::default();
        assert_eq!(empty.effectual_fraction(), 1.0);
    }
}
