//! Order statistics over host-time samples.

/// Sorted copy of `values` (total order, so NaN never panics).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the two middle values of an even count (as
/// Python's `statistics.median` does). `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so a spread computed here
/// matches one computed from the same numbers in Python. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (`0` for fewer than
/// two values).
pub fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

/// A tail percentile that has enough samples beyond it to mean
/// something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPercentile {
    /// The percentile reported, e.g. `90.0`.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The `wanted` percentile if at least [`MIN_BEYOND`] samples lie beyond
/// its nearest rank; otherwise the highest percentile of a fixed ladder
/// (99.9, 99, 95, 90, 80, 75, 50) below `wanted` that has them; `None`
/// when not even the median does.
pub fn tail_percentile(values: &[f64], wanted: f64) -> Option<TailPercentile> {
    let v = sorted(values);
    let n = v.len();
    let candidates = std::iter::once(wanted).chain(LADDER.into_iter().filter(|&p| p < wanted));
    for p in candidates {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if rank <= n && n - rank >= MIN_BEYOND {
            return Some(TailPercentile {
                percentile: p,
                value: v[rank - 1],
                n,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 120 samples: p90 has rank 108, 12 beyond it.
        let p = tail_percentile(&ramp(120), 90.0).expect("enough samples");
        assert_eq!((p.percentile, p.value, p.n), (90.0, 108.0, 120));
        // 60 samples: p90 has 6 beyond, p80 has 12 beyond.
        let p = tail_percentile(&ramp(60), 90.0).expect("a lower percentile");
        assert_eq!((p.percentile, p.value, p.n), (80.0, 48.0, 60));
        // 30 samples: only the median has 15 beyond it.
        let p = tail_percentile(&ramp(30), 90.0).expect("the median");
        assert_eq!((p.percentile, p.n), (50.0, 30));
        // Too few for any.
        assert_eq!(tail_percentile(&ramp(15), 90.0), None);
        // Every reported percentile really has ten samples beyond it.
        for n in 1..300 {
            if let Some(p) = tail_percentile(&ramp(n), 99.0) {
                let beyond = ramp(n).iter().filter(|&&x| x > p.value).count();
                assert!(beyond >= MIN_BEYOND, "n={n}: {p:?}");
            }
        }
    }
}
