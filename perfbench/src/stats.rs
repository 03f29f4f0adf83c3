//! Order statistics for latency samples and repeated timings.
//!
//! Percentiles use the nearest-rank rule with integer arithmetic, so a
//! quantile such as p999 is exact for any sample count. A tail quantile
//! is only reported when at least [`MIN_BEYOND`] samples lie above its
//! rank; otherwise the run is too short to support it.

/// Samples that must lie beyond a reported tail quantile.
pub const MIN_BEYOND: usize = 10;

/// A quantile written as the fraction `num / den` (p999 is `999 / 1000`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantile {
    pub num: u64,
    pub den: u64,
}

pub const P50: Quantile = Quantile { num: 1, den: 2 };
pub const P99: Quantile = Quantile { num: 99, den: 100 };
pub const P999: Quantile = Quantile {
    num: 999,
    den: 1000,
};

/// 1-based nearest rank of quantile `q` among `n` samples:
/// `ceil(q · n)`, at least 1.
pub fn rank(n: usize, q: Quantile) -> usize {
    let n = n as u64;
    (n * q.num).div_ceil(q.den).max(1) as usize
}

/// Nearest-rank quantile of ascending `sorted`; `None` when empty.
pub fn quantile<T: Copy>(sorted: &[T], q: Quantile) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// [`quantile`] only when at least [`MIN_BEYOND`] samples rank above it.
pub fn tail_quantile<T: Copy>(sorted: &[T], q: Quantile) -> Option<T> {
    let n = sorted.len();
    if n == 0 || n - rank(n, q) < MIN_BEYOND {
        return None;
    }
    quantile(sorted, q)
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_for_per_mille_quantiles() {
        assert_eq!(rank(10_000, P999), 9_990);
        assert_eq!(rank(10_001, P999), 9_991);
        assert_eq!(rank(1_000, P99), 990);
        assert_eq!(rank(3, P50), 2);
        assert_eq!(rank(4, P50), 2);
        assert_eq!(rank(1, P999), 1);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=10_000).collect();
        // Rank 9_990 leaves exactly ten samples above it.
        assert_eq!(tail_quantile(&v, P999), Some(9_990));
        let short: Vec<u64> = (1..=9_999).collect();
        assert_eq!(tail_quantile(&short, P999), None);
        assert_eq!(tail_quantile(&short, P99), Some(9_900));
        let tiny: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_quantile(&tiny, P99), None);
        assert_eq!(tail_quantile::<u64>(&[], P50), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
