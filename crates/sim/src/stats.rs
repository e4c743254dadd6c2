//! Small statistics helpers used by the experiment harness.

/// Summary statistics over a sample of `f64`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Sum of all samples.
    pub sum: f64,
}

impl Summary {
    /// Compute summary statistics; returns an all-zero summary for an empty
    /// sample.
    pub fn from(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                sum: 0.0,
            };
        }
        let n = samples.len();
        let sum: f64 = samples.iter().sum();
        let mean = sum / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            sum,
        }
    }
}

/// Nearest-rank percentile over a pre-sorted sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// 1-based nearest rank `⌈n·q/10⁴⌉` of quantile `q_permyriad` among `n ≥ 1`
/// samples, clamped to `1..=n`. The product is taken in `u128`, so no
/// `(n, q)` pair overflows.
fn nearest_rank(n: u64, q_permyriad: u64) -> u64 {
    (n as u128 * q_permyriad as u128)
        .div_ceil(10_000)
        .clamp(1, n as u128) as u64
}

/// Nearest-rank percentile of a sorted `u64` sample, `q` in permyriad
/// (5_000 = p50, 9_990 = p99.9, 10_000 = max); 0 on an empty sample.
/// Integer arithmetic only, so it is safe inside byte-deterministic
/// exports.
pub fn percentile(sorted: &[u64], q_permyriad: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(nearest_rank(sorted.len() as u64, q_permyriad) - 1) as usize]
}

/// The log₂ bucket of `v`: its bit length, so bucket 0 holds the value 0
/// and bucket `b ≥ 1` holds `2^(b-1) ..= 2^b - 1` (65 buckets in all).
pub(crate) fn log2_bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Nearest-rank quantile estimate over [`log2_bucket`]-indexed counts
/// holding `count` samples, `q` in permyriad: the upper bound
/// `2^b - 1` of the bucket `b` holding the exact quantile `x`, so
/// `x ≤ est ≤ 2x - 1` (bucket 64 saturates at `u64::MAX`). 0 when empty.
pub(crate) fn log2_quantile(buckets: &[u64], count: u64, q_permyriad: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = nearest_rank(count, q_permyriad);
    let mut cum = 0u64;
    for (b, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return if b == 0 { 0 } else { u64::MAX >> (64 - b) };
        }
    }
    unreachable!("bucket counts sum to `count`")
}

/// Jain's fairness index over `xs`, in permille: `(Σx)² / (n·Σx²)`.
/// 1000 means every party gets the same value; 1000/n means one party gets
/// everything. All-zero input is vacuously fair. Integer arithmetic only,
/// so it is safe inside byte-deterministic exports.
pub fn jain_permille(xs: &[u64]) -> u64 {
    let n = xs.len() as u128;
    if n == 0 {
        return 1000;
    }
    let s: u128 = xs.iter().map(|&x| x as u128).sum();
    let s2: u128 = xs.iter().map(|&x| (x as u128) * (x as u128)).sum();
    if s2 == 0 {
        return 1000;
    }
    ((s * s * 1000) / (n * s2)) as u64
}

/// Simple centered-window-free moving average (trailing window of size `w`),
/// matching the paper's "moving average window of size 5" for Figure 7.
pub fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    if w == 0 || xs.is_empty() {
        return xs.to_vec();
    }
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        acc += x;
        if i >= w {
            acc -= xs[i - w];
        }
        let len = (i + 1).min(w);
        out.push(acc / len as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.sum - 10.0).abs() < 1e-12);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::from(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.95), 95.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
    }

    #[test]
    fn percentiles_on_empty_input_are_zero() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_sorted(&[], q), 0.0);
        }
    }

    #[test]
    fn percentiles_on_single_sample_return_it_for_every_q() {
        // Nearest rank clamps to rank 1, including at the q=0 boundary and
        // out-of-range q values.
        for q in [-0.5, 0.0, 0.001, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(percentile_sorted(&[7.5], q), 7.5);
        }
        let s = Summary::from(&[7.5]);
        assert_eq!((s.n, s.min, s.max), (1, 7.5, 7.5));
        assert_eq!((s.p50, s.p95, s.p99), (7.5, 7.5, 7.5));
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn q_boundaries_clamp_to_first_and_last_rank() {
        let sorted = [10.0, 20.0, 30.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 30.0);
        // Values outside [0,1] clamp rather than indexing out of bounds.
        assert_eq!(percentile_sorted(&sorted, -1.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 42.0), 30.0);
    }

    #[test]
    fn integer_percentile_is_nearest_rank() {
        let ten = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        let five = [10u64, 20, 30, 40, 50];
        for (sorted, q, want) in [
            (&ten[..], 5_000, 50),
            (&ten[..], 9_900, 100),
            (&ten[..], 10_000, 100),
            (&ten[..], 0, 10),
            (&five[..], 5_000, 30),
            (&five[..], 9_900, 50),
            (&[][..], 5_000, 0),
            (&[][..], 10_000, 0),
            (&[7][..], 0, 7),
            (&[7][..], 9_990, 7),
            (&[7][..], 10_000, 7),
        ] {
            assert_eq!(percentile(sorted, q), want, "q{q} over {sorted:?}");
        }
        // p99.9 needs permyriad: over 2000 samples it is rank 1998, which
        // no permille q can name.
        let big: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile(&big, 9_990), 1998);
        assert_eq!(percentile(&big, 9_900), 1980);
        // q past 100% clamps to the max instead of indexing out of bounds.
        assert_eq!(percentile(&ten, u64::MAX), 100);
    }

    #[test]
    fn moving_average_window() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ma = moving_average(&xs, 2);
        assert_eq!(ma, vec![0.0, 0.5, 1.5, 2.5, 3.5]);
        // window 0 or empty input: identity
        assert_eq!(moving_average(&xs, 0), xs.to_vec());
        assert!(moving_average(&[], 5).is_empty());
    }
}
