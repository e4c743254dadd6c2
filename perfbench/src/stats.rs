//! Summaries (median, the tail rule), and the digest of a run's
//! virtual-time output.

use dgsf::server::MigrationRecord;
use dgsf::serverless::FunctionResult;

/// Percentiles the tail rule chooses from, in per-hundred-thousand
/// (50_000 = p50, 99_900 = p99.9).
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// Nearest-rank percentile of a sorted slice; `p` in per-hundred-thousand.
pub fn percentile_sorted(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * p).div_ceil(100_000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// The tail rule: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank, for `n` samples.
/// `None` when even the median has fewer than that beyond it.
pub fn tail_percentile(n: u64) -> Option<u64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| n - (n * p).div_ceil(100_000) >= TAIL_MIN_BEYOND)
        .max()
}

/// Human label of a ladder percentile, e.g. `p99.9` (`max` for 100 %).
pub fn percentile_label(p: u64) -> String {
    if p >= 100_000 {
        return "max".into();
    }
    let whole = p / 1000;
    let frac = p % 1000;
    if frac == 0 {
        format!("p{whole}")
    } else {
        let digits = format!("{frac:03}");
        format!("p{whole}.{}", digits.trim_end_matches('0'))
    }
}

/// Median, tail and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dist {
    /// Samples.
    pub count: u64,
    /// Nearest-rank median.
    pub p50: u64,
    /// Value at the tail percentile (the maximum when no ladder
    /// percentile has enough samples beyond it).
    pub tail: u64,
    /// The tail percentile in per-hundred-thousand (100_000 = maximum).
    pub tail_p: u64,
}

impl Dist {
    /// Summarise `values` (any order).
    pub fn of(mut values: Vec<u64>) -> Dist {
        values.sort_unstable();
        let count = values.len() as u64;
        let tail_p = tail_percentile(count).unwrap_or(100_000);
        Dist {
            count,
            p50: percentile_sorted(&values, 50_000),
            tail: percentile_sorted(&values, tail_p),
            tail_p,
        }
    }
}

/// Median of a float sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over a stream of integers: the digest of a run's virtual-time
/// output. Equal digests mean byte-equal inputs with overwhelming odds.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one integer into the digest.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold every integer of `vs`, prefixed by its length.
    pub fn push_all(&mut self, vs: &[u64]) {
        self.push(vs.len() as u64);
        for &v in vs {
            self.push(v);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Fold function results into a digest: count, then per result its
/// end-to-end ns and outcome (0 completed, 1 shed, 2 failed).
pub fn digest_results(d: &mut Digest, results: &[FunctionResult]) {
    d.push(results.len() as u64);
    for r in results {
        d.push(r.e2e().as_nanos());
        d.push(if r.succeeded() {
            0
        } else if r.shed {
            1
        } else {
            2
        });
    }
}

/// Fold migration records into a digest.
pub fn digest_migrations(d: &mut Digest, migrations: &[MigrationRecord]) {
    d.push(migrations.len() as u64);
    for m in migrations {
        d.push(m.server as u64);
        d.push(m.from.0 as u64);
        d.push(m.to.0 as u64);
        d.push(m.begun_at.as_nanos());
        d.push(m.at.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None, "median has only 9 beyond");
        assert_eq!(tail_percentile(20), Some(50_000));
        assert_eq!(tail_percentile(99), Some(50_000), "p90 has 9 beyond");
        assert_eq!(tail_percentile(100), Some(90_000));
        assert_eq!(tail_percentile(999), Some(90_000));
        assert_eq!(tail_percentile(1_000), Some(99_000));
        assert_eq!(tail_percentile(50_000), Some(99_900), "p99.99 has 5 beyond");
        assert_eq!(tail_percentile(100_000), Some(99_990));
        assert_eq!(tail_percentile(1_000_000), Some(99_999));
        assert_eq!(percentile_label(99_900), "p99.9");
        assert_eq!(percentile_label(99_990), "p99.99");
        assert_eq!(percentile_label(90_000), "p90");
        assert_eq!(percentile_label(100_000), "max");
    }

    #[test]
    fn dist_reports_the_rule_percentile_and_falls_back_to_max() {
        let d = Dist::of((1..=1000).rev().collect());
        assert_eq!((d.count, d.p50, d.tail, d.tail_p), (1000, 500, 990, 99_000));
        let few = Dist::of(vec![5, 1, 9]);
        assert_eq!((few.p50, few.tail, few.tail_p), (5, 9, 100_000));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
