//! A fixed-size log-linear latency histogram.
//!
//! Memory does not grow with the number of samples, so the benchmark's own
//! footprint (`peak_rss_mib`) does not depend on how fast the program ran.
//! Each bucket spans 1/64 of a power of two (under 1.6%) and keeps the sum
//! of its samples: a percentile reads the mean of the samples in the bucket
//! holding its rank, so values keep all their digits.

/// Samples that must lie strictly beyond a reported percentile: a tail
/// figure resting on fewer than this many samples is one outlier's value.
pub const MIN_BEYOND: u64 = 10;

/// Sub-buckets per power of two.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^36 ns (69 s); larger ones land in the last bucket.
const BUCKETS: usize = (36 - SUB_BITS as usize + 1) * SUB;

#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    sums: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (((exp - SUB_BITS + 1) as usize) * SUB + sub).min(BUCKETS - 1)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        let b = bucket(v);
        self.counts[b] += 1;
        self.sums[b] += v;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (b, c) in other.counts.iter().enumerate().filter(|(_, c)| **c > 0) {
            self.counts[b] += c;
            self.sums[b] += other.sums[b];
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The value at nearest rank `rank` (1-based): the mean of its bucket.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if c > 0 && seen >= rank {
                return self.sums[b] as f64 / f64::from(c);
            }
        }
        0.0
    }

    fn rank(&self, q: f64) -> u64 {
        ((q * self.n as f64).ceil() as u64).max(1)
    }

    /// The `q`-quantile, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = self.rank(q);
        (rank <= self.n && self.n - rank >= MIN_BEYOND).then(|| self.at_rank(rank))
    }

    /// The mean of the samples ranked within `half` of the `q`-quantile
    /// (ranks `(q - half)·n` to `(q + half)·n`), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond the band. Unlike a single rank it
    /// moves smoothly when the rank falls between two clusters of samples,
    /// as it does when a fixed mix of queries repeats: the p90 of 50
    /// queries sits exactly between the 45th and 46th slowest.
    pub fn band_mean(&self, q: f64, half: f64) -> Option<f64> {
        let lo = ((q - half).max(0.0) * self.n as f64).floor() as u64;
        let hi = self.rank(q + half).min(self.n);
        if hi <= lo || self.n - hi < MIN_BEYOND {
            return None;
        }
        let (mut seen, mut sum) = (0u64, 0.0);
        for (b, &c) in self.counts.iter().enumerate().filter(|(_, c)| **c > 0) {
            let c = u64::from(c);
            // Samples of this bucket with ranks in (lo, hi].
            let k = (seen + c).min(hi).saturating_sub(seen.max(lo));
            sum += k as f64 * self.sums[b] as f64 / c as f64;
            seen += c;
            if seen >= hi {
                break;
            }
        }
        Some(sum / (hi - lo) as f64)
    }

    /// The median with no tail requirement (for ranking windows).
    pub fn median(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.at_rank(self.rank(0.5))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_narrow() {
        let mut last = 0;
        for v in (0..5_000_000u64).step_by(997) {
            let b = bucket(v);
            assert!(b >= last);
            last = b;
        }
        // Every bucket above the exact range spans at most 1/64 of its base.
        for v in [100u64, 7_777, 123_456_789] {
            let b = bucket(v);
            let next = (v..=v * 2).find(|x| bucket(*x) > b).unwrap();
            let prev = (0..=v).rev().find(|x| bucket(*x) < b).unwrap();
            let width = next - prev - 1;
            assert!((width as f64) / (v as f64) <= 1.0 / 64.0);
        }
    }

    #[test]
    fn percentiles_follow_the_ten_beyond_rule() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p99 = h.percentile(0.99).unwrap();
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.016);
        let p50 = h.percentile(0.5).unwrap();
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.016);
        h.record(5);
        let mut small = Histogram::default();
        for v in 0..999u64 {
            small.record(v);
        }
        assert!(small.percentile(0.99).is_none());
    }

    #[test]
    fn band_mean_is_smooth_between_clusters() {
        // 45 fast queries and 5 slow ones, each repeated equally often: the
        // p90 rank lies exactly on the gap, the band straddles it.
        let mut h = Histogram::default();
        for _ in 0..100 {
            for q in 0..50u64 {
                h.record(if q < 45 { 1_000 } else { 3_000 });
            }
        }
        let mid = h.band_mean(0.9, 0.01).unwrap();
        assert!((mid - 2_000.0).abs() / 2_000.0 < 0.02, "{mid}");
        // One more fast sample shifts the band by a fraction, not the gap.
        h.record(1_000);
        let moved = h.band_mean(0.9, 0.01).unwrap();
        assert!((moved - mid).abs() / mid < 0.05, "{moved} vs {mid}");
        // Inside one cluster the band mean is that cluster's value.
        assert_eq!(h.band_mean(0.5, 0.01), Some(1_000.0));
        // The ten-beyond rule applies to the top of the band.
        let mut small = Histogram::default();
        for v in 0..500u64 {
            small.record(v);
        }
        assert!(small.band_mean(0.98, 0.01).is_none());
        assert!(small.band_mean(0.97, 0.01).is_some());
    }

    #[test]
    fn exact_below_sixty_four_and_merge_adds() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..40u64 {
            a.record(v);
            b.record(v + 40);
        }
        a.merge(&b);
        assert_eq!(a.len(), 80);
        assert_eq!(a.median(), 39.0);
        assert_eq!(a.percentile(0.5), Some(39.0));
    }
}
