//! Summary statistics over per-op samples.

use std::collections::BTreeMap;

/// The `q`-quantile of `samples` by the nearest-rank rule: the smallest
/// sample with at least `q` of the samples at or below it. Nearest rank
/// always returns a measured value, and `percentile(s, 0.9)` leaves
/// `floor(0.1 * n)` samples strictly beyond it, which is what the
/// "p90 needs ten samples beyond it" rule counts. `None` on no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples strictly greater than the `q`-quantile: how many observations
/// a reported percentile actually rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(p) => samples.iter().filter(|&&s| s > p).count(),
        None => 0,
    }
}

/// Sample counts in log-spaced bins 0.1% wide: a pooled quantile over
/// millions of simulated latencies in a few kilobytes, so the benchmark's
/// own buffers stay out of the peak-RSS metric. Deterministic: the same
/// samples always give the same quantile.
#[derive(Debug, Default)]
pub struct LogHistogram {
    bins: BTreeMap<i32, u64>,
    count: u64,
}

impl LogHistogram {
    const GROWTH: f64 = 1.001;

    /// Records one sample; samples at or below zero share one bin that
    /// reads as zero.
    pub fn record(&mut self, v: f64) {
        let bin = if v > 0.0 {
            (v.ln() / Self::GROWTH.ln()).floor() as i32
        } else {
            i32::MIN
        };
        *self.bins.entry(bin).or_default() += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `q`-quantile, as the upper edge of its bin (at
    /// most 0.1% above the exact sample).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&bin, &n) in &self.bins {
            seen += n;
            if seen >= rank {
                return Some(if bin == i32::MIN {
                    0.0
                } else {
                    Self::GROWTH.powi(bin + 1)
                });
            }
        }
        None
    }
}

/// A stable 64-bit FNV-1a hasher for the simulated-outcome digest (the
/// std `DefaultHasher` is not guaranteed stable across releases).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Hashes the exact bits, so any change in a simulated float shows.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn small_samples_return_measured_values() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
        assert_eq!(median(&[2.0, 9.0, 4.0]), Some(4.0));
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 0.9), Some(9.0));
    }

    #[test]
    fn hundred_ops_leave_ten_beyond_p90() {
        let s: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.5).collect();
        assert_eq!(beyond(&s, 0.9), 10);
        assert_eq!(beyond(&s[..99], 0.9), 9);
        assert_eq!(beyond(&[], 0.9), 0);
    }

    #[test]
    fn log_histogram_tracks_exact_percentiles() {
        let s: Vec<f64> = (0..20_000)
            .map(|i| 0.5 + (i as f64 * 0.37) % 900.0)
            .collect();
        let mut h = LogHistogram::default();
        s.iter().for_each(|&v| h.record(v));
        assert_eq!(h.count(), 20_000);
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&s, q).unwrap();
            let binned = h.quantile(q).unwrap();
            assert!(
                binned >= exact && binned <= exact * 1.001,
                "q={q}: {binned} vs {exact}"
            );
        }
        let mut z = LogHistogram::default();
        z.record(0.0);
        z.record(5.0);
        assert_eq!(z.quantile(0.5), Some(0.0));
        assert_eq!(LogHistogram::default().quantile(0.99), None);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Fnv::default().u64(7).f64(1.0).finish();
        let b = Fnv::default().u64(7).f64(1.0 + f64::EPSILON).finish();
        let c = Fnv::default().u64(7).f64(1.0).finish();
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
