//! Exact order statistics over raw samples, and the op-loop bookkeeping
//! every workload shares.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`q` in `0..=1`): the smallest
/// sample with at least `q · n` samples at or below it. Exact — computed
/// from the raw values, not from histogram buckets. Sorts in place.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of float samples (mean of the two middle values for an even
/// count). Returns 0 for an empty slice.
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of float samples. Returns 0 for an empty slice.
pub fn mean_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Budget of one measured run: ops continue while the timed total is
/// under `timed` and the wall clock (which also covers untimed
/// verification) is under `wall`.
pub struct Budget {
    timed: Duration,
    wall: Duration,
    started: Instant,
    spent: Duration,
}

impl Budget {
    pub fn new(timed: Duration, wall: Duration) -> Budget {
        Budget {
            timed,
            wall,
            started: Instant::now(),
            spent: Duration::ZERO,
        }
    }

    /// Charges one timed op.
    pub fn charge(&mut self, d: Duration) {
        self.spent += d;
    }

    pub fn exhausted(&self) -> bool {
        self.spent >= self.timed || self.started.elapsed() >= self.wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let mut v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 5);
        assert_eq!(percentile(&mut v, 0.9), 9);
        assert_eq!(percentile(&mut v, 0.91), 10);
        assert_eq!(percentile(&mut v, 1.0), 10);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = [42u64];
        assert_eq!(percentile(&mut one, 0.9), 42);
        assert_eq!(percentile(&mut [], 0.5), 0);
        // 100 samples: p90 is the 90th smallest, with 10 samples above it.
        let mut hundred: Vec<u64> = (0..100).map(|i| (i * 37) % 100).collect();
        assert_eq!(percentile(&mut hundred, 0.9), 89);
    }

    #[test]
    fn medians_handle_odd_and_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
        assert_eq!(mean_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean_f64(&[]), 0.0);
    }
}
