//! Lock-free log-bucketed latency histogram.
//!
//! Values are nanoseconds. Bucket upper bounds grow by √2 per bucket
//! starting at 256 ns, so 64 buckets span 256 ns … ~777 s — far wider
//! than any request this stack serves — at ≤ √2 relative resolution
//! anywhere in the range. Recording is a binary search over a `const`
//! bound table plus four relaxed atomic RMWs: safe to leave on in the
//! hottest path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in every histogram.
pub const BUCKETS: usize = 64;

/// Inclusive upper bounds of the buckets, in nanoseconds. Bounds
/// alternate ×√2 steps — even indices are `256 << (i/2)`, odd indices
/// `362 << (i/2)` (362 ≈ 256·√2) — and the last bucket is a catch-all.
pub const BOUNDS: [u64; BUCKETS] = bounds();

const fn bounds() -> [u64; BUCKETS] {
    let mut b = [0u64; BUCKETS];
    let mut i = 0;
    while i < BUCKETS {
        let half = (i / 2) as u32;
        b[i] = if i % 2 == 0 {
            256u64 << half
        } else {
            362u64 << half
        };
        i += 1;
    }
    b[BUCKETS - 1] = u64::MAX;
    b
}

/// Index of the bucket a nanosecond value falls into: the first bucket
/// whose upper bound is ≥ the value.
pub fn bucket_index(ns: u64) -> usize {
    BOUNDS.partition_point(|bound| *bound < ns)
}

/// A wait-free latency histogram over nanoseconds: 64 power-of-√2
/// buckets of `AtomicU64`, plus exact count / sum / max.
///
/// All mutation is `Ordering::Relaxed` — the histogram answers
/// statistical questions, not synchronization ones — so concurrent
/// recorders never contend beyond the cache line.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // A const is the only way to seed `[AtomicU64; N]` in a
        // `const fn`; each array slot gets a fresh atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        AtomicHistogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one nanosecond observation.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation, nanoseconds (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Fold another histogram's counts into this one, bucket-wise.
    pub fn merge_from(&self, other: &AtomicHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recorders may land between the
    /// bucket reads and the count read, so `count` can differ from the
    /// bucket total by in-flight records — callers that need agreement
    /// should quiesce first (the percentile math tolerates the skew).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Percentile query straight off the live histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        self.snapshot().percentile(q)
    }
}

/// A plain-data copy of an [`AtomicHistogram`], for merging and
/// percentile queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observations, nanoseconds.
    pub sum: u64,
    /// Largest observation, nanoseconds (0 when unknown, e.g. a
    /// snapshot reconstructed from a Prometheus scrape).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merge another snapshot into this one, bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-th percentile (`0.0 ..= 1.0`), nanoseconds: the upper
    /// bound of the bucket holding the `ceil(q·count)`-th smallest
    /// observation, so the answer is exact to bucket resolution
    /// (over-reports by at most ×√2). `q = 1.0` in the catch-all
    /// bucket returns the exact tracked max when known.
    pub fn percentile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i == BUCKETS - 1 {
                    // Catch-all bucket: the bound is meaningless; the
                    // tracked max (when we have one) is the honest
                    // answer.
                    return if self.max > 0 { self.max } else { BOUNDS[i] };
                }
                // A bucket bound can overshoot the largest observation;
                // the tracked max is a tighter truth when we have one.
                return if self.max > 0 {
                    BOUNDS[i].min(self.max)
                } else {
                    BOUNDS[i]
                };
            }
        }
        self.max
    }

    /// Mean observation, nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_monotone_and_sqrt2_spaced() {
        for pair in BOUNDS.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
        }
        // Interior ratios stay within a hair of √2 (integer rounding of
        // the 362/256 seed pair).
        for pair in BOUNDS[..BUCKETS - 1].windows(2) {
            let ratio = pair[1] as f64 / pair[0] as f64;
            assert!((1.40..1.43).contains(&ratio), "{pair:?} ratio {ratio}");
        }
        assert_eq!(BOUNDS[0], 256);
        assert_eq!(BOUNDS[BUCKETS - 1], u64::MAX);
    }

    #[test]
    fn bucket_index_matches_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(256), 0);
        assert_eq!(bucket_index(257), 1);
        assert_eq!(bucket_index(362), 1);
        assert_eq!(bucket_index(363), 2);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for (i, bound) in BOUNDS.iter().enumerate() {
            assert_eq!(bucket_index(*bound), i);
        }
    }

    #[test]
    fn record_and_percentiles() {
        let h = AtomicHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for us in 1..=1000u64 {
            h.record(us * 1_000); // 1µs ..= 1ms
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1_000_000);
        let snap = h.snapshot();
        let p50 = snap.percentile(0.50);
        // True p50 is 500µs; the bucketed answer over-reports by ≤ √2.
        assert!(p50 >= 500_000, "{p50}");
        assert!(p50 as f64 <= 500_000.0 * 1.4143, "{p50}");
        let qs = [0.50, 0.90, 0.99, 0.999].map(|q| snap.percentile(q));
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(qs[3] <= snap.max, "{qs:?}");
        assert_eq!(snap.max, 1_000_000);
        assert_eq!(snap.mean(), (1..=1000u64).sum::<u64>() * 1_000 / 1000);
    }

    #[test]
    fn merge_adds_bucket_wise() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(1_000);
        b.record(1_000);
        b.record(50_000_000);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 50_000_000);
        let snap = a.snapshot();
        assert_eq!(snap.buckets[bucket_index(1_000)], 2);
        assert_eq!(snap.buckets[bucket_index(50_000_000)], 1);

        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn catch_all_bucket_reports_tracked_max() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX - 1);
        assert_eq!(h.percentile(1.0), u64::MAX - 1);
    }
}
