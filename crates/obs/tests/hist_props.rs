//! Property tests for [`AtomicHistogram`]: percentile queries against
//! an exact sorted-vector oracle (error bounded by bucket width),
//! merge associativity/commutativity, and concurrent-record
//! consistency.

use lantern_obs::{bucket_index, AtomicHistogram, HistogramSnapshot, BOUNDS, BUCKETS};
use proptest::prelude::*;

/// The exact oracle: the `ceil(q·n)`-th smallest sample (the same rank
/// definition the histogram uses).
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn build(values: &[u64]) -> AtomicHistogram {
    let h = AtomicHistogram::new();
    for v in values {
        h.record(*v);
    }
    h
}

/// Nanosecond samples spanning the whole bucket range: sub-bucket-0
/// noise through multi-second outliers.
fn arb_latencies(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u64>()).prop_map(|v| v % 512),       // around bucket 0/1
            (any::<u64>()).prop_map(|v| v % 2_000_000), // µs–ms range
            (any::<u64>()).prop_map(|v| v % 20_000_000_000), // up to 20s
        ],
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bucketed percentile never under-reports the oracle, and
    /// over-reports by at most one bucket's width (×√2, with the
    /// sub-256ns floor and the max clamp as the only exceptions).
    #[test]
    fn percentiles_match_oracle_to_bucket_width(values in arb_latencies(200)) {
        let h = build(&values);
        let snap = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let exact = oracle(&sorted, q);
            let reported = snap.percentile(q);
            prop_assert!(reported >= exact, "q={q}: reported {reported} < oracle {exact}");
            let within_bucket = reported as f64 <= exact as f64 * 1.4145 + 1.0;
            let floor_bucket = reported <= BOUNDS[1];
            let catch_all = exact > BOUNDS[BUCKETS - 2];
            prop_assert!(
                within_bucket || floor_bucket || catch_all,
                "q={q}: reported {reported} too far above oracle {exact}"
            );
        }
        prop_assert_eq!(snap.percentile(1.0), *sorted.last().unwrap());
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        prop_assert_eq!(snap.count, values.len() as u64);
    }

    /// Merging is commutative and associative, bucket-wise and in the
    /// count/sum/max aggregates.
    #[test]
    fn merge_is_commutative_and_associative(
        a in arb_latencies(60),
        b in arb_latencies(60),
        c in arb_latencies(60),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));

        let mut ab = ha.snapshot();
        ab.merge(&hb.snapshot());
        let mut ba = hb.snapshot();
        ba.merge(&ha.snapshot());
        prop_assert_eq!(ab, ba);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), via AtomicHistogram::merge_from.
        let left = build(&[]);
        left.merge_from(&ha);
        left.merge_from(&hb);
        let left_total = build(&[]);
        left_total.merge_from(&left);
        left_total.merge_from(&hc);

        let right_tail = build(&[]);
        right_tail.merge_from(&hb);
        right_tail.merge_from(&hc);
        let right_total = build(&[]);
        right_total.merge_from(&ha);
        right_total.merge_from(&right_tail);

        prop_assert_eq!(left_total.snapshot(), right_total.snapshot());

        // The merge equals recording everything into one histogram.
        let everything: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(left_total.snapshot(), build(&everything).snapshot());
    }
}

/// N threads × M records ⇒ exactly N·M observations land, with the
/// bucket total, count, sum, and max all agreeing.
#[test]
fn concurrent_records_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let h = AtomicHistogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic spread across many buckets.
                    h.record((t as u64 + 1) * 257 * (i % 97 + 1));
                }
            });
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    let snap = h.snapshot();
    assert_eq!(snap.count, total);
    assert_eq!(snap.buckets.iter().sum::<u64>(), total);
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| {
            (0..PER_THREAD)
                .map(|i| (t + 1) * 257 * (i % 97 + 1))
                .sum::<u64>()
        })
        .sum();
    assert_eq!(snap.sum, expected_sum);
    assert_eq!(snap.max, THREADS as u64 * 257 * 97);
    assert_eq!(snap.buckets[bucket_index(257)], {
        // Only thread 0 with i % 97 == 0 lands in the 257ns bucket's
        // bucket — sanity that bucketing stayed deterministic under
        // concurrency.
        let idx = bucket_index(257);
        (0..THREADS as u64)
            .flat_map(|t| (0..PER_THREAD).map(move |i| (t + 1) * 257 * (i % 97 + 1)))
            .filter(|v| bucket_index(*v) == idx)
            .count() as u64
    });
}

/// Snapshot merge on an empty accumulator is the identity.
#[test]
fn empty_merge_is_identity() {
    let h = build(&[1_000, 2_000, 3_000]);
    let mut acc = HistogramSnapshot::default();
    acc.merge(&h.snapshot());
    assert_eq!(acc, h.snapshot());
}
