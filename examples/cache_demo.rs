//! Cold-vs-warm narration through the builder with the plan-fingerprint
//! cache enabled: the classroom pattern (the same `EXPLAIN` artifact
//! submitted over and over) timed end to end, plus in-batch dedup and
//! the cache counters.
//!
//! Run with: `cargo run --release --example cache_demo`

use lantern::prelude::*;
use std::time::Instant;

const PG_DOC: &str = r#"{"Plan": {"Node Type": "Aggregate",
    "Plans": [{"Node Type": "Hash Join",
        "Hash Cond": "((i.proceeding_key) = (p.pub_key))",
        "Plans": [
            {"Node Type": "Seq Scan", "Relation Name": "inproceedings"},
            {"Node Type": "Hash",
             "Plans": [{"Node Type": "Seq Scan", "Relation Name": "publication",
                        "Filter": "title LIKE '%July%'"}]}
        ]}]}}"#;

/// The same plan, serialized with different key order and whitespace —
/// a classmate's byte-different but semantically identical submission.
const PG_DOC_REORDERED: &str = r#"{ "Plan": { "Plans": [{"Hash Cond": "((i.proceeding_key) = (p.pub_key))",
        "Plans": [ {"Relation Name": "inproceedings", "Node Type": "Seq Scan"},
            {"Plans": [{"Filter": "title LIKE '%July%'", "Node Type": "Seq Scan",
                        "Relation Name": "publication"}], "Node Type": "Hash"} ],
        "Node Type": "Hash Join"}], "Node Type": "Aggregate" } }"#;

fn main() {
    let service = LanternBuilder::new()
        .cache(CacheConfig::default())
        .build()
        .unwrap();

    // Cold: the first submission pays the full pipeline.
    let t0 = Instant::now();
    let cold = service.narrate_document(PG_DOC).unwrap();
    let cold_t = t0.elapsed();
    println!("cold narration ({:>9.1?}):\n{}\n", cold_t, cold.text);

    // Warm: the identical re-submission answers from the cache.
    let t0 = Instant::now();
    let warm = service.narrate_document(PG_DOC).unwrap();
    let warm_t = t0.elapsed();
    assert_eq!(cold, warm, "a hit is byte-identical");
    println!(
        "warm narration ({:>9.1?}): identical, {:.0}x faster",
        warm_t,
        cold_t.as_secs_f64() / warm_t.as_secs_f64().max(1e-9)
    );

    // A reordered document is a different byte string but the *same*
    // plan: the canonical fingerprint still hits.
    let t0 = Instant::now();
    let reordered = service.narrate_document(PG_DOC_REORDERED).unwrap();
    println!(
        "reordered-JSON narration ({:>9.1?}): {}",
        t0.elapsed(),
        if reordered == cold {
            "same cache entry"
        } else {
            "MISMATCH"
        }
    );

    // A batch of duplicates narrates item by item: every repeat is a
    // cache hit.
    let reqs: Vec<NarrationRequest> = (0..8)
        .map(|_| NarrationRequest::auto(PG_DOC).unwrap())
        .collect();
    let t0 = Instant::now();
    let out = service.narrate_batch(&reqs);
    println!(
        "\nbatch of {} duplicate submissions: {:?} in {:.1?}",
        reqs.len(),
        out.iter().filter(|r| r.is_ok()).count(),
        t0.elapsed()
    );

    let stats = service.cache_stats().unwrap();
    println!(
        "\ncache counters: entries={} bytes={} hits={} misses={} doc_hits={}",
        stats.entries, stats.bytes, stats.hits, stats.misses, stats.doc_hits
    );
}
