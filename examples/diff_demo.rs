//! The plan-diff engine end to end: a base plan compared against three
//! alternatives a student might see for the same query — an index
//! added, the join algorithm changed, and a re-`ANALYZE` that only
//! jittered the estimates — each diffed, scored, and narrated, then
//! the whole set ranked by informativeness against one parsed base, as
//! the batch route ranks them.
//!
//! Run with: `cargo run --release --example diff_demo`

use lantern::prelude::*;

/// The base: a sequential scan feeding a nested-loop join.
const BASE: &str = r#"{"Plan": {"Node Type": "Nested Loop",
    "Join Filter": "((o.o_custkey) = (c.c_custkey))",
    "Plan Rows": 1200, "Total Cost": 4800.0,
    "Plans": [
        {"Node Type": "Seq Scan", "Relation Name": "orders", "Alias": "o",
         "Filter": "o_totalprice > 1000", "Plan Rows": 1200, "Total Cost": 3200.0},
        {"Node Type": "Seq Scan", "Relation Name": "customer", "Alias": "c",
         "Plan Rows": 150, "Total Cost": 90.0}
    ]}}"#;

/// Alternative 1: the DBA added an index — the orders scan becomes an
/// index scan and the whole plan gets cheaper.
const INDEXED: &str = r#"{"Plan": {"Node Type": "Nested Loop",
    "Join Filter": "((o.o_custkey) = (c.c_custkey))",
    "Plan Rows": 1200, "Total Cost": 950.0,
    "Plans": [
        {"Node Type": "Index Scan", "Relation Name": "orders", "Alias": "o",
         "Index Name": "orders_totalprice_idx",
         "Filter": "o_totalprice > 1000", "Plan Rows": 1200, "Total Cost": 420.0},
        {"Node Type": "Seq Scan", "Relation Name": "customer", "Alias": "c",
         "Plan Rows": 150, "Total Cost": 90.0}
    ]}}"#;

/// Alternative 2: the optimizer picked a hash join instead.
const HASHED: &str = r#"{"Plan": {"Node Type": "Hash Join",
    "Hash Cond": "((o.o_custkey) = (c.c_custkey))",
    "Plan Rows": 1200, "Total Cost": 3400.0,
    "Plans": [
        {"Node Type": "Seq Scan", "Relation Name": "orders", "Alias": "o",
         "Filter": "o_totalprice > 1000", "Plan Rows": 1200, "Total Cost": 3200.0},
        {"Node Type": "Seq Scan", "Relation Name": "customer", "Alias": "c",
         "Plan Rows": 150, "Total Cost": 90.0}
    ]}}"#;

/// Alternative 3: the same plan after `ANALYZE` — structurally
/// identical, only the estimates drifted.
const JITTERED: &str = r#"{"Plan": {"Node Type": "Nested Loop",
    "Join Filter": "((o.o_custkey) = (c.c_custkey))",
    "Plan Rows": 1315, "Total Cost": 4911.5,
    "Plans": [
        {"Node Type": "Seq Scan", "Relation Name": "orders", "Alias": "o",
         "Filter": "o_totalprice > 1000", "Plan Rows": 1315, "Total Cost": 3290.0},
        {"Node Type": "Seq Scan", "Relation Name": "customer", "Alias": "c",
         "Plan Rows": 150, "Total Cost": 90.0}
    ]}}"#;

fn main() {
    let service = LanternBuilder::new().build().unwrap();

    // One comparison, narrated: what changed when the index appeared.
    let resp = service.diff_documents(BASE, INDEXED).unwrap();
    println!("=== base vs indexed (score {:.1}) ===", resp.score);
    for change in &resp.changes {
        println!("  [{}] at {}: {}", change.kind, change.path, change.detail);
    }
    println!("\n{}\n", resp.text);

    // Rank all three alternatives by how much there is to learn from
    // each, as `POST /narrate/diff/batch` does: the base is parsed once
    // and every alternative is narrated against that tree. The jittered
    // re-EXPLAIN lands last — by design, estimate drift never outranks a
    // structural change.
    let base = PlanSource::parse_auto(BASE).unwrap();
    let alts = [
        ("indexed", INDEXED),
        ("hash join", HASHED),
        ("re-ANALYZE jitter", JITTERED),
    ];
    let mut ranked: Vec<(f64, &str)> = alts
        .iter()
        .map(|&(label, doc)| {
            let alt = PlanSource::parse_auto(doc).unwrap();
            (service.narrate_trees(&base, &alt, None).score, label)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    println!("=== alternatives ranked by informativeness ===");
    for (score, label) in &ranked {
        println!("  {score:>7.1}  {label}");
    }
    assert_eq!(
        ranked.last().unwrap().1,
        "re-ANALYZE jitter",
        "estimate jitter must rank below structural changes"
    );

    // Self-diff: the identical plan reports exactly that.
    let same = service.narrate_trees(&base, &base, None);
    assert!(same.is_identical());
    println!("\nself-diff: {}", same.text);
}
