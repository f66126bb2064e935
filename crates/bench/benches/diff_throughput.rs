//! Plan-diff throughput on the synthetic workload: `lantern-gen`
//! plans, each paired with one injected mutation of every kind, pushed
//! through (a) the bare structural engine, (b) diff + narration, and
//! (c) the full document path (`PlanSource::parse_auto` of both
//! documents + diff + narration — what one `/narrate/diff` request
//! costs after HTTP).
//!
//! Run with: `cargo bench --bench diff_throughput`
//! (`LANTERN_BENCH_SCALE` scales the iteration count.)

use lantern_bench::{bench_scale, TableReport};
use lantern_core::{DiffTranslator, PlanSource};
use lantern_diff::{diff_plans, RuleDiffTranslator};
use lantern_gen::{ArtifactFormat, GenConfig, Mutation, PlanGenerator};
use lantern_plan::PlanTree;
use lantern_pool::default_mssql_store;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn main() {
    let mut generator = PlanGenerator::new(
        GenConfig::default()
            .with_seed(4242)
            .with_ops(3, 9)
            .with_serial_stamps(false),
    );

    // 64 base plans; every applicable mutation of every kind, so the
    // workload mixes join swaps, estimate jitter, and filter tweaks.
    let mut pairs: Vec<(PlanTree, PlanTree)> = Vec::new();
    while pairs.len() < 64 {
        let base = generator.next_tree();
        for kind in Mutation::ALL {
            if let Some(mutant) = generator.mutate_as(&base, kind) {
                pairs.push((base.clone(), mutant));
            }
        }
    }
    let docs: Vec<(String, String)> = pairs
        .iter()
        .map(|(base, alt)| {
            (
                PlanGenerator::render(base, ArtifactFormat::PgJson),
                PlanGenerator::render(alt, ArtifactFormat::PgJson),
            )
        })
        .collect();

    let translator = RuleDiffTranslator::new(default_mssql_store());
    let iters = ((200.0 * bench_scale()) as usize).max(20);

    // (a) structural diff alone.
    let t0 = Instant::now();
    let mut edits = 0usize;
    for _ in 0..iters {
        for (base, alt) in &pairs {
            edits += black_box(diff_plans(base, alt)).edits.len();
        }
    }
    let engine = t0.elapsed();
    assert!(edits > 0, "the workload must produce edits");

    // (b) diff + narration over parsed trees.
    let t0 = Instant::now();
    for _ in 0..iters {
        for (base, alt) in &pairs {
            black_box(translator.narrate_trees(base, alt, None));
        }
    }
    let narrated = t0.elapsed();

    // (c) full document path: format detection + parse + diff +
    // narration, per request.
    let t0 = Instant::now();
    for _ in 0..iters {
        for (base, alt) in &docs {
            let base = PlanSource::parse_auto(base).expect("parses");
            let alt = PlanSource::parse_auto(alt).expect("parses");
            black_box(translator.narrate_trees(&base, &alt, None));
        }
    }
    let documents = t0.elapsed();

    let per = pairs.len() * iters;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / per as f64;
    let rate = |d: Duration| per as f64 / d.as_secs_f64();
    let mut report = TableReport::new(
        &format!(
            "Plan-diff throughput ({} generated plan pairs, {:.1} edits/pair)",
            pairs.len(),
            edits as f64 / per as f64
        ),
        &["path", "µs/diff", "diffs/s"],
    );
    for (name, d) in [
        ("structural diff only", engine),
        ("diff + narration", narrated),
        ("documents end to end", documents),
    ] {
        report.row(&[
            name.to_string(),
            format!("{:.1}", us(d)),
            format!("{:.0}", rate(d)),
        ]);
    }
    report.print();
}
