//! Emission floor of the synthetic plan generator (`lantern-gen`):
//! fresh-artifact emission rate per format, single-threaded.
//! Acceptance: ≥ 10k distinct valid artifacts per second on one core,
//! both formats; every emitted artifact must parse back through the
//! real parser for its format.
//!
//! Serving under generated load is measured by `servebench`, not here.
//!
//! Run with: `cargo bench --bench load`
//! (`LANTERN_BENCH_SCALE` scales the artifact count.)

use lantern_bench::{bench_scale, TableReport};
use lantern_gen::{ArtifactFormat, FormatMix, GenConfig, PlanGenerator};
use lantern_plan::{parse_pg_json_plan, parse_sqlserver_xml_plan};
use std::hint::black_box;
use std::time::Instant;

/// Emit `n` fresh artifacts in `format`; returns (docs, artifacts/s).
fn generation_rate(format: FormatMix, n: usize, seed: u64) -> (Vec<String>, f64) {
    let mut generator =
        PlanGenerator::new(GenConfig::default().with_seed(seed).with_format(format));
    let start = Instant::now();
    let docs: Vec<String> = black_box(
        generator
            .generate(n)
            .into_iter()
            .map(|item| item.doc)
            .collect(),
    );
    let rate = n as f64 / start.elapsed().as_secs_f64();
    (docs, rate)
}

fn main() {
    let n = ((20_000.0 * bench_scale()) as usize).max(2_000);
    let mut report = TableReport::new(
        "lantern-gen: fresh artifact emission (single thread)",
        &["format", "artifacts", "artifacts/s", "parse check"],
    );
    for (format, name) in [
        (FormatMix::PgJson, ArtifactFormat::PgJson.name()),
        (FormatMix::SqlServerXml, ArtifactFormat::SqlServerXml.name()),
    ] {
        let (docs, rate) = generation_rate(format, n, 0xBEEF);
        // Validity: every emitted artifact must parse with the real
        // parser for its format (outside the timed region).
        for doc in &docs {
            match format {
                FormatMix::PgJson => {
                    parse_pg_json_plan(doc).expect("generated PG JSON parses");
                }
                _ => {
                    parse_sqlserver_xml_plan(doc).expect("generated XML parses");
                }
            }
        }
        assert!(
            rate >= 10_000.0,
            "{name}: {rate:.0} artifacts/s is below the 10k/s floor"
        );
        report.row(&[
            name.to_string(),
            n.to_string(),
            format!("{rate:.0}"),
            format!("{} parsed", docs.len()),
        ]);
    }
    report.print();
}
