//! Load harness over the synthetic plan generator (`lantern-gen`):
//!
//! 1. **Generator throughput** — fresh-artifact emission rate per
//!    format, single-threaded. Acceptance (ISSUE 6): ≥ 10k distinct
//!    valid artifacts per second on one core, both formats; every
//!    sampled artifact must parse back through the real parsers.
//! 2. **Duplicate-rate soak curves** — the `lantern-serve` soak driver
//!    against an in-process cached server, sweeping the schedule's
//!    duplicate rate. The cache hit ratio must track the configured
//!    rate (the generator replays from a bounded history ring, so the
//!    mapping is exact up to sampling noise), and tail latency should
//!    fall as the duplicate rate rises.
//!
//! Run with: `cargo bench --bench load`
//! (`LANTERN_BENCH_SCALE` scales the request counts.)

use lantern_bench::serve_translator;
use lantern_bench::{bench_scale, TableReport};
use lantern_cache::{CacheConfig, CacheControl, CachedTranslator};
use lantern_core::RuleTranslator;
use lantern_gen::{ArtifactFormat, FormatMix, GenConfig, PlanGenerator};
use lantern_plan::{parse_pg_json_plan, parse_sqlserver_xml_plan};
use lantern_pool::default_mssql_store;
use lantern_serve::soak::{run_soak, SoakConfig};
use lantern_serve::{HttpClient, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;
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
    let scale = bench_scale();

    // --- 1. generator throughput, per format -----------------------
    let n = ((20_000.0 * scale) as usize).max(2_000);
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

    // --- 2. duplicate-rate soak curves against a live server -------
    let cached = Arc::new(CachedTranslator::new(
        RuleTranslator::new(default_mssql_store()),
        CacheConfig::default(),
    ));
    let handle = serve_translator(
        Arc::clone(&cached),
        Some(Arc::clone(&cached) as Arc<dyn CacheControl + Send + Sync>),
        ServeConfig::default(),
    );

    let requests = ((2_000.0 * scale) as usize).max(400);
    let mut report = TableReport::new(
        "soak: duplicate-rate sweep (4 clients, rule backend, warm-free cache)",
        &[
            "dup rate",
            "requests",
            "hit ratio",
            "p50 µs",
            "p99 µs",
            "req/s",
        ],
    );
    for (i, dup_rate) in [0.0, 0.5, 0.75, 0.9].into_iter().enumerate() {
        // Each sweep point starts from an empty cache so its hit ratio
        // reflects only its own schedule.
        let mut admin = HttpClient::connect(handle.addr()).expect("connect admin");
        assert_eq!(admin.post("/cache/clear", "").expect("clear").status, 200);
        drop(admin);

        let config = GenConfig::default()
            .with_seed(0xD0 + i as u64)
            .with_duplicate_rate(dup_rate);
        let docs: Vec<String> = PlanGenerator::new(config)
            .generate(requests)
            .into_iter()
            .map(|item| item.doc)
            .collect();
        let soak = run_soak(
            handle.addr(),
            &docs,
            &SoakConfig {
                clients: 4,
                pipeline: 1,
            },
        )
        .expect("soak runs");
        assert_eq!(
            soak.ok as usize, requests,
            "every generated artifact must narrate (statuses: {:?})",
            soak.statuses
        );
        let cache = soak.cache.expect("cached server reports a delta");
        assert!(
            (cache.hit_ratio - dup_rate).abs() <= 0.05,
            "hit ratio {:.3} drifted from configured duplicate rate {dup_rate}",
            cache.hit_ratio
        );
        report.row(&[
            format!("{dup_rate:.2}"),
            requests.to_string(),
            format!("{:.3}", cache.hit_ratio),
            soak.latency.p50_us.to_string(),
            soak.latency.p99_us.to_string(),
            format!("{:.0}", soak.throughput_rps),
        ]);
    }
    report.print();
    handle.shutdown().expect("clean shutdown");

    // --- 3. load shedding under a deliberately undersized pool -----
    //
    // One 2 ms-per-request worker behind a 2-slot dispatch queue,
    // hammered by 4 clients pipelining 8 requests each: the event
    // loop must shed the overflow with immediate 503s instead of
    // queueing it, and the requests it does accept must keep a sane
    // tail (shedding exists so accepted work doesn't collapse).
    shed_scenario();
}

fn shed_scenario() {
    use lantern_core::{LanternError, NarrationRequest, NarrationResponse, Translator};

    struct Slow(RuleTranslator);
    impl Translator for Slow {
        fn backend(&self) -> &str {
            "slow"
        }
        fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.0.narrate(req)
        }
    }

    let handle = serve_translator(
        Slow(RuleTranslator::new(default_mssql_store())),
        None,
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        },
    );

    let docs: Vec<String> = PlanGenerator::new(
        GenConfig::default()
            .with_seed(0x5EED)
            .with_duplicate_rate(0.0),
    )
    .generate(256)
    .into_iter()
    .map(|item| item.doc)
    .collect();
    let soak = run_soak(
        handle.addr(),
        &docs,
        &SoakConfig {
            clients: 4,
            pipeline: 8,
        },
    )
    .expect("shed soak runs");

    let mut report = TableReport::new(
        "load shedding: 1 worker x 2 ms, queue cap 2, 4 clients x pipeline 8",
        &["requests", "ok", "shed (503)", "p50 µs", "p99 µs", "max µs"],
    );
    report.row(&[
        soak.requests.to_string(),
        soak.ok.to_string(),
        soak.shed.to_string(),
        soak.latency.p50_us.to_string(),
        soak.latency.p99_us.to_string(),
        soak.latency.max_us.to_string(),
    ]);
    report.print();

    assert!(
        soak.shed > 0,
        "an undersized pool must shed under pipelined load (statuses: {:?})",
        soak.statuses
    );
    assert_eq!(
        soak.server.shed_requests, soak.shed,
        "server shed counter must match the 503s clients observed"
    );
    assert!(soak.ok > 0, "shedding must not starve accepted requests");
    // Tail sanity: with ~32 requests in flight against a 2 ms worker,
    // an accepted request waits a few queue depths at most. A p99 in
    // the hundreds of milliseconds would mean overload was queued,
    // not shed.
    assert!(
        soak.latency.p99_us < 500_000,
        "p99 {} µs collapsed under overload",
        soak.latency.p99_us
    );
    handle.shutdown().expect("clean shutdown");
}
