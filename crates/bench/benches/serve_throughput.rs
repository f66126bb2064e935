//! Requests/sec through the HTTP narration service on an 8-query TPC-H
//! workload: the serving-layer overhead and the batched-endpoint win,
//! measured over real loopback sockets.
//!
//! Three paths deliver the same artifact (8 rendered narrations):
//!
//! * **in-process narrate** — the `Translator` API with no HTTP at
//!   all: the floor the service is measured against;
//! * **POST /narrate ×8** — one request per plan on a keep-alive
//!   connection (request parsing, routing, JSON wire format, socket
//!   round-trips);
//! * **POST /narrate/batch** — all 8 plans in one envelope, fanned
//!   through `narrate_batch` (one POEM snapshot, worker fan-out) and
//!   one socket round-trip.
//!
//! On a single core the batch endpoint's win is amortized HTTP (one
//! round-trip instead of eight); on multi-core hosts the fan-out
//! multiplies it.
//!
//! Run with: `cargo bench --bench serve_throughput`
//! (`LANTERN_BENCH_SCALE` scales the iteration count.)

use lantern_bench::{bench_scale, serve_translator, tpch_workload, BenchContext, TableReport};
use lantern_core::{NarrationRequest, RuleTranslator, Translator};
use lantern_plan::plan_to_pg_json;
use lantern_serve::{HttpClient, ServeConfig};
use lantern_text::json::JsonValue;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let ctx = BenchContext::new();
    let workload: Vec<String> = tpch_workload().into_iter().take(8).collect();
    let reqs: Vec<NarrationRequest> = ctx.narration_requests(&ctx.tpch, &workload);
    assert_eq!(reqs.len(), 8, "all 8 TPC-H queries must plan");
    // Serialize each plan as the PG-JSON document a client would POST.
    let docs: Vec<String> = reqs
        .iter()
        .map(|r| plan_to_pg_json(&r.resolve_tree().expect("tree request")))
        .collect();
    let batch_body =
        JsonValue::Array(docs.iter().cloned().map(JsonValue::String).collect()).to_string_compact();

    let rule = RuleTranslator::new(ctx.store.clone());
    let handle = serve_translator(
        RuleTranslator::new(ctx.store.clone()),
        None,
        ServeConfig::default(),
    );
    let mut client = HttpClient::connect(handle.addr()).expect("connect");

    let iters = ((200.0 * bench_scale()) as usize).max(20);

    // Warm-up: prime the snapshot cache, the connection, and the route.
    for _ in 0..10 {
        let in_process: Vec<_> = reqs.iter().map(|r| rule.narrate(r)).collect();
        black_box(in_process);
        for doc in &docs {
            assert_eq!(client.post("/narrate", doc).expect("narrate").status, 200);
        }
        assert_eq!(
            client
                .post("/narrate/batch", &batch_body)
                .expect("batch")
                .status,
            200
        );
    }

    // Floor: the same narrations with no serving layer at all.
    let t0 = Instant::now();
    for _ in 0..iters {
        let out: Vec<_> = reqs.iter().map(|r| rule.narrate(r)).collect();
        black_box(out);
    }
    let in_process = t0.elapsed();

    // One HTTP request per plan, keep-alive connection.
    let t0 = Instant::now();
    for _ in 0..iters {
        for doc in &docs {
            black_box(client.post("/narrate", doc).expect("narrate"));
        }
    }
    let single = t0.elapsed();

    // All 8 plans per request through the batch endpoint.
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(client.post("/narrate/batch", &batch_body).expect("batch"));
    }
    let batched = t0.elapsed();

    let n = (iters * docs.len()) as f64;
    let thr = |elapsed: std::time::Duration| n / elapsed.as_secs_f64();

    let mut report = TableReport::new(
        "Service throughput, 8-plan TPC-H workload over loopback HTTP (plans/s)",
        &["path", "plans/s", "vs in-process"],
    );
    report.row(&[
        "in-process narrate (no HTTP)".to_string(),
        format!("{:.0}", thr(in_process)),
        "1.00x".to_string(),
    ]);
    report.row(&[
        "POST /narrate x8 (keep-alive)".to_string(),
        format!("{:.0}", thr(single)),
        format!("{:.2}x", in_process.as_secs_f64() / single.as_secs_f64()),
    ]);
    report.row(&[
        "POST /narrate/batch (one envelope)".to_string(),
        format!("{:.0}", thr(batched)),
        format!("{:.2}x", in_process.as_secs_f64() / batched.as_secs_f64()),
    ]);
    report.print();
    println!(
        "batch endpoint speedup over per-plan requests: {:.2}x \
         ({} worker thread(s), {} HTTP requests total)",
        single.as_secs_f64() / batched.as_secs_f64(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        iters * (docs.len() + 1),
    );

    drop(client);
    handle.shutdown().expect("clean shutdown");

    // --- concurrency sweep: latency percentiles at C open conns ----
    //
    // C keep-alive connections stay open for the whole measurement;
    // requests round-robin across them with one in flight at a time,
    // so the numbers isolate what holding C live sockets costs the
    // serving core's readiness bookkeeping.
    let sweep_requests = ((1_000.0 * bench_scale()) as usize).max(200);
    let sweep = |conns: usize, metrics: bool| -> (u64, u64, f64) {
        let handle = serve_translator(
            RuleTranslator::new(ctx.store.clone()),
            None,
            ServeConfig {
                // Long idle timeout: parked connections must survive
                // the whole sweep point, not get idle-swept mid-run.
                read_timeout: std::time::Duration::from_secs(120),
                max_conns: 2048,
                metrics,
                ..ServeConfig::default()
            },
        );
        let mut clients: Vec<HttpClient> = (0..conns)
            .map(|_| HttpClient::connect(handle.addr()).expect("connect"))
            .collect();
        let requests = sweep_requests.max(conns * 2);
        let mut latencies = Vec::with_capacity(requests);
        let t0 = Instant::now();
        for i in 0..requests {
            let doc = &docs[i % docs.len()];
            let client = &mut clients[i % conns];
            let t = Instant::now();
            let resp = client.post("/narrate", doc).expect("narrate");
            assert_eq!(resp.status, 200);
            latencies.push(t.elapsed().as_micros() as u64);
        }
        let elapsed = t0.elapsed();
        drop(clients);
        handle.shutdown().expect("clean shutdown");
        latencies.sort_unstable();
        let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
        (
            pct(0.50),
            pct(0.99),
            requests as f64 / elapsed.as_secs_f64(),
        )
    };

    let mut report = TableReport::new(
        "Keep-alive concurrency sweep, POST /narrate round-robin (µs per request)",
        &["path", "conns", "p50 µs", "p99 µs", "req/s"],
    );
    // Every point must sustain all-200s (`sweep` asserts each status).
    for conns in [1, 64, 256, 1024] {
        let (p50, p99, rps) = sweep(conns, true);
        report.row(&[
            "event-driven".to_string(),
            conns.to_string(),
            p50.to_string(),
            p99.to_string(),
            format!("{rps:.0}"),
        ]);
    }
    report.print();

    // --- observability overhead guard --------------------------------
    //
    // The tracing layer (per-stage spans, request histograms, request
    // IDs, the slow-request ring) is on by default, so its cost is paid
    // by every request. Measure the same sweep point with and without
    // it; the instrumented server must hold at least 90% of the bare
    // server's throughput, or the "observability is effectively free"
    // claim in docs/OBSERVABILITY.md is broken.
    let guard_conns = 64;
    let (on_p50, on_p99, rps_on) = sweep(guard_conns, true);
    let (off_p50, off_p99, rps_off) = sweep(guard_conns, false);
    let mut report = TableReport::new(
        "Observability overhead, POST /narrate at fixed concurrency",
        &["metrics", "conns", "p50 µs", "p99 µs", "req/s"],
    );
    report.row(&[
        "on".to_string(),
        guard_conns.to_string(),
        on_p50.to_string(),
        on_p99.to_string(),
        format!("{rps_on:.0}"),
    ]);
    report.row(&[
        "off".to_string(),
        guard_conns.to_string(),
        off_p50.to_string(),
        off_p99.to_string(),
        format!("{rps_off:.0}"),
    ]);
    report.print();
    println!(
        "metrics-on throughput at C={guard_conns}: {:.1}% of metrics-off",
        100.0 * rps_on / rps_off
    );
    assert!(
        rps_on >= 0.9 * rps_off,
        "tracing overhead too high: {rps_on:.0} req/s with metrics vs \
         {rps_off:.0} req/s without at C={guard_conns}"
    );
}
