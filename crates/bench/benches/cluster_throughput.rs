//! Sharded cluster cache efficiency vs a single node at equal traffic.
//!
//! The coordinator's value proposition is shard affinity: routing
//! plans by fingerprint makes each replica's LRU behave like a
//! dedicated cache for its ring range, so three 256-entry caches hold
//! ~768 distinct plans where one 256-entry cache thrashes. This bench
//! drives the *same* seeded duplicate-heavy workload (75% replays
//! drawn from a 2048-plan history, i.e. far more unique plans than one
//! cache holds) against:
//!
//! * **single node** — one replica, one 256-entry cache, direct HTTP;
//! * **3-replica cluster** — three replicas with the same per-node
//!   256-entry cache behind the coordinator.
//!
//! Acceptance: the cluster's aggregate cache-hit ratio must be at
//! least the single node's — shard affinity can only help, and if
//! routing were random the split caches would do no better than one.
//!
//! Run with: `cargo bench --bench cluster_throughput`
//! (`LANTERN_BENCH_SCALE` scales the request count.)

use lantern_bench::{bench_scale, serve_translator, TableReport};
use lantern_cache::{CacheConfig, CachedTranslator};
use lantern_cluster::{serve_cluster, ClusterConfig};
use lantern_core::RuleTranslator;
use lantern_gen::{FormatMix, GenConfig, PlanGenerator};
use lantern_pool::default_mssql_store;
use lantern_serve::{HttpClient, ServeConfig, ServerHandle};
use lantern_text::json::JsonValue;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-node narration cache: deliberately smaller than the workload's
/// unique-plan count so a single node cannot hold the working set.
const NODE_CACHE_ENTRIES: usize = 256;

fn boot_replica() -> ServerHandle {
    let cached = Arc::new(CachedTranslator::new(
        RuleTranslator::new(default_mssql_store()),
        CacheConfig {
            max_entries: NODE_CACHE_ENTRIES,
            ..CacheConfig::default()
        },
    ));
    serve_translator(
        Arc::clone(&cached),
        Some(cached),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
}

/// Drive every document through one connection; returns requests/sec.
fn drive(addr: SocketAddr, docs: &[String]) -> f64 {
    let mut client = HttpClient::connect(addr).expect("connect");
    let t0 = Instant::now();
    for doc in docs {
        let resp = client.post("/narrate", doc).expect("narrate");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    docs.len() as f64 / t0.elapsed().as_secs_f64()
}

/// Cache hits and misses from a `/stats` body (single-node stats and
/// the coordinator's aggregate use the same `cache` section).
fn cache_hit_ratio(addr: SocketAddr) -> (f64, f64, f64) {
    let mut client = HttpClient::connect(addr).expect("connect");
    let resp = client.get("/stats").expect("stats");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let stats = resp.json().expect("stats json");
    let cache = stats.get("cache").expect("cache section");
    let num = |key: &str| {
        cache
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("missing cache.{key}"))
    };
    let (hits, misses) = (num("hits"), num("misses"));
    (hits, misses, hits / (hits + misses))
}

fn main() {
    let requests = ((3_000.0 * bench_scale()) as usize).max(1_000);
    let dup_rate = 0.75;
    let config = GenConfig {
        // Replays sample a history window far wider than one node's
        // cache: the single node thrashes, the sharded fleet fits.
        history: 2_048,
        ..GenConfig::default()
            .with_seed(0x5EED_CAFE)
            .with_duplicate_rate(dup_rate)
            .with_format(FormatMix::Mixed)
    };
    let docs: Vec<String> = PlanGenerator::new(config)
        .generate(requests)
        .into_iter()
        .map(|item| item.doc)
        .collect();

    // --- single node ------------------------------------------------
    let single = boot_replica();
    let single_rps = drive(single.addr(), &docs);
    let (s_hits, s_misses, s_ratio) = cache_hit_ratio(single.addr());
    single.shutdown().expect("single node shutdown");

    // --- 3-replica cluster, same per-node cache, same traffic -------
    let replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let coordinator = serve_cluster(
        ClusterConfig {
            replicas: replicas.iter().map(|r| r.addr()).collect(),
            workers: 2,
            connect_timeout: Duration::from_millis(500),
            ..ClusterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("coordinator boots");
    let cluster_rps = drive(coordinator.addr(), &docs);
    let (c_hits, c_misses, c_ratio) = cache_hit_ratio(coordinator.addr());
    coordinator.shutdown().expect("coordinator shutdown");
    for replica in replicas {
        replica.shutdown().expect("replica shutdown");
    }

    let mut report = TableReport::new(
        &format!(
            "Sharded cluster vs single node, {requests} requests at {dup_rate} dup rate \
             ({NODE_CACHE_ENTRIES}-entry cache per node)"
        ),
        &["topology", "req/s", "cache hits", "misses", "hit ratio"],
    );
    report.row(&[
        "single node (direct)".to_string(),
        format!("{single_rps:.0}"),
        format!("{s_hits:.0}"),
        format!("{s_misses:.0}"),
        format!("{s_ratio:.3}"),
    ]);
    report.row(&[
        "3 replicas + coordinator".to_string(),
        format!("{cluster_rps:.0}"),
        format!("{c_hits:.0}"),
        format!("{c_misses:.0}"),
        format!("{c_ratio:.3}"),
    ]);
    report.print();
    println!(
        "shard affinity recovered {:.1} points of hit ratio \
         (workload: ~{:.0} unique plans vs {} cache entries per node)",
        (c_ratio - s_ratio) * 100.0,
        requests as f64 * (1.0 - dup_rate),
        NODE_CACHE_ENTRIES,
    );

    // Acceptance: splitting the cache three ways must not cost hits —
    // fingerprint routing is what turns three small caches into one
    // big one. (Equality would mean affinity bought nothing.)
    assert!(
        c_ratio >= s_ratio,
        "sharded hit ratio {c_ratio:.3} fell below single-node {s_ratio:.3}"
    );
}
