//! Socket-level coordinator tests: stats aggregation across replicas
//! (including a dead one), catalog broadcast with cache-key rollover,
//! a lagging replica catching up from the statement log after a
//! restart, and the coordinator answering every request shape as a
//! replica does.

use lantern_cache::{CacheConfig, CachedTranslator};
use lantern_cluster::{serve_cluster, shard_key, ClusterConfig, ClusterHandle, HashRing};
use lantern_core::RuleTranslator;
use lantern_diff::RuleDiffTranslator;
use lantern_gen::{FormatMix, GenConfig, PlanGenerator};
use lantern_pool::{default_pg_store, PoemStore};
use lantern_serve::{
    serve, CatalogApplied, CatalogApplyError, CatalogControl, HttpClient, Router, ServeConfig,
    ServeStats, ServerHandle,
};
use lantern_text::json::JsonValue;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Replica-side catalog surface over a fresh store: mirrors the
/// workspace facade's semantics (gap check, idempotent skip, failing
/// statements consume their sequence number).
struct TestCatalog {
    store: PoemStore,
    seq: AtomicU64,
    lock: Mutex<()>,
}

impl TestCatalog {
    fn new(store: PoemStore) -> Self {
        TestCatalog {
            store,
            seq: AtomicU64::new(0),
            lock: Mutex::new(()),
        }
    }
}

impl CatalogControl for TestCatalog {
    fn catalog_version(&self) -> u64 {
        self.store.version()
    }

    fn catalog_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    fn catalog_apply(
        &self,
        from_seq: u64,
        statements: &[String],
    ) -> Result<CatalogApplied, CatalogApplyError> {
        let _guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        let mut seq = self.seq.load(Ordering::SeqCst);
        if from_seq > seq + 1 {
            return Err(CatalogApplyError::SequenceGap {
                expected: seq + 1,
                got: from_seq,
            });
        }
        let mut applied = 0u64;
        let mut skipped = 0u64;
        let mut errors = Vec::new();
        for (offset, statement) in statements.iter().enumerate() {
            let statement_seq = from_seq + offset as u64;
            if statement_seq <= seq {
                skipped += 1;
                continue;
            }
            if let Err(e) = lantern_pool::execute(statement, &self.store) {
                errors.push(format!("seq {statement_seq}: {e}"));
            }
            seq = statement_seq;
            applied += 1;
        }
        self.seq.store(seq, Ordering::SeqCst);
        Ok(CatalogApplied {
            applied,
            skipped,
            applied_seq: seq,
            version: self.store.version(),
            errors,
        })
    }
}

/// One booted replica: cached rule translator over its own store, cache
/// generation keyed on the store version so catalog mutations roll every
/// cache key at once, and a rule diff backend.
fn boot_replica_on(listener: std::net::TcpListener) -> ServerHandle {
    boot_replica_sized(listener, 512)
}

/// [`boot_replica_on`] with a narration cache of `max_entries`.
fn boot_replica_sized(listener: std::net::TcpListener, max_entries: usize) -> ServerHandle {
    let store = default_pg_store();
    let generation_store = store.clone();
    let cached = Arc::new(
        CachedTranslator::new(
            RuleTranslator::new(store.clone()),
            CacheConfig {
                max_entries,
                ..CacheConfig::default()
            },
        )
        .with_generation(move || generation_store.version()),
    );
    let diff = Arc::new(RuleDiffTranslator::new(store.clone()));
    let catalog = Arc::new(TestCatalog::new(store));
    let router = Router::with_catalog(
        Arc::clone(&cached),
        Arc::new(ServeStats::new()),
        Some(cached),
        Some(diff),
        Some(catalog),
    );
    serve(
        Arc::new(router),
        listener,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("replica boots")
}

fn boot_replica() -> ServerHandle {
    boot_replica_on(std::net::TcpListener::bind("127.0.0.1:0").expect("bind"))
}

fn boot_coordinator(replicas: Vec<SocketAddr>) -> ClusterHandle {
    serve_cluster(
        ClusterConfig {
            replicas,
            workers: 2,
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(2000),
            retry_backoff: Duration::from_millis(5),
            probe_interval: Duration::from_millis(50),
            ..ClusterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("coordinator boots")
}

fn plan_doc(relation: &str) -> String {
    format!(r#"{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "{relation}"}}}}"#)
}

fn get_json(client: &mut HttpClient, path: &str) -> JsonValue {
    let resp = client.get(path).expect("GET");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    resp.json().expect("JSON body")
}

fn num(value: &JsonValue, key: &str) -> f64 {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing numeric {key} in {}", value.to_string_compact()))
}

fn cache_counters(stats: &JsonValue) -> (f64, f64) {
    let cache = stats.get("cache").expect("aggregated cache section");
    (num(cache, "hits"), num(cache, "misses"))
}

/// Wait until `check` passes or the deadline hits (probe loops and
/// replays are asynchronous).
fn wait_for(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn stats_aggregate_sums_replicas_and_reports_a_dead_one_without_erroring() {
    let mut replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs.clone());
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");

    // Duplicate-heavy traffic: 8 distinct plans, 4 passes.
    let docs: Vec<String> = (0..8).map(|i| plan_doc(&format!("table_{i}"))).collect();
    for _ in 0..4 {
        for doc in &docs {
            let resp = client.post("/narrate", doc).expect("narrate");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
    }

    let stats = get_json(&mut client, "/stats");
    // Replica counters sum at the top level: 32 narrations total.
    assert_eq!(num(&stats, "narrate_requests"), 32.0);
    // Queue/shed gauges aggregate too (zero here, but present — a
    // client reads them off the coordinator exactly like off a single
    // node).
    assert_eq!(num(&stats, "shed_requests"), 0.0);
    assert!(stats.get("queue_depth").is_some(), "queue_depth missing");
    assert!(
        stats.get("uptime_ms").is_none(),
        "uptimes must not be summed across replicas"
    );
    // Shard affinity: every duplicate hit its owner's warm cache, so
    // the aggregate sees 8 misses and 24 hits.
    let (hits, misses) = cache_counters(&stats);
    assert_eq!(misses, 8.0);
    assert_eq!(hits, 24.0);
    // Per-replica breakdown covers every configured replica.
    let breakdown = stats.get("replicas").and_then(|r| r.as_array()).unwrap();
    assert_eq!(breakdown.len(), 3);
    assert!(breakdown
        .iter()
        .all(|r| r.get("healthy").and_then(JsonValue::as_bool) == Some(true)));

    // Kill one replica: /stats must stay 200, with the dead replica
    // reported (not silently dropped, not an error).
    let victim_addr = addrs[0].to_string();
    replicas.remove(0).shutdown().unwrap();
    let stats = get_json(&mut client, "/stats");
    let breakdown = stats.get("replicas").and_then(|r| r.as_array()).unwrap();
    assert_eq!(breakdown.len(), 3);
    let dead: Vec<&JsonValue> = breakdown
        .iter()
        .filter(|r| r.get("healthy").and_then(JsonValue::as_bool) == Some(false))
        .collect();
    assert_eq!(dead.len(), 1, "{}", stats.to_string_compact());
    assert_eq!(
        dead[0].get("addr").and_then(JsonValue::as_str),
        Some(victim_addr.as_str())
    );
    // The survivors' counters still aggregate.
    assert!(num(&stats, "narrate_requests") > 0.0);

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

/// Uptimes do not add up across a fleet: two replicas up 100 s are not
/// a fleet up 200 s. The coordinator's `/metrics` keeps each
/// replica's uptime under its `replica` label and merges none into the
/// unlabeled fleet rows; `/stats` reports uptime per replica only.
#[test]
fn fleet_pages_report_uptime_per_replica_and_never_summed() {
    use lantern_obs::parse_exposition;

    let booted = Instant::now();
    let replicas: Vec<ServerHandle> = (0..2).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs.clone());
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");

    let page = client.get("/metrics").expect("coordinator metrics");
    assert_eq!(page.status, 200);
    let page = parse_exposition(&page.body);
    for key in ["uptime_ms", "uptime_seconds"] {
        let name = format!("lantern_server_{key}");
        let rows: Vec<_> = page.samples.iter().filter(|s| s.name == name).collect();
        assert!(
            rows.iter().all(|s| s.label("replica").is_some()),
            "{name} merged across replicas: {rows:?}"
        );
        assert_eq!(rows.len(), 2, "one {name} row per replica");
    }
    let stats = get_json(&mut client, "/stats");
    let elapsed_ms = booted.elapsed().as_millis() as f64;
    for addr in addrs.iter().map(SocketAddr::to_string) {
        let ms = |value: &JsonValue| {
            let rows = value.get("replicas").and_then(|r| r.as_array()).unwrap();
            let row = rows
                .iter()
                .find(|r| r.get("addr").and_then(JsonValue::as_str) == Some(addr.as_str()))
                .expect("replica row");
            num(row.get("stats").expect("replica stats"), "uptime_ms")
        };
        assert!(ms(&stats) <= elapsed_ms, "{addr}: one replica's uptime");
        let labeled = page
            .samples
            .iter()
            .find(|s| {
                s.name == "lantern_server_uptime_ms" && s.label("replica") == Some(addr.as_str())
            })
            .expect("labeled uptime row");
        assert!(labeled.value <= elapsed_ms, "{addr}: {}", labeled.value);
    }
    assert!(stats.get("uptime_ms").is_none());

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

#[test]
fn sharded_fleet_hits_at_least_as_often_as_one_node_of_equal_cache() {
    // Replays draw from a history ring far wider than one node's cache:
    // a single node thrashes, while fingerprint routing gives each of
    // three replicas its own slice of the working set. PG JSON only:
    // the replicas' store carries the PostgreSQL vocabulary.
    const NODE_CACHE_ENTRIES: usize = 16;
    const REQUESTS: usize = 400;
    let config = GenConfig {
        history: 128,
        ..GenConfig::default()
            .with_seed(0x5EED_CAFE)
            .with_duplicate_rate(0.75)
            .with_format(FormatMix::PgJson)
    };
    let docs: Vec<String> = PlanGenerator::new(config)
        .generate(REQUESTS)
        .into_iter()
        .map(|item| item.doc)
        .collect();
    let boot = || {
        boot_replica_sized(
            std::net::TcpListener::bind("127.0.0.1:0").expect("bind"),
            NODE_CACHE_ENTRIES,
        )
    };
    // One sequential client per topology, so each cache sees the
    // stream in order: no count depends on thread scheduling (the
    // fleet's shift slightly with where the ring puts each replica's
    // ephemeral port, well clear of the single node's).
    let hit_ratio = |addr: SocketAddr| {
        let mut client = HttpClient::connect(addr).expect("connect");
        for doc in &docs {
            let resp = client.post("/narrate", doc).expect("narrate");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        let (hits, misses) = cache_counters(&get_json(&mut client, "/stats"));
        assert_eq!(hits + misses, REQUESTS as f64);
        hits / (hits + misses)
    };

    let single = boot();
    let single_ratio = hit_ratio(single.addr());
    single.shutdown().unwrap();

    let replicas: Vec<ServerHandle> = (0..3).map(|_| boot()).collect();
    let coordinator = boot_coordinator(replicas.iter().map(|r| r.addr()).collect());
    let sharded_ratio = hit_ratio(coordinator.addr());
    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }

    assert!(
        sharded_ratio >= single_ratio,
        "sharded hit ratio {sharded_ratio:.3} fell below single-node {single_ratio:.3}"
    );
}

#[test]
fn batch_splits_across_shards_and_stitches_in_order() {
    let replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs);
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");

    // Enough distinct plans to hit all three shards, plus a non-string
    // entry and an unparseable document mixed in at known positions.
    let mut items: Vec<JsonValue> = (0..12)
        .map(|i| JsonValue::String(plan_doc(&format!("batch_{i}"))))
        .collect();
    items.insert(3, JsonValue::Number(7.0));
    items.insert(9, JsonValue::String("not a plan at all".to_string()));
    let body = JsonValue::Array(items.clone()).to_string_compact();

    let resp = client.post("/narrate/batch", &body).expect("batch");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let out = resp.json().expect("json");
    let out = out.as_array().expect("array response");
    assert_eq!(out.len(), items.len(), "stitched length");
    for (i, item) in out.iter().enumerate() {
        let is_error = item.get("error").is_some();
        match i {
            3 | 9 => assert!(is_error, "entry {i} should fail: {item:?}"),
            _ => {
                assert!(!is_error, "entry {i} should narrate: {item:?}");
                let text = item.get("text").and_then(JsonValue::as_str).unwrap();
                assert!(!text.is_empty());
            }
        }
    }

    // The same batch again answers from warm shard caches: aggregate
    // hits grow by the number of valid entries.
    let before = get_json(&mut client, "/stats");
    let resp = client.post("/narrate/batch", &body).expect("batch");
    assert_eq!(resp.status, 200);
    let after = get_json(&mut client, "/stats");
    let (hits_before, _) = cache_counters(&before);
    let (hits_after, misses_after) = cache_counters(&after);
    assert_eq!(hits_after - hits_before, 12.0);
    let (_, misses_before) = cache_counters(&before);
    assert_eq!(misses_after, misses_before, "repeat batch added no misses");

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

/// The coordinator stitches batch answers from the replicas' item bytes.
/// The DOM path it replaced parsed each replica answer and re-serialized
/// the stitched array; since every replica narrates deterministically
/// (batch ≡ sequential, cache on ≡ off), that path's output is one
/// replica's answer to the whole batch, parsed and written back
/// compactly. Seeded batches span both replicas and carry per-item
/// errors; one is sent with whitespace between entries, which the
/// coordinator forwards as is.
#[test]
fn stitched_batches_equal_the_dom_stitching_byte_for_byte() {
    let replicas: Vec<ServerHandle> = (0..2).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let names: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let ring = HashRing::new(&names, ClusterConfig::default().virtual_nodes);
    let coordinator = boot_coordinator(addrs);
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");
    let mut direct = HttpClient::connect(replicas[0].addr()).expect("connect");

    for seed in 0..4u64 {
        let config = GenConfig::default()
            .with_seed(seed)
            .with_format(FormatMix::Mixed)
            .with_mutate_rate(0.3)
            .with_duplicate_rate(0.2);
        let docs: Vec<String> = PlanGenerator::new(config)
            .generate(10)
            .into_iter()
            .map(|item| item.doc)
            .collect();
        let owners: std::collections::BTreeSet<usize> = docs
            .iter()
            .map(|doc| ring.route(shard_key(doc)).expect("non-empty ring"))
            .collect();
        assert_eq!(
            owners.len(),
            2,
            "seed {seed}: the batch must span both replicas"
        );
        let mut items: Vec<JsonValue> = docs.iter().cloned().map(JsonValue::String).collect();
        items.insert(2, JsonValue::Number(7.5));
        items.insert(5, JsonValue::String("not a plan at all".to_string()));
        items.push(JsonValue::String(docs[0][..docs[0].len() / 2].to_string()));
        items.push(JsonValue::Null);
        let compact = JsonValue::Array(items.clone()).to_string_compact();
        let spaced = JsonValue::Array(items).to_string_pretty();
        for body in [&compact, &spaced] {
            let stitched = client.post("/narrate/batch", body).expect("batch");
            assert_eq!(stitched.status, 200, "{}", stitched.body);
            let reference = direct.post("/narrate/batch", body).expect("batch");
            assert_eq!(reference.status, 200, "{}", reference.body);
            let dom = reference.json().expect("JSON answer").to_string_compact();
            assert_eq!(stitched.body, dom, "seed {seed}");
            let answers = stitched.json().expect("JSON answer");
            let answers = answers.as_array().expect("array answer");
            for i in [2, 5, answers.len() - 2, answers.len() - 1] {
                assert!(
                    answers[i].get("error").is_some(),
                    "entry {i}: {:?}",
                    answers[i]
                );
            }
        }
    }

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

/// Status and body of one `POST path` carrying the raw `body` bytes
/// (which need not be UTF-8), on a fresh connection to `addr`.
fn post_bytes(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut bytes = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    stream.write_all(&bytes).expect("send request");
    let response = read_responses(&mut stream, 1).remove(0);
    let (_, body) = response.split_once("\r\n\r\n").expect("head and body");
    (status_of(&response), body.to_string())
}

/// The coordinator answers as a replica answering directly would, on
/// every request shape: the same status and body bytes (the request id
/// header aside). Malformed requests, including a bad `?style=` on a
/// batch that spans several shards and bodies that are not UTF-8, are
/// answered by the coordinator through the replicas' own envelope
/// reader; well-formed ones are routed, and every replica narrates
/// alike.
#[test]
fn coordinator_answers_every_request_shape_as_a_replica_does() {
    let replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let names: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let ring = HashRing::new(&names, ClusterConfig::default().virtual_nodes);
    let coordinator = boot_coordinator(addrs.clone());

    let docs: Vec<String> = (0..12).map(|i| plan_doc(&format!("shape_{i}"))).collect();
    let owners: std::collections::BTreeSet<usize> = docs
        .iter()
        .map(|doc| ring.route(shard_key(doc)).expect("non-empty ring"))
        .collect();
    assert!(owners.len() > 1, "the batch must span several shards");
    let strings = |docs: &[String]| -> Vec<JsonValue> {
        docs.iter().cloned().map(JsonValue::String).collect()
    };
    let batch = JsonValue::Array(strings(&docs)).to_string_compact();
    let mut mixed = strings(&docs[..4]);
    mixed.insert(1, JsonValue::Number(7.0));
    mixed.push(JsonValue::Null);
    mixed.push(JsonValue::String("not a plan".to_string()));
    let mixed = JsonValue::Array(mixed).to_string_pretty();
    let envelope = |members: Vec<(&str, JsonValue)>| {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .to_string_compact()
    };
    let alt = docs[1].replace("Seq Scan", "Index Scan");
    let diff = envelope(vec![
        ("base", JsonValue::String(docs[0].clone())),
        ("alt", JsonValue::String(alt.clone())),
    ]);
    let diff_batch = envelope(vec![
        ("base", JsonValue::String(docs[0].clone())),
        (
            "alts",
            JsonValue::Array(vec![
                JsonValue::String(alt.clone()),
                JsonValue::Number(1.0),
                JsonValue::String(docs[0].clone()),
            ]),
        ),
    ]);
    // A base that detects but does not parse is one whole-request error.
    let broken_base_batch = envelope(vec![
        (
            "base",
            JsonValue::String(docs[0][..docs[0].len() / 2].to_string()),
        ),
        (
            "alts",
            JsonValue::Array(vec![
                JsonValue::String(alt.clone()),
                JsonValue::String(docs[0].clone()),
            ]),
        ),
    ]);
    let not_utf8: &[u8] = b"{\"Plan\": \"\xff\xfe\"}";
    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();
    for (route, good) in [
        ("/narrate", docs[0].as_str()),
        ("/narrate/batch", batch.as_str()),
        ("/narrate/diff", diff.as_str()),
        ("/narrate/diff/batch", diff_batch.as_str()),
    ] {
        for query in ["", "?style=bogus", "?style=bulleted", "?nocache=1"] {
            corpus.push((format!("{route}{query}"), good.as_bytes().to_vec()));
        }
        for query in ["", "?style=bogus"] {
            corpus.push((format!("{route}{query}"), not_utf8.to_vec()));
        }
        for body in [
            "",
            "not json",
            "[]",
            "{}",
            "42",
            "[1, \"x\"] x",
            "EXPLAIN SELECT 1",
        ] {
            corpus.push((route.to_string(), body.as_bytes().to_vec()));
        }
    }
    for (route, body) in [
        ("/narrate/batch", mixed.as_str()),
        ("/narrate/batch", r#"{"plans": []}"#),
        ("/narrate/diff", r#"{"base": "x"}"#),
        ("/narrate/diff", r#"{"base": 42, "alt": "x"}"#),
        ("/narrate/diff", r#"{"base": "x", "alt": 42}"#),
        (
            "/narrate/diff",
            r#"{"base": "EXPLAIN", "alt": "x", "base": ""}"#,
        ),
        ("/narrate/diff/batch", broken_base_batch.as_str()),
        ("/narrate/diff/batch", r#"{"base": "x", "alts": []}"#),
        ("/narrate/diff/batch", r#"{"base": "x", "alts": "x"}"#),
        ("/narrate/diff/batch", r#"{"alts": ["x"]}"#),
        (
            "/narrate/diff/batch",
            r#"{"base": "EXPLAIN SELECT 1", "alts": ["x"]}"#,
        ),
    ] {
        corpus.push((route.to_string(), body.as_bytes().to_vec()));
    }

    for (path, body) in &corpus {
        let routed = post_bytes(coordinator.addr(), path, body);
        let direct = post_bytes(addrs[0], path, body);
        assert_eq!(routed, direct, "{path} {:?}", String::from_utf8_lossy(body));
    }
    let (status, _) = post_bytes(
        coordinator.addr(),
        "/narrate/diff/batch",
        broken_base_batch.as_bytes(),
    );
    assert_eq!(status, 400);

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

/// Documents nested past the readers' depth limit are queries of death
/// no more: the coordinator routes each one by its text and answers the
/// replica's 400 `parse` error byte for byte, and both stay healthy.
#[test]
fn deep_documents_are_a_400_from_coordinator_and_replica_alike() {
    let replicas: Vec<ServerHandle> = (0..2).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs.clone());
    let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    let chain = format!(
        r#"{{"Plan": {}{{"Node Type": "Seq Scan", "Relation Name": "t"}}{}}}"#,
        r#"{"Node Type": "Sort", "Plans": ["#.repeat(3_000),
        "]}".repeat(3_000)
    );
    for doc in [nest(50_000), nest(200_000), chain] {
        let routed = post_bytes(coordinator.addr(), "/narrate", doc.as_bytes());
        assert_eq!(routed.0, 400, "{}", routed.1);
        assert!(routed.1.contains(r#""kind":"parse""#), "{}", routed.1);
        assert_eq!(routed, post_bytes(addrs[0], "/narrate", doc.as_bytes()));
    }
    for addr in [coordinator.addr(), addrs[0], addrs[1]] {
        let mut client = HttpClient::connect(addr).expect("connect");
        let health = get_json(&mut client, "/healthz");
        assert_eq!(health.get("status").and_then(JsonValue::as_str), Some("ok"));
    }

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

#[test]
fn catalog_mutation_broadcasts_rolls_cache_keys_and_changes_narration() {
    let replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs);
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");

    // Warm the owning shard's cache for one plan.
    let doc = plan_doc("orders");
    for _ in 0..2 {
        let resp = client.post("/narrate", &doc).expect("narrate");
        assert_eq!(resp.status, 200);
    }
    let warm = get_json(&mut client, "/stats");
    let (warm_hits, warm_misses) = cache_counters(&warm);
    assert_eq!((warm_hits, warm_misses), (1.0, 1.0));

    // A statement that won't parse is refused locally — nothing
    // reaches the log or the replicas.
    let resp = client
        .post("/catalog/apply", "FROBNICATE EVERYTHING")
        .expect("apply");
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Mutate the seqscan wording through the coordinator.
    let resp = client
        .post(
            "/catalog/apply",
            "UPDATE pg SET desc = 'carefully walk table' WHERE name = 'seqscan'",
        )
        .expect("apply");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let ack = resp.json().expect("json");
    assert_eq!(num(&ack, "seq"), 1.0);
    let legs = ack.get("replicas").and_then(|r| r.as_array()).unwrap();
    assert_eq!(legs.len(), 3);
    for leg in legs {
        assert_eq!(
            leg.get("status").and_then(JsonValue::as_str),
            Some("applied")
        );
        assert_eq!(num(leg, "applied_seq"), 1.0);
    }
    // Every replica converged on the same catalog version.
    let versions: Vec<f64> = legs.iter().map(|l| num(l, "version")).collect();
    assert!(versions.windows(2).all(|w| w[0] == w[1]), "{versions:?}");

    // The store version rolled, so the warmed key is stale: first
    // narration after the mutation is a cold miss with the *new*
    // wording, the second is a warm hit.
    let resp = client.post("/narrate", &doc).expect("narrate");
    assert_eq!(resp.status, 200);
    let narration = resp.json().expect("json");
    let text = narration.get("text").and_then(JsonValue::as_str).unwrap();
    assert!(text.contains("carefully walk table"), "{text}");
    let cold = get_json(&mut client, "/stats");
    let (cold_hits, cold_misses) = cache_counters(&cold);
    assert_eq!((cold_hits, cold_misses), (warm_hits, warm_misses + 1.0));

    let resp = client.post("/narrate", &doc).expect("narrate");
    assert_eq!(resp.status, 200);
    let rewarmed = get_json(&mut client, "/stats");
    let (rewarm_hits, rewarm_misses) = cache_counters(&rewarmed);
    assert_eq!((rewarm_hits, rewarm_misses), (cold_hits + 1.0, cold_misses));

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

#[test]
fn coordinator_metrics_merge_replicas_bucket_wise_and_request_ids_round_trip() {
    use lantern_obs::{
        parse_exposition, snapshot_from_samples, METRIC_REQUEST_SECONDS, METRIC_STAGE_SECONDS,
    };
    use lantern_serve::http::REQUEST_ID_HEADER;

    let replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs.clone());
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");

    // A request with a caller-supplied ID: the same ID must come back
    // on the coordinator's response (the replica echoes it, the
    // coordinator preserves it) and land in the owning replica's slow
    // log — one stable ID across both hops.
    let supplied = "e2e-test-0000abcd";
    let resp = client
        .try_request_with(
            "POST",
            "/narrate",
            &[(REQUEST_ID_HEADER, supplied)],
            Some(&plan_doc("traced_table")),
        )
        .expect("narrate with id");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header(REQUEST_ID_HEADER), Some(supplied));
    let mut seen_on_replica = 0usize;
    for addr in &addrs {
        let mut direct = HttpClient::connect(*addr).expect("connect replica");
        let slow = get_json(&mut direct, "/debug/slow?threshold_ms=0");
        let entries = slow.get("entries").and_then(|e| e.as_array()).unwrap();
        seen_on_replica += entries
            .iter()
            .filter(|e| e.get("id").and_then(JsonValue::as_str) == Some(supplied))
            .count();
    }
    assert_eq!(seen_on_replica, 1, "supplied ID on exactly one replica");

    // Without a header the coordinator mints one and it still
    // propagates to the response.
    let resp = client
        .post("/narrate", &plan_doc("minted_table"))
        .expect("narrate");
    assert_eq!(resp.status, 200);
    let minted = resp
        .header(REQUEST_ID_HEADER)
        .expect("minted id")
        .to_string();
    assert!(!minted.is_empty());

    // Spread more traffic so every shard has recorded something: four
    // documents owned by each replica, picked on the coordinator's own
    // ring, so coverage holds by construction.
    let names: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let ring = HashRing::new(&names, ClusterConfig::default().virtual_nodes);
    let mut owned = vec![0usize; addrs.len()];
    let docs: Vec<String> = (0..)
        .map(|i| plan_doc(&format!("merge_{i}")))
        .filter(|doc| {
            let owner = ring.route(shard_key(doc)).expect("non-empty ring");
            owned[owner] += 1;
            owned[owner] <= 4
        })
        .take(4 * addrs.len())
        .collect();
    for doc in &docs {
        let resp = client.post("/narrate", doc).expect("narrate");
        assert_eq!(resp.status, 200);
    }

    // Scrape each replica directly and merge its narrate-stage
    // histogram by hand; the coordinator's unlabeled series must equal
    // that merge bucket-for-bucket, and its per-replica labeled series
    // must equal each individual scrape. The narrate stage is the
    // comparison target because only narrate traffic moves it — probe
    // loops and the scrapes themselves only touch read/write and the
    // request histogram, which would race this equality check.
    let stage = &[("stage", "narrate")][..];
    let mut expected = lantern_obs::HistogramSnapshot::default();
    let mut per_replica = Vec::new();
    for addr in &addrs {
        let mut direct = HttpClient::connect(*addr).expect("connect replica");
        let page = direct.get("/metrics").expect("replica metrics");
        assert_eq!(page.status, 200);
        let parsed = parse_exposition(&page.body);
        let snap = snapshot_from_samples(&parsed.samples, METRIC_STAGE_SECONDS, stage)
            .expect("replica narrate-stage histogram");
        expected.merge(&snap);
        per_replica.push((addr.to_string(), snap));
    }
    assert!(expected.count >= 14, "replicas recorded the traffic");

    let page = client.get("/metrics").expect("coordinator metrics");
    assert_eq!(page.status, 200, "{}", page.body);
    assert!(
        page.body
            .contains(&format!("# TYPE {METRIC_STAGE_SECONDS} histogram")),
        "TYPE line present"
    );
    let parsed = parse_exposition(&page.body);
    let fleet = snapshot_from_samples(&parsed.samples, METRIC_STAGE_SECONDS, stage)
        .expect("fleet narrate-stage histogram");
    assert_eq!(fleet.buckets, expected.buckets, "bucket-wise merge");
    assert_eq!(fleet.count, expected.count);
    for (addr, snap) in &per_replica {
        let labeled = snapshot_from_samples(
            &parsed.samples,
            METRIC_STAGE_SECONDS,
            &[("replica", addr), ("stage", "narrate")],
        )
        .unwrap_or_else(|| panic!("labeled series for {addr}"));
        assert_eq!(labeled.buckets, snap.buckets, "per-replica series {addr}");
    }
    // The coordinator's own request histogram rides along under its
    // node label and is excluded from the fleet merge.
    let own = snapshot_from_samples(
        &parsed.samples,
        METRIC_REQUEST_SECONDS,
        &[("node", "coordinator")],
    )
    .expect("coordinator's own histogram");
    assert!(own.count >= 14, "coordinator traced its own requests");

    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

#[test]
fn lagging_replica_catches_up_from_the_log_after_restart() {
    let mut replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs.clone());
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");

    // Kill replica 2, then mutate while it is down: the broadcast can
    // only reach two replicas.
    let victim_addr = addrs[2];
    replicas.pop().unwrap().shutdown().unwrap();
    let resp = client
        .post(
            "/catalog/apply",
            "UPDATE pg SET desc = 'walk rows in order' WHERE name = 'seqscan'",
        )
        .expect("apply");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let ack = resp.json().expect("json");
    let applied = ack
        .get("replicas")
        .and_then(|r| r.as_array())
        .unwrap()
        .iter()
        .filter(|l| l.get("status").and_then(JsonValue::as_str) == Some("applied"))
        .count();
    assert_eq!(applied, 2, "{}", resp.body);

    let resp = client
        .post(
            "/catalog/apply",
            "UPDATE pg SET defn = 'full scan reads all rows' WHERE name = 'seqscan'",
        )
        .expect("apply");
    assert_eq!(resp.status, 200);

    // Restart the victim on the same address with a *fresh* store —
    // an empty log position. The probe loop must notice it is behind
    // and replay both missed statements.
    let listener = std::net::TcpListener::bind(victim_addr).expect("rebind victim address");
    let revived = boot_replica_on(listener);
    wait_for("replayed catalog on the revived replica", || {
        let catalog = get_json(&mut client, "/catalog");
        let entries = catalog.get("replicas").and_then(|r| r.as_array()).unwrap();
        entries.iter().all(|e| {
            e.get("applied_seq").and_then(JsonValue::as_f64) == Some(2.0)
                && e.get("healthy").and_then(JsonValue::as_bool) == Some(true)
        })
    });

    // Direct check against the revived replica: it reports the full
    // sequence even though it never saw the original broadcasts.
    let mut direct = HttpClient::connect(victim_addr).expect("connect revived");
    let catalog = get_json(&mut direct, "/catalog");
    assert_eq!(num(&catalog, "applied_seq"), 2.0);

    coordinator.shutdown().unwrap();
    revived.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

/// Read `n` complete responses off `stream` (framed by their
/// `Content-Length`), returning each one's status line, headers, and
/// body as one string.
fn read_responses(stream: &mut std::net::TcpStream, n: usize) -> Vec<String> {
    use std::io::Read;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    while out.len() < n {
        let text = String::from_utf8_lossy(&buf).to_string();
        if let Some(head_end) = text.find("\r\n\r\n") {
            let length: usize = text[..head_end]
                .lines()
                .find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().ok())?
                })
                .expect("response carries a Content-Length");
            if buf.len() >= head_end + 4 + length {
                out.push(String::from_utf8_lossy(&buf[..head_end + 4 + length]).to_string());
                buf.drain(..head_end + 4 + length);
                continue;
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        let got = stream.read(&mut chunk).expect("read response bytes");
        assert!(got > 0, "connection closed after {} responses", out.len());
        buf.extend_from_slice(&chunk[..got]);
    }
    out
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn post_raw(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Idle keep-alive clients must not pin coordinator workers: with two
/// workers and two clients parked on open connections, a third client
/// is answered at once instead of after the idle timeout.
#[test]
fn third_keep_alive_client_is_answered_without_waiting_for_a_worker() {
    let replica = boot_replica();
    let coordinator = boot_coordinator(vec![replica.addr()]);
    let mut parked: Vec<HttpClient> = (0..2)
        .map(|_| HttpClient::connect(coordinator.addr()).expect("connect"))
        .collect();
    for client in &mut parked {
        assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    }

    let started = Instant::now();
    let mut third = HttpClient::connect(coordinator.addr()).expect("connect");
    assert_eq!(third.get("/healthz").expect("healthz").status, 200);
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "third keep-alive client waited {waited:?}"
    );

    drop((parked, third));
    coordinator.shutdown().unwrap();
    replica.shutdown().unwrap();
}

/// Shutdown drains instead of waiting out idle keep-alive clients.
#[test]
fn shutdown_is_prompt_with_an_idle_keep_alive_client_connected() {
    let replica = boot_replica();
    let coordinator = boot_coordinator(vec![replica.addr()]);
    let mut idle = HttpClient::connect(coordinator.addr()).expect("connect");
    assert_eq!(idle.get("/healthz").expect("healthz").status, 200);

    let started = Instant::now();
    coordinator.shutdown().unwrap();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} with one idle keep-alive client"
    );

    drop(idle);
    replica.shutdown().unwrap();
}

/// Two narrations written back to back on one socket, before any
/// response is read, come back as two 200s in request order.
#[test]
fn pipelined_narrations_through_the_coordinator_answer_in_order() {
    let replicas: Vec<ServerHandle> = (0..2).map(|_| boot_replica()).collect();
    let coordinator = boot_coordinator(replicas.iter().map(|r| r.addr()).collect());

    let mut stream = std::net::TcpStream::connect(coordinator.addr()).expect("connect");
    let burst =
        post_raw("/narrate", &plan_doc("pipe_0")) + &post_raw("/narrate", &plan_doc("pipe_1"));
    std::io::Write::write_all(&mut stream, burst.as_bytes()).unwrap();
    let responses = read_responses(&mut stream, 2);
    assert_eq!(status_of(&responses[0]), 200, "{}", responses[0]);
    assert_eq!(status_of(&responses[1]), 200, "{}", responses[1]);
    assert!(responses[0].contains("pipe_0"), "{}", responses[0]);
    assert!(responses[1].contains("pipe_1"), "{}", responses[1]);

    drop(stream);
    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

/// A saturated coordinator sheds per request: with its one worker
/// stuck forwarding to a replica that never answers and its one queue
/// slot taken, the next request gets a structured `503` with
/// `Retry-After` — and the connection keeps serving afterwards.
#[test]
fn saturated_coordinator_sheds_a_structured_503_and_keeps_the_connection() {
    // Accepts connections (the kernel backlog does) but never answers.
    let stalled = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let coordinator = serve_cluster(
        ClusterConfig {
            replicas: vec![stalled.local_addr().unwrap()],
            workers: 1,
            queue_depth: 1,
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(500),
            max_attempts: 1,
            ..ClusterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("coordinator boots");

    let mut stream = std::net::TcpStream::connect(coordinator.addr()).expect("connect");
    // The narration occupies the only worker until its forward times
    // out; then one health check fills the queue and the next is shed.
    std::io::Write::write_all(
        &mut stream,
        post_raw("/narrate", &plan_doc("stalled")).as_bytes(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let health = "GET /healthz HTTP/1.1\r\n\r\n";
    std::io::Write::write_all(&mut stream, health.repeat(2).as_bytes()).unwrap();
    let responses = read_responses(&mut stream, 3);
    assert_eq!(status_of(&responses[0]), 503, "{}", responses[0]);
    assert!(responses[0].contains("\"unavailable\""), "{}", responses[0]);
    assert_eq!(status_of(&responses[1]), 200, "{}", responses[1]);
    let shed = &responses[2];
    assert_eq!(status_of(shed), 503, "{shed}");
    assert!(shed.contains("Retry-After: 1"), "{shed}");
    let body = &shed[shed.find("\r\n\r\n").unwrap() + 4..];
    let error = JsonValue::parse(body).expect("JSON error body");
    let error = error.get("error").expect("structured error body");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("overloaded")
    );
    assert_eq!(num(error, "status"), 503.0);

    // Shedding answered the request; it did not close the connection.
    std::io::Write::write_all(&mut stream, health.as_bytes()).unwrap();
    let after = read_responses(&mut stream, 1);
    assert_eq!(status_of(&after[0]), 200, "{}", after[0]);

    drop(stream);
    coordinator.shutdown().unwrap();
}

/// The coordinator's serving core counts panics, pipelined requests,
/// queue depth and protocol-error responses like a replica's, and both
/// of its pages show them. The pages agree: every numeric key of the
/// `/stats` → `coordinator` object is a
/// `lantern_cluster_<key>{node="coordinator"}` series of the same value
/// and type, apart from the documented differences (the scrape's own
/// `requests_total` +1, and `uptime_*`).
#[test]
fn coordinator_pages_show_its_core_counters_and_agree() {
    use lantern_obs::parse_exposition;
    use std::io::{Read, Write};

    let replicas: Vec<ServerHandle> = (0..2).map(|_| boot_replica()).collect();
    // One probe sweep at boot, then none for the rest of the test, so
    // `probe_cycles` holds still between the two scrapes.
    let coordinator = serve_cluster(
        ClusterConfig {
            replicas: replicas.iter().map(|r| r.addr()).collect(),
            workers: 2,
            probe_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("coordinator boots");
    wait_for("the boot probe sweep", || {
        coordinator.stats().probe_cycles.load(Ordering::Relaxed) >= 1
    });

    // One protocol error: the core answers 400 and closes.
    let mut raw = std::net::TcpStream::connect(coordinator.addr()).expect("connect");
    raw.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    // Two narrations pipelined on one socket.
    let mut stream = std::net::TcpStream::connect(coordinator.addr()).expect("connect");
    let burst =
        post_raw("/narrate", &plan_doc("pipe_0")) + &post_raw("/narrate", &plan_doc("pipe_1"));
    stream.write_all(burst.as_bytes()).unwrap();
    let responses = read_responses(&mut stream, 2);
    assert!(
        responses.iter().all(|r| status_of(r) == 200),
        "{responses:?}"
    );

    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");
    let stats = get_json(&mut client, "/stats");
    let own = stats.get("coordinator").expect("coordinator object");
    assert!(num(own, "error_responses") >= 1.0, "protocol error counted");
    assert!(num(own, "pipelined_requests") >= 1.0, "pipelining counted");
    assert!(own.get("panics").is_some() && own.get("queue_depth").is_some());

    let page = client.get("/metrics").expect("coordinator metrics");
    assert_eq!(page.status, 200);
    let page = parse_exposition(&page.body);
    let series = |key: &str| {
        let name = format!("lantern_cluster_{key}");
        let sample = page
            .samples
            .iter()
            .find(|s| s.name == name && s.labels == [("node".into(), "coordinator".into())])
            .unwrap_or_else(|| panic!("no {name}{{node=\"coordinator\"}} series"));
        (sample.value, page.types.get(&name).cloned())
    };
    assert!(series("error_responses").0 >= 1.0);
    assert!(series("pipelined_requests").0 >= 1.0);
    assert_eq!(series("panics").0, 0.0);
    assert_eq!(series("queue_depth").1.as_deref(), Some("gauge"));

    let JsonValue::Object(own) = own else {
        panic!("coordinator stats are an object");
    };
    let mut checked = 0;
    for (key, value) in own {
        let Some(value) = value.as_f64() else {
            continue;
        };
        if key.starts_with("uptime_") {
            continue;
        }
        let (metric, kind) = series(key);
        let gauge = matches!(key.as_str(), "queue_depth" | "requests_in_flight");
        let want = if gauge { "gauge" } else { "counter" };
        assert_eq!(kind.as_deref(), Some(want), "{key}");
        let scrape = if key == "requests_total" { 1.0 } else { 0.0 };
        assert_eq!(metric, value + scrape, "{key}");
        checked += 1;
    }
    assert_eq!(checked, 20, "front-door rows plus cluster rows");

    drop((raw, stream, client));
    coordinator.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}
