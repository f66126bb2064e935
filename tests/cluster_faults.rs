//! Deterministic cluster fault-injection harness (ISSUE 9 tentpole).
//!
//! Boots a coordinator fronting three real replicas — each a full
//! [`LanternService`](lantern::LanternService) assembled through the
//! facade builder, exactly as the `lantern-serve` binary would — on
//! loopback, drives seeded `lantern-gen` traffic through the
//! coordinator, and injects faults mid-flight:
//!
//! * **kill / restart**: a replica dies mid-burst and later rejoins on
//!   its old port (std's `TcpListener::bind` sets `SO_REUSEADDR`, so
//!   the port is free at once); every request in the burst
//!   must end in a definite status (2xx/4xx/503) — none may hang, none
//!   may be lost;
//! * **stall**: a replica accepts connections and answers health
//!   probes but never answers narrations; the coordinator's read
//!   timeout must trip, fail the request over to the ring successor,
//!   and count the failover;
//! * **partition**: a replica misses catalog broadcasts while down and
//!   must converge from the coordinator's statement log after rejoin.
//!
//! The workload is reproducible: a fixed generator seed produces the
//! same documents, the same shard keys, and the same ring placement on
//! every run (ring placement is over the replica *addresses*, which
//! the OS assigns, so placement-sensitive assertions compute ownership
//! from the live ring rather than hard-coding it).

use lantern::builder::LanternBuilder;
use lantern::cache::CacheConfig;
use lantern::cluster::{serve_cluster, shard_key, ClusterConfig, ClusterHandle, HashRing};
use lantern::gen::{FormatMix, GenConfig, PlanGenerator};
use lantern::serve::{HttpClient, ServeConfig, ServerHandle};
use lantern::text::json::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 0x5106_0D21;
const VNODES: usize = 64;

/// A replica assembled the way the binary assembles one: default
/// combined store, narration cache on, served over a caller-bound
/// listener so restarts can reclaim the port.
fn boot_replica_on(listener: TcpListener) -> ServerHandle {
    LanternBuilder::new()
        .cache(CacheConfig {
            max_entries: 512,
            ..CacheConfig::default()
        })
        .build()
        .expect("assemble replica service")
        .serve_on_listener(
            listener,
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("replica boots")
}

fn boot_replica() -> ServerHandle {
    boot_replica_on(TcpListener::bind("127.0.0.1:0").expect("bind replica"))
}

/// Coordinator with fault-harness timings: fast probes so health flips
/// are observable within the test, short read timeout so a stalled
/// replica trips failover in milliseconds rather than seconds.
fn boot_coordinator(replicas: Vec<SocketAddr>) -> ClusterHandle {
    serve_cluster(
        ClusterConfig {
            replicas,
            virtual_nodes: VNODES,
            workers: 2,
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(1500),
            retry_backoff: Duration::from_millis(5),
            probe_interval: Duration::from_millis(50),
            ..ClusterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("coordinator boots")
}

/// The seeded burst: mixed-format generator artifacts with heavy
/// duplication, the workload shape `tests/binary.rs` drives through
/// the binary.
fn burst_docs(count: usize) -> Vec<String> {
    let config = GenConfig::default()
        .with_seed(SEED)
        .with_duplicate_rate(0.6)
        .with_mutate_rate(0.0)
        .with_format(FormatMix::Mixed);
    PlanGenerator::new(config)
        .generate(count)
        .into_iter()
        .map(|item| item.doc)
        .collect()
}

fn get_json(client: &mut HttpClient, path: &str) -> JsonValue {
    let resp = client.get(path).expect("GET");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    resp.json().expect("JSON body")
}

/// Wait until `check` passes or fail loudly: probe loops, health
/// flips, and catalog replays are asynchronous but bounded.
fn wait_for(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// The ring the coordinator builds for this fleet — same node names
/// (stringified addresses, config order), same vnode count.
fn fleet_ring(addrs: &[SocketAddr]) -> HashRing {
    let names: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    HashRing::new(&names, VNODES)
}

#[test]
fn seeded_schedule_and_placement_are_deterministic() {
    // Same seed, independent generators: byte-identical schedules.
    let first = burst_docs(120);
    let second = burst_docs(120);
    assert_eq!(
        first, second,
        "generator must be deterministic under a fixed seed"
    );

    // Shard keys (and hence ring placement for any fixed fleet) are a
    // pure function of the document.
    let addrs: Vec<SocketAddr> = (0..3)
        .map(|i| format!("10.9.0.{}:7100", i + 1).parse().unwrap())
        .collect();
    let ring = fleet_ring(&addrs);
    let owners_a: Vec<Option<usize>> = first.iter().map(|d| ring.route(shard_key(d))).collect();
    let owners_b: Vec<Option<usize>> = second.iter().map(|d| ring.route(shard_key(d))).collect();
    assert_eq!(owners_a, owners_b);
    assert!(owners_a.iter().all(Option::is_some));
}

#[test]
fn ring_rebalance_moves_only_the_dead_nodes_range() {
    let addrs: Vec<SocketAddr> = (0..3)
        .map(|i| format!("10.9.1.{}:7200", i + 1).parse().unwrap())
        .collect();
    let full = fleet_ring(&addrs);
    let docs = burst_docs(300);

    // Node 1 dies; the survivors rebuild the ring without it.
    let survivors = [addrs[0], addrs[2]];
    let reduced = fleet_ring(&survivors);
    let reindex = |old: usize| match old {
        0 => 0,
        2 => 1,
        other => panic!("dead node {other} must not own keys in the reduced ring"),
    };

    let mut moved = 0usize;
    for doc in &docs {
        let key = shard_key(doc);
        let old_owner = full.route(key).unwrap();
        let new_owner = reduced.route(key).unwrap();
        if old_owner == 1 {
            // The dead node's keys land exactly on the old ring's
            // first surviving successor — the failover target the
            // coordinator was already using while the node was down.
            moved += 1;
            let successor = *full
                .successors(key)
                .iter()
                .find(|&&n| n != 1)
                .expect("a surviving successor");
            assert_eq!(new_owner, reindex(successor), "doc {doc:.40}");
        } else {
            // Every other key keeps its owner: no collateral churn.
            assert_eq!(new_owner, reindex(old_owner), "doc {doc:.40}");
        }
    }
    // The dead node owned a meaningful share of a 300-key burst.
    assert!(moved > 0, "node 1 owned no keys — ring is degenerate");
}

#[test]
fn kill_and_restart_mid_burst_loses_no_requests() {
    let mut replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs.clone());
    let coordinator_addr = coordinator.addr();

    let docs = burst_docs(240);
    let total = docs.len();
    let completed = Arc::new(AtomicUsize::new(0));
    let outcomes: Arc<Mutex<Vec<u16>>> = Arc::new(Mutex::new(Vec::with_capacity(total)));

    // Three clients stripe the schedule deterministically (client i
    // takes docs i, i+3, i+6, ...) and record every final status.
    let mut clients = Vec::new();
    for stripe in 0..3usize {
        let docs: Vec<String> = docs.iter().skip(stripe).step_by(3).cloned().collect();
        let completed = Arc::clone(&completed);
        let outcomes = Arc::clone(&outcomes);
        clients.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(coordinator_addr).expect("connect");
            for doc in &docs {
                // A request may legitimately be shed (503) while the
                // fleet is degraded, but it must always end: the
                // coordinator's bounded retries guarantee an answer.
                // If the coordinator closed this connection (the shed
                // path does), reconnecting once and resending is the
                // harness client's job — the request itself must
                // never be lost.
                let status = match client.post("/narrate", doc) {
                    Ok(resp) => resp.status,
                    Err(_) => {
                        client = HttpClient::connect(coordinator_addr).expect("reconnect");
                        match client.post("/narrate", doc) {
                            Ok(resp) => resp.status,
                            Err(e) => panic!("request lost after reconnect: {e}"),
                        }
                    }
                };
                outcomes.lock().unwrap().push(status);
                completed.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }

    // Fault injection, keyed off burst progress: kill replica 0 a
    // third of the way in, resurrect it on the same port two thirds in.
    wait_for("first third of the burst", || {
        completed.load(Ordering::SeqCst) >= total / 3
    });
    let victim_addr = addrs[0];
    replicas.remove(0).shutdown().expect("kill replica 0");

    wait_for("second third of the burst", || {
        completed.load(Ordering::SeqCst) >= 2 * total / 3
    });
    let listener = TcpListener::bind(victim_addr).expect("rebind victim port");
    let revived = boot_replica_on(listener);

    for client in clients {
        client.join().expect("client thread");
    }

    // No request lost: every scheduled send produced exactly one
    // definite outcome, and nothing outside the allowed status set.
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), total, "every request must resolve");
    assert!(
        outcomes.iter().all(|s| *s == 200 || *s == 503),
        "unexpected status in {outcomes:?}"
    );
    let ok = outcomes.iter().filter(|s| **s == 200).count();
    assert!(
        ok >= total * 9 / 10,
        "too many shed requests: {ok}/{total} succeeded"
    );

    // The revived replica rejoins: once the probe marks the whole
    // fleet healthy, a full verification pass narrates everything.
    let mut client = HttpClient::connect(coordinator_addr).expect("connect");
    wait_for("revived replica marked healthy", || {
        let catalog = get_json(&mut client, "/catalog");
        let entries = catalog.get("replicas").and_then(|r| r.as_array()).unwrap();
        entries.len() == 3
            && entries
                .iter()
                .all(|e| e.get("healthy").and_then(JsonValue::as_bool) == Some(true))
    });
    for doc in &docs {
        let resp = client.post("/narrate", doc).expect("post-recovery narrate");
        assert_eq!(resp.status, 200, "post-recovery: {}", resp.body);
    }

    coordinator.shutdown().unwrap();
    revived.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

/// A replica that answers health/catalog probes but stalls every other
/// request forever: the shape of a wedged worker pool behind a live
/// accept loop. Connections are accepted and read, then left hanging.
fn spawn_stalled_replica() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stalled replica");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || stalled_connection(stream, &conn_stop));
        }
    });
    (addr, stop, accept)
}

/// Minimal HTTP loop for the stalled fake: parse just enough of each
/// request to recognise the probe (`GET /catalog`) and answer it; any
/// other request is swallowed without a response until `stop`.
fn stalled_connection(stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut request_line = String::new();
        match reader.read_line(&mut request_line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => continue, // read timeout: poll the stop flag
        }
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            match reader.read_line(&mut header) {
                Ok(0) => return,
                Ok(_) => {}
                Err(_) => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some(len) = header
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = len.parse().unwrap_or(0);
            }
        }
        let mut body = vec![0u8; content_length];
        if content_length > 0 && reader.read_exact(&mut body).is_err() {
            return;
        }
        if request_line.starts_with("GET /catalog") {
            let body = r#"{"version":1,"applied_seq":0}"#;
            let resp = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
                body.len(),
                body
            );
            if writer.write_all(resp.as_bytes()).is_err() {
                return;
            }
            let _ = writer.flush();
            continue;
        }
        // Anything else — narrations, stats — stalls until the test
        // tears the fake down. The coordinator's read timeout is the
        // only way out.
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        return;
    }
}

#[test]
fn stalled_replica_trips_read_timeout_and_fails_over() {
    let replicas: Vec<ServerHandle> = (0..2).map(|_| boot_replica()).collect();
    let (stalled_addr, stop, accept) = spawn_stalled_replica();

    // The stalled node sits mid-fleet so its ring range is real.
    let addrs = vec![replicas[0].addr(), stalled_addr, replicas[1].addr()];
    let coordinator = serve_cluster(
        ClusterConfig {
            replicas: addrs.clone(),
            virtual_nodes: VNODES,
            workers: 2,
            connect_timeout: Duration::from_millis(250),
            // Short enough that a stalled narration fails over fast;
            // the probe's GET /catalog is answered, so only stalled
            // *narrations* burn this budget.
            read_timeout: Duration::from_millis(200),
            retry_backoff: Duration::from_millis(5),
            probe_interval: Duration::from_millis(50),
            ..ClusterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("coordinator boots");

    // Find documents the ring assigns to the stalled node — ports are
    // OS-assigned, so ownership is computed, not hard-coded.
    let ring = fleet_ring(&addrs);
    let mut stalled_owned = Vec::new();
    let mut survivor_owned = Vec::new();
    for i in 0.. {
        let doc =
            format!(r#"{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "stall_{i}"}}}}"#);
        match ring.route(shard_key(&doc)) {
            Some(1) => {
                if stalled_owned.len() < 4 {
                    stalled_owned.push(doc);
                }
            }
            Some(_) => {
                if survivor_owned.len() < 4 {
                    survivor_owned.push(doc);
                }
            }
            None => unreachable!("non-empty ring routes every key"),
        }
        if stalled_owned.len() == 4 && survivor_owned.len() == 4 {
            break;
        }
        assert!(i < 10_000, "ring never assigned 4 docs to the stalled node");
    }

    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");
    // Requests owned by the stalled node: the first attempt stalls,
    // the read timeout trips, and the ring successor answers. The
    // caller only ever sees a 200.
    for doc in &stalled_owned {
        let resp = client.post("/narrate", doc).expect("narrate");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    // Requests owned by live nodes are never dragged into the stall.
    for doc in &survivor_owned {
        let resp = client.post("/narrate", doc).expect("narrate");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    assert!(
        coordinator.stats().failovers.load(Ordering::Relaxed) > 0,
        "failover counter never moved"
    );

    // The stalled node is eventually marked unhealthy-for-narrations
    // or re-probed healthy; either way the fleet keeps answering.
    let resp = client.post("/narrate", &stalled_owned[0]).expect("narrate");
    assert_eq!(resp.status, 200);

    coordinator.shutdown().unwrap();
    stop.store(true, Ordering::SeqCst);
    // Poke the accept loop out of its blocking accept.
    let _ = TcpStream::connect(stalled_addr);
    accept.join().expect("stalled accept thread");
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}

#[test]
fn partitioned_replica_converges_on_the_catalog_after_rejoin() {
    let mut replicas: Vec<ServerHandle> = (0..3).map(|_| boot_replica()).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
    let coordinator = boot_coordinator(addrs.clone());
    let mut client = HttpClient::connect(coordinator.addr()).expect("connect");

    // Partition replica 1 from broadcasts the crude way: kill it.
    let victim_addr = addrs[1];
    replicas.remove(1).shutdown().expect("partition replica 1");

    // Two catalog mutations while partitioned: only two replicas see
    // the broadcast, the coordinator logs both.
    for (i, stmt) in [
        "UPDATE pg SET desc = 'walk the relation row by row' WHERE name = 'seqscan'",
        "UPDATE pg SET desc = 'probe the hash table' WHERE name = 'hashjoin'",
    ]
    .iter()
    .enumerate()
    {
        let resp = client.post("/catalog/apply", stmt).expect("apply");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let ack = resp.json().expect("json");
        assert_eq!(
            ack.get("seq").and_then(JsonValue::as_f64),
            Some((i + 1) as f64)
        );
        let applied = ack
            .get("replicas")
            .and_then(|r| r.as_array())
            .unwrap()
            .iter()
            .filter(|l| l.get("status").and_then(JsonValue::as_str) == Some("applied"))
            .count();
        assert_eq!(applied, 2, "partitioned replica must miss the broadcast");
    }

    // Rejoin on the old port with a *fresh* service — empty log
    // position, pristine store. The probe loop notices applied_seq 0
    // against a log of 2 and replays the suffix.
    let listener = TcpListener::bind(victim_addr).expect("rebind victim port");
    let revived = boot_replica_on(listener);
    wait_for("catalog convergence across the fleet", || {
        let catalog = get_json(&mut client, "/catalog");
        let entries = catalog.get("replicas").and_then(|r| r.as_array()).unwrap();
        entries.iter().all(|e| {
            e.get("applied_seq").and_then(JsonValue::as_f64) == Some(2.0)
                && e.get("healthy").and_then(JsonValue::as_bool) == Some(true)
        })
    });

    // The revived replica answers with the *mutated* wording even
    // though it never saw the broadcast: ask it directly, bypassing
    // the coordinator, so no other replica can mask a stale store.
    let mut direct = HttpClient::connect(victim_addr).expect("connect revived");
    let catalog = get_json(&mut direct, "/catalog");
    assert_eq!(
        catalog.get("applied_seq").and_then(JsonValue::as_f64),
        Some(2.0)
    );
    let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
    let resp = direct.post("/narrate", doc).expect("narrate revived");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let text = resp
        .json()
        .expect("json")
        .get("text")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .unwrap();
    assert!(
        text.contains("walk the relation row by row"),
        "replayed catalog not reflected in narration: {text}"
    );

    coordinator.shutdown().unwrap();
    revived.shutdown().unwrap();
    for replica in replicas {
        replica.shutdown().unwrap();
    }
}
