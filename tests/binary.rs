//! The `lantern-serve` binary as a process, driven over real sockets.
//!
//! Each test spawns the binary (replicas, and the `cluster` coordinator
//! in front of them) on `127.0.0.1:0` and reads the bound address from
//! its `listening on http://…` line. The checks are what a student's
//! `curl` session sees — health, narration, the cache, diffs, batches,
//! real-world and hostile documents, pipelining, `/metrics`, request
//! IDs — plus a generated 1,000-request load (`lantern-gen` seed 2647,
//! 75% verbatim duplicates) against a replica, and against a
//! coordinator that loses a replica to SIGKILL mid-run.
//!
//! Every child is owned by a [`Process`], which kills and reaps it on
//! drop, panics included, so no process outlives its test.
//!
//! Run just these: `cargo test --test binary` (add `--release` for the
//! optimised binary).

use lantern::gen::{GenConfig, PlanGenerator};
use lantern::text::json::JsonValue;
use lantern_obs::{parse_exposition, snapshot_from_samples, METRIC_REQUEST_SECONDS};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_lantern-serve");

const ORDERS: &str = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;

/// Per-exchange bound, so a wedged server fails the test instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

// ------------------------------------------------------------ processes

/// One running `lantern-serve`. Dropping it kills and reaps the child.
struct Process {
    child: Child,
    addr: SocketAddr,
    /// Kept open for the child's lifetime: the binary prints more lines
    /// after its address, and a closed pipe would fail those writes.
    stdout: BufReader<ChildStdout>,
}

impl Process {
    /// Spawn the binary with `args` and wait for its `listening on`
    /// line.
    fn spawn(args: &[&str]) -> Process {
        let mut child = Command::new(BIN)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn lantern-serve");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut process = Process {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let read = process.stdout.read_line(&mut line).expect("read stdout");
            assert!(read > 0, "lantern-serve {args:?} exited before listening");
            if let Some((_, addr)) = line.trim_end().split_once("listening on http://") {
                process.addr = addr.parse().expect("listen address");
                return process;
            }
        }
    }

    /// A replica with the binary's defaults (narration cache on).
    fn replica() -> Process {
        Process::spawn(&["--addr", "127.0.0.1:0"])
    }

    /// SIGKILL the child and reap it.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        self.kill();
    }
}

// ----------------------------------------------------------------- HTTP

/// One response off the wire.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("UTF-8 body")
    }

    fn json(&self) -> JsonValue {
        JsonValue::parse(self.text())
            .unwrap_or_else(|e| panic!("unparseable body {:?}: {e}", self.text()))
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One request as bytes, so several can go out in one write.
fn wire(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: lantern\r\n");
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut out = out.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection. Requests may be written ahead of their
/// replies (HTTP/1.1 pipelining); replies come back in request order.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.reader.get_mut().write_all(bytes)
    }

    fn read(&mut self) -> io::Result<Reply> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut headers = Vec::new();
        let mut length = 0;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let Some((name, value)) = line.trim_end().split_once(':') else {
                break;
            };
            let (name, value) = (name.trim().to_string(), value.trim().to_string());
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(io::Error::other)?;
            }
            headers.push((name, value));
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            headers,
            body,
        })
    }

    fn call(&mut self, method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Reply {
        self.write(&wire(method, path, headers, body))
            .and_then(|()| self.read())
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
    }
}

/// One request on a fresh connection, as `curl` makes it.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Reply {
    Conn::open(addr)
        .unwrap_or_else(|e| panic!("connect {addr}: {e}"))
        .call(method, path, headers, body)
}

/// `GET path`, which must answer 200 (as `curl -f` requires).
fn get(addr: SocketAddr, path: &str) -> Reply {
    let reply = request(addr, "GET", path, &[], b"");
    assert_eq!(reply.status, 200, "GET {path}: {}", reply.text());
    reply
}

fn post(addr: SocketAddr, path: &str, body: impl AsRef<[u8]>) -> Reply {
    request(addr, "POST", path, &[], body.as_ref())
}

/// `value` at `path`, or a panic naming the path.
fn at<'a>(value: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter().fold(value, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no {path:?} in {}", value.to_string_compact()))
    })
}

fn num(value: &JsonValue, path: &[&str]) -> f64 {
    at(value, path).as_f64().expect("a number")
}

fn text_at<'a>(value: &'a JsonValue, path: &[&str]) -> &'a str {
    at(value, path).as_str().expect("a string")
}

/// A narration body's step texts, space-joined.
fn steps_of(body: &JsonValue) -> String {
    let steps = at(body, &["narration", "steps"]).as_array().expect("steps");
    let texts: Vec<&str> = steps.iter().map(|s| text_at(s, &["text"])).collect();
    texts.join(" ")
}

fn quoted(s: &str) -> String {
    JsonValue::String(s.to_string()).to_string_compact()
}

/// Two narrations written back to back on one socket before any read
/// come back as two 200s, in request order.
fn assert_pipelines_two_narrations(addr: SocketAddr) {
    let mut conn = Conn::open(addr).unwrap();
    let mut burst = Vec::new();
    for i in 0..2 {
        let doc =
            format!(r#"{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "pipe_{i}"}}}}"#);
        burst.extend(wire("POST", "/narrate", &[], doc.as_bytes()));
    }
    conn.write(&burst).unwrap();
    let replies = [conn.read().unwrap(), conn.read().unwrap()];
    assert!(replies.iter().all(|r| r.status == 200), "two 200s");
    assert!(
        replies[0].text().contains("pipe_0"),
        "{}",
        replies[0].text()
    );
    assert!(
        replies[1].text().contains("pipe_1"),
        "{}",
        replies[1].text()
    );
}

/// Documents nested past the readers' depth limit
/// (`lantern_text::MAX_DEPTH`) each get a 400 whose error kind is
/// `parse`, and the process stays up.
fn assert_refuses_deep_documents(addr: SocketAddr) {
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    let relops =
        String::from("<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple><QueryPlan>")
            + &r#"<RelOp PhysicalOp="Sort">"#.repeat(3000)
            + r#"<RelOp PhysicalOp="Table Scan"><Object Table="t"/></RelOp>"#
            + &"</RelOp>".repeat(3000)
            + "</QueryPlan></StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>";
    for (name, doc) in [
        ("100 KB nest", nest(50_000)),
        ("400 KB nest", nest(200_000)),
        ("3,000-deep Plans chain", plans_chain(3000)),
        ("3,000-deep RelOp chain", relops),
    ] {
        let reply = post(addr, "/narrate", doc);
        assert_eq!(reply.status, 400, "{name}: {}", reply.text());
        assert_eq!(
            text_at(&reply.json(), &["error", "kind"]),
            "parse",
            "{name}"
        );
    }
    get(addr, "/healthz"); // still up: 200
}

/// A PG document whose `Plans` chain is `depth` Sorts deep.
fn plans_chain(depth: usize) -> String {
    String::from(r#"{"Plan": "#)
        + &r#"{"Node Type": "Sort", "Plans": ["#.repeat(depth)
        + r#"{"Node Type": "Seq Scan", "Relation Name": "t"}"#
        + &"]}".repeat(depth)
        + "}"
}

/// The unlabeled `lantern_request_duration_seconds` cumulative bucket
/// counts of a `/metrics` page, in page order.
fn request_buckets(page: &str) -> Vec<f64> {
    page.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(r#"lantern_request_duration_seconds_bucket{le=""#)?;
            let (_, value) = rest.split_once(r#""} "#)?;
            value.parse().ok()
        })
        .collect()
}

fn assert_monotone(counts: &[f64]) {
    assert!(!counts.is_empty(), "no request buckets");
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
}

// ----------------------------------------------------------------- load

/// The generated schedule both load runs replay: 1,000 `lantern-gen`
/// documents, seed 2647, 75% verbatim duplicates, both formats.
fn generated_docs() -> Vec<String> {
    let config = GenConfig::default()
        .with_seed(2647)
        .with_duplicate_rate(0.75);
    PlanGenerator::new(config)
        .generate(1000)
        .into_iter()
        .map(|item| item.doc)
        .collect()
}

/// What a load run saw, one entry per scheduled request: its status
/// (0 = transport failure) and client latency in microseconds.
struct Load {
    statuses: Vec<u16>,
    latencies_us: Vec<u64>,
}

impl Load {
    fn count(&self, status: u16) -> usize {
        self.statuses.iter().filter(|&&s| s == status).count()
    }

    fn ok(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| (200..300).contains(*s))
            .count()
    }

    /// Non-2xx answers and transport failures.
    fn errors(&self) -> usize {
        self.statuses.len() - self.ok()
    }

    fn percentile_us(&self, q: f64) -> u64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }
}

/// `POST /narrate` every document from `clients` keep-alive
/// connections, each writing `pipeline` requests per burst before
/// reading their replies. The schedule is dealt round-robin, so each
/// client sees the whole schedule's duplicate mix. A failed exchange
/// records status 0 for the rest of its burst and reconnects.
/// `answered` counts replies as they arrive.
fn drive(
    addr: SocketAddr,
    docs: &[String],
    clients: usize,
    pipeline: usize,
    answered: &AtomicUsize,
) -> Load {
    let runs: Vec<Vec<(u16, u64)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                let schedule: Vec<&String> = docs.iter().skip(client).step_by(clients).collect();
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(schedule.len());
                    let mut conn = Conn::open(addr).expect("connect");
                    for burst in schedule.chunks(pipeline) {
                        let started = Instant::now();
                        let bytes: Vec<u8> = burst
                            .iter()
                            .flat_map(|doc| wire("POST", "/narrate", &[], doc.as_bytes()))
                            .collect();
                        let mut failed = conn.write(&bytes).is_err();
                        for _ in burst {
                            let reply = if failed { None } else { conn.read().ok() };
                            failed = reply.is_none();
                            let status = reply.map_or(0, |r| r.status);
                            answered.fetch_add(1, Ordering::Relaxed);
                            samples.push((status, started.elapsed().as_micros() as u64));
                        }
                        if failed {
                            conn = Conn::open(addr).expect("reconnect");
                        }
                    }
                    samples
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let samples = runs.into_iter().flatten();
    let (statuses, latencies_us) = samples.unzip();
    Load {
        statuses,
        latencies_us,
    }
}

/// A `/stats` page's cache hits and misses.
fn cache_of(stats: &JsonValue) -> (f64, f64) {
    (
        num(stats, &["cache", "hits"]),
        num(stats, &["cache", "misses"]),
    )
}

fn cache_counts(addr: SocketAddr) -> (f64, f64) {
    cache_of(&get(addr, "/stats").json())
}

/// The hit ratio of the cache-counter movement between two samples.
fn hit_ratio(before: (f64, f64), after: (f64, f64)) -> f64 {
    let hits = after.0 - before.0;
    let misses = after.1 - before.1;
    assert!(hits > 0.0, "hits {hits}, misses {misses}");
    hits / (hits + misses)
}

// ---------------------------------------------------------------- tests

/// The endpoints of one replica, as a student's `curl` session hits
/// them.
#[test]
fn replica_smoke() {
    let replica = Process::replica();
    let addr = replica.addr;

    assert!(get(addr, "/healthz").text().contains(r#""status":"ok""#));

    let reply = post(addr, "/narrate", ORDERS);
    assert_eq!(reply.status, 200);
    let body = reply.json();
    assert!(text_at(&body, &["text"]).contains("sequential scan on orders"));
    assert!(!steps_of(&body).is_empty());
    assert_eq!(text_at(&body, &["backend"]), "rule");

    // The same plan again: the narration cache (on by default in the
    // binary) reports the repeat as a hit.
    assert_eq!(post(addr, "/narrate", ORDERS).status, 200);
    let stats = get(addr, "/stats").json();
    assert!(num(&stats, &["cache", "hits"]) >= 1.0);
    assert!(num(&stats, &["cache", "entries"]) >= 1.0);
    assert!(num(&stats, &["requests_in_flight"]) >= 1.0);
    assert!(stats.get("uptime_seconds").is_some());

    // The plan against a mutant of itself (seq scan → index scan):
    // scored, with a non-empty, classified change list.
    let diff = post(
        addr,
        "/narrate/diff",
        r#"{"base": "{\"Plan\": {\"Node Type\": \"Seq Scan\", \"Relation Name\": \"orders\"}}",
            "alt":  "{\"Plan\": {\"Node Type\": \"Index Scan\", \"Relation Name\": \"orders\", \"Index Name\": \"orders_pkey\"}}"}"#,
    );
    assert_eq!(diff.status, 200);
    let diff = diff.json();
    assert_eq!(text_at(&diff, &["backend"]), "rule-diff");
    assert_eq!(at(&diff, &["identical"]).as_bool(), Some(false));
    let changes = at(&diff, &["changes"]).as_array().expect("changes");
    assert!(!changes.is_empty());
    let kinds: Vec<&str> = changes.iter().map(|c| text_at(c, &["kind"])).collect();
    assert!(kinds.contains(&"operator-substitution"), "{kinds:?}");
    assert!(num(&diff, &["score"]) > 0.0);

    // A two-plan batch answers its two single bodies stitched together,
    // byte for byte.
    let docs = [
        ORDERS,
        r#"{"Plan": {"Node Type": "Index Scan", "Relation Name": "lineitem", "Index Name": "lineitem_pkey", "Filter": "(l_comment = 'say \"hi\"')"}}"#,
    ];
    let singles: Vec<Reply> = docs.iter().map(|d| post(addr, "/narrate", d)).collect();
    assert!(singles.iter().all(|r| r.status == 200));
    let entries: Vec<String> = docs.iter().map(|d| quoted(d)).collect();
    let batch = post(addr, "/narrate/batch", format!("[{}]", entries.join(", ")));
    assert_eq!(batch.status, 200);
    let stitched = [&b"["[..], &singles[0].body, b",", &singles[1].body, b"]"].concat();
    assert_eq!(batch.body, stitched);

    // The plan readers on real-world shapes: a PG document with \" and
    // é escapes, a showplan with ns: prefixes, an entity, a comment
    // and CDATA. Both narrate with the decoded names; either document
    // cut in half is a 400 `parse`.
    let pg = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "café", "Alias": "c", "Filter": "(note = 'say \"hi\"')"}}"#;
    let reply = post(addr, "/narrate", pg);
    assert_eq!(reply.status, 200, "{}", reply.text());
    let steps = steps_of(&reply.json());
    assert!(
        steps.contains("café") && steps.contains(r#"say "hi""#),
        "{steps}"
    );
    let xml = concat!(
        r#"<?xml version="1.0"?><ns:ShowPlanXML xmlns:ns="urn:showplan">"#,
        "<!-- estimated plan --><ns:BatchSequence><ns:Batch><ns:Statements>",
        "<ns:StmtSimple><ns:QueryPlan>",
        r#"<ns:RelOp PhysicalOp="Table Scan" EstimateRows="10">"#,
        r#"<ns:Object Table="orders" Alias="o"/>"#,
        "<ns:Predicate>o.amount &gt; 10<![CDATA[ and o.note < 'x']]></ns:Predicate>",
        "</ns:RelOp></ns:QueryPlan></ns:StmtSimple></ns:Statements></ns:Batch>",
        "</ns:BatchSequence></ns:ShowPlanXML>",
    );
    let reply = post(addr, "/narrate", xml);
    assert_eq!(reply.status, 200, "{}", reply.text());
    let steps = steps_of(&reply.json());
    assert!(
        steps.contains("orders") && steps.contains("o.amount > 10 and o.note < 'x'"),
        "{steps}"
    );
    for doc in [pg, xml] {
        let reply = post(addr, "/narrate", &doc[..doc.len() / 2]);
        assert_eq!(reply.status, 400, "{}", reply.text());
        assert_eq!(text_at(&reply.json(), &["error", "kind"]), "parse");
    }

    assert_refuses_deep_documents(addr);

    assert_pipelines_two_narrations(addr);
    let stats = get(addr, "/stats").json();
    for key in ["shed_requests", "pipelined_requests", "queue_depth"] {
        assert!(stats.get(key).is_some(), "{key}");
    }
    assert_eq!(num(&stats, &["shed_requests"]), 0.0);

    // Typed Prometheus families, per-stage series, and monotone
    // cumulative request buckets.
    let page = get(addr, "/metrics");
    let page = page.text();
    assert!(page.contains("# TYPE lantern_stage_duration_seconds histogram"));
    assert!(page.contains("# TYPE lantern_request_duration_seconds histogram"));
    assert!(page.contains("lantern_server_requests_total"));
    for stage in ["read", "parse", "narrate", "render", "write"] {
        assert!(
            page.contains(&format!(r#"stage="{stage}""#)),
            "missing stage {stage}"
        );
    }
    let counts = request_buckets(page);
    assert_monotone(&counts);
    assert!(counts[counts.len() - 1] >= 5.0, "{counts:?}");

    // A caller-supplied request ID is echoed and lands in the slow log.
    let rid = "binary-smoke-1";
    let reply = request(
        addr,
        "POST",
        "/narrate",
        &[("x-lantern-request-id", rid)],
        ORDERS.as_bytes(),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-lantern-request-id"), Some(rid));
    assert!(get(addr, "/debug/slow?threshold_ms=0").text().contains(rid));
}

/// 1,000 generated requests from 4 clients at pipeline depth 2 against
/// a fresh replica.
#[test]
fn replica_under_pipelined_load() {
    let replica = Process::replica();
    let addr = replica.addr;
    let docs = generated_docs();
    let counter = |stats: &JsonValue, key: &str| num(stats, &[key]);

    let before = get(addr, "/stats").json();
    let load = drive(addr, &docs, 4, 2, &AtomicUsize::new(0));
    let after = get(addr, "/stats").json();

    assert_eq!(load.ok(), 1000);
    assert_eq!(load.errors(), 0);
    // The bursts reached the server as pipelined requests.
    assert!(counter(&after, "pipelined_requests") > counter(&before, "pipelined_requests"));
    // The default queue absorbs 8 requests in flight.
    assert_eq!(load.count(503), 0);
    assert_eq!(
        counter(&after, "shed_requests"),
        counter(&before, "shed_requests")
    );
    let (p50, p99) = (load.percentile_us(0.50), load.percentile_us(0.99));
    assert!(p50 > 0 && p99 >= p50, "p50 {p50} us, p99 {p99} us");
    let ratio = hit_ratio(cache_of(&before), cache_of(&after));
    assert!((ratio - 0.75).abs() <= 0.05, "hit ratio {ratio}");

    // The server's own request histogram brackets the client latencies
    // from below: dispatch time is part of the round trip. The slack
    // covers the histogram's √2 bucket grid and scheduling jitter.
    let page = get(addr, "/metrics");
    let samples = parse_exposition(page.text()).samples;
    let server =
        snapshot_from_samples(&samples, METRIC_REQUEST_SECONDS, &[]).expect("request histogram");
    assert!(server.count >= 1000, "{}", server.count);
    let below =
        |server_ns: u64, client_us: u64| server_ns as f64 / 1e3 <= client_us as f64 * 2.0 + 500.0;
    assert!(
        below(server.percentile(0.50), p50),
        "server p50 {} ns, client {p50} us",
        server.percentile(0.50)
    );
    assert!(
        below(server.percentile(0.99), p99),
        "server p99 {} ns, client {p99} us",
        server.percentile(0.99)
    );
}

/// `/stats` cache counters follow a known schedule: 2 distinct plans in
/// 6 requests on one connection are 2 misses and 4 hits.
#[test]
fn cache_counters_follow_a_known_schedule() {
    let replica = Process::replica();
    let part = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "part"}}"#;
    let mut conn = Conn::open(replica.addr).unwrap();
    for doc in [ORDERS, ORDERS, part, ORDERS, part, ORDERS] {
        assert_eq!(
            conn.call("POST", "/narrate", &[], doc.as_bytes()).status,
            200
        );
    }
    assert_eq!(cache_counts(replica.addr), (4.0, 2.0));
}

/// Three replicas behind a coordinator: routed narration, pipelining,
/// the replica's exact bytes for malformed requests, deep documents,
/// then 1,000 generated requests from 2 clients while one replica is
/// SIGKILLed, and the fleet's pages afterwards.
#[test]
fn cluster_smoke_survives_a_killed_replica() {
    let mut replicas: Vec<Process> = (0..3).map(|_| Process::replica()).collect();
    let replica_addrs: Vec<String> = replicas.iter().map(|r| r.addr.to_string()).collect();
    let mut args = vec!["cluster", "--addr", "127.0.0.1:0"];
    for addr in &replica_addrs {
        args.extend(["--replica", addr.as_str()]);
    }
    args.extend([
        "--read-timeout-ms",
        "2000",
        "--retry-backoff-ms",
        "10",
        "--probe-ms",
        "100",
    ]);
    let coordinator = Process::spawn(&args);
    let coord = coordinator.addr;
    let replica = replicas[0].addr;

    let reply = post(coord, "/narrate", ORDERS);
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("sequential scan on orders"));

    assert_pipelines_two_narrations(coord);

    // Malformed requests get the replica's exact answer: a 12-plan batch
    // with a bad ?style= and a body that is not UTF-8.
    let entries: Vec<String> = (0..12)
        .map(|i| {
            quoted(&format!(
                r#"{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "style_{i}"}}}}"#
            ))
        })
        .collect();
    let batch = format!("[{}]", entries.join(", "));
    for (path, body) in [
        ("/narrate/batch?style=bogus", batch.as_bytes()),
        ("/narrate", &b"\xff\xfe"[..]),
    ] {
        let (from_coord, from_replica) = (post(coord, path, body), post(replica, path, body));
        assert_eq!(from_coord.status, 400, "{path}");
        assert_eq!(from_coord.status, from_replica.status, "{path}");
        assert_eq!(from_coord.body, from_replica.body, "{path}");
    }

    // A diff batch whose base is the 3,000-deep Plans chain is one
    // whole-request 400 `parse`, with the replica's bytes.
    let alt = quoted(r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t"}}"#);
    let deep_diff = format!(
        r#"{{"base": {}, "alts": [{alt}, {alt}]}}"#,
        quoted(&plans_chain(3000))
    );
    let from_coord = post(coord, "/narrate/diff/batch", &deep_diff);
    let from_replica = post(replica, "/narrate/diff/batch", &deep_diff);
    assert_eq!(from_coord.status, 400);
    assert_eq!(from_coord.status, from_replica.status);
    assert_eq!(from_coord.body, from_replica.body);
    assert_eq!(text_at(&from_coord.json(), &["error", "kind"]), "parse");

    assert_refuses_deep_documents(coord);

    // The load, with one replica SIGKILLed a quarter of the way in. No
    // request may hang (every read is bounded), and every one resolves
    // to a definite status.
    let docs = generated_docs();
    let answered = AtomicUsize::new(0);
    let before = cache_counts(coord);
    let started = Instant::now();
    let load = std::thread::scope(|scope| {
        let load = scope.spawn(|| drive(coord, &docs, 2, 1, &answered));
        while answered.load(Ordering::Relaxed) < 250 && !load.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        replicas[0].kill();
        load.join().unwrap()
    });
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "{:?}",
        started.elapsed()
    );
    // Every request is answered 2xx, none shed: with 3 replicas and the
    // default `max_attempts` of 3, each request's candidate list holds
    // both survivors, so a live successor always answers.
    assert_eq!(load.statuses.len(), 1000);
    assert_eq!(load.ok(), 1000);
    assert_eq!(load.count(503), 0);
    // Shard affinity keeps the fleet's hit ratio near the duplicate rate
    // despite the kill.
    let ratio = hit_ratio(before, cache_counts(coord));
    assert!((ratio - 0.75).abs() <= 0.05, "hit ratio {ratio}");

    // The dead replica is reported, not an error, and the fleet still
    // narrates.
    let stats = get(coord, "/stats").json();
    let fleet = at(&stats, &["replicas"]).as_array().expect("replicas");
    assert_eq!(fleet.len(), 3);
    let dead: Vec<&str> = fleet
        .iter()
        .filter(|r| r.get("healthy").and_then(JsonValue::as_bool) == Some(false))
        .map(|r| text_at(r, &["addr"]))
        .collect();
    assert_eq!(dead, [replica_addrs[0].as_str()]);
    assert!(num(&stats, &["coordinator", "requests_total"]) >= 1000.0);
    let reply = post(coord, "/narrate", ORDERS);
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("sequential scan on orders"));

    // One page: fleet-merged histograms from the survivors, per-replica
    // series and the coordinator's own. The killed replica took its
    // recorded requests with it, so the merge covers most of the load,
    // not all of it.
    let page = get(coord, "/metrics");
    let page = page.text();
    assert!(page.contains("# TYPE lantern_request_duration_seconds histogram"));
    assert!(page.contains("# TYPE lantern_stage_duration_seconds histogram"));
    assert!(
        page.contains(&format!(r#"replica="{}""#, replica_addrs[1])),
        "per-replica labels"
    );
    assert!(page.contains(r#"node="coordinator""#), "coordinator series");
    let counts = request_buckets(page);
    assert_monotone(&counts);
    assert!(counts[counts.len() - 1] >= 600.0, "{counts:?}");

    // One request ID, three hops: supplied to the coordinator, forwarded
    // to the owning replica, echoed back, and in a survivor's slow log.
    let rid = "binary-cluster-rid-1";
    let reply = request(
        coord,
        "POST",
        "/narrate",
        &[("x-lantern-request-id", rid)],
        ORDERS.as_bytes(),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-lantern-request-id"), Some(rid));
    assert!(replicas[1..]
        .iter()
        .any(|r| get(r.addr, "/debug/slow?threshold_ms=0")
            .text()
            .contains(rid)));
}

/// An argument the binary does not know exits 2 with the usage text.
/// `soak` is one: servebench is the load harness.
#[test]
fn unknown_subcommand_exits_with_the_usage_error() {
    let out = Command::new(BIN)
        .arg("soak")
        .output()
        .expect("run lantern-serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(r#"unknown flag "soak""#), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}
