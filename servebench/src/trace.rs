//! The traced run. Untraced phases come first: an open loop at the
//! offered rate (`latency_p99_ms`, generator lag), a closed loop (the
//! overhead baseline and cache counters) and the sustained-rate ladder.
//! Then the traced phase: the same schedule, where each request is followed
//! down a ladder of public calls, outside-in, each wrapped in a span
//! (name, start, end, parent, request ID). No span lives inside the
//! program; a layer's self time is its span minus its children.
//!
//! Per `/narrate` request, after the live round trip:
//!
//! ```text
//! cluster.coordinator   coordinator round trip          (hop = minus serve.http)
//! └ serve.http          round trip to the owning replica (self = minus serve.router)
//!   └ serve.router      in-process Router::handle        (self = minus the rungs below)
//!     ├ cache.doc_digest, plan.parse, cache.fingerprint   as the cached path runs them
//!     ├ core.narrate | neural.narrate (└ core.decompose, nn.translate_act)
//!     └ core.render
//! cluster.route         shard_key (the coordinator's routing parse)
//! ```
//!
//! The in-process router is a mirror: a second service with the same
//! cache configuration that sees the same plans and catalog writes, so
//! its cache outcome (exact-text hit, fingerprint hit, miss) decides
//! which rungs the path runs. On a miss the socket rungs send
//! `?nocache=1`, so they run the same uncached path; on a hit they hit
//! too. Batch, diff, write and neural rungs run beside the path on
//! every workload.

use crate::conn::{body_digest, catalog_ack_ok};
use crate::deploy::{self, Deployment, Reference};
use crate::load::{self, Load};
use crate::schedule::{ReqKind, Schedule, BATCH_SIZE};
use crate::spec::{Kind, Spec};
use crate::stats::{median, percentile};
use crate::{metric, Metric, Report};
use lantern::cache::{
    fingerprint_document, fingerprint_tree, CacheStatsSnapshot, Fingerprint, FingerprintOptions,
};
use lantern::cluster::{shard_key, ClusterConfig, ClusterHandle, HashRing};
use lantern::core::{
    decompose_acts, LanternError, Narration, NarrationRequest, PlanSource, RuleTranslator,
    Translator,
};
use lantern::diff::{diff_plans, render_diff};
use lantern::gen::{GenConfig, PlanGenerator};
use lantern::neural::NeuralLantern;
use lantern::plan::PlanTree;
use lantern::pool::{default_mssql_store, PoemStore};
use lantern::serve::http::REQUEST_ID_HEADER;
use lantern::serve::HttpClient;
use lantern::text::json::JsonValue;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every this many `/narrate` requests, the beside-the-path rungs run.
const SIDE_EVERY: usize = 8;
/// Catalog writes timed after the traced phase.
const TRAILING_WRITES: usize = 16;
/// Narrate operations replayed into the mirrors before the traced
/// phase, so their caches hold what the live replicas' caches hold.
const MIRROR_WARM_OPS: usize = 8192;
/// Slack on "the rungs sum to no more than the round trip": the rung
/// round trips repeat a request the live one just made, so on average
/// they must not be slower by more than this share.
const LADDER_SLACK: f64 = 0.10;
/// Where span files go, relative to the working directory.
const TRACE_DIR: &str = ".servebench";
/// Shares of `--seconds` (summing to 1) for the untraced phases before
/// the traced one: open loop at the offered rate, closed loop, and the
/// sustained-rate ladder; then the traced phase's share.
const OPEN_SHARE: f64 = 0.15;
const CLOSED_SHARE: f64 = 0.2;
const LADDER_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.35;

/// Timed layers, by metric stem.
const LAYERS: [&str; 17] = [
    "plan.parse_us",
    "cache.doc_digest_us",
    "cache.fingerprint_us",
    "core.narrate_us",
    "core.render_us",
    "core.batch_item_us",
    "serve.router_self_us",
    "serve.http_self_us",
    "diff.diff_us",
    "diff.render_us",
    "cluster.route_us",
    "cluster.hop_us",
    "pool.write_us",
    "pool.snapshot_rebuild_us",
    "core.decompose_us",
    "nn.translate_act_us",
    "neural.narrate_us",
];

/// The hash ring a coordinator builds over `replicas`.
pub fn ring(replicas: &[SocketAddr]) -> HashRing {
    let names: Vec<String> = replicas.iter().map(SocketAddr::to_string).collect();
    HashRing::new(&names, ClusterConfig::default().virtual_nodes)
}

#[derive(Debug, Clone)]
struct Span {
    req: String,
    name: &'static str,
    parent: Option<&'static str>,
    start: u64,
    end: u64,
}

impl Span {
    fn us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

/// Shared, read-only context of the traced phase.
struct Env<'a> {
    spec: &'a Spec,
    schedule: &'a Schedule,
    expected: &'a [Fingerprint],
    mirrors: Vec<&'a Reference>,
    /// Serializes mirror calls so cache-counter deltas belong to one request.
    mirror_lock: Mutex<()>,
    ring: HashRing,
    replicas: Vec<SocketAddr>,
    coordinator: SocketAddr,
    rule: RuleTranslator,
    model: &'a NeuralLantern,
    start: Instant,
}

/// Which of a worker's connections a request goes on.
#[derive(Clone, Copy)]
enum Conn {
    /// The workload's entry point (coordinator or replica).
    Live,
    /// Replica `i`, directly.
    Direct(usize),
    /// The coordinator (the fleet's own, or one fronting the replica).
    Coordinator,
}

/// One traced client: its connections, spans and tallies.
struct Worker<'a> {
    env: &'a Env<'a>,
    thread: usize,
    requests: usize,
    spans: Vec<Span>,
    live: HttpClient,
    direct: Vec<HttpClient>,
    /// `None` when the live connection already goes to the coordinator
    /// (a coordinator worker serves one connection at a time, so a
    /// second idle one would hold a worker).
    coordinator: Option<HttpClient>,
    mutants: PlanGenerator,
    store: PoemStore,
    recent: Vec<String>,
    narrates: usize,
    attempted: u64,
    failed: u64,
    acts: Vec<f64>,
}

fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

impl<'a> Worker<'a> {
    fn new(env: &'a Env<'a>, thread: usize, entry: SocketAddr) -> Result<Self, String> {
        Ok(Worker {
            env,
            thread,
            requests: 0,
            spans: Vec::new(),
            live: connect(entry)?,
            direct: env
                .replicas
                .iter()
                .map(|&a| connect(a))
                .collect::<Result<_, _>>()?,
            coordinator: if entry == env.coordinator {
                None
            } else {
                Some(connect(env.coordinator)?)
            },
            mutants: PlanGenerator::new(GenConfig::default().with_seed(0x5EED + thread as u64)),
            store: default_mssql_store(),
            recent: Vec::new(),
            narrates: 0,
            attempted: 0,
            failed: 0,
            acts: Vec::new(),
        })
    }

    fn now(&self) -> u64 {
        self.env.start.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span of the current request. The result passes
    /// through `black_box`, so a rung whose result is dropped still runs.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = std::hint::black_box(f());
        self.record(name, parent, start);
        out
    }

    /// Close a span of the current request that began at `start`.
    fn record(&mut self, name: &'static str, parent: Option<&'static str>, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            req: self.id(),
            name,
            parent,
            start,
            end,
        });
    }

    /// A timed POST on one of this worker's connections.
    fn timed_post(
        &mut self,
        conn: Conn,
        name: &'static str,
        parent: Option<&'static str>,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let id = self.id();
        let client = match (conn, &mut self.coordinator) {
            (Conn::Direct(i), _) => &mut self.direct[i],
            (Conn::Coordinator, Some(coordinator)) => coordinator,
            (Conn::Live | Conn::Coordinator, _) => &mut self.live,
        };
        let start = self.env.start.elapsed().as_nanos() as u64;
        let out = client
            .try_request_with("POST", path, &[(REQUEST_ID_HEADER, &id)], Some(body))
            .map(|r| (r.status, r.body))
            .map_err(|e| format!("POST {path}: {e}"));
        self.record(name, parent, start);
        out
    }

    fn id(&self) -> String {
        format!("t{}-{}", self.thread, self.requests)
    }

    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// One traced operation: the live round trip, then its rungs.
    fn operate(&mut self, op: u32) -> Result<(), String> {
        self.requests += 1;
        let env = self.env;
        let req = &env.schedule.reqs[op as usize];
        let body = env.schedule.body(req);
        let (status, body) = self.timed_post(Conn::Live, "request", None, req.path, body)?;
        let ok = status == 200
            && match req.kind {
                ReqKind::Write { .. } => catalog_ack_ok(body.as_bytes()),
                _ => body_digest(body.as_bytes()) == env.expected[op as usize],
            };
        self.tally(ok);
        match &req.kind {
            ReqKind::Narrate { doc } => self.narrate_ladder(op, *doc as usize),
            ReqKind::Batch { docs } => {
                let docs: Vec<String> = docs
                    .iter()
                    .map(|&d| env.schedule.docs[d as usize].clone())
                    .collect();
                self.batch_rung(&docs);
                Ok(())
            }
            ReqKind::Diff { base, alt } => {
                let base = parse(&env.schedule.docs[*base as usize])?;
                let alt = parse(&env.schedule.docs[*alt as usize])?;
                self.diff_rungs(&base, &alt);
                Ok(())
            }
            ReqKind::Write { stmt } => {
                let last = self.spans.last().cloned().expect("request span recorded");
                self.spans.push(Span {
                    name: "pool.write",
                    parent: None,
                    ..last
                });
                let stmt = &env.schedule.stmts[*stmt as usize];
                {
                    // The mirrors' caches go cold with the replicas'.
                    let _guard = env.mirror_lock.lock().map_err(|_| "mirror lock poisoned")?;
                    for mirror in &env.mirrors {
                        mirror.apply(stmt)?;
                    }
                }
                self.snapshot_rung(stmt)
            }
        }
    }

    fn narrate_ladder(&mut self, op: u32, doc: usize) -> Result<(), String> {
        let env = self.env;
        let doc = env.schedule.docs[doc].as_str();
        let expected = env.expected[op as usize];
        let key = self.span("cluster.route", None, || shard_key(doc));
        let owner = env.ring.route(key).unwrap_or(0);

        // The in-process router, serialized so counter deltas are ours.
        let (ok, doc_hit, lru_hit) = {
            let mirror = env.mirrors[owner];
            let _guard = env.mirror_lock.lock().map_err(|_| "mirror lock poisoned")?;
            let before = mirror.service.cache_stats().unwrap_or_default();
            let (status, body) = self.span("serve.router", Some("serve.http"), || {
                mirror.post("/narrate", doc, false)
            });
            let after: CacheStatsSnapshot = mirror.service.cache_stats().unwrap_or_default();
            (
                status == 200 && body_digest(&body) == expected,
                after.doc_hits > before.doc_hits,
                after.hits > before.hits,
            )
        };
        self.tally(ok);

        // The rungs the cached path ran, re-run one by one.
        let router = Some("serve.router");
        let tag = u8::from(doc.trim_start().starts_with('<'));
        self.span("cache.doc_digest", router, || {
            fingerprint_document(tag, doc)
        });
        let tree = if !doc_hit || !lru_hit {
            self.span("plan.parse", router, || parse(doc))?
        } else {
            parse(doc)?
        };
        if !doc_hit {
            self.span("cache.fingerprint", router, || {
                fingerprint_tree(&tree, FingerprintOptions::default())
            });
        }
        let neural = env.spec.kind == Kind::Neural;
        let narration = match (lru_hit, neural) {
            (false, false) => self.span("core.narrate", router, || rule_narrate(env, &tree))?,
            (false, true) => self.neural_rungs(&tree, router)?,
            // A hit renders a narration it did not compute here.
            (true, false) => rule_narrate(env, &tree)?,
            (true, true) => neural_narrate(env, &tree)?,
        };
        self.span("core.render", router, || {
            narration.to_json_value().to_string_compact()
        });

        // The same request over the sockets, on the same cache path;
        // which of the two goes first alternates, so neither gains on
        // average from what the other left in the CPU caches.
        let path = if lru_hit {
            "/narrate"
        } else {
            "/narrate?nocache=1"
        };
        let direct_first = self.narrates.is_multiple_of(2);
        let mut via = None;
        if !direct_first {
            via =
                Some(self.timed_post(Conn::Coordinator, "cluster.coordinator", None, path, doc)?);
        }
        let (status, direct_body) = self.timed_post(
            Conn::Direct(owner),
            "serve.http",
            Some("cluster.coordinator"),
            path,
            doc,
        )?;
        self.tally(status == 200 && body_digest(direct_body.as_bytes()) == expected);
        let (status, via) = match via {
            Some(via) => via,
            None => self.timed_post(Conn::Coordinator, "cluster.coordinator", None, path, doc)?,
        };
        self.tally(status == 200 && via == direct_body);

        // Beside the path: batch, diff and the other backend's rungs.
        self.narrates += 1;
        self.recent.push(doc.to_string());
        if self.recent.len() > BATCH_SIZE {
            self.recent.remove(0);
        }
        if self.narrates.is_multiple_of(SIDE_EVERY) {
            if env.spec.kind != Kind::Fleet {
                let docs = self.recent.clone();
                self.batch_rung(&docs);
                let (mutant, _) = self.mutants.mutate(&tree);
                self.diff_rungs(&tree, &mutant);
            }
            if neural {
                self.span("core.narrate", None, || rule_narrate(env, &tree))?;
            } else {
                self.neural_rungs(&tree, None)?;
            }
        }
        Ok(())
    }

    /// `neural.narrate`, then its parts re-run as children:
    /// `core.decompose` and one `nn.translate_act` per act (beam 4).
    fn neural_rungs(
        &mut self,
        tree: &PlanTree,
        parent: Option<&'static str>,
    ) -> Result<Narration, String> {
        let env = self.env;
        let narration = self.span("neural.narrate", parent, || neural_narrate(env, tree))?;
        let acts = self
            .span("core.decompose", Some("neural.narrate"), || {
                decompose_acts(tree, env.rule.store())
            })
            .map_err(|e| format!("decompose: {e}"))?;
        self.acts.push(acts.len() as f64);
        for act in &acts {
            self.span("nn.translate_act", Some("neural.narrate"), || {
                env.model.model().translate_act(act, env.model.beam)
            });
        }
        Ok(narration)
    }

    /// `narrate_batch` over `docs` on the workload's backend, timed whole.
    fn batch_rung(&mut self, docs: &[String]) {
        let env = self.env;
        let reqs: Vec<NarrationRequest> = docs
            .iter()
            .filter_map(|d| NarrationRequest::auto(d.as_str()).ok())
            .collect();
        let start = self.now();
        let out = if env.spec.kind == Kind::Neural {
            env.model.narrate_batch(&reqs)
        } else {
            env.rule.narrate_batch(&reqs)
        };
        let end = self.now();
        let per_item = (end - start) / reqs.len().max(1) as u64;
        self.spans.push(Span {
            req: self.id(),
            name: "core.batch_item",
            parent: None,
            start,
            end: start + per_item,
        });
        self.tally(out.iter().all(Result::is_ok));
    }

    fn diff_rungs(&mut self, base: &PlanTree, alt: &PlanTree) {
        let snapshot = self.store.snapshot();
        let diff = self.span("diff.diff", None, || diff_plans(base, alt));
        self.span("diff.render", None, || {
            render_diff(base, alt, &diff, &snapshot)
        });
    }

    /// Apply a statement to this worker's own store, then time the
    /// snapshot rebuild the version bump forces.
    fn snapshot_rung(&mut self, stmt: &str) -> Result<(), String> {
        lantern::pool::execute(stmt, &self.store).map_err(|e| format!("POOL {stmt:?}: {e}"))?;
        let store = self.store.clone();
        self.span("pool.snapshot_rebuild", None, || store.snapshot());
        Ok(())
    }
}

fn parse(doc: &str) -> Result<PlanTree, String> {
    PlanSource::auto(doc)
        .and_then(|source| source.resolve())
        .map_err(|e| format!("parse: {e}"))
}

fn rule_narrate(env: &Env<'_>, tree: &PlanTree) -> Result<Narration, String> {
    env.rule
        .narrate(&NarrationRequest::from_tree(tree))
        .map(|r| r.narration)
        .map_err(|e: LanternError| format!("rule narrate: {e}"))
}

fn neural_narrate(env: &Env<'_>, tree: &PlanTree) -> Result<Narration, String> {
    env.model
        .narrate(&NarrationRequest::from_tree(tree))
        .map(|r| r.narration)
        .map_err(|e| format!("neural narrate: {e}"))
}

/// Replica counters summed: cache hits, misses, evictions, sheds.
fn replica_counters(replicas: &[SocketAddr]) -> Result<[f64; 4], String> {
    let mut sums = [0.0; 4];
    for &addr in replicas {
        let stats = connect(addr)?
            .get("/stats")
            .map_err(|e| format!("GET /stats: {e}"))?
            .json()
            .map_err(|e| format!("/stats JSON: {e}"))?;
        let cache = |k: &str| {
            stats
                .get("cache")
                .and_then(|c| c.get(k))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        sums[0] += cache("hits");
        sums[1] += cache("misses");
        sums[2] += cache("evictions");
        sums[3] += stats
            .get("shed_requests")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
    }
    Ok(sums)
}

/// The traced run; see the module docs.
pub fn run(
    spec: &Spec,
    load: &Load<'_>,
    deployment: &Deployment,
    reference: &Reference,
    seconds: f64,
) -> Result<Report, String> {
    let schedule = load.target.schedule;
    let expected = load
        .target
        .expected
        .ok_or("traced run needs expectations")?;
    let replicas = deployment.replica_addrs();
    let mut details = BTreeMap::new();

    // The nn rungs need a model of their own on every workload; its
    // training is the same procedure every neural set-up pays.
    let started = Instant::now();
    let model = deploy::train_model();
    let train_s = deploy::secs(started);

    // Single-replica workloads get a coordinator for the hop rung.
    let helper: Option<ClusterHandle> = match &deployment.coordinator {
        Some(_) => None,
        None => Some(deploy::front(&deployment.replicas)?),
    };
    let coordinator = deployment
        .coordinator
        .as_ref()
        .or(helper.as_ref())
        .map(ClusterHandle::addr)
        .expect("a coordinator exists");
    let failovers_before = failovers(deployment, helper.as_ref());
    let counters_start = replica_counters(&replicas)?;

    // Untraced open loop at the frozen rate, repeated while the
    // generator lagged: the p99 and the generator's lag.
    let (latency_run, rounds) = load.open_valid(spec.offered_rps, seconds * OPEN_SHARE)?;
    let lag = rounds.last().map_or(0.0, |r| r.lag_p99_us);
    let p99 = load::latency_p99(std::slice::from_ref(&latency_run));
    details.insert(
        "open_rounds".into(),
        JsonValue::Array(rounds.iter().map(load::OpenRound::to_json).collect()),
    );

    // Untraced closed loop: the overhead baseline and the cache deltas.
    let before = replica_counters(&replicas)?;
    let untraced = load::throughput(&load.closed(seconds * CLOSED_SHARE)?);
    let after = replica_counters(&replicas)?;
    let (hits, misses, evictions) = (
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    );

    let (sustained, probes) = load.sustained(spec, seconds * LADDER_SHARE)?;
    details.insert(
        "ladder_probes".into(),
        JsonValue::Array(
            probes
                .iter()
                .map(|&(rate, p99, ok)| {
                    JsonValue::Array(vec![
                        JsonValue::Number(rate),
                        JsonValue::Number(p99),
                        JsonValue::Bool(ok),
                    ])
                })
                .collect(),
        ),
    );

    // Mirrors: the passed reference plus one per further replica, fed
    // the latest narrate traffic so their caches match the replicas'.
    let extra: Vec<Reference> = (1..replicas.len())
        .map(|_| Reference::new(spec.kind, None))
        .collect::<Result<_, _>>()?;
    let mut mirrors = vec![reference];
    mirrors.extend(extra.iter());
    let ring = ring(&replicas);
    let position = load.position();
    if spec.kind != Kind::Neural {
        let from = position.saturating_sub(MIRROR_WARM_OPS);
        for pos in from..position {
            let req = &schedule.reqs[schedule.ops[pos % schedule.ops.len()] as usize];
            match &req.kind {
                ReqKind::Narrate { .. } => {
                    let body = schedule.body(req);
                    let owner = ring.route(shard_key(body)).unwrap_or(0);
                    mirrors[owner].post(req.path, body, false);
                }
                ReqKind::Write { stmt } => {
                    for mirror in &mirrors {
                        mirror.apply(&schedule.stmts[*stmt as usize])?;
                    }
                }
                _ => {}
            }
        }
    }

    let env = Env {
        spec,
        schedule,
        expected,
        mirrors,
        mirror_lock: Mutex::new(()),
        ring,
        replicas: replicas.clone(),
        coordinator,
        rule: RuleTranslator::new(default_mssql_store()),
        model: &model,
        start: Instant::now(),
    };
    let traced_s = seconds * TRACED_SHARE;
    let cursor = AtomicUsize::new(position);
    let until = Instant::now() + Duration::from_secs_f64(traced_s);
    let entry = deployment.entry();
    let workers: Vec<Worker<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.clients)
            .map(|thread| {
                let env = &env;
                let cursor = &cursor;
                scope.spawn(move || -> Result<Worker<'_>, String> {
                    let mut worker = Worker::new(env, thread, entry)?;
                    while Instant::now() < until {
                        let pos = cursor.fetch_add(1, Ordering::Relaxed);
                        worker.operate(schedule.ops[pos % schedule.ops.len()])?;
                    }
                    Ok(worker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "traced client panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let live_done: Vec<f64> = workers
        .iter()
        .flat_map(|w| w.spans.iter())
        .filter(|s| s.name == "request")
        .map(|s| s.end as f64 / 1e9)
        .collect();
    let traced = live_done.iter().filter(|&&t| t <= traced_s).count() as f64 / traced_s;
    // Keep what the workers recorded; close their connections, which
    // would otherwise hold coordinator workers.
    let tallies: Vec<_> = workers
        .into_iter()
        .map(|w| (w.spans, w.attempted, w.failed, w.acts))
        .collect();

    // Writes after the traced phase, so pool.write is measured on every
    // workload without disturbing the traced caches.
    let mut trailing = Worker::new(&env, load.clients, coordinator)?;
    for k in 0..TRAILING_WRITES {
        trailing.requests += 1;
        let stmt =
            format!("UPDATE pg SET defn = 'servebench traced write {k}' WHERE name = 'hashjoin'");
        let (status, body) = trailing.timed_post(
            Conn::Coordinator,
            "pool.write",
            None,
            "/catalog/apply",
            &stmt,
        )?;
        trailing.tally(status == 200 && catalog_ack_ok(body.as_bytes()));
        trailing.snapshot_rung(&stmt)?;
    }
    let counters_end = replica_counters(&replicas)?;
    let failovers = failovers(deployment, helper.as_ref()) - failovers_before;
    if let Some(helper) = helper {
        helper
            .shutdown()
            .map_err(|e| format!("helper coordinator shutdown: {e}"))?;
    }

    let mut spans: Vec<Span> = Vec::new();
    let (mut attempted, mut failed) = (load.attempted(), load.failed());
    let mut acts = Vec::new();
    let trailing = (
        trailing.spans,
        trailing.attempted,
        trailing.failed,
        trailing.acts,
    );
    for (worker_spans, worker_attempted, worker_failed, worker_acts) in
        tallies.into_iter().chain(std::iter::once(trailing))
    {
        attempted += worker_attempted;
        failed += worker_failed;
        acts.extend(worker_acts);
        spans.extend(worker_spans);
    }

    let layers = layer_values(&spans);
    let (consistent, ladder_details) = ladder_check(&layers, &spans, spec.kind == Kind::Fleet);
    details.insert("ladder_check".into(), ladder_details);
    details.insert(
        "spans_file".into(),
        JsonValue::String(write_spans(spec, load, &spans)?),
    );
    details.insert("untraced_rps".into(), JsonValue::Number(untraced));
    details.insert("traced_rps".into(), JsonValue::Number(traced));

    let mut metrics: Vec<Metric> = Vec::new();
    for name in LAYERS {
        let values = layers.get(name).map(Vec::as_slice).unwrap_or(&[]);
        metrics.push(metric(
            format!("{name}.p50"),
            percentile(values, 0.5).unwrap_or(0.0),
            "us",
        ));
        metrics.push(metric(
            format!("{name}.p99"),
            percentile(values, 0.99).unwrap_or(0.0),
            "us",
        ));
        metrics.push(metric(
            format!("{name}.count"),
            values.len() as f64,
            "count",
        ));
    }
    let lookups = hits + misses;
    metrics.extend([
        metric(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        metric("cache.hits", hits, "count"),
        metric("cache.misses", misses, "count"),
        metric("cache.evictions", evictions, "count"),
        metric(
            "core.acts_per_plan",
            acts.iter().sum::<f64>() / acts.len().max(1) as f64,
            "acts",
        ),
        metric("serve.shed", counters_end[3] - counters_start[3], "count"),
        metric("cluster.failovers", failovers, "count"),
        metric("nn.train_s", train_s, "s"),
        metric("loadgen.lag_p99_us", lag, "us"),
        metric("latency_p99_ms", p99, "ms"),
        metric("sustained_rps", sustained, "req/s"),
        metric(
            "trace.overhead_pct",
            if untraced > 0.0 {
                (untraced - traced) / untraced * 100.0
            } else {
                0.0
            },
            "%",
        ),
        metric(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ]);
    Ok(Report {
        correct: failed == 0 && consistent,
        attempted,
        failed,
        metrics,
        details,
    })
}

fn failovers(deployment: &Deployment, helper: Option<&ClusterHandle>) -> f64 {
    deployment
        .coordinator
        .as_ref()
        .or(helper)
        .map_or(0.0, |c| c.stats().failovers.load(Ordering::Relaxed) as f64)
}

/// Per-layer values (µs) from the spans: leaf durations, and self times
/// (span minus children) for the router, HTTP and coordinator rungs.
fn layer_values(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut by_req: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_req.entry(span.req.as_str()).or_default().push(span);
        let leaf = match span.name {
            "plan.parse" => "plan.parse_us",
            "cache.doc_digest" => "cache.doc_digest_us",
            "cache.fingerprint" => "cache.fingerprint_us",
            "core.narrate" => "core.narrate_us",
            "core.render" => "core.render_us",
            "core.batch_item" => "core.batch_item_us",
            "diff.diff" => "diff.diff_us",
            "diff.render" => "diff.render_us",
            "cluster.route" => "cluster.route_us",
            "pool.write" => "pool.write_us",
            "pool.snapshot_rebuild" => "pool.snapshot_rebuild_us",
            "core.decompose" => "core.decompose_us",
            "nn.translate_act" => "nn.translate_act_us",
            "neural.narrate" => "neural.narrate_us",
            _ => continue,
        };
        out.entry(leaf).or_default().push(span.us());
    }
    for spans in by_req.values() {
        let total = |name: &str| -> Option<f64> {
            let mut found = false;
            let mut sum = 0.0;
            for s in spans.iter().filter(|s| s.name == name) {
                found = true;
                sum += s.us();
            }
            found.then_some(sum)
        };
        let children = |parent: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.parent == Some(parent))
                .map(|s| s.us())
                .sum()
        };
        if let Some(router) = total("serve.router") {
            out.entry("serve.router_self_us")
                .or_default()
                .push(router - children("serve.router"));
            if let Some(http) = total("serve.http") {
                out.entry("serve.http_self_us")
                    .or_default()
                    .push(http - router);
                if let Some(coordinator) = total("cluster.coordinator") {
                    out.entry("cluster.hop_us")
                        .or_default()
                        .push(coordinator - http);
                }
            }
        }
        if let Some(neural) = total("neural.narrate") {
            if spans.iter().any(|s| s.parent == Some("neural.narrate")) {
                out.entry("neural.self_us")
                    .or_default()
                    .push(neural - children("neural.narrate"));
            }
        }
    }
    out
}

/// Ladder consistency: every self time has a non-negative median, and
/// the path's rungs (which telescope to the outermost rung round trip)
/// sum, at the median, to no more than the live round trip plus
/// [`LADDER_SLACK`].
fn ladder_check(
    layers: &BTreeMap<&'static str, Vec<f64>>,
    spans: &[Span],
    fleet: bool,
) -> (bool, JsonValue) {
    let mut detail = BTreeMap::new();
    let mut ok = true;
    for name in [
        "serve.router_self_us",
        "serve.http_self_us",
        "cluster.hop_us",
        "neural.self_us",
    ] {
        let Some(values) = layers.get(name) else {
            continue;
        };
        let p50 = median(values).unwrap_or(0.0);
        let negative = values.iter().filter(|&&v| v < 0.0).count() as f64;
        ok &= p50 >= 0.0;
        detail.insert(format!("{name}.p50"), JsonValue::Number(p50));
        detail.insert(
            format!("{name}.negative_share"),
            JsonValue::Number(negative / values.len().max(1) as f64),
        );
    }
    // Live round trips of /narrate requests: those with a router rung.
    let mut narrated: BTreeMap<&str, bool> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "serve.router") {
        narrated.insert(s.req.as_str(), true);
    }
    let live: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request" && narrated.contains_key(s.req.as_str()))
        .map(Span::us)
        .collect();
    let outer = if fleet {
        "cluster.coordinator"
    } else {
        "serve.http"
    };
    let rungs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == outer)
        .map(Span::us)
        .collect();
    let live_p50 = median(&live).unwrap_or(0.0);
    let rungs_p50 = median(&rungs).unwrap_or(0.0);
    ok &= rungs_p50 <= live_p50 * (1.0 + LADDER_SLACK);
    detail.insert("live_rtt_p50_us".into(), JsonValue::Number(live_p50));
    detail.insert("rung_sum_p50_us".into(), JsonValue::Number(rungs_p50));
    detail.insert("passed".into(), JsonValue::Bool(ok));
    (ok, JsonValue::Object(detail))
}

/// Write every span as one JSON line under [`TRACE_DIR`]; returns the path.
fn write_spans(spec: &Spec, load: &Load<'_>, spans: &[Span]) -> Result<String, String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-{}.jsonl", spec.name, load.seed());
    let file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"req\":\"{}\",\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.name, s.start, s.end
        )
        .map_err(|e| format!("write {path}: {e}"))?;
    }
    out.flush().map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}
