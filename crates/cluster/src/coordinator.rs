//! The cluster coordinator: a thin HTTP tier that owns no translator,
//! no cache, and no catalog state beyond the mutation log — it routes.
//!
//! Request lifecycle:
//!
//! 1. the request arrives through the same `lantern-serve` event core
//!    the replicas run (pipelining, per-request `503` shedding, idle
//!    sweep, bounded drain), which hands it to a worker;
//! 2. the body is reduced to a **shard key** (canonical plan
//!    fingerprint, memoized by exact text — see [`crate::shard`]);
//! 3. the key picks an owner on the consistent-hash ring, and the
//!    request is forwarded over a pooled keep-alive connection;
//! 4. on connect failure, timeout, or mid-exchange close, the
//!    coordinator backs off briefly and retries the ring **successor**
//!    — the dead node's key range fails over to one neighbour, keeping
//!    the affinity story intact — until `max_attempts` candidates are
//!    exhausted and the client gets a `503` with `Retry-After`;
//! 5. batches are split per owning shard, forwarded concurrently, and
//!    re-stitched in request order, so a caller cannot tell one replica
//!    from N except by throughput.
//!
//! Catalog mutations (`POST /catalog/apply` with one raw POOL
//! statement) append to an ordered statement log and broadcast to every
//! replica as `{from_seq, statements}`; replicas apply idempotently and
//! reject gaps, and the probe loop replays the missing suffix to any
//! replica that restarted or missed a broadcast. Since POOL execution
//! is deterministic, identical logs converge every replica to the same
//! `PoemStore` version.

use crate::ring::HashRing;
use crate::shard::{document_key, group_by_node, item_key, shard_key};
use lantern_cache::ShardedLru;
use lantern_obs::{parse_exposition, MetricsPage, Recorder, Sample, Series};
use lantern_pool::parse_pool;
use lantern_serve::envelope::{self, error_body_raw, json_error, Envelope};
use lantern_serve::http::{Request, Response, REQUEST_ID_HEADER};
use lantern_serve::router::{debug_slow, handle_traced, route, series_value, Route};
use lantern_serve::{
    ClientConfig, ClientError, ClientErrorKind, ClientResponse, Handler, HttpClient, ServeConfig,
    ServeStats,
};
use lantern_text::json::{array_item_spans, JsonValue};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
#[cfg(unix)]
use {
    lantern_serve::{serve, ServerHandle},
    std::io,
    std::net::{TcpListener, ToSocketAddrs},
    std::thread::JoinHandle,
};

/// One sub-batch's share of a stitched batch answer: the replica's
/// answer body and the byte range of each item in it, in entry order;
/// or the compact error body every entry of the sub-batch gets.
type GroupAnswer = Result<(String, Vec<Range<usize>>), String>;

/// `[` + `items` joined by `,` + `]`: a JSON array of already-encoded
/// values.
fn join_items<'a>(items: impl Iterator<Item = &'a str>) -> String {
    let mut out = String::from("[");
    for (n, item) in items.enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

/// Tunables for [`serve_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Replica addresses. Order is identity: the ring hashes each
    /// replica under its address string, so the same list always builds
    /// the same ring.
    pub replicas: Vec<SocketAddr>,
    /// Virtual nodes per replica on the ring.
    pub virtual_nodes: usize,
    /// Coordinator worker threads. `0` means `available_parallelism`
    /// (min 2).
    pub workers: usize,
    /// Requests that may wait for a worker; requests arriving with the
    /// queue full are shed with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Idle read timeout on client keep-alive connections.
    pub idle_timeout: Duration,
    /// TCP connect bound per forwarding attempt.
    pub connect_timeout: Duration,
    /// Read bound per forwarding attempt — the failover trigger for a
    /// replica that accepts but never answers.
    pub read_timeout: Duration,
    /// Sleep between failover attempts.
    pub retry_backoff: Duration,
    /// Forwarding attempts per request (owner + successors).
    pub max_attempts: usize,
    /// Health/catalog probe period.
    pub probe_interval: Duration,
    /// Entries in the shard-key memo (exact request text → ring key);
    /// sized like a replica cache so duplicate traffic skips re-parsing.
    pub route_memo_entries: usize,
    /// Capture threshold for the coordinator's slow-request ring
    /// (`GET /debug/slow`), milliseconds. `0` captures every request.
    pub slow_log_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: Vec::new(),
            virtual_nodes: 64,
            workers: 0,
            queue_depth: 64,
            max_body_bytes: 4 * 1024 * 1024,
            idle_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            retry_backoff: Duration::from_millis(25),
            max_attempts: 3,
            probe_interval: Duration::from_millis(500),
            route_memo_entries: 4096,
            slow_log_ms: 0,
        }
    }
}

impl ClusterConfig {
    /// The serving-core settings for the coordinator's own front door.
    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            workers: self.workers,
            queue_depth: self.queue_depth,
            max_body_bytes: self.max_body_bytes,
            read_timeout: self.idle_timeout,
            slow_log_ms: self.slow_log_ms,
            ..ServeConfig::default()
        }
    }
}

/// The counters only a coordinator keeps. Its front-door counters
/// (requests, per-endpoint counts, errors, connections, sheds) live in
/// its [`ServeStats`] like any server's; replica counters live on the
/// replicas and are summed by `GET /stats`.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Forwarding attempts that went to a ring successor instead of the
    /// key's owner (each retry counts once).
    pub failovers: AtomicU64,
    /// Requests answered `503` because every candidate replica failed.
    pub unavailable_responses: AtomicU64,
    /// Catalog mutations accepted into the statement log.
    pub catalog_mutations: AtomicU64,
    /// Log-suffix replays pushed to lagging replicas (rejoin path).
    pub catalog_replays: AtomicU64,
    /// Broadcast legs that failed to reach a replica (the probe loop
    /// owes that replica a replay).
    pub catalog_broadcast_errors: AtomicU64,
    /// Completed probe sweeps over all replicas.
    pub probe_cycles: AtomicU64,
}

impl ClusterStats {
    /// The counter table, rendered after the front-door rows in the
    /// `coordinator` object of `GET /stats` and as `lantern_cluster_*`
    /// on `GET /metrics`.
    pub fn series(&self) -> [Series; 6] {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        [
            Series::counter("failovers", read(&self.failovers)),
            Series::counter("unavailable_responses", read(&self.unavailable_responses)),
            Series::counter("catalog_mutations", read(&self.catalog_mutations)),
            Series::counter("catalog_replays", read(&self.catalog_replays)),
            Series::counter(
                "catalog_broadcast_errors",
                read(&self.catalog_broadcast_errors),
            ),
            Series::counter("probe_cycles", read(&self.probe_cycles)),
        ]
    }
}

/// Per-replica connection pool cap. Keep-alive connections beyond this
/// are closed instead of parked.
const POOL_CAP: usize = 8;

struct Replica {
    addr: SocketAddr,
    /// Optimistic until proven otherwise; the probe loop and every
    /// forwarding attempt keep it current. An unhealthy replica is
    /// deprioritized, never excluded — forwarding is the liveness
    /// detector of last resort when the whole ring looks down.
    healthy: AtomicBool,
    catalog: CatalogView,
    pool: Mutex<Vec<HttpClient>>,
}

impl Replica {
    /// The `addr` and `healthy` members of the replica's admin-page
    /// objects.
    fn identity(&self) -> [(&'static str, JsonValue); 2] {
        let healthy = self.healthy.load(Ordering::Relaxed);
        [
            ("addr", JsonValue::String(self.addr.to_string())),
            ("healthy", JsonValue::Bool(healthy)),
        ]
    }

    /// The `version` and `applied_seq` members: the replica's catalog as
    /// last observed.
    fn catalog_view(&self) -> [(&'static str, JsonValue); 2] {
        let (applied_seq, version) = self.catalog.get();
        [
            ("version", JsonValue::Number(version as f64)),
            ("applied_seq", JsonValue::Number(applied_seq as f64)),
        ]
    }
}

/// What the coordinator last learned of one replica's catalog
/// (`applied_seq`, `version`) from `GET /catalog` probes and
/// `/catalog/apply` acks. Those answers can land out of order — a probe
/// sent before a broadcast may answer after the broadcast's ack — so
/// every exchange takes a [`CatalogView::stamp`] before it sends and
/// hands it to [`CatalogView::observe`] with the answer. An answer to a
/// request sent after the stored answer was recorded always wins, even
/// with a lower sequence (a restarted replica starts over from 0); an
/// answer to a request that overlapped it only wins with a higher
/// sequence, so an older answer never overwrites a newer one.
#[derive(Default)]
struct CatalogView {
    clock: AtomicU64,
    /// `(recorded_at, applied_seq, version)`: the stored answer and the
    /// clock tick it was recorded at.
    state: Mutex<(u64, u64, u64)>,
}

impl CatalogView {
    /// Taken before sending a request whose answer will be observed.
    fn stamp(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Record an answer (`applied_seq`, `version`) to a request sent at
    /// stamp `sent`, unless a newer answer is already stored.
    fn observe(&self, sent: u64, seq: u64, version: u64) {
        let mut state = lock(&self.state);
        let (recorded_at, stored_seq, _) = *state;
        if sent >= recorded_at || seq > stored_seq {
            *state = (self.clock.fetch_add(1, Ordering::SeqCst) + 1, seq, version);
        }
    }

    /// The stored `(applied_seq, version)`.
    fn get(&self) -> (u64, u64) {
        let (_, seq, version) = *lock(&self.state);
        (seq, version)
    }
}

struct Coordinator {
    config: ClusterConfig,
    ring: HashRing,
    replicas: Vec<Replica>,
    /// The coordinator's own front door: request entry, per-endpoint
    /// counts, and the serving core's transport counters.
    stats: ServeStats,
    cluster: Arc<ClusterStats>,
    /// Exact request text → shard key, so the 75%-duplicate classroom
    /// workload parses each distinct plan once at the routing tier.
    route_memo: ShardedLru<u128>,
    /// The ordered catalog mutation log; `log[i]` carries sequence
    /// number `i + 1`.
    catalog_log: Mutex<Vec<String>>,
    client_config: ClientConfig,
    /// Request latency + slow-ring recorder for the coordinator's own
    /// hop (replica-side time is scraped, not re-measured here).
    obs: Arc<Recorder>,
}

thread_local! {
    /// The id of the request this worker thread is currently serving,
    /// stamped onto every replica exchange it performs — this is what
    /// carries one `x-lantern-request-id` coordinator → replica →
    /// response. Probe/broadcast threads have no active id and send no
    /// header.
    static ACTIVE_REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Poison-tolerant lock: a worker that panicked mid-exchange must not
/// wedge every future request behind a poisoned mutex.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Re-encode decoded query parameters for the forwarded request line.
fn encode_query(query: &[(String, String)]) -> String {
    fn push_encoded(out: &mut String, s: &str) {
        for b in s.bytes() {
            match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                    out.push(b as char)
                }
                _ => {
                    out.push('%');
                    out.push(
                        char::from_digit((b >> 4) as u32, 16)
                            .unwrap()
                            .to_ascii_uppercase(),
                    );
                    out.push(
                        char::from_digit((b & 0xf) as u32, 16)
                            .unwrap()
                            .to_ascii_uppercase(),
                    );
                }
            }
        }
    }
    let mut out = String::new();
    for (i, (key, value)) in query.iter().enumerate() {
        out.push(if i == 0 { '?' } else { '&' });
        push_encoded(&mut out, key);
        if !value.is_empty() {
            out.push('=');
            push_encoded(&mut out, value);
        }
    }
    out
}

impl Coordinator {
    fn new(config: ClusterConfig) -> Coordinator {
        let names: Vec<String> = config.replicas.iter().map(|a| a.to_string()).collect();
        let ring = HashRing::new(&names, config.virtual_nodes);
        let replicas = config
            .replicas
            .iter()
            .map(|&addr| Replica {
                addr,
                healthy: AtomicBool::new(true),
                catalog: CatalogView::default(),
                pool: Mutex::new(Vec::new()),
            })
            .collect();
        let client_config = ClientConfig {
            connect_timeout: Some(config.connect_timeout),
            read_timeout: Some(config.read_timeout),
        };
        let route_memo = ShardedLru::new(
            8,
            config.route_memo_entries.max(1),
            // Entries are 16-byte values; bound by entries, not bytes.
            u64::MAX,
        );
        let obs = config.serve_config().recorder();
        Coordinator {
            ring,
            replicas,
            stats: ServeStats::new(),
            cluster: Arc::new(ClusterStats::default()),
            route_memo,
            catalog_log: Mutex::new(Vec::new()),
            client_config,
            obs,
            config,
        }
    }

    /// One request/response exchange with a replica: pooled keep-alive
    /// connection first, one fresh connection on a stale-pool failure.
    /// Updates the replica's health from the outcome.
    fn exchange(
        &self,
        node: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let replica = &self.replicas[node];
        // The serving worker's request id rides every hop to a replica,
        // so one id names the request across the whole cluster.
        let id = ACTIVE_REQUEST_ID.with(|cell| cell.borrow().clone());
        let headers: Vec<(&str, &str)> = match &id {
            Some(id) => vec![(REQUEST_ID_HEADER, id.as_str())],
            None => Vec::new(),
        };
        // Take the pooled client in its own statement: an `if let`
        // scrutinee would keep the pool guard alive through the body,
        // where `park` re-locks the same mutex.
        let pooled = lock(&replica.pool).pop();
        if let Some(mut client) = pooled {
            match client.try_request_with(method, path, &headers, body) {
                Ok(resp) => {
                    replica.healthy.store(true, Ordering::Relaxed);
                    self.park(node, client);
                    return Ok(resp);
                }
                Err(e) if e.kind == ClientErrorKind::Protocol => return Err(e),
                // Any transport failure on a pooled connection may just
                // be a keep-alive the replica already closed; fall
                // through and judge the replica on a fresh connect.
                Err(_) => {}
            }
        }
        let fresh =
            HttpClient::connect_with(replica.addr, &self.client_config).and_then(|mut client| {
                client
                    .try_request_with(method, path, &headers, body)
                    .map(|resp| (client, resp))
            });
        match fresh {
            Ok((client, resp)) => {
                replica.healthy.store(true, Ordering::Relaxed);
                self.park(node, client);
                Ok(resp)
            }
            Err(e) => {
                if matches!(
                    e.kind,
                    ClientErrorKind::Connect | ClientErrorKind::Timeout | ClientErrorKind::Closed
                ) {
                    replica.healthy.store(false, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    fn park(&self, node: usize, client: HttpClient) {
        let mut pool = lock(&self.replicas[node].pool);
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    /// Candidate nodes for a key: the ring's successor order, healthy
    /// nodes first (unhealthy ones stay as last-resort probes), capped
    /// at `max_attempts`.
    fn candidates(&self, key: u128) -> Vec<usize> {
        let order = self.ring.successors(key);
        let mut out: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&n| self.replicas[n].healthy.load(Ordering::Relaxed))
            .collect();
        out.extend(
            order
                .iter()
                .copied()
                .filter(|&n| !self.replicas[n].healthy.load(Ordering::Relaxed)),
        );
        out.truncate(self.config.max_attempts.max(1));
        out
    }

    /// Forward to the key's owner with successor failover. `Err` means
    /// every candidate failed (carrying the last transport error).
    fn forward(
        &self,
        key: u128,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, Option<ClientError>> {
        let mut last = None;
        for (attempt, node) in self.candidates(key).into_iter().enumerate() {
            if attempt > 0 {
                self.cluster.failovers.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.config.retry_backoff);
            }
            match self.exchange(node, method, path, body) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    let fatal = !e.kind.is_retriable();
                    last = Some(e);
                    if fatal {
                        break;
                    }
                }
            }
        }
        Err(last)
    }

    /// [`Coordinator::forward`], rendered as the client-facing response
    /// (pass-through on success, `503` + `Retry-After` on exhaustion).
    fn forward_response(
        &self,
        key: u128,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Response {
        match self.forward(key, method, path, body) {
            Ok(resp) => passthrough(resp),
            Err(err) => self.unavailable(err),
        }
    }

    fn unavailable(&self, err: Option<ClientError>) -> Response {
        self.cluster
            .unavailable_responses
            .fetch_add(1, Ordering::Relaxed);
        let message = match err {
            Some(e) => format!("no replica could serve the request: {e}"),
            None => "no replica could serve the request".to_string(),
        };
        json_error("unavailable", &message, 503).with_header("Retry-After", "1")
    }

    /// Shard key for a document, memoized by exact text.
    fn route_key(&self, doc: &str) -> u128 {
        let memo_key = document_key(doc);
        if let Some(key) = self.route_memo.get(memo_key) {
            return key;
        }
        let key = shard_key(doc);
        self.route_memo.insert(memo_key, key, 16);
        key
    }

    /// Dispatch one parsed request under the same request entry as a
    /// replica router ([`handle_traced`]): one `x-lantern-request-id`
    /// per request, installed as the thread's active id so
    /// [`Coordinator::exchange`] propagates it to replicas, echoed on
    /// the response, and traced into the coordinator's own latency
    /// histograms and slow ring.
    fn handle(&self, req: &Request) -> Response {
        handle_traced(&self.stats, &self.obs, req, |id| {
            ACTIVE_REQUEST_ID.with(|cell| *cell.borrow_mut() = Some(id.to_string()));
            let response = self.dispatch(req);
            ACTIVE_REQUEST_ID.with(|cell| *cell.borrow_mut() = None);
            response
        })
    }

    fn dispatch(&self, req: &Request) -> Response {
        let routes: [Route<Self>; 11] = [
            ("POST", "/narrate", true, |c, req| {
                c.stats.narrate_requests.fetch_add(1, Ordering::Relaxed);
                c.route_whole(req, envelope::narrate(req).map(|e| (e.body, e.body.into())))
            }),
            ("POST", "/narrate/batch", true, Self::narrate_batch),
            ("POST", "/narrate/diff", true, |c, req| {
                c.stats.diff_requests.fetch_add(1, Ordering::Relaxed);
                c.route_whole(req, envelope::diff(req).map(|e| (e.body, e.docs.base)))
            }),
            ("POST", "/narrate/diff/batch", true, |c, req| {
                c.stats.diff_batch_requests.fetch_add(1, Ordering::Relaxed);
                c.route_whole(
                    req,
                    envelope::diff_batch(req).map(|e| (e.body, e.docs.base)),
                )
            }),
            ("GET", "/healthz", true, |c, _| c.healthz()),
            ("GET", "/stats", true, |c, _| c.aggregate_stats()),
            ("GET", "/metrics", true, |c, _| c.metrics()),
            // The coordinator's own slow ring: its entries carry the
            // request ids the replicas logged, so a slow request here can
            // be chased into the owning replica's `/debug/slow`.
            ("GET", "/debug/slow", true, |c, req| debug_slow(&c.obs, req)),
            ("GET", "/catalog", true, |c, _| c.catalog_info()),
            ("POST", "/catalog/apply", true, Self::catalog_apply),
            ("POST", "/cache/clear", true, |c, _| c.cache_clear()),
        ];
        route(self, req, &routes, &self.stats.not_found)
    }

    /// `/narrate` and `/narrate/diff[/batch]`, given the body and the
    /// document that keys it as the replica's envelope reader returns
    /// them: routed whole to the key document's owner. A diff is keyed by
    /// its base, so repeat comparisons of the same base warm one
    /// replica's plan cache. A malformed request is answered with the
    /// reader's 400, exactly as a replica would answer it.
    fn route_whole(&self, req: &Request, read: Result<(&str, Cow<'_, str>), Response>) -> Response {
        match read {
            Ok((body, doc)) => {
                let path = format!("{}{}", req.path, encode_query(&req.query));
                self.forward_response(self.route_key(&doc), "POST", &path, Some(body))
            }
            Err(response) => response,
        }
    }

    /// `POST /narrate/batch`: read the envelope with the replica's own
    /// reader (a malformed one gets the replica's 400 from here), split
    /// entries by owning shard, forward sub-batches concurrently, and
    /// re-stitch responses in request order.
    ///
    /// Entries and answers travel as byte ranges: each sub-batch is the
    /// original entries' bytes joined by `,` inside `[`…`]`, and each
    /// replica answer (whose items the replica writes compactly, in
    /// order) is split into item ranges by a validating skip and copied
    /// into place. No entry or answer is decoded into a value tree.
    fn narrate_batch(&self, req: &Request) -> Response {
        self.stats.batch_requests.fetch_add(1, Ordering::Relaxed);
        let Envelope {
            body,
            docs: entries,
            ..
        } = match envelope::batch(req) {
            Ok(envelope) => envelope,
            Err(response) => return response,
        };
        self.stats
            .batch_items
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        // String entries key like single documents, off the reader's
        // decode; any other entry off its raw bytes.
        let keys: Vec<u128> = entries
            .iter()
            .map(|entry| match &entry.doc {
                Ok(doc) => self.route_key(doc),
                Err(_) => item_key(&body[entry.span.clone()]),
            })
            .collect();
        let groups = group_by_node(&keys, &self.ring);
        let path = format!("/narrate/batch{}", encode_query(&req.query));

        // Whole batch owned by one shard: forward the original body.
        if groups.len() == 1 {
            let key = keys[0];
            return self.forward_response(key, "POST", &path, Some(body));
        }

        let answers: Vec<(Vec<usize>, GroupAnswer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_values()
                .map(|indices| {
                    let sub_body =
                        join_items(indices.iter().map(|&i| &body[entries[i].span.clone()]));
                    // Failover for the sub-batch follows the first
                    // entry's successor chain — one group, one
                    // shard, one chain.
                    let (key, n, path) = (keys[indices[0]], indices.len(), &path);
                    let handle = scope.spawn(move || {
                        self.group_answer(n, self.forward(key, "POST", path, Some(&sub_body)))
                    });
                    (indices, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(indices, handle)| {
                    let answer = handle
                        .join()
                        .unwrap_or_else(|_| self.group_answer(indices.len(), Err(None)));
                    (indices, answer)
                })
                .collect()
        });
        let mut slots: Vec<Option<&str>> = vec![None; entries.len()];
        for (indices, answer) in &answers {
            match answer {
                Ok((body, items)) => {
                    for (&index, item) in indices.iter().zip(items) {
                        slots[index] = Some(&body[item.clone()]);
                    }
                }
                Err(err) => indices.iter().for_each(|&i| slots[i] = Some(err)),
            }
        }
        let unstitched = error_body_raw("backend", "batch entry was not stitched", 500);
        Response::json(
            200,
            join_items(slots.into_iter().map(|slot| slot.unwrap_or(&unstitched))),
        )
    }

    /// What one sub-batch contributes to the stitched answer: the
    /// replica's item ranges when it answered `200` with one item per
    /// entry, else one error body for each of its entries.
    fn group_answer(
        &self,
        entries: usize,
        result: Result<ClientResponse, Option<ClientError>>,
    ) -> GroupAnswer {
        let err = match result {
            Ok(resp) if resp.status == 200 => match array_item_spans(&resp.body) {
                Ok(Some(items)) if items.len() == entries => return Ok((resp.body, items)),
                _ => error_body_raw(
                    "backend",
                    "replica returned a malformed batch response",
                    502,
                ),
            },
            // The replica rejected the sub-batch wholesale (can't
            // normally happen for a coordinator-built envelope):
            // surface its error per item.
            Ok(resp) => envelope::member(&resp.body, "error")
                .map(|inner| format!("{{\"error\":{inner}}}"))
                .unwrap_or_else(|| {
                    error_body_raw("backend", "replica rejected the sub-batch", 502)
                }),
            Err(err) => {
                self.cluster
                    .unavailable_responses
                    .fetch_add(1, Ordering::Relaxed);
                let message = match err {
                    Some(e) => format!("shard unavailable: {e}"),
                    None => "shard unavailable".to_string(),
                };
                error_body_raw("unavailable", &message, 503)
            }
        };
        Err(err)
    }

    fn healthz(&self) -> Response {
        let replicas: Vec<JsonValue> = self
            .replicas
            .iter()
            .map(|replica| JsonValue::object(replica.identity()))
            .collect();
        let uptime_ms = self.stats.uptime().as_millis() as f64;
        let body = JsonValue::object([
            ("status", JsonValue::String("ok".to_string())),
            ("role", JsonValue::String("coordinator".to_string())),
            ("ring_nodes", JsonValue::Number(self.ring.len() as f64)),
            ("replicas", JsonValue::Array(replicas)),
            ("uptime_ms", JsonValue::Number(uptime_ms)),
        ]);
        Response::json(200, body.to_string_compact())
    }

    /// `GET /stats`: every reachable replica's counters summed (cache
    /// counters summed under `"cache"`), the per-replica breakdown
    /// under `"replicas"`, and the coordinator's own counters under
    /// `"coordinator"`. The top-level shape matches a single replica's
    /// `/stats`, so soak tooling pointed at the coordinator keeps
    /// working; a replica that is down appears as `"healthy": false` in
    /// the breakdown rather than failing the request. Both the sums and
    /// the breakdown are read off the same fleet scrape `/metrics`
    /// serves (a replica renders both its pages from one counter
    /// table), so uptimes are per replica only.
    fn aggregate_stats(&self) -> Response {
        let mut page = MetricsPage::new();
        let answered = self.scrape_replicas(&mut page);
        let samples = parse_exposition(&page.render()).samples;
        let mut body = stats_object(&samples, &[]);
        // Requests the coordinator refused never reached a replica;
        // fold them into the aggregate shed count so "sent - answered"
        // adds up from the client's point of view.
        let coordinator_shed = self.stats.shed_requests.load(Ordering::Relaxed)
            + self.cluster.unavailable_responses.load(Ordering::Relaxed);
        let replica_shed = body.get("shed_requests").and_then(JsonValue::as_f64);
        body.insert(
            "shed_requests".to_string(),
            JsonValue::Number(replica_shed.unwrap_or(0.0) + coordinator_shed as f64),
        );
        let replicas = self
            .replicas
            .iter()
            .zip(answered)
            .map(|(replica, up)| {
                let addr = replica.addr.to_string();
                let stats = up.then(|| stats_object(&samples, &[("replica", &addr)]));
                let stats = stats.map(|stats| ("stats", JsonValue::Object(stats)));
                let members = [
                    ("healthy", JsonValue::Bool(up)),
                    ("addr", JsonValue::String(addr)),
                ];
                JsonValue::object(members.into_iter().chain(stats))
            })
            .collect();
        let mut coordinator = series_value(self.own_series());
        if let JsonValue::Object(obj) = &mut coordinator {
            let memo = self.route_memo.stats();
            let route = JsonValue::object([
                ("hits", JsonValue::Number(memo.hits as f64)),
                ("misses", JsonValue::Number(memo.misses as f64)),
                ("entries", JsonValue::Number(memo.entries as f64)),
            ]);
            obj.insert("route_memo".to_string(), route);
            obj.insert(
                "uptime_ms".to_string(),
                JsonValue::Number(self.stats.uptime().as_millis() as f64),
            );
        }
        body.insert("coordinator".to_string(), coordinator);
        body.insert("replicas".to_string(), JsonValue::Array(replicas));
        Response::json(200, JsonValue::Object(body).to_string_compact())
    }

    /// Scrape every replica's `/metrics` page and fold it into `page`
    /// twice: **merged** across replicas (every producer renders
    /// cumulative histogram buckets on the shared `le` grid, so
    /// bucket-wise addition is exact) and once under a
    /// `replica="host:port"` label. Uptime gauges stay out of the merge:
    /// three replicas up 100 s are not a fleet up 300 s. Returns which
    /// replicas answered; one that is down (or serves no `/metrics`
    /// page) is left out, never an error.
    fn scrape_replicas(&self, page: &mut MetricsPage) -> Vec<bool> {
        (0..self.replicas.len())
            .map(|node| {
                let scrape = match self.exchange(node, "GET", "/metrics", None) {
                    Ok(resp) if resp.status == 200 => resp.body,
                    _ => return false,
                };
                let summable: String = scrape
                    .lines()
                    .filter(|line| !line.starts_with("lantern_server_uptime_"))
                    .flat_map(|line| [line, "\n"])
                    .collect();
                page.fold(&summable, &[]);
                let addr = self.replicas[node].addr.to_string();
                page.fold(&scrape, &[("replica", addr.as_str())]);
                true
            })
            .collect()
    }

    /// The coordinator's own counter table: its front-door rows, then
    /// the cluster-only ones.
    fn own_series(&self) -> impl Iterator<Item = Series> {
        self.stats
            .front_door_series()
            .into_iter()
            .chain(self.cluster.series())
    }

    /// `GET /metrics` — the fleet's Prometheus page: every replica's
    /// scrape, merged and per replica ([`Self::scrape_replicas`]). The
    /// coordinator's own request histograms and `lantern_cluster_*`
    /// counters are added directly under `node="coordinator"`, so
    /// nothing collides with the replica merge.
    fn metrics(&self) -> Response {
        let mut page = MetricsPage::new();
        self.scrape_replicas(&mut page);
        let own = [("node", "coordinator")];
        let uptime = Series::gauge("uptime_seconds", self.stats.uptime().as_secs());
        page.add_series("lantern_cluster_", &own, self.own_series().chain([uptime]));
        self.obs.export(&mut page, &own);
        Response::text(200, page.render())
    }

    fn catalog_info(&self) -> Response {
        let seq = lock(&self.catalog_log).len() as u64;
        let replicas: Vec<JsonValue> = self
            .replicas
            .iter()
            .map(|replica| {
                let catalog = replica.catalog_view();
                JsonValue::object(replica.identity().into_iter().chain(catalog))
            })
            .collect();
        let body = JsonValue::object([
            ("seq", JsonValue::Number(seq as f64)),
            ("replicas", JsonValue::Array(replicas)),
        ]);
        Response::json(200, body.to_string_compact())
    }

    /// `POST /catalog/apply` at the coordinator: the body is **one raw
    /// POOL statement** (the student-facing form), not the replicated
    /// `{from_seq, statements}` envelope — the coordinator assigns the
    /// sequence number. The statement is parse-checked here so a typo
    /// is a clean 400 instead of N replica-side failures, appended to
    /// the log, and broadcast to every replica.
    fn catalog_apply(&self, req: &Request) -> Response {
        let statement = match envelope::body_text(req) {
            Ok(statement) => statement.trim(),
            Err(response) => return response,
        };
        if statement.is_empty() {
            return json_error("pool", "request body must be one POOL statement", 400);
        }
        if let Err(e) = parse_pool(statement) {
            return json_error("pool", &format!("statement does not parse: {e}"), 400);
        }
        self.cluster
            .catalog_mutations
            .fetch_add(1, Ordering::Relaxed);
        let seq = {
            let mut log = lock(&self.catalog_log);
            log.push(statement.to_string());
            log.len() as u64
        };
        let replicas = self.broadcast_statement(seq, statement);
        let body = JsonValue::object([
            ("seq", JsonValue::Number(seq as f64)),
            ("replicas", JsonValue::Array(replicas)),
        ]);
        Response::json(200, body.to_string_compact())
    }

    /// Push one logged statement to every replica concurrently,
    /// returning a per-replica outcome object. A replica that answers
    /// `409` is behind the log (it restarted, or missed a broadcast):
    /// the leg immediately replays the missing suffix instead of
    /// waiting for the next probe sweep.
    fn broadcast_statement(&self, seq: u64, statement: &str) -> Vec<JsonValue> {
        let envelope = envelope::write_catalog_apply(seq, &[statement]);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.replicas.len())
                .map(|node| {
                    let envelope = &envelope;
                    scope.spawn(move || self.push_catalog(node, seq, envelope))
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(node, handle)| {
                    let status = handle
                        .join()
                        .unwrap_or_else(|_| "broadcast thread panicked".to_string());
                    let replica = &self.replicas[node];
                    let addr = ("addr", JsonValue::String(replica.addr.to_string()));
                    let status = ("status", JsonValue::String(status));
                    JsonValue::object([addr, status].into_iter().chain(replica.catalog_view()))
                })
                .collect()
        })
    }

    /// One broadcast leg; returns a short status word for the response.
    fn push_catalog(&self, node: usize, seq: u64, envelope: &str) -> String {
        let sent = self.replicas[node].catalog.stamp();
        let failed = match self.exchange(node, "POST", "/catalog/apply", Some(envelope)) {
            Ok(resp) if resp.status == 200 => {
                self.record_catalog(node, sent, &resp);
                return "applied".to_string();
            }
            // The replica is behind this statement's predecessor: replay
            // everything it is missing, which includes seq.
            Ok(resp) if resp.status == 409 => match self.replay_suffix(node) {
                Ok(()) => return "replayed".to_string(),
                Err(message) => message,
            },
            Ok(resp) => format!("rejected with status {} at seq {seq}", resp.status),
            Err(e) => format!("unreachable: {e}"),
        };
        self.cluster
            .catalog_broadcast_errors
            .fetch_add(1, Ordering::Relaxed);
        failed
    }

    /// Record the `applied_seq`/`version` of a replica's `GET /catalog`
    /// or `/catalog/apply` answer to a request sent at stamp `sent`;
    /// returns the answer's `applied_seq`.
    fn record_catalog(&self, node: usize, sent: u64, resp: &ClientResponse) -> Option<u64> {
        let (seq, version) = envelope::catalog_answer(&resp.body)?;
        self.replicas[node].catalog.observe(sent, seq, version);
        Some(seq)
    }

    /// Bring one replica up to the head of the statement log: ask where
    /// it is, then send everything after that in one envelope. The
    /// rejoin path for a restarted (empty-catalog) replica, and the
    /// catch-up path for one that missed broadcasts while partitioned.
    fn replay_suffix(&self, node: usize) -> Result<(), String> {
        let log: Vec<String> = lock(&self.catalog_log).clone();
        let sent = self.replicas[node].catalog.stamp();
        let applied = match self.exchange(node, "GET", "/catalog", None) {
            Ok(resp) if resp.status == 200 => self
                .record_catalog(node, sent, &resp)
                .ok_or_else(|| "replica /catalog answered without applied_seq".to_string())?,
            Ok(resp) => return Err(format!("replica /catalog answered {}", resp.status)),
            Err(e) => return Err(format!("unreachable: {e}")),
        };
        let applied = applied.min(log.len() as u64);
        if applied as usize >= log.len() {
            return Ok(());
        }
        let suffix = &log[applied as usize..];
        let envelope = envelope::write_catalog_apply(applied + 1, suffix);
        let sent = self.replicas[node].catalog.stamp();
        match self.exchange(node, "POST", "/catalog/apply", Some(&envelope)) {
            Ok(resp) if resp.status == 200 => {
                self.cluster.catalog_replays.fetch_add(1, Ordering::Relaxed);
                self.record_catalog(node, sent, &resp);
                Ok(())
            }
            Ok(resp) => Err(format!("replay rejected with status {}", resp.status)),
            Err(e) => Err(format!("unreachable during replay: {e}")),
        }
    }

    fn cache_clear(&self) -> Response {
        let mut cleared = 0.0;
        for node in 0..self.replicas.len() {
            if let Ok(resp) = self.exchange(node, "POST", "/cache/clear", Some("")) {
                if resp.status == 200 {
                    cleared += envelope::member(&resp.body, "cleared")
                        .and_then(|raw| raw.parse::<f64>().ok())
                        .unwrap_or(0.0);
                }
            }
        }
        self.route_memo.clear();
        let body = JsonValue::object([("cleared", JsonValue::Number(cleared))]);
        Response::json(200, body.to_string_compact())
    }

    /// One probe sweep: `GET /catalog` against every replica (any HTTP
    /// answer flips it healthy; transport failure flips it unhealthy —
    /// both via [`Coordinator::exchange`]), recording version/seq and
    /// replaying the log suffix to any replica that is behind.
    fn probe_once(&self) {
        let log_len = lock(&self.catalog_log).len() as u64;
        for node in 0..self.replicas.len() {
            let sent = self.replicas[node].catalog.stamp();
            match self.exchange(node, "GET", "/catalog", None) {
                Ok(resp) if resp.status == 200 => {
                    if let Some(applied) = self.record_catalog(node, sent, &resp) {
                        if applied < log_len {
                            let _ = self.replay_suffix(node);
                        }
                    }
                }
                // Any parsed HTTP answer proves liveness (`exchange`
                // already marked it healthy); a replica without a
                // catalog surface just doesn't replicate.
                Ok(_) => {}
                Err(_) => {}
            }
        }
        self.cluster.probe_cycles.fetch_add(1, Ordering::Relaxed);
    }
}

/// A replica's `/stats` object read back off a metrics page: the
/// `lantern_server_*` rows carrying exactly `labels` are the top-level
/// keys, and the `lantern_cache_*` rows the `"cache"` object (absent
/// when no cache rows exist).
fn stats_object(samples: &[Sample], labels: &[(&str, &str)]) -> BTreeMap<String, JsonValue> {
    let mut stats = BTreeMap::new();
    let mut cache = BTreeMap::new();
    for sample in samples {
        let same_labels = sample.labels.len() == labels.len()
            && labels.iter().all(|(n, v)| sample.label(n) == Some(*v));
        if !same_labels {
            continue;
        }
        let value = JsonValue::Number(sample.value);
        if let Some(key) = sample.name.strip_prefix("lantern_server_") {
            stats.insert(key.to_string(), value);
        } else if let Some(key) = sample.name.strip_prefix("lantern_cache_") {
            cache.insert(key.to_string(), value);
        }
    }
    if !cache.is_empty() {
        stats.insert("cache".to_string(), JsonValue::Object(cache));
    }
    stats
}

/// Render a replica's response back to the coordinator's client.
/// Status and body pass through; `Retry-After` survives so a shedding
/// replica's backpressure reaches the real client, and the replica's
/// `x-lantern-request-id` echo survives so the client sees the same id
/// the replica logged ([`Response::with_request_id`] in
/// [`Coordinator::handle`] only adds the header when absent).
fn passthrough(resp: ClientResponse) -> Response {
    let retry = resp.header("retry-after").map(str::to_string);
    let request_id = resp.header(REQUEST_ID_HEADER).map(str::to_string);
    let mut out = Response::json(resp.status, resp.body);
    if let Some(retry) = retry {
        out = out.with_header("Retry-After", retry);
    }
    if let Some(id) = request_id {
        out = out.with_request_id(&id);
    }
    out
}

impl Handler for Coordinator {
    fn handle(&self, req: &Request) -> Response {
        Coordinator::handle(self, req)
    }

    fn recorder(&self) -> &Recorder {
        &self.obs
    }

    fn stats(&self) -> &ServeStats {
        &self.stats
    }
}

/// Handle to a running coordinator: the serving core's handle plus the
/// probe thread. Dropping it shuts the cluster tier down (the replicas
/// are not owned and keep running).
#[cfg(unix)]
pub struct ClusterHandle {
    server: Option<ServerHandle>,
    stats: Arc<ClusterStats>,
    stop_probe: Arc<AtomicBool>,
    probe_thread: Option<JoinHandle<()>>,
}

#[cfg(unix)]
impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("server", &self.server)
            .finish_non_exhaustive()
    }
}

#[cfg(unix)]
impl ClusterHandle {
    /// The bound coordinator address (port 0 resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .map(ServerHandle::addr)
            .expect("running until shut down")
    }

    /// The coordinator's own counters (live, not a snapshot).
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Stop accepting, drain, and join every coordinator thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> io::Result<()> {
        self.stop_probe.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            server.shutdown()?;
        }
        if let Some(t) = self.probe_thread.take() {
            t.join()
                .map_err(|_| io::Error::other("probe thread panicked"))?;
        }
        Ok(())
    }
}

#[cfg(unix)]
impl Drop for ClusterHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Boot a coordinator on `addr` fronting `config.replicas`.
///
/// Returns once the serving core and the probe loop are up. The
/// replicas are expected to be `lantern-serve` nodes (narrate + stats
/// surfaces; catalog and cache surfaces optional — probing degrades
/// gracefully without them).
#[cfg(unix)]
pub fn serve_cluster(config: ClusterConfig, addr: impl ToSocketAddrs) -> io::Result<ClusterHandle> {
    if config.replicas.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a cluster needs at least one replica address",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let serve_config = config.serve_config();
    let probe_interval = config.probe_interval;
    let coordinator = Arc::new(Coordinator::new(config));
    let stats = Arc::clone(&coordinator.cluster);
    let server = serve(Arc::clone(&coordinator) as _, listener, serve_config)?;

    let stop_probe = Arc::new(AtomicBool::new(false));
    let probe_thread = {
        let stop_probe = Arc::clone(&stop_probe);
        std::thread::spawn(move || {
            while !stop_probe.load(Ordering::SeqCst) {
                coordinator.probe_once();
                // Sleep in short slices so shutdown isn't gated on the
                // probe period.
                let mut remaining = probe_interval;
                while !remaining.is_zero() && !stop_probe.load(Ordering::SeqCst) {
                    let slice = remaining.min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        })
    };

    Ok(ClusterHandle {
        server: Some(server),
        stats,
        stop_probe,
        probe_thread: Some(probe_thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_serve::http::{parse_request, Parsed};

    #[test]
    fn query_reencoding_round_trips_through_the_wire_decoder() {
        let query = vec![
            ("style".to_string(), "bulleted ".to_string()),
            ("q".to_string(), "a+b&c=d".to_string()),
            ("flag".to_string(), String::new()),
        ];
        let encoded = encode_query(&query);
        assert!(encoded.starts_with('?'));
        // Feed the re-encoded form back through the server-side parser.
        let raw = format!("GET /narrate{encoded} HTTP/1.1\r\n\r\n");
        let Parsed::Done(req, _) = parse_request(raw.as_bytes(), 1024) else {
            panic!("{raw:?} did not parse");
        };
        assert_eq!(req.query, query);
        assert_eq!(encode_query(&[]), "");
    }

    #[cfg(unix)]
    #[test]
    fn empty_replica_list_refuses_to_boot() {
        let err = serve_cluster(ClusterConfig::default(), "127.0.0.1:0").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn apply_envelope_is_the_replica_wire_form() {
        let sent = envelope::write_catalog_apply(3, &["SHOW VERSION"]);
        let read = envelope::catalog_apply(&post("/catalog/apply", &sent)).unwrap();
        assert_eq!(read, (3, vec!["SHOW VERSION".to_string()]));
        let value = JsonValue::parse(&sent).unwrap();
        assert_eq!(value.get("from_seq").and_then(JsonValue::as_f64), Some(3.0));
    }

    #[test]
    fn passthrough_preserves_status_body_and_retry_after() {
        let resp = passthrough(ClientResponse {
            status: 503,
            headers: vec![("retry-after".to_string(), "2".to_string())],
            body: "{\"x\":1}".to_string(),
        });
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, b"{\"x\":1}");
        assert_eq!(resp.headers, vec![("Retry-After", "2".to_string())]);
    }

    /// A diff is routed by the `base` the replica's envelope reader
    /// returns, which for a well-formed envelope is what the parsed
    /// envelope holds; a malformed one is answered, not routed.
    #[test]
    fn diff_base_reads_what_the_parsed_envelope_holds() {
        for body in [
            r#"{"base": "b", "alt": "a"}"#,
            r#"{"alt": "\u00e9", "base": "b\"q"}"#,
            r#"{"base": "first", "base": "second", "alt": "a"}"#,
            r#"{"base": "first", "base": 2, "alt": "a"}"#,
            r#"{"base": 2, "base": "second", "alt": "a"}"#,
            r#"{"base": ["b"], "alt": "a"}"#,
            r#"{"alt": "a"}"#,
            r#"{"base": "b", "alt": {"x": 1}}"#,
            r#"["base", "b"]"#,
            r#"{"base": "b", "alt": tru}"#,
            r#"{"base": "b", "alt": "a"} x"#,
            "",
        ] {
            let parsed = JsonValue::parse(body).ok().and_then(|envelope| {
                envelope.get("alt").and_then(JsonValue::as_str)?;
                envelope
                    .get("base")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            });
            let req = post("/narrate/diff", body);
            let base = envelope::diff(&req).ok().map(|d| d.docs.base.into_owned());
            assert_eq!(base, parsed, "{body}");
        }
    }

    #[test]
    fn sub_batch_answers_split_into_items_or_one_error_per_entry() {
        let coordinator = Coordinator::new(ClusterConfig {
            replicas: vec!["127.0.0.1:9".parse().unwrap()],
            ..ClusterConfig::default()
        });
        let answer = |status: u16, body: &str| {
            Ok(ClientResponse {
                status,
                headers: Vec::new(),
                body: body.to_string(),
            })
        };
        let error = |answer: GroupAnswer| match answer {
            Err(err) => err,
            Ok((body, _)) => panic!("{body} should not stitch"),
        };
        let bad_gateway = error_body_raw(
            "backend",
            "replica returned a malformed batch response",
            502,
        );

        let Ok((body, items)) =
            coordinator.group_answer(2, answer(200, r#"[{"a":[1,"]"]},{"error":{}}]"#))
        else {
            panic!("a well-formed answer stitches");
        };
        let items: Vec<&str> = items.iter().map(|r| &body[r.clone()]).collect();
        assert_eq!(items, [r#"{"a":[1,"]"]}"#, r#"{"error":{}}"#]);
        for malformed in [
            r#"[{"a":1}]"#,
            r#"[{"a":1},{"b":2}"#,
            r#"{"a":1}"#,
            "",
            "[1,2] x",
        ] {
            assert_eq!(
                error(coordinator.group_answer(2, answer(200, malformed))),
                bad_gateway,
                "{malformed:?}"
            );
        }
        assert_eq!(
            error(
                coordinator
                    .group_answer(1, answer(400, r#"{"error":{"kind":"parse","status":400}}"#))
            ),
            r#"{"error":{"kind":"parse","status":400}}"#
        );
        assert_eq!(
            error(coordinator.group_answer(1, answer(500, "oops"))),
            error_body_raw("backend", "replica rejected the sub-batch", 502)
        );
        assert_eq!(
            error(coordinator.group_answer(3, Err(None))),
            error_body_raw("unavailable", "shard unavailable", 503)
        );
        assert_eq!(
            coordinator
                .cluster
                .unavailable_responses
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            join_items(["1", "{}", "\"x\""].into_iter()),
            r#"[1,{},"x"]"#
        );
        assert_eq!(join_items(std::iter::empty()), "[]");
    }

    /// A probe's `GET /catalog` sent before a broadcast, answered after
    /// the broadcast's ack was recorded, must not roll the replica's
    /// `applied_seq` back; a probe sent after that ack must, because a
    /// restarted replica really is behind.
    #[test]
    fn stale_catalog_answers_never_overwrite_newer_ones() {
        let coordinator = Coordinator::new(ClusterConfig {
            replicas: vec!["127.0.0.1:9".parse().unwrap()],
            ..ClusterConfig::default()
        });
        let answer = |seq: u64, version: u64| ClientResponse {
            status: 200,
            headers: Vec::new(),
            body: format!("{{\"applied_seq\":{seq},\"version\":{version}}}"),
        };
        let view = &coordinator.replicas[0].catalog;
        let record = |sent, resp: &ClientResponse| coordinator.record_catalog(0, sent, resp);

        // Probe and broadcast are both in flight; the ack lands first.
        let probe_sent = view.stamp();
        let ack_sent = view.stamp();
        assert_eq!(record(ack_sent, &answer(1, 7)), Some(1));
        assert_eq!(view.get(), (1, 7));
        assert_eq!(record(probe_sent, &answer(0, 6)), Some(0));
        assert_eq!(view.get(), (1, 7), "the older probe answer was ignored");

        // Overlapping answers keep the higher sequence whichever lands
        // last.
        let first = view.stamp();
        let second = view.stamp();
        record(second, &answer(2, 8));
        record(first, &answer(3, 9));
        assert_eq!(view.get(), (3, 9));

        // The replica restarts empty: a probe sent after the last
        // recorded answer reports the lower sequence, and it sticks.
        let probe_sent = view.stamp();
        record(probe_sent, &answer(0, 1));
        assert_eq!(view.get(), (0, 1));
        // An answer without `applied_seq` records nothing.
        let empty = ClientResponse {
            body: "{}".to_string(),
            ..answer(5, 5)
        };
        assert_eq!(record(view.stamp(), &empty), None);
        assert_eq!(view.get(), (0, 1));
    }
}
