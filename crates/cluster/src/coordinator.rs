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
use lantern_obs::{MetricsPage, Recorder, Series};
use lantern_pool::parse_pool;
use lantern_serve::http::{Request, Response, REQUEST_ID_HEADER};
use lantern_serve::router::{
    error_body_raw, handle_traced, json_error, route, series_value, Route,
};
use lantern_serve::{
    ClientConfig, ClientError, ClientErrorKind, ClientResponse, Handler, HttpClient, ServeConfig,
    ServeStats,
};
use lantern_text::json::JsonValue;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
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

/// One sub-batch's original item positions paired with the replica's
/// response (or the transport failure that exhausted its retries).
type SubBatchResult = (Vec<usize>, Result<ClientResponse, Option<ClientError>>);

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
    /// Record request latency and serve `GET /metrics` (the
    /// coordinator's own histograms plus a bucket-wise merge of every
    /// replica's scrape). Off, `/metrics` answers 404.
    pub metrics: bool,
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
            metrics: true,
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
            metrics: self.metrics,
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
    catalog_version: AtomicU64,
    catalog_seq: AtomicU64,
    pool: Mutex<Vec<HttpClient>>,
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
                catalog_version: AtomicU64::new(0),
                catalog_seq: AtomicU64::new(0),
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
            ("POST", "/narrate", true, Self::narrate),
            ("POST", "/narrate/batch", true, Self::narrate_batch),
            ("POST", "/narrate/diff", true, |c, req| {
                c.narrate_diff(req, false)
            }),
            ("POST", "/narrate/diff/batch", true, |c, req| {
                c.narrate_diff(req, true)
            }),
            ("GET", "/healthz", true, |c, _| c.healthz()),
            ("GET", "/stats", true, |c, _| c.aggregate_stats()),
            ("GET", "/metrics", self.obs.enabled(), |c, _| c.metrics()),
            ("GET", "/debug/slow", true, Self::debug_slow),
            ("GET", "/catalog", true, |c, _| c.catalog_info()),
            ("POST", "/catalog/apply", true, Self::catalog_apply),
            ("POST", "/cache/clear", true, |c, _| c.cache_clear()),
        ];
        route(self, req, &routes, &self.stats.not_found)
    }

    fn narrate(&self, req: &Request) -> Response {
        self.stats.narrate_requests.fetch_add(1, Ordering::Relaxed);
        let Some(doc) = req.body_utf8() else {
            // The replica would answer this 400 itself; answering it
            // here saves shipping bytes that cannot narrate.
            return json_error("parse", "request body is not valid UTF-8", 400);
        };
        let path = format!("/narrate{}", encode_query(&req.query));
        self.forward_response(self.route_key(doc), "POST", &path, Some(doc))
    }

    /// `POST /narrate/batch`: validate the envelope like a replica
    /// would, split entries by owning shard, forward sub-batches
    /// concurrently, and re-stitch responses in request order.
    fn narrate_batch(&self, req: &Request) -> Response {
        self.stats.batch_requests.fetch_add(1, Ordering::Relaxed);
        let Some(body) = req.body_utf8() else {
            return json_error("parse", "request body is not valid UTF-8", 400);
        };
        let items = match JsonValue::parse(body) {
            Ok(JsonValue::Array(items)) if items.is_empty() => {
                return json_error(
                    "parse",
                    "batch body must be a non-empty JSON array of plan document strings",
                    400,
                )
            }
            Ok(JsonValue::Array(items)) => items,
            Ok(_) => {
                return json_error(
                    "parse",
                    "batch body must be a JSON array of plan document strings",
                    400,
                )
            }
            Err(e) => return json_error("parse", &format!("batch body is not JSON: {e}"), 400),
        };
        self.stats
            .batch_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let keys: Vec<u128> = items
            .iter()
            .map(|item| match item.as_str() {
                Some(doc) => self.route_key(doc),
                None => item_key(item),
            })
            .collect();
        let groups = group_by_node(&keys, &self.ring);
        let path = format!("/narrate/batch{}", encode_query(&req.query));

        // Whole batch owned by one shard: forward the original body.
        if groups.len() == 1 {
            let key = keys[0];
            return self.forward_response(key, "POST", &path, Some(body));
        }

        let mut slots: Vec<Option<JsonValue>> = vec![None; items.len()];
        let group_results: Vec<SubBatchResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_values()
                .map(|indices| {
                    let sub_body =
                        JsonValue::Array(indices.iter().map(|&i| items[i].clone()).collect())
                            .to_string_compact();
                    // Failover for the sub-batch follows the first
                    // entry's successor chain — one group, one
                    // shard, one chain.
                    let key = keys[indices[0]];
                    let path = &path;
                    let handle =
                        scope.spawn(move || self.forward(key, "POST", path, Some(&sub_body)));
                    (indices, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(indices, handle)| {
                    let result = handle.join().unwrap_or(Err(None));
                    (indices, result)
                })
                .collect()
        });
        for (indices, result) in group_results {
            match result {
                Ok(resp) if resp.status == 200 => {
                    let values = match resp.json() {
                        Ok(JsonValue::Array(values)) if values.len() == indices.len() => values,
                        _ => {
                            let err = error_body_raw(
                                "backend",
                                "replica returned a malformed batch response",
                                502,
                            );
                            indices.iter().for_each(|&i| slots[i] = Some(err.clone()));
                            continue;
                        }
                    };
                    for (&index, value) in indices.iter().zip(values) {
                        slots[index] = Some(value);
                    }
                }
                Ok(resp) => {
                    // The replica rejected the sub-batch wholesale
                    // (can't normally happen for a coordinator-built
                    // envelope): surface its error per item.
                    let err = resp
                        .json()
                        .ok()
                        .and_then(|v| v.get("error").cloned())
                        .map(|inner| {
                            let mut obj = BTreeMap::new();
                            obj.insert("error".to_string(), inner);
                            JsonValue::Object(obj)
                        })
                        .unwrap_or_else(|| {
                            error_body_raw("backend", "replica rejected the sub-batch", 502)
                        });
                    indices.iter().for_each(|&i| slots[i] = Some(err.clone()));
                }
                Err(err) => {
                    self.cluster
                        .unavailable_responses
                        .fetch_add(1, Ordering::Relaxed);
                    let message = match err {
                        Some(e) => format!("shard unavailable: {e}"),
                        None => "shard unavailable".to_string(),
                    };
                    let err = error_body_raw("unavailable", &message, 503);
                    indices.iter().for_each(|&i| slots[i] = Some(err.clone()));
                }
            }
        }
        let out: Vec<JsonValue> = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    error_body_raw("backend", "batch entry was not stitched", 500)
                })
            })
            .collect();
        Response::json(200, JsonValue::Array(out).to_string_compact())
    }

    /// `/narrate/diff[/batch]`: a comparison is routed whole, keyed by
    /// its base plan so repeat comparisons of the same base warm one
    /// replica's plan cache. Bodies that don't parse as a diff envelope
    /// are still forwarded (keyed by exact text) — the replica owns the
    /// structured 400.
    fn narrate_diff(&self, req: &Request, batch: bool) -> Response {
        let counter = if batch {
            &self.stats.diff_batch_requests
        } else {
            &self.stats.diff_requests
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let Some(body) = req.body_utf8() else {
            return json_error("parse", "request body is not valid UTF-8", 400);
        };
        let key = JsonValue::parse(body)
            .ok()
            .and_then(|envelope| {
                envelope
                    .get("base")
                    .and_then(JsonValue::as_str)
                    .map(|base| self.route_key(base))
            })
            .unwrap_or_else(|| document_key(body).0);
        let path = format!(
            "/narrate/diff{}{}",
            if batch { "/batch" } else { "" },
            encode_query(&req.query)
        );
        self.forward_response(key, "POST", &path, Some(body))
    }

    fn healthz(&self) -> Response {
        let replicas: Vec<JsonValue> = self
            .replicas
            .iter()
            .map(|replica| {
                let mut obj = BTreeMap::new();
                obj.insert(
                    "addr".to_string(),
                    JsonValue::String(replica.addr.to_string()),
                );
                obj.insert(
                    "healthy".to_string(),
                    JsonValue::Bool(replica.healthy.load(Ordering::Relaxed)),
                );
                JsonValue::Object(obj)
            })
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert("status".to_string(), JsonValue::String("ok".to_string()));
        obj.insert(
            "role".to_string(),
            JsonValue::String("coordinator".to_string()),
        );
        obj.insert(
            "ring_nodes".to_string(),
            JsonValue::Number(self.ring.len() as f64),
        );
        obj.insert("replicas".to_string(), JsonValue::Array(replicas));
        obj.insert(
            "uptime_ms".to_string(),
            JsonValue::Number(self.stats.uptime().as_millis() as f64),
        );
        Response::json(200, JsonValue::Object(obj).to_string_compact())
    }

    /// `GET /stats`: every reachable replica's counters summed (cache
    /// counters summed under `"cache"`), the per-replica breakdown
    /// under `"replicas"`, and the coordinator's own counters under
    /// `"coordinator"`. The top-level shape matches a single replica's
    /// `/stats`, so soak tooling pointed at the coordinator keeps
    /// working; a replica that is down appears as `"healthy": false` in
    /// the breakdown rather than failing the request.
    fn aggregate_stats(&self) -> Response {
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        let mut cache_totals: BTreeMap<String, f64> = BTreeMap::new();
        let mut any_cache = false;
        let mut replicas = Vec::with_capacity(self.replicas.len());
        for node in 0..self.replicas.len() {
            let addr = self.replicas[node].addr.to_string();
            let snapshot = match self.exchange(node, "GET", "/stats", None) {
                Ok(resp) if resp.status == 200 => resp.json().ok(),
                _ => None,
            };
            let Some(JsonValue::Object(obj)) = snapshot else {
                let mut down = BTreeMap::new();
                down.insert("addr".to_string(), JsonValue::String(addr));
                down.insert("healthy".to_string(), JsonValue::Bool(false));
                replicas.push(JsonValue::Object(down));
                continue;
            };
            for (key, value) in &obj {
                match (key.as_str(), value) {
                    ("cache", JsonValue::Object(cache)) => {
                        any_cache = true;
                        for (ck, cv) in cache {
                            if let JsonValue::Number(n) = cv {
                                *cache_totals.entry(ck.clone()).or_insert(0.0) += n;
                            }
                        }
                    }
                    // Uptimes don't sum to anything meaningful.
                    (k, JsonValue::Number(n)) if !k.starts_with("uptime_") => {
                        *totals.entry(key.clone()).or_insert(0.0) += n;
                    }
                    _ => {}
                }
            }
            let mut up = BTreeMap::new();
            up.insert("addr".to_string(), JsonValue::String(addr));
            up.insert("healthy".to_string(), JsonValue::Bool(true));
            up.insert("stats".to_string(), JsonValue::Object(obj));
            replicas.push(JsonValue::Object(up));
        }
        // Requests the coordinator refused never reached a replica;
        // fold them into the aggregate shed count so "sent - answered"
        // adds up from the client's point of view.
        let coordinator_shed = self.stats.shed_requests.load(Ordering::Relaxed)
            + self.cluster.unavailable_responses.load(Ordering::Relaxed);
        *totals.entry("shed_requests".to_string()).or_insert(0.0) += coordinator_shed as f64;
        let mut body: BTreeMap<String, JsonValue> = totals
            .into_iter()
            .map(|(k, v)| (k, JsonValue::Number(v)))
            .collect();
        if any_cache {
            body.insert(
                "cache".to_string(),
                JsonValue::Object(
                    cache_totals
                        .into_iter()
                        .map(|(k, v)| (k, JsonValue::Number(v)))
                        .collect(),
                ),
            );
        }
        let mut coordinator = series_value(self.own_series());
        if let JsonValue::Object(obj) = &mut coordinator {
            let memo = self.route_memo.stats();
            let mut route = BTreeMap::new();
            route.insert("hits".to_string(), JsonValue::Number(memo.hits as f64));
            route.insert("misses".to_string(), JsonValue::Number(memo.misses as f64));
            route.insert(
                "entries".to_string(),
                JsonValue::Number(memo.entries as f64),
            );
            obj.insert("route_memo".to_string(), JsonValue::Object(route));
            obj.insert(
                "uptime_ms".to_string(),
                JsonValue::Number(self.stats.uptime().as_millis() as f64),
            );
        }
        body.insert("coordinator".to_string(), coordinator);
        body.insert("replicas".to_string(), JsonValue::Array(replicas));
        Response::json(200, JsonValue::Object(body).to_string_compact())
    }

    /// The coordinator's own counter table: its front-door rows, then
    /// the cluster-only ones.
    fn own_series(&self) -> impl Iterator<Item = Series> {
        self.stats
            .front_door_series()
            .into_iter()
            .chain(self.cluster.series())
    }

    /// `GET /metrics` — the fleet's Prometheus page. Every replica's
    /// own `/metrics` is scraped and folded in twice: once **merged**
    /// across replicas (every producer renders cumulative histogram
    /// buckets on the shared `le` grid, so bucket-wise addition is
    /// exact) and once under a `replica="host:port"` label. The
    /// coordinator's own request histograms and `lantern_cluster_*`
    /// counters are added directly under `node="coordinator"`, so
    /// nothing collides with the replica merge. A replica that is down
    /// (or running with metrics off) degrades the page, never fails it.
    fn metrics(&self) -> Response {
        let mut page = MetricsPage::new();
        for (node, replica) in self.replicas.iter().enumerate() {
            let scrape = match self.exchange(node, "GET", "/metrics", None) {
                Ok(resp) if resp.status == 200 => resp.body,
                _ => continue,
            };
            let addr = replica.addr.to_string();
            page.fold(&scrape, &[]);
            page.fold(&scrape, &[("replica", addr.as_str())]);
        }
        let own = [("node", "coordinator")];
        let uptime = Series::gauge("uptime_seconds", self.stats.uptime().as_secs());
        page.add_series("lantern_cluster_", &own, self.own_series().chain([uptime]));
        self.obs.export(&mut page, &own);
        Response::text(200, page.render())
    }

    /// `GET /debug/slow?threshold_ms=N` — the coordinator's own
    /// slow-request ring. Entries carry the same request ids the
    /// replicas logged, so a slow request here can be chased into the
    /// owning replica's `/debug/slow`.
    fn debug_slow(&self, req: &Request) -> Response {
        let threshold_ms = req
            .query_param("threshold_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        Response::json(
            200,
            lantern_serve::router::slow_log_value(&self.obs, threshold_ms).to_string_compact(),
        )
    }

    fn catalog_info(&self) -> Response {
        let seq = lock(&self.catalog_log).len() as u64;
        let replicas: Vec<JsonValue> = self
            .replicas
            .iter()
            .map(|replica| {
                let mut obj = BTreeMap::new();
                obj.insert(
                    "addr".to_string(),
                    JsonValue::String(replica.addr.to_string()),
                );
                obj.insert(
                    "healthy".to_string(),
                    JsonValue::Bool(replica.healthy.load(Ordering::Relaxed)),
                );
                obj.insert(
                    "version".to_string(),
                    JsonValue::Number(replica.catalog_version.load(Ordering::Relaxed) as f64),
                );
                obj.insert(
                    "applied_seq".to_string(),
                    JsonValue::Number(replica.catalog_seq.load(Ordering::Relaxed) as f64),
                );
                JsonValue::Object(obj)
            })
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert("seq".to_string(), JsonValue::Number(seq as f64));
        obj.insert("replicas".to_string(), JsonValue::Array(replicas));
        Response::json(200, JsonValue::Object(obj).to_string_compact())
    }

    /// `POST /catalog/apply` at the coordinator: the body is **one raw
    /// POOL statement** (the student-facing form), not the replicated
    /// `{from_seq, statements}` envelope — the coordinator assigns the
    /// sequence number. The statement is parse-checked here so a typo
    /// is a clean 400 instead of N replica-side failures, appended to
    /// the log, and broadcast to every replica.
    fn catalog_apply(&self, req: &Request) -> Response {
        let Some(statement) = req.body_utf8() else {
            return json_error("parse", "request body is not valid UTF-8", 400);
        };
        let statement = statement.trim();
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
        let outcomes = self.broadcast_statement(seq, statement);
        let mut obj = BTreeMap::new();
        obj.insert("seq".to_string(), JsonValue::Number(seq as f64));
        obj.insert("replicas".to_string(), JsonValue::Array(outcomes));
        Response::json(200, JsonValue::Object(obj).to_string_compact())
    }

    /// Push one logged statement to every replica concurrently,
    /// returning a per-replica outcome object. A replica that answers
    /// `409` is behind the log (it restarted, or missed a broadcast):
    /// the leg immediately replays the missing suffix instead of
    /// waiting for the next probe sweep.
    fn broadcast_statement(&self, seq: u64, statement: &str) -> Vec<JsonValue> {
        let envelope = apply_envelope(seq, std::slice::from_ref(&statement.to_string()));
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
                    let mut obj = BTreeMap::new();
                    obj.insert(
                        "addr".to_string(),
                        JsonValue::String(replica.addr.to_string()),
                    );
                    obj.insert("status".to_string(), JsonValue::String(status));
                    obj.insert(
                        "version".to_string(),
                        JsonValue::Number(replica.catalog_version.load(Ordering::Relaxed) as f64),
                    );
                    obj.insert(
                        "applied_seq".to_string(),
                        JsonValue::Number(replica.catalog_seq.load(Ordering::Relaxed) as f64),
                    );
                    JsonValue::Object(obj)
                })
                .collect()
        })
    }

    /// One broadcast leg; returns a short status word for the response.
    fn push_catalog(&self, node: usize, seq: u64, envelope: &str) -> String {
        match self.exchange(node, "POST", "/catalog/apply", Some(envelope)) {
            Ok(resp) if resp.status == 200 => {
                self.record_catalog_ack(node, &resp);
                "applied".to_string()
            }
            Ok(resp) if resp.status == 409 => {
                // The replica is behind this statement's predecessor:
                // replay everything it is missing, which includes seq.
                match self.replay_suffix(node) {
                    Ok(()) => "replayed".to_string(),
                    Err(message) => {
                        self.cluster
                            .catalog_broadcast_errors
                            .fetch_add(1, Ordering::Relaxed);
                        message
                    }
                }
            }
            Ok(resp) => {
                self.cluster
                    .catalog_broadcast_errors
                    .fetch_add(1, Ordering::Relaxed);
                format!("rejected with status {} at seq {seq}", resp.status)
            }
            Err(e) => {
                self.cluster
                    .catalog_broadcast_errors
                    .fetch_add(1, Ordering::Relaxed);
                format!("unreachable: {e}")
            }
        }
    }

    /// Read a replica's `applied`/`version` out of a `/catalog/apply`
    /// acknowledgment.
    fn record_catalog_ack(&self, node: usize, resp: &ClientResponse) {
        if let Ok(body) = resp.json() {
            if let Some(seq) = body.get("applied_seq").and_then(JsonValue::as_f64) {
                self.replicas[node]
                    .catalog_seq
                    .store(seq as u64, Ordering::Relaxed);
            }
            if let Some(version) = body.get("version").and_then(JsonValue::as_f64) {
                self.replicas[node]
                    .catalog_version
                    .store(version as u64, Ordering::Relaxed);
            }
        }
    }

    /// Bring one replica up to the head of the statement log: ask where
    /// it is, then send everything after that in one envelope. The
    /// rejoin path for a restarted (empty-catalog) replica, and the
    /// catch-up path for one that missed broadcasts while partitioned.
    fn replay_suffix(&self, node: usize) -> Result<(), String> {
        let log: Vec<String> = lock(&self.catalog_log).clone();
        let applied = match self.exchange(node, "GET", "/catalog", None) {
            Ok(resp) if resp.status == 200 => resp
                .json()
                .ok()
                .and_then(|v| v.get("applied_seq").and_then(JsonValue::as_f64))
                .map(|n| n as u64)
                .ok_or_else(|| "replica /catalog answered without applied_seq".to_string())?,
            Ok(resp) => return Err(format!("replica /catalog answered {}", resp.status)),
            Err(e) => return Err(format!("unreachable: {e}")),
        };
        let applied = applied.min(log.len() as u64);
        if applied as usize >= log.len() {
            return Ok(());
        }
        let suffix = &log[applied as usize..];
        let envelope = apply_envelope(applied + 1, suffix);
        match self.exchange(node, "POST", "/catalog/apply", Some(&envelope)) {
            Ok(resp) if resp.status == 200 => {
                self.cluster.catalog_replays.fetch_add(1, Ordering::Relaxed);
                self.record_catalog_ack(node, &resp);
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
                    if let Ok(body) = resp.json() {
                        cleared += body
                            .get("cleared")
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(0.0);
                    }
                }
            }
        }
        self.route_memo.clear();
        let mut obj = BTreeMap::new();
        obj.insert("cleared".to_string(), JsonValue::Number(cleared));
        Response::json(200, JsonValue::Object(obj).to_string_compact())
    }

    /// One probe sweep: `GET /catalog` against every replica (any HTTP
    /// answer flips it healthy; transport failure flips it unhealthy —
    /// both via [`Coordinator::exchange`]), recording version/seq and
    /// replaying the log suffix to any replica that is behind.
    fn probe_once(&self) {
        let log_len = lock(&self.catalog_log).len() as u64;
        for node in 0..self.replicas.len() {
            match self.exchange(node, "GET", "/catalog", None) {
                Ok(resp) if resp.status == 200 => {
                    let applied = resp
                        .json()
                        .ok()
                        .and_then(|v| {
                            if let Some(version) = v.get("version").and_then(JsonValue::as_f64) {
                                self.replicas[node]
                                    .catalog_version
                                    .store(version as u64, Ordering::Relaxed);
                            }
                            v.get("applied_seq").and_then(JsonValue::as_f64)
                        })
                        .map(|n| n as u64);
                    if let Some(applied) = applied {
                        self.replicas[node]
                            .catalog_seq
                            .store(applied, Ordering::Relaxed);
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

/// The replicated `/catalog/apply` envelope for `statements` starting
/// at sequence number `from_seq`.
fn apply_envelope(from_seq: u64, statements: &[String]) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("from_seq".to_string(), JsonValue::Number(from_seq as f64));
    obj.insert(
        "statements".to_string(),
        JsonValue::Array(
            statements
                .iter()
                .map(|s| JsonValue::String(s.clone()))
                .collect(),
        ),
    );
    JsonValue::Object(obj).to_string_compact()
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
    use lantern_serve::http::read_request;
    use std::io::BufReader;

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
        let req = read_request(&mut BufReader::new(raw.as_bytes()), 1024).unwrap();
        assert_eq!(req.query, query);
        assert_eq!(encode_query(&[]), "");
    }

    #[cfg(unix)]
    #[test]
    fn empty_replica_list_refuses_to_boot() {
        let err = serve_cluster(ClusterConfig::default(), "127.0.0.1:0").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn apply_envelope_is_the_replica_wire_form() {
        let envelope = apply_envelope(3, &["SHOW VERSION".to_string()]);
        let value = JsonValue::parse(&envelope).unwrap();
        assert_eq!(value.get("from_seq").and_then(JsonValue::as_f64), Some(3.0));
        let statements = value
            .get("statements")
            .and_then(|s| s.as_array())
            .expect("statements array");
        assert_eq!(statements.len(), 1);
        assert_eq!(statements[0].as_str(), Some("SHOW VERSION"));
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
}
