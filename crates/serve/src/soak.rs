//! Soak/load driver: replay a document schedule against a live
//! narration server from N concurrent clients, measuring end-to-end
//! latency percentiles and the cache hit ratio observed through
//! `GET /stats`.
//!
//! The driver is workload-agnostic — it takes a plain `&[String]` of
//! plan documents, so any schedule source works (the `lantern-gen`
//! crate's duplicate-rate stream is the intended one; the driver lives
//! here rather than there to keep the crate DAG acyclic). The report
//! serializes to JSON ([`SoakReport::to_json`]) so CI lanes and bench
//! trajectories can consume it without scraping logs.

use crate::client::HttpClient;
use lantern_obs::{parse_exposition, snapshot_from_samples, HistogramSnapshot};
use lantern_text::json::JsonValue;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Soak run parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent client connections (clamped to at least 1). The
    /// schedule is partitioned round-robin, so every client sees the
    /// same fresh/duplicate mix as the whole schedule.
    pub clients: usize,
    /// Requests each client keeps in flight on its connection
    /// (clamped to at least 1). At 1 the driver is strictly
    /// request/response; above 1 it sends bursts of `pipeline`
    /// requests back to back and then reads the responses, exercising
    /// the server's HTTP/1.1 pipelining path.
    pub pipeline: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            clients: 4,
            pipeline: 1,
        }
    }
}

/// Latency summary over all attempted requests, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub mean_us: u64,
}

/// Cache counter movement across the run (absent when the target
/// server has no cache configured).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheDelta {
    /// LRU hits during the run (includes byte-identical re-submissions
    /// answered via the doc digest).
    pub hits: u64,
    /// LRU misses during the run.
    pub misses: u64,
    /// `hits / (hits + misses)`; for a well-mixed schedule this tracks
    /// the configured duplicate rate.
    pub hit_ratio: f64,
}

/// Server-side latency over the run, rebuilt from the target's own
/// `GET /metrics` request histogram (scraped before and after, delta'd
/// and merged across targets). Absent when any target serves no
/// `/metrics` page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerLatency {
    /// Server-measured median dispatch latency, microseconds.
    pub p50_us: u64,
    /// Server-measured p99 dispatch latency, microseconds.
    pub p99_us: u64,
    /// Requests the servers recorded during the run (slightly above
    /// the schedule length: the driver's own stats/metrics probes are
    /// requests too).
    pub count: u64,
    /// Whether the server-side percentiles bracket the client-observed
    /// ones from below: server dispatch time is a subset of the client
    /// round trip, so `p ≤ client_p × grid-and-jitter slack` must hold
    /// at p50 and p99. A `false` here means the two latency pipelines
    /// disagree about the same traffic.
    pub bracket_ok: bool,
}

/// Server counter movement across the run, sampled from `GET /stats`
/// before and after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerDelta {
    /// Requests refused by admission control (`503` + `Retry-After`).
    pub shed_requests: u64,
    /// Requests the server saw arrive pipelined behind an unanswered
    /// one.
    pub pipelined_requests: u64,
}

/// The machine-readable result of one soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Requests attempted (= schedule length).
    pub requests: usize,
    /// Concurrent clients used.
    pub clients: usize,
    /// Pipeline depth each client ran at.
    pub pipeline: usize,
    /// `503` responses observed by the clients (the server's
    /// load-shedding answer).
    pub shed: u64,
    /// Server-side counter movement over the run.
    pub server: ServerDelta,
    /// Wall-clock duration of the request phase, milliseconds.
    pub duration_ms: f64,
    /// Attempted requests per second.
    pub throughput_rps: f64,
    /// Responses with a 2xx status.
    pub ok: u64,
    /// Everything else: non-2xx responses and transport failures.
    pub errors: u64,
    /// Response count per HTTP status (status 0 = transport failure).
    pub statuses: BTreeMap<u16, u64>,
    /// Latency percentiles over attempted requests.
    pub latency: LatencySummary,
    /// Cache counter movement, when the server reports a cache.
    pub cache: Option<CacheDelta>,
    /// Server-side latency cross-check, when the server exposes
    /// `/metrics`.
    pub server_latency: Option<ServerLatency>,
}

impl SoakReport {
    /// The report as a JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        let server = JsonValue::object([
            (
                "shed_requests",
                JsonValue::Number(self.server.shed_requests as f64),
            ),
            (
                "pipelined_requests",
                JsonValue::Number(self.server.pipelined_requests as f64),
            ),
        ]);
        let statuses = self
            .statuses
            .iter()
            .map(|(status, count)| (status.to_string(), JsonValue::Number(*count as f64)))
            .collect();
        let latency = JsonValue::object([
            ("p50_us", JsonValue::Number(self.latency.p50_us as f64)),
            ("p90_us", JsonValue::Number(self.latency.p90_us as f64)),
            ("p99_us", JsonValue::Number(self.latency.p99_us as f64)),
            ("max_us", JsonValue::Number(self.latency.max_us as f64)),
            ("mean_us", JsonValue::Number(self.latency.mean_us as f64)),
        ]);
        let cache = self.cache.as_ref().map(|cache| {
            let cache = JsonValue::object([
                ("hits", JsonValue::Number(cache.hits as f64)),
                ("misses", JsonValue::Number(cache.misses as f64)),
                ("hit_ratio", JsonValue::Number(cache.hit_ratio)),
            ]);
            ("cache", cache)
        });
        let server_latency = self.server_latency.as_ref().map(|s| {
            let server_latency = JsonValue::object([
                ("p50_us", JsonValue::Number(s.p50_us as f64)),
                ("p99_us", JsonValue::Number(s.p99_us as f64)),
                ("count", JsonValue::Number(s.count as f64)),
                ("bracket_ok", JsonValue::Bool(s.bracket_ok)),
            ]);
            ("server_latency", server_latency)
        });
        let members = [
            ("requests", JsonValue::Number(self.requests as f64)),
            ("clients", JsonValue::Number(self.clients as f64)),
            ("pipeline", JsonValue::Number(self.pipeline as f64)),
            ("shed", JsonValue::Number(self.shed as f64)),
            ("server", server),
            ("duration_ms", JsonValue::Number(self.duration_ms)),
            ("throughput_rps", JsonValue::Number(self.throughput_rps)),
            ("ok", JsonValue::Number(self.ok as f64)),
            ("errors", JsonValue::Number(self.errors as f64)),
            ("statuses", JsonValue::Object(statuses)),
            ("latency_us", latency),
        ];
        JsonValue::object(members.into_iter().chain(cache).chain(server_latency))
    }

    /// The report as pretty-printed JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }
}

/// Replay `docs` against the server at `addr` (one `POST /narrate` per
/// document) from `config.clients` concurrent connections, and compute
/// the report. Cache counters are sampled from `GET /stats` before and
/// after the run, so the hit ratio reflects *this* workload even
/// against a warm server.
pub fn run_soak(addr: SocketAddr, docs: &[String], config: &SoakConfig) -> io::Result<SoakReport> {
    let clients = config.clients.max(1).min(docs.len().max(1));
    let pipeline = config.pipeline.max(1);
    let before = sample_stats(addr)?;
    let metrics_before = sample_request_histogram(addr);

    let started = Instant::now();
    let mut samples: Vec<(u64, u16)> = Vec::with_capacity(docs.len());
    std::thread::scope(|scope| -> io::Result<()> {
        let mut workers = Vec::with_capacity(clients);
        for worker in 0..clients {
            // Round-robin partition: every client's slice preserves the
            // schedule's global duplicate mix.
            let schedule: Vec<&String> = docs.iter().skip(worker).step_by(clients).collect();
            workers.push(scope.spawn(move || drive_client(addr, &schedule, pipeline)));
        }
        for worker in workers {
            let worker_samples = worker
                .join()
                .map_err(|_| io::Error::other("soak client panicked"))??;
            samples.extend(worker_samples);
        }
        Ok(())
    })?;
    let duration = started.elapsed();

    let after = sample_stats(addr)?;
    let metrics_after = sample_request_histogram(addr);
    let server = ServerDelta {
        shed_requests: after.shed.saturating_sub(before.shed),
        pipelined_requests: after.pipelined.saturating_sub(before.pipelined),
    };
    let cache = match (before.cache, after.cache) {
        (Some((h0, m0)), Some((h1, m1))) => {
            let hits = h1.saturating_sub(h0);
            let misses = m1.saturating_sub(m0);
            let total = hits + misses;
            Some(CacheDelta {
                hits,
                misses,
                hit_ratio: if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                },
            })
        }
        _ => None,
    };

    let mut statuses = BTreeMap::new();
    let mut ok = 0u64;
    for (_, status) in &samples {
        *statuses.entry(*status).or_insert(0u64) += 1;
        if (200..300).contains(status) {
            ok += 1;
        }
    }
    let duration_ms = duration.as_secs_f64() * 1e3;
    let latency = summarize(samples.iter().map(|(us, _)| *us).collect());
    let server_latency = server_latency_check(metrics_before, metrics_after, &latency);
    Ok(SoakReport {
        requests: docs.len(),
        clients,
        pipeline,
        shed: statuses.get(&503).copied().unwrap_or(0),
        server,
        duration_ms,
        throughput_rps: if duration_ms > 0.0 {
            samples.len() as f64 / (duration_ms / 1e3)
        } else {
            0.0
        },
        ok,
        errors: samples.len() as u64 - ok,
        statuses,
        latency,
        cache,
        server_latency,
    })
}

/// Cross-check the client-observed percentiles against the server's
/// own request histogram: delta the before/after scrapes and verify
/// the server numbers sit below the client ones. The tolerance covers
/// the histogram's √2 bucket grid (a server-side value is reported as
/// its bucket's upper bound) plus scheduling jitter, with an absolute
/// floor for microsecond-scale cache-hit runs.
fn server_latency_check(
    before: Option<HistogramSnapshot>,
    after: Option<HistogramSnapshot>,
    client: &LatencySummary,
) -> Option<ServerLatency> {
    let delta = after?.delta_since(&before?);
    if delta.count == 0 {
        return None;
    }
    let p50_us = delta.percentile(0.50) / 1_000;
    let p99_us = delta.percentile(0.99) / 1_000;
    let below = |server_us: u64, client_us: u64| server_us as f64 <= client_us as f64 * 2.0 + 500.0;
    Some(ServerLatency {
        p50_us,
        p99_us,
        count: delta.count,
        bracket_ok: below(p50_us, client.p50_us) && below(p99_us, client.p99_us),
    })
}

/// The server's `/metrics` request histogram. `None` when the scrape
/// fails (metrics disabled or unreachable).
fn sample_request_histogram(addr: SocketAddr) -> Option<HistogramSnapshot> {
    let mut client = HttpClient::connect(addr).ok()?;
    let resp = client.get("/metrics").ok()?;
    if resp.status != 200 {
        return None;
    }
    let parsed = parse_exposition(&resp.body);
    // A fresh server renders no bucket lines yet: an empty snapshot,
    // not a missing endpoint.
    Some(
        snapshot_from_samples(&parsed.samples, lantern_obs::METRIC_REQUEST_SECONDS, &[])
            .unwrap_or_default(),
    )
}

/// One client's request loop: time every `POST /narrate`, record
/// transport failures as status 0, and reconnect once after a failure
/// so a single dropped connection doesn't void the rest of the slice.
///
/// At `pipeline > 1` the schedule is sent in bursts: `pipeline`
/// requests written back to back, then their responses collected in
/// order. Burst latencies are measured from the burst's first write,
/// so they reflect the queueing a pipelined request actually sees.
fn drive_client(
    addr: SocketAddr,
    schedule: &[&String],
    pipeline: usize,
) -> io::Result<Vec<(u64, u16)>> {
    let mut client = HttpClient::connect(addr)?;
    let mut samples = Vec::with_capacity(schedule.len());
    for burst in schedule.chunks(pipeline.max(1)) {
        let started = Instant::now();
        let mut sent = 0usize;
        for doc in burst {
            if client.send("POST", "/narrate", Some(doc)).is_err() {
                break;
            }
            sent += 1;
        }
        let mut answered = 0usize;
        let mut failed = sent < burst.len();
        while answered < sent {
            match client.read_response() {
                Ok(resp) => {
                    samples.push((started.elapsed().as_micros() as u64, resp.status));
                    answered += 1;
                }
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        // Requests never sent, or whose responses died with the
        // connection, are transport failures (status 0).
        for _ in answered..burst.len() {
            samples.push((started.elapsed().as_micros() as u64, 0));
        }
        if failed {
            client = HttpClient::connect(addr)?;
        }
    }
    Ok(samples)
}

/// One `GET /stats` sample: the cache counters (absent on an uncached
/// server) plus the admission-control counters.
struct StatsSample {
    cache: Option<(u64, u64)>,
    shed: u64,
    pipelined: u64,
}

fn sample_stats(addr: SocketAddr) -> io::Result<StatsSample> {
    let mut client = HttpClient::connect(addr)?;
    let resp = client.get("/stats")?;
    let value = resp
        .json()
        .map_err(|e| io::Error::other(format!("/stats body is not JSON: {e}")))?;
    let cache_counter = |name: &str| {
        value
            .get("cache")
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_f64)
            .map(|n| n as u64)
    };
    let counter = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_f64)
            .map(|n| n as u64)
            .unwrap_or(0)
    };
    Ok(StatsSample {
        cache: match (cache_counter("hits"), cache_counter("misses")) {
            (Some(hits), Some(misses)) => Some((hits, misses)),
            _ => None,
        },
        shed: counter("shed_requests"),
        pipelined: counter("pipelined_requests"),
    })
}

/// Percentile summary of a latency sample set.
fn summarize(mut latencies: Vec<u64>) -> LatencySummary {
    if latencies.is_empty() {
        return LatencySummary {
            p50_us: 0,
            p90_us: 0,
            p99_us: 0,
            max_us: 0,
            mean_us: 0,
        };
    }
    latencies.sort_unstable();
    let percentile = |q: f64| {
        let rank = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[rank]
    };
    LatencySummary {
        p50_us: percentile(0.50),
        p90_us: percentile(0.90),
        p99_us: percentile(0.99),
        max_us: *latencies.last().unwrap(),
        mean_us: (latencies.iter().sum::<u64>() as f64 / latencies.len() as f64) as u64,
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::http::{Request, Response};
    use crate::router::Router;
    use crate::server::{serve, Handler, ServeConfig, ServeStats, ServerHandle};
    use lantern_cache::{CacheConfig, CacheControl, CachedTranslator};
    use lantern_core::{RuleTranslator, Translator};
    use lantern_pool::default_mssql_store;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// A router over `translator` (and its cache, when given) served on
    /// an ephemeral port.
    fn boot<T: Translator + Send + Sync + 'static>(
        translator: T,
        cache: Option<Arc<dyn CacheControl + Send + Sync>>,
        config: ServeConfig,
    ) -> ServerHandle {
        let router =
            Router::with_catalog(translator, Arc::new(ServeStats::new()), cache, None, None)
                .with_obs(config.recorder());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        serve(Arc::new(router), listener, config).unwrap()
    }

    const DOC_A: &str = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
    const DOC_B: &str = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "part"}}"#;

    #[test]
    fn percentiles_of_known_distribution() {
        let s = summarize((1..=100u64).collect());
        assert_eq!(s.p50_us, 51); // round(99 * 0.5) = rank 50 → value 51
        assert_eq!(s.p90_us, 90);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert_eq!(s.mean_us, 50);
        let empty = summarize(Vec::new());
        assert_eq!(empty.max_us, 0);
    }

    #[test]
    fn soak_against_cached_server_reports_hit_ratio() {
        let cached = Arc::new(CachedTranslator::new(
            RuleTranslator::new(default_mssql_store()),
            CacheConfig::default(),
        ));
        let handle = boot(Arc::clone(&cached), Some(cached), ServeConfig::default());

        // 2 unique documents in 6 requests: 2 misses + 4 hits. One
        // client keeps the hit accounting deterministic (no in-flight
        // coalescing races).
        let docs: Vec<String> = [DOC_A, DOC_A, DOC_B, DOC_A, DOC_B, DOC_A]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let report = run_soak(
            handle.addr(),
            &docs,
            &SoakConfig {
                clients: 1,
                pipeline: 1,
            },
        )
        .unwrap();
        assert_eq!(report.requests, 6);
        assert_eq!(report.ok, 6, "statuses: {:?}", report.statuses);
        assert_eq!(report.errors, 0);
        assert!(report.latency.p50_us <= report.latency.p99_us);
        assert!(report.latency.p99_us <= report.latency.max_us);
        let cache = report.cache.expect("cached server reports a delta");
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.hits, 4);
        assert!((cache.hit_ratio - 4.0 / 6.0).abs() < 1e-9);

        // The server's own histogram saw the run (plus the driver's
        // stats/metrics probes) and its percentiles agree with the
        // client-observed ones.
        let server_latency = report.server_latency.expect("server histogram cross-check");
        assert!(server_latency.count >= 6, "{server_latency:?}");
        assert!(server_latency.p50_us <= server_latency.p99_us);
        assert!(
            server_latency.bracket_ok,
            "{server_latency:?} vs {:?}",
            report.latency
        );

        // The JSON form carries every headline number.
        let json = report.to_json_value();
        assert_eq!(json.get("requests").and_then(JsonValue::as_f64), Some(6.0));
        assert!(json
            .get("latency_us")
            .and_then(|l| l.get("p99_us"))
            .and_then(JsonValue::as_f64)
            .is_some());
        assert_eq!(
            json.get("cache")
                .and_then(|c| c.get("misses"))
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            json.get("server_latency")
                .and_then(|s| s.get("bracket_ok"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );

        handle.shutdown().unwrap();
    }

    /// A replica from another build that serves no `/metrics` page:
    /// a plain router whose `/metrics` answers 404.
    struct NoMetricsPage(Router<RuleTranslator>);

    impl Handler for NoMetricsPage {
        fn handle(&self, req: &Request) -> Response {
            if req.path == "/metrics" {
                return Response::text(404, "not found");
            }
            self.0.handle(req)
        }

        fn recorder(&self) -> &lantern_obs::Recorder {
            Handler::recorder(&self.0)
        }

        fn stats(&self) -> &ServeStats {
            Handler::stats(&self.0)
        }
    }

    #[test]
    fn soak_against_uncached_server_without_metrics_page_skips_both_deltas() {
        let router = Router::with_catalog(
            RuleTranslator::new(default_mssql_store()),
            Arc::new(ServeStats::new()),
            None,
            None,
            None,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(
            Arc::new(NoMetricsPage(router)),
            listener,
            ServeConfig::default(),
        )
        .unwrap();
        let docs = vec![DOC_A.to_string(); 4];
        let report = run_soak(
            handle.addr(),
            &docs,
            &SoakConfig {
                clients: 2,
                pipeline: 1,
            },
        )
        .unwrap();
        assert_eq!(report.ok, 4);
        assert!(report.cache.is_none());
        assert!(
            report.server_latency.is_none(),
            "no /metrics, no cross-check"
        );
        assert!(report.to_json_value().get("server_latency").is_none());
        handle.shutdown().unwrap();
    }

    #[test]
    fn pipelined_soak_reports_server_side_pipelining() {
        use lantern_core::{LanternError, NarrationRequest, NarrationResponse};

        // Slow enough that a burst's trailing requests are guaranteed
        // to arrive while the first is still being handled.
        struct Slow(RuleTranslator);
        impl Translator for Slow {
            fn backend(&self) -> &str {
                "slow"
            }
            fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
                std::thread::sleep(std::time::Duration::from_millis(10));
                self.0.narrate(req)
            }
        }

        let handle = boot(
            Slow(RuleTranslator::new(default_mssql_store())),
            None,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let docs = vec![DOC_A.to_string(); 8];
        let report = run_soak(
            handle.addr(),
            &docs,
            &SoakConfig {
                clients: 1,
                pipeline: 4,
            },
        )
        .unwrap();
        assert_eq!(report.ok, 8, "statuses: {:?}", report.statuses);
        assert_eq!(report.pipeline, 4);
        assert_eq!(report.shed, 0);
        assert!(
            report.server.pipelined_requests >= 3,
            "server delta: {:?}",
            report.server
        );
        let json = report.to_json_value();
        assert_eq!(json.get("pipeline").and_then(JsonValue::as_f64), Some(4.0));
        assert!(
            json.get("server")
                .and_then(|s| s.get("pipelined_requests"))
                .and_then(JsonValue::as_f64)
                .unwrap()
                >= 3.0
        );
        handle.shutdown().unwrap();
    }
}
