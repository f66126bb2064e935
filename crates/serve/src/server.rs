//! What a server is made of, around the one serving core
//! (`src/event.rs`): the [`Handler`] it serves, the [`ServeConfig`] it
//! runs under, the [`ServeStats`] it counts into, and the
//! [`ServerHandle`] that stops it.
//!
//! [`serve`] runs any handler — a replica's [`Router`](crate::Router)
//! or a cluster coordinator — on the event core: a single readiness
//! thread owns every socket non-blocking (accept, incremental parse,
//! pipelining, ordered response writes) and dispatches complete
//! requests to a bounded worker pool. When the dispatch queue
//! saturates, requests are *shed* with `503` + `Retry-After` instead of
//! queueing unboundedly. The core uses `epoll`/`poll`, so serving is
//! Unix-only.

use crate::http::{Request, Response};
use lantern_obs::{Recorder, RecorderConfig, Series};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`serve`]. `Default` suits tests and the classroom
/// binary alike; every field has a CLI flag on `lantern-serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running the handler. `0` means
    /// `available_parallelism` (min 2, so one slow request can't
    /// starve the health check on a single-core host).
    pub workers: usize,
    /// Requests that may wait in the dispatch queue for a worker;
    /// requests arriving with the queue full are shed with `503`.
    pub queue_depth: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Idle timeout on keep-alive connections, which also bounds
    /// slow-loris peers parked on a partial request head.
    pub read_timeout: Duration,
    /// Open connections the event loop will hold at once; arrivals
    /// past the cap are closed immediately.
    pub max_conns: usize,
    /// Capture threshold for the slow-request ring served at
    /// `GET /debug/slow`, in milliseconds. `0` captures every request
    /// (the ring is bounded, so this is cheap and makes request IDs
    /// observable without artificial slowness). Read by
    /// [`ServeConfig::recorder`].
    pub slow_log_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            max_body_bytes: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            max_conns: 4096,
            slow_log_ms: 0,
        }
    }
}

impl ServeConfig {
    /// The observability recorder `slow_log_ms` describes, for the
    /// handler to trace into (the core records the socket
    /// `read`/`write` stages into the same one).
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::new(Recorder::new(RecorderConfig {
            slow_log_ms: self.slow_log_ms,
            ..RecorderConfig::default()
        }))
    }

    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2)
    }
}

/// What the serving core runs: one request in, one response out, on a
/// worker thread. The core does its own accounting through the other
/// two methods — transport counters into [`Handler::stats`], socket
/// `read`/`write` stage times (and request ids for shed responses) into
/// [`Handler::recorder`].
pub trait Handler: Send + Sync {
    /// Answer one parsed request.
    fn handle(&self, req: &Request) -> Response;
    /// The recorder this handler traces into.
    fn recorder(&self) -> &Recorder;
    /// The counters the core adds connections, sheds, pipelined
    /// requests, queue depth, panics, and protocol errors to.
    fn stats(&self) -> &ServeStats;
}

/// Shared atomic counters, incremented by the router, the coordinator
/// and the serving core. Each counter is a field plus one row of
/// [`ServeStats::front_door_series`] or [`ServeStats::router_series`];
/// `GET /stats` and `GET /metrics` both render from those rows.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// TCP connections accepted.
    pub connections: AtomicU64,
    /// HTTP requests routed (any endpoint, any outcome).
    pub requests_total: AtomicU64,
    /// `POST /narrate` requests received.
    pub narrate_requests: AtomicU64,
    /// `POST /narrate/batch` requests received.
    pub batch_requests: AtomicU64,
    /// Plan documents received inside batch envelopes.
    pub batch_items: AtomicU64,
    /// Narrations completed (single + batch items).
    pub narrate_ok: AtomicU64,
    /// Narrations failed (single + batch items).
    pub narrate_errors: AtomicU64,
    /// `POST /narrate/diff` requests received.
    pub diff_requests: AtomicU64,
    /// `POST /narrate/diff/batch` requests received.
    pub diff_batch_requests: AtomicU64,
    /// Alternative plans received inside diff-batch envelopes.
    pub diff_batch_items: AtomicU64,
    /// Diff narrations completed (single + batch items).
    pub diff_ok: AtomicU64,
    /// Diff narrations failed (single + batch items).
    pub diff_errors: AtomicU64,
    /// Requests for unknown paths.
    pub not_found: AtomicU64,
    /// Responses with status ≥ 400, protocol errors included.
    pub error_responses: AtomicU64,
    /// Panics contained by the worker pool (each cost one connection,
    /// never a worker).
    pub panics: AtomicU64,
    /// Requests refused by admission control: `503`s answered when the
    /// dispatch queue was full, plus connections closed at the
    /// `max_conns` cap.
    pub shed_requests: AtomicU64,
    /// Requests that arrived pipelined — read off a connection before
    /// the response to an earlier request on it was written.
    pub pipelined_requests: AtomicU64,
    /// Gauge: requests sitting in the dispatch queue, accepted but not
    /// yet picked up by a worker.
    pub queue_depth: AtomicU64,
    /// Gauge: requests currently being handled (incremented on entry to
    /// the router, decremented when the handler returns — so a `/stats`
    /// response always counts at least itself).
    pub requests_in_flight: AtomicU64,
    started: Started,
}

fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// When the stats (i.e. the server) came up.
#[derive(Debug)]
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

impl ServeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ServeStats::default()
    }

    /// Time since the stats (i.e. the server) came up.
    pub fn uptime(&self) -> Duration {
        self.started.0.elapsed()
    }

    /// The rows every front door keeps — a replica's router and a
    /// cluster coordinator alike: the serving core's transport
    /// counters, request entry, and the per-endpoint request counts.
    pub fn front_door_series(&self) -> [Series; 14] {
        [
            Series::counter("connections", read(&self.connections)),
            Series::counter("requests_total", read(&self.requests_total)),
            Series::counter("narrate_requests", read(&self.narrate_requests)),
            Series::counter("batch_requests", read(&self.batch_requests)),
            Series::counter("batch_items", read(&self.batch_items)),
            Series::counter("diff_requests", read(&self.diff_requests)),
            Series::counter("diff_batch_requests", read(&self.diff_batch_requests)),
            Series::counter("not_found", read(&self.not_found)),
            Series::counter("error_responses", read(&self.error_responses)),
            Series::counter("panics", read(&self.panics)),
            Series::counter("shed_requests", read(&self.shed_requests)),
            Series::counter("pipelined_requests", read(&self.pipelined_requests)),
            Series::gauge("queue_depth", read(&self.queue_depth)),
            Series::gauge("requests_in_flight", read(&self.requests_in_flight)),
        ]
    }

    /// The rows only a narrating router keeps (outcomes the coordinator
    /// never sees, since replicas produce them), plus uptime.
    pub fn router_series(&self) -> [Series; 7] {
        [
            Series::counter("narrate_ok", read(&self.narrate_ok)),
            Series::counter("narrate_errors", read(&self.narrate_errors)),
            Series::counter("diff_batch_items", read(&self.diff_batch_items)),
            Series::counter("diff_ok", read(&self.diff_ok)),
            Series::counter("diff_errors", read(&self.diff_errors)),
            Series::gauge("uptime_ms", self.uptime().as_millis() as u64),
            Series::gauge("uptime_seconds", self.uptime().as_secs()),
        ]
    }

    /// Every row: [`front_door_series`](Self::front_door_series) then
    /// [`router_series`](Self::router_series).
    pub fn series(&self) -> impl Iterator<Item = Series> {
        self.front_door_series()
            .into_iter()
            .chain(self.router_series())
    }
}

/// Handle to a running server: address introspection, live stats, and
/// graceful shutdown. Dropping the handle also shuts the server down
/// (best-effort, errors swallowed).
#[cfg(unix)]
pub struct ServerHandle {
    addr: SocketAddr,
    handler: Arc<dyn Handler>,
    shutdown: Arc<AtomicBool>,
    /// Write end of the event loop's self-pipe: one byte wakes the loop
    /// so it sees the shutdown flag without waiting out a poll timeout.
    waker: std::os::unix::net::UnixStream,
    /// The event thread first, then the workers; empty once shut down.
    threads: Vec<JoinHandle<()>>,
}

#[cfg(unix)]
impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

#[cfg(unix)]
impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters, without going through `GET /stats`.
    pub fn stats(&self) -> &ServeStats {
        self.handler.stats()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// flush buffered responses (bounded by a drain deadline), join
    /// every thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> io::Result<()> {
        if self.threads.is_empty() {
            return Ok(());
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // A full pipe already guarantees a pending wakeup.
        let _ = io::Write::write(&mut &self.waker, &[1u8]);
        // The event thread exits once drained, dropping the dispatch
        // queue's sender; the workers then stop.
        for thread in self.threads.drain(..) {
            thread
                .join()
                .map_err(|_| io::Error::other("serving thread panicked"))?;
        }
        Ok(())
    }
}

#[cfg(unix)]
impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Serve `handler` on `listener` until the returned handle shuts down.
///
/// Returns once the event thread and the worker pool are up. Bind
/// `"127.0.0.1:0"` to get an ephemeral port (read it back with
/// [`ServerHandle::addr`]). A server can come back on the *same*
/// address at once through [`TcpListener::bind`]: std sets
/// `SO_REUSEADDR` on Unix listeners, so connections the previous
/// occupant left in `TIME_WAIT` do not block the bind.
#[cfg(unix)]
pub fn serve(
    handler: Arc<dyn Handler>,
    listener: TcpListener,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (threads, waker) = crate::event::spawn(
        listener,
        Arc::clone(&handler),
        config,
        Arc::clone(&shutdown),
    )?;
    Ok(ServerHandle {
        addr,
        handler,
        shutdown,
        waker,
        threads,
    })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::router::Router;
    use lantern_core::{RuleTranslator, Translator};
    use lantern_pool::default_pg_store;
    use std::net::TcpStream;

    fn serve_router<T: Translator + Send + Sync + 'static>(
        translator: T,
        listener: TcpListener,
        config: ServeConfig,
    ) -> ServerHandle {
        let router =
            Router::with_catalog(translator, Arc::new(ServeStats::new()), None, None, None);
        serve(Arc::new(router), listener, config).expect("serve")
    }

    fn ephemeral() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port")
    }

    fn boot() -> ServerHandle {
        serve_router(
            RuleTranslator::new(default_pg_store()),
            ephemeral(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn serves_keep_alive_requests_on_one_connection() {
        let handle = boot();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        for _ in 0..3 {
            let resp = client
                .post(
                    "/narrate",
                    r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#,
                )
                .unwrap();
            assert_eq!(resp.status, 200);
            assert!(resp.body.contains("sequential scan on orders"));
        }
        let stats = handle.stats();
        assert_eq!(stats.narrate_ok.load(Ordering::Relaxed), 3);
        assert_eq!(
            stats.connections.load(Ordering::Relaxed),
            1,
            "keep-alive reuses one connection"
        );
        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn protocol_errors_answer_before_closing() {
        let handle = boot();
        use std::io::{Read, Write};
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut buf = String::new();
        raw.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        assert!(buf.contains("\"kind\":\"http\""), "{buf}");
        drop(raw);
        // Protocol-level failures count toward error_responses too.
        assert_eq!(handle.stats().error_responses.load(Ordering::Relaxed), 1);
        handle.shutdown().unwrap();
    }

    /// A head the parser rejects is answered as soon as it is complete,
    /// even when it announces a body that never comes.
    #[test]
    fn rejected_heads_are_answered_before_their_body_arrives() {
        let handle = boot();
        use std::io::{Read, Write};
        let pad = "a".repeat(crate::http::MAX_HEAD_BYTES);
        for (head, status) in [
            (
                "POST /narrate HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 100\r\n\r\n"
                    .to_string(),
                "501",
            ),
            (
                format!("POST /narrate HTTP/1.1\r\nContent-Length: 100\r\nX-Pad: {pad}\r\n\r\n"),
                "431",
            ),
        ] {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            raw.write_all(head.as_bytes()).unwrap();
            let mut buf = String::new();
            raw.read_to_string(&mut buf)
                .unwrap_or_else(|e| panic!("no {status} before the body: {e}"));
            assert!(buf.starts_with(&format!("HTTP/1.1 {status}")), "{buf}");
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn shutdown_then_connect_refused() {
        let handle = boot();
        let addr = handle.addr();
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        handle.shutdown().unwrap();
        // The listener is gone: a fresh connection cannot complete an
        // HTTP exchange (bind may be refused outright, or accepted by
        // the OS backlog and then reset).
        let refused = match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Err(_) => true,
            Ok(mut stream) => {
                use std::io::{Read, Write};
                stream
                    .set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                let mut buf = Vec::new();
                matches!(stream.read_to_end(&mut buf), Ok(0) | Err(_))
            }
        };
        assert!(refused, "server still answering after shutdown");
    }

    #[test]
    fn panics_are_contained_per_connection() {
        use lantern_core::{NarrationRequest, NarrationResponse};

        struct Panicky;
        impl Translator for Panicky {
            fn backend(&self) -> &str {
                "panicky"
            }
            fn narrate(
                &self,
                _req: &NarrationRequest,
            ) -> Result<NarrationResponse, lantern_core::LanternError> {
                panic!("translator bug")
            }
        }

        // One worker: if the panic killed it, nothing could ever answer
        // again.
        let handle = serve_router(
            Panicky,
            ephemeral(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let mut doomed = HttpClient::connect(handle.addr()).unwrap();
        // The panic drops the connection mid-exchange; the client sees
        // an error, not a hang.
        assert!(doomed.post("/narrate", "{}").is_err());
        drop(doomed);

        let mut client = HttpClient::connect(handle.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(handle.stats().panics.load(Ordering::Relaxed), 1);
        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn restart_rebinds_the_same_port() {
        // Boot, serve one request, shut down, and come back on the
        // *same* port — the replica-restart sequence the cluster fault
        // harness leans on. std's bind sets `SO_REUSEADDR`, so the
        // connection just served does not hold the port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = serve_router(
            RuleTranslator::new(default_pg_store()),
            listener,
            ServeConfig::default(),
        );
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        handle.shutdown().unwrap();

        let listener = TcpListener::bind(addr).expect("rebind the vacated port");
        let handle = serve_router(
            RuleTranslator::new(default_pg_store()),
            listener,
            ServeConfig::default(),
        );
        assert_eq!(handle.addr(), addr);
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn drop_shuts_down_quietly() {
        // Dropping the handle must join every thread without hanging or
        // panicking; reaching the end of this test is the assertion.
        let handle = boot();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        drop(handle);
    }
}
