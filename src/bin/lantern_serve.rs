//! `lantern-serve`: the long-lived narration server binary.
//!
//! Boots a [`LanternService`](lantern::LanternService) behind the
//! std-only HTTP server in `lantern-serve` and runs until killed.
//! `docs/SERVING.md` documents the endpoints; try:
//!
//! ```bash
//! cargo run --bin lantern-serve -- --addr 127.0.0.1:8080 &
//! curl -s http://127.0.0.1:8080/healthz
//! curl -s -X POST --data-binary \
//!   '{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}' \
//!   http://127.0.0.1:8080/narrate
//! ```

use lantern::builder::{Backend, LanternBuilder};
use lantern::cache::CacheConfig;
use lantern::cluster::{serve_cluster, ClusterConfig};
use lantern::core::RenderStyle;
use lantern::serve::ServeConfig;
use std::net::ToSocketAddrs;
use std::time::Duration;

const USAGE: &str = "\
lantern-serve — HTTP narration service over the LANTERN translators

USAGE:
    lantern-serve [OPTIONS]
    lantern-serve cluster [CLUSTER OPTIONS]

OPTIONS:
    --addr <HOST:PORT>    Listen address [default: 127.0.0.1:8080]
    --backend <NAME>      rule | neuron [default: rule]
                          (the neural backend needs a trained model;
                          embed it via LanternBuilder::neural_model)
    --style <NAME>        numbered | bulleted | paragraph
                          [default: numbered]
    --paraphrase          Enable the paraphrase output layer
    --workers <N>         Worker threads (0 = one per core) [default: 0]
    --max-conns <N>       Open connections the event loop holds at once;
                          arrivals past the cap are closed [default: 4096]
    --queue-cap <N>       Dispatch-queue slots; requests arriving with the
                          queue full are shed with 503 + Retry-After
                          [default: 64]
    --no-cache            Disable the plan-fingerprint narration cache
                          (on by default: repeated plans answer from a
                          sharded LRU; see docs/SERVING.md)
    --cache-entries <N>   Narration cache capacity, entries [default: 4096]
    --cache-mb <N>        Narration cache capacity, MiB [default: 32]
    --cache-strict        Fingerprint cardinality/cost estimates too
    --slow-log-ms <N>     Capture requests at least this slow in the
                          /debug/slow ring (0 = capture every request)
                          [default: 0]
    --help                Print this help

CLUSTER OPTIONS (coordinator fronting N running replicas):
    --addr <HOST:PORT>    Coordinator listen address
                          [default: 127.0.0.1:8070]
    --replica <HOST:PORT> A replica to front; repeat once per replica
                          (at least one required)
    --vnodes <N>          Virtual nodes per replica on the hash ring
                          [default: 64]
    --workers <N>         Coordinator worker threads (0 = one per core)
                          [default: 0]
    --connect-timeout-ms <N>
                          TCP connect bound per forwarding attempt
                          [default: 500]
    --read-timeout-ms <N> Read bound per forwarding attempt (failover
                          trigger for a stalled replica) [default: 5000]
    --retry-backoff-ms <N>
                          Sleep between failover attempts [default: 25]
    --max-attempts <N>    Forwarding attempts per request (owner +
                          ring successors) [default: 3]
    --probe-ms <N>        Health/catalog probe period [default: 500]
    --slow-log-ms <N>     Coordinator /debug/slow capture threshold
                          (0 = capture every request) [default: 0]
";

struct Args {
    addr: String,
    backend: Backend,
    style: RenderStyle,
    paraphrase: bool,
    workers: usize,
    max_conns: usize,
    queue_cap: usize,
    cache_config: CacheConfig,
    no_cache: bool,
    slow_log_ms: u64,
}

impl Args {
    /// The effective cache setting: `--no-cache` wins regardless of
    /// where it appears relative to the `--cache-*` sizing flags.
    fn cache(&self) -> Option<CacheConfig> {
        if self.no_cache {
            None
        } else {
            Some(self.cache_config)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8080".to_string(),
        backend: Backend::Rule,
        style: RenderStyle::Numbered,
        paraphrase: false,
        workers: 0,
        max_conns: 4096,
        queue_cap: 64,
        // The classroom workload is exactly what the cache exists for;
        // the binary serves cached unless told otherwise.
        cache_config: CacheConfig::default(),
        no_cache: false,
        slow_log_ms: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--backend" => {
                args.backend = match value("--backend")?.as_str() {
                    "rule" => Backend::Rule,
                    "neuron" => Backend::Neuron,
                    other => return Err(format!("unknown backend {other:?}")),
                }
            }
            "--style" => {
                args.style = match value("--style")?.as_str() {
                    "numbered" => RenderStyle::Numbered,
                    "bulleted" => RenderStyle::Bulleted,
                    "paragraph" => RenderStyle::Paragraph,
                    other => return Err(format!("unknown style {other:?}")),
                }
            }
            "--paraphrase" => args.paraphrase = true,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?
            }
            "--queue-cap" => {
                args.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--no-cache" => args.no_cache = true,
            "--cache-entries" => {
                args.cache_config.max_entries = value("--cache-entries")?
                    .parse()
                    .map_err(|e| format!("--cache-entries: {e}"))?;
            }
            "--cache-mb" => {
                let mib: u64 = value("--cache-mb")?
                    .parse()
                    .map_err(|e| format!("--cache-mb: {e}"))?;
                args.cache_config.max_bytes = mib * 1024 * 1024;
            }
            "--cache-strict" => args.cache_config.strict = true,
            "--slow-log-ms" => {
                args.slow_log_ms = value("--slow-log-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-log-ms: {e}"))?
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Everything `lantern-serve cluster` needs: a listen address and the
/// replica fleet, plus the forwarding/probing knobs.
struct ClusterArgs {
    addr: String,
    replicas: Vec<String>,
    vnodes: usize,
    workers: usize,
    connect_timeout_ms: u64,
    read_timeout_ms: u64,
    retry_backoff_ms: u64,
    max_attempts: usize,
    probe_ms: u64,
    slow_log_ms: u64,
}

fn parse_cluster_args(argv: impl Iterator<Item = String>) -> Result<ClusterArgs, String> {
    let mut args = ClusterArgs {
        addr: "127.0.0.1:8070".to_string(),
        replicas: Vec::new(),
        vnodes: 64,
        workers: 0,
        connect_timeout_ms: 500,
        read_timeout_ms: 5000,
        retry_backoff_ms: 25,
        max_attempts: 3,
        probe_ms: 500,
        slow_log_ms: 0,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--replica" => args.replicas.push(value("--replica")?),
            "--vnodes" => {
                args.vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|e| format!("--vnodes: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--connect-timeout-ms" => {
                args.connect_timeout_ms = value("--connect-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--connect-timeout-ms: {e}"))?
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?
            }
            "--retry-backoff-ms" => {
                args.retry_backoff_ms = value("--retry-backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-backoff-ms: {e}"))?
            }
            "--max-attempts" => {
                args.max_attempts = value("--max-attempts")?
                    .parse()
                    .map_err(|e| format!("--max-attempts: {e}"))?
            }
            "--probe-ms" => {
                args.probe_ms = value("--probe-ms")?
                    .parse()
                    .map_err(|e| format!("--probe-ms: {e}"))?
            }
            "--slow-log-ms" => {
                args.slow_log_ms = value("--slow-log-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-log-ms: {e}"))?
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown cluster flag {other:?}")),
        }
    }
    if args.replicas.is_empty() {
        return Err("cluster mode needs at least one --replica HOST:PORT".to_string());
    }
    Ok(args)
}

/// Resolve the replica fleet, boot the coordinator, and serve forever.
fn cluster_main(args: &ClusterArgs) -> Result<(), String> {
    let mut replicas = Vec::with_capacity(args.replicas.len());
    for raw in &args.replicas {
        let addr = raw
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve replica {raw}: {e}"))?
            .next()
            .ok_or_else(|| format!("replica {raw} resolves to no address"))?;
        replicas.push(addr);
    }
    let config = ClusterConfig {
        replicas,
        virtual_nodes: args.vnodes,
        workers: args.workers,
        connect_timeout: Duration::from_millis(args.connect_timeout_ms),
        read_timeout: Duration::from_millis(args.read_timeout_ms),
        retry_backoff: Duration::from_millis(args.retry_backoff_ms),
        max_attempts: args.max_attempts,
        probe_interval: Duration::from_millis(args.probe_ms),
        slow_log_ms: args.slow_log_ms,
        ..ClusterConfig::default()
    };
    let handle = serve_cluster(config, args.addr.as_str())
        .map_err(|e| format!("failed to bind {}: {e}", args.addr))?;
    // `tests/binary.rs` reads the bound address off this exact line.
    println!(
        "lantern-serve cluster listening on http://{}",
        handle.addr()
    );
    println!(
        "fronting {} replica(s): {}",
        args.replicas.len(),
        args.replicas.join(", ")
    );
    println!(
        "endpoints: POST /narrate, POST /narrate/batch, POST /narrate/diff, POST /narrate/diff/batch, GET /healthz, GET /stats, GET /metrics, GET /debug/slow, GET /catalog, POST /catalog/apply, POST /cache/clear (see docs/SERVING.md)"
    );
    // Serve until the process is killed; the worker pool does the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("error: lantern-serve needs a Unix target (its serving core polls with epoll/poll)");
    std::process::exit(1);
}

#[cfg(unix)]
fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("cluster") {
        argv.next();
        let outcome = parse_cluster_args(argv).and_then(|args| cluster_main(&args));
        if let Err(message) = outcome {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut builder = LanternBuilder::new()
        .backend(args.backend)
        .style(args.style)
        .paraphrase(args.paraphrase);
    if let Some(cache) = args.cache() {
        builder = builder.cache(cache);
    }
    let handle = builder
        .build()
        .expect("assemble service")
        .serve(
            &args.addr,
            ServeConfig {
                workers: args.workers,
                max_conns: args.max_conns,
                queue_depth: args.queue_cap,
                slow_log_ms: args.slow_log_ms,
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: failed to bind {}: {e}", args.addr);
            std::process::exit(1);
        });
    // `tests/binary.rs` reads the bound address off this exact line.
    println!("lantern-serve listening on http://{}", handle.addr());
    println!(
        "endpoints: POST /narrate, POST /narrate/batch, POST /narrate/diff, POST /narrate/diff/batch, GET /healthz, GET /stats, GET /metrics, GET /debug/slow, POST /cache/clear (see docs/SERVING.md)"
    );
    // Serve until the process is killed; the worker pool does the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
