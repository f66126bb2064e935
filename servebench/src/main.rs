//! `servebench`: the LANTERN serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <fresh|repeat|fleet-mixed|neural> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a seeded `lantern-gen` schedule, stands the service up
//! in-process through its public API, drives it from at most `nproc`
//! client connections, checks every answer against an in-process
//! reference, and prints one JSON object as the last stdout line:
//! with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run of the same schedule. The line
//! before it records the seed, schedule digest, git SHA, `nproc` and
//! the full configuration. See `servebench/README.md`.

mod conn;
mod deploy;
mod load;
mod schedule;
mod spec;
mod stats;
mod trace;

use conn::{body_digest, Target};
use deploy::{Deployment, Reference};
use lantern::cache::Fingerprint;
use lantern::serve::HttpClient;
use lantern::text::json::JsonValue;
use load::Load;
use schedule::{ReqKind, Schedule};
use spec::{Kind, Spec};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

const USAGE: &str = "usage: servebench --workload <fresh|repeat|fleet-mixed|neural> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Share of `--seconds` spent in each untraced phase.
const CLOSED_SHARE: f64 = 0.45;
const OPEN_SHARE: f64 = 0.55;
/// Rounds of set-up, closed loop and open loop.
const ROUNDS: usize = 20;
/// Rounds each end-to-end figure is a median over: those in which the
/// hypervisor stole the least CPU during the phase that measures it. On
/// a shared virtual machine it takes a sixth of the CPU or more in
/// bursts of seconds, and a phase's figure follows its share of stolen
/// time more closely than anything the service does; the calm quarter
/// of the phases stays comparable from run to run.
const CALM_ROUNDS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Phase details for the run record.
    pub details: BTreeMap<String, JsonValue>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(spec) = spec::by_name(&args.workload) else {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    match run(spec, &args) {
        Ok((record, report)) => {
            println!("{}", record.to_string_compact());
            println!("{}", result_line(&report));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(spec: &'static Spec, args: &Args) -> Result<(JsonValue, Report), String> {
    let clients = stats::nproc().min(2);
    // Resident memory at each step before the service exists, so the
    // run record shows how much of `peak_rss_mb` is the benchmark's own.
    let mut memory = BTreeMap::new();
    memory.insert("start_rss_mb", stats::rss_mb()?);
    schedule::self_test(spec, args.seed)?;
    let schedule = Schedule::generate(spec, args.seed, None);
    let digest = format!("{:032x}", schedule.digest().0);
    let warmup = Schedule::warmup(
        spec,
        match spec.kind {
            Kind::Neural => 48,
            Kind::Fleet => 384,
            _ => 1024,
        },
    );
    memory.insert("schedule_rss_mb", stats::rss_mb()?);

    // The reference: a second, identically built service answering
    // in-process with the cache bypassed.
    let reference = Reference::new(
        spec.kind,
        (spec.kind == Kind::Neural).then(deploy::train_model),
    )?;
    let expected = deploy::expectations(&reference, &schedule, clients)?;
    memory.insert("harness_rss_mb", stats::rss_mb()?);
    // Peak memory is measured from here on (and afresh from each later
    // set-up): the service's on top of the inputs and references held,
    // not the schedule generator's transient peak.
    let reset = stats::reset_peak_rss();
    memory.insert("baseline_rss_mb", stats::rss_mb()?);

    // Set-up: build, bind, warm up (and for `neural`, train), timed
    // whole. The untraced run sets up afresh before every round.
    let mut train_times = Vec::new();
    let mut set_up = || -> Result<(Deployment, f64), String> {
        let started = Instant::now();
        let model = match spec.kind {
            Kind::Neural => {
                let t = Instant::now();
                let model = deploy::train_model();
                train_times.push(deploy::secs(t));
                Some(model)
            }
            _ => None,
        };
        let dep = Deployment::start(spec, model)?;
        warm_up(&dep, &warmup, clients)?;
        Ok((dep, deploy::secs(started)))
    };
    let ticks = stats::cpu_ticks();
    let (mut deployment, setup_s) = set_up()?;
    let target = Target {
        addr: deployment.entry(),
        schedule: &schedule,
        expected: Some(&expected),
    };
    let mut load = Load::new(target, clients, args.seed);

    let mut report = if args.trace {
        let mut report = trace::run(spec, &load, &deployment, &reference, args.seconds as f64)?;
        report
            .details
            .insert("setup_s".into(), JsonValue::Number(setup_s));
        report
    } else {
        let first = (deployment, setup_s, ticks);
        let (report, last) = measure(spec, &mut load, args.seconds as f64, first, &mut set_up)?;
        deployment = last;
        report
    };
    let num = |v: f64| JsonValue::Number(v);
    if !train_times.is_empty() {
        report.details.insert(
            "train_s".into(),
            JsonValue::Array(train_times.into_iter().map(num).collect()),
        );
    }

    // Invariants checked after the timed phases.
    let mut checks = BTreeMap::new();
    if spec.kind == Kind::Fleet {
        check_coordinator(&deployment, &schedule, &expected, 64)?;
        checks.insert("coordinator_equals_owner", JsonValue::Bool(true));
    }
    if !schedule.stmts.is_empty() {
        check_writes_keep_narrations(&reference, &schedule, &expected)?;
        checks.insert("writes_keep_narrations", JsonValue::Bool(true));
    }
    checks.insert("batch_equals_sequential", JsonValue::Bool(true));
    checks.insert("schedule_self_test", JsonValue::Bool(true));
    deployment.shutdown()?;
    report.details.insert(
        "memory".into(),
        JsonValue::Object(
            memory
                .into_iter()
                .map(|(k, v)| (k.to_string(), num(v)))
                .collect(),
        ),
    );
    report
        .details
        .insert("peak_rss_reset".into(), JsonValue::Bool(reset));

    let record = run_record(spec, args, clients, &schedule, &digest, &report, checks);
    Ok((record, report))
}

/// Send every warm-up request once, closed loop; only the status is
/// checked (the warm-up plans have no reference answers).
fn warm_up(dep: &Deployment, warmup: &Schedule, clients: usize) -> Result<(), String> {
    let target = Target {
        addr: dep.entry(),
        schedule: warmup,
        expected: None,
    };
    let load = Load::new(target, clients, 0);
    let samples = load.closed_once()?;
    if let Some(bad) = samples.iter().find(|s| !s.ok) {
        return Err(format!("warm-up request {} failed", bad.req));
    }
    Ok(())
}

/// The untraced phases: [`ROUNDS`] rounds, each a set-up (the previous
/// deployment shut down first), a closed loop from the start of the
/// schedule, and an open loop at the frozen rate from where the closed
/// loop stopped (repeated while the generator lagged). `first` is round
/// 0's deployment, its set-up time and the CPU ticks from before it.
/// `throughput_rps`, `latency_p50_ms` and `setup_s` are medians over
/// calm phases ([`calm_median`]); `peak_rss_mb` is the median of the
/// rounds' peaks, each restarted before its set-up. Returns the report
/// and the last deployment, still up.
fn measure(
    spec: &Spec,
    load: &mut Load<'_>,
    seconds: f64,
    first: (Deployment, f64, (u64, u64)),
    set_up: &mut dyn FnMut() -> Result<(Deployment, f64), String>,
) -> Result<(Report, Deployment), String> {
    let closed_s = seconds * CLOSED_SHARE / ROUNDS as f64;
    let open_s = seconds * OPEN_SHARE / ROUNDS as f64;
    let (mut deployment, mut setup_s, mut ticks) = first;
    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        if round > 0 {
            ticks = stats::cpu_ticks();
            deployment.shutdown()?;
            stats::reset_peak_rss();
            (deployment, setup_s) = set_up()?;
            load.restart(deployment.entry());
        }
        let set_up_done = stats::cpu_ticks();
        let rps = load::throughput(&load.closed(closed_s)?);
        let closed_done = stats::cpu_ticks();
        let (run, attempts) = load.open_valid(spec.offered_rps, open_s)?;
        let latency = attempts.last().expect("a valid attempt");
        rounds.push(Round {
            setup: (stats::steal_share(ticks, set_up_done), setup_s),
            closed: (stats::steal_share(set_up_done, closed_done), rps),
            open: (
                stats::steal_share(closed_done, stats::cpu_ticks()),
                latency.p50_ms,
            ),
            p99_ms: latency.p99_ms,
            peak_mb: stats::peak_rss_mb()?,
            samples: run.samples.len(),
            attempts: attempts.iter().map(load::OpenRound::to_json).collect(),
        });
    }
    let metrics = vec![
        metric(
            "throughput_rps",
            calm_median(&rounds, |r| r.closed),
            "req/s",
        ),
        metric("latency_p50_ms", calm_median(&rounds, |r| r.open), "ms"),
        metric("setup_s", calm_median(&rounds, |r| r.setup), "s"),
        metric(
            "peak_rss_mb",
            stats::median(&rounds.iter().map(|r| r.peak_mb).collect::<Vec<_>>()).unwrap_or(0.0),
            "MiB",
        ),
    ];
    let mut details = BTreeMap::new();
    details.insert(
        "latency_p99_ms".into(),
        JsonValue::Number(calm_median(&rounds, |r| (r.open.0, r.p99_ms))),
    );
    details.insert(
        "latency_samples".into(),
        JsonValue::Number(rounds.iter().map(|r| r.samples).sum::<usize>() as f64),
    );
    details.insert(
        "rounds".into(),
        JsonValue::Array(rounds.iter().map(Round::to_json).collect()),
    );

    let attempted = load.attempted();
    let failed = load.failed();
    let report = Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        details,
    };
    Ok((report, deployment))
}

/// One untraced round's figures. Each phase's figure is paired with the
/// share of the machine's CPU time the hypervisor stole during it.
struct Round {
    setup: (f64, f64),
    /// Closed-loop throughput, req/s.
    closed: (f64, f64),
    /// Open-loop latency p50 from intended send time, ms.
    open: (f64, f64),
    p99_ms: f64,
    /// Peak resident set from the set-up to the end of the round, MiB.
    peak_mb: f64,
    samples: usize,
    /// Every open-loop attempt, the lagging ones included.
    attempts: Vec<JsonValue>,
}

impl Round {
    fn to_json(&self) -> JsonValue {
        let pair = |(steal, value): (f64, f64)| {
            JsonValue::Array(vec![JsonValue::Number(steal), JsonValue::Number(value)])
        };
        let mut round = BTreeMap::new();
        round.insert("setup_s".to_string(), pair(self.setup));
        round.insert("closed_rps".to_string(), pair(self.closed));
        round.insert("p50_ms".to_string(), pair(self.open));
        round.insert("p99_ms".to_string(), JsonValue::Number(self.p99_ms));
        round.insert("peak_rss_mb".to_string(), JsonValue::Number(self.peak_mb));
        round.insert(
            "open_attempts".to_string(),
            JsonValue::Array(self.attempts.clone()),
        );
        JsonValue::Object(round)
    }
}

/// The median of one phase's figure over the [`CALM_ROUNDS`] rounds in
/// which that phase had the least CPU stolen; `phase` gives a round's
/// (steal share, figure).
fn calm_median(rounds: &[Round], phase: impl Fn(&Round) -> (f64, f64)) -> f64 {
    let mut pairs: Vec<(f64, f64)> = rounds.iter().map(phase).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let calm: Vec<f64> = pairs.iter().take(CALM_ROUNDS).map(|p| p.1).collect();
    stats::median(&calm).unwrap_or(0.0)
}

/// Coordinator ≡ owning replica: the first `n` single-plan requests
/// answered through the coordinator and directly by the replica the
/// ring routes them to are byte-identical (and equal the reference).
fn check_coordinator(
    dep: &Deployment,
    schedule: &Schedule,
    expected: &[Fingerprint],
    n: usize,
) -> Result<(), String> {
    let coordinator = dep
        .coordinator
        .as_ref()
        .ok_or("fleet deployment without a coordinator")?;
    let ring = trace::ring(&dep.replica_addrs());
    let mut via = HttpClient::connect(coordinator.addr()).map_err(|e| e.to_string())?;
    let mut direct: Vec<HttpClient> = dep
        .replica_addrs()
        .iter()
        .map(|&a| HttpClient::connect(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let singles = schedule
        .reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.kind, ReqKind::Narrate { .. }))
        .take(n);
    for (i, req) in singles {
        let owner = ring
            .route(lantern::cluster::shard_key(schedule.body(req)))
            .ok_or("empty ring")?;
        let a = via
            .post(req.path, schedule.body(req))
            .map_err(|e| e.to_string())?;
        let b = direct[owner]
            .post(req.path, schedule.body(req))
            .map_err(|e| e.to_string())?;
        if a.status != 200 || a.body != b.body || body_digest(a.body.as_bytes()) != expected[i] {
            return Err(format!(
                "request {i}: coordinator answer differs from the owning replica's"
            ));
        }
    }
    Ok(())
}

/// Catalog writes leave narrations byte-identical: after the reference
/// applies the schedule's first statements, its uncached answers for
/// the first plans still equal the base-catalog expectations.
fn check_writes_keep_narrations(
    reference: &Reference,
    schedule: &Schedule,
    expected: &[Fingerprint],
) -> Result<(), String> {
    for stmt in schedule.stmts.iter().take(4) {
        reference.apply(stmt)?;
    }
    let singles = schedule
        .reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.kind, ReqKind::Narrate { .. }))
        .take(32);
    for (i, req) in singles {
        let (status, body) = reference.post(req.path, schedule.body(req), true);
        if status != 200 || body_digest(&body) != expected[i] {
            return Err(format!(
                "request {i}: a catalog write changed its narration"
            ));
        }
    }
    Ok(())
}

/// The commit being measured: `git rev-parse HEAD` in the working
/// directory, which must be the top of the checkout (parent directories
/// are not searched); "unknown" outside a git checkout.
fn git_sha() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    match git.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn run_record(
    spec: &Spec,
    args: &Args,
    clients: usize,
    schedule: &Schedule,
    digest: &str,
    report: &Report,
    checks: BTreeMap<&str, JsonValue>,
) -> JsonValue {
    let num = |v: f64| JsonValue::Number(v);
    let text = |v: &str| JsonValue::String(v.to_string());
    let cache = deploy::cache_config(spec.kind);
    let mut config = BTreeMap::new();
    config.insert("why".to_string(), text(spec.why));
    config.insert("offered_rps".to_string(), num(spec.offered_rps));
    config.insert("limit_ms".to_string(), num(spec.limit_ms));
    config.insert("max_lag_share".to_string(), num(load::MAX_LAG_SHARE));
    config.insert("seconds".to_string(), num(args.seconds as f64));
    config.insert("trace".to_string(), JsonValue::Bool(args.trace));
    config.insert("clients".to_string(), num(clients as f64));
    config.insert("window".to_string(), num(load::WINDOW as f64));
    config.insert(
        "min_window_answers".to_string(),
        num(load::MIN_WINDOW_ANSWERS as f64),
    );
    config.insert(
        "ladder".to_string(),
        JsonValue::Array(spec.ladder().into_iter().map(num).collect()),
    );
    config.insert(
        "phase_shares".to_string(),
        JsonValue::Array(vec![num(CLOSED_SHARE), num(OPEN_SHARE)]),
    );
    config.insert("rounds".to_string(), num(ROUNDS as f64));
    config.insert("calm_rounds".to_string(), num(CALM_ROUNDS as f64));
    config.insert(
        "cache_max_entries".to_string(),
        num(cache.max_entries as f64),
    );
    config.insert("cache_max_bytes".to_string(), num(cache.max_bytes as f64));
    config.insert("schedule_ops".to_string(), num(schedule.ops.len() as f64));
    config.insert("schedule_docs".to_string(), num(schedule.docs.len() as f64));
    config.insert(
        "schedule_mix".to_string(),
        JsonValue::Object(
            schedule
                .mix()
                .into_iter()
                .map(|(k, v)| (k.to_string(), num(v as f64)))
                .collect(),
        ),
    );
    let mut record = BTreeMap::new();
    record.insert("workload".to_string(), text(spec.name));
    record.insert("seed".to_string(), num(args.seed as f64));
    record.insert("schedule_digest".to_string(), text(digest));
    record.insert("git_sha".to_string(), text(&git_sha()));
    record.insert("nproc".to_string(), num(stats::nproc() as f64));
    record.insert("config".to_string(), JsonValue::Object(config));
    record.insert(
        "checks".to_string(),
        JsonValue::Object(
            checks
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    );
    record.insert(
        "details".to_string(),
        JsonValue::Object(report.details.clone()),
    );
    JsonValue::Object(record)
}

/// The result object, by hand so every value keeps all its digits.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
