//! The load phases: closed-loop throughput, open-loop latency at the
//! frozen offered rate, and the sustained-rate ladder. Each phase runs
//! one connection per client thread and checks every answer.

use crate::conn::{drive, Pacing, Sample, Target};
use crate::schedule::Rng;
use crate::spec::Spec;
use crate::stats::{percentile, rank};
use lantern::text::json::JsonValue;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Unanswered requests one open-loop connection keeps in flight. Two
/// connections stay within a replica's 64-slot dispatch queue, so the
/// generator never provokes a 503 shed: beyond this, waiting happens
/// in the generator and still counts from the intended send time.
pub const WINDOW: usize = 24;
/// Fewest answers in a window of the open-loop latency statistics; a
/// window also holds at least ten answers beyond the percentile taken
/// from it (1000 for a p99). The host stalls now and then for a few
/// milliseconds; at thousands of requests per second one stall holds
/// more than 1% of a long phase, so percentiles are taken per window
/// and a quantile across windows is reported.
pub const MIN_WINDOW_ANSWERS: usize = 200;

/// One sustained-rate ladder probe: rung rate, per-plan p99 (ms), passed.
pub type Probe = (f64, f64, bool);

/// Shared state of one benchmark run's load: where it goes, how many
/// client connections, the position in the schedule, and the
/// attempted / failed totals across phases.
pub struct Load<'a> {
    pub target: Target<'a>,
    pub clients: usize,
    seed: u64,
    position: AtomicUsize,
    phases: AtomicU64,
    attempted: AtomicU64,
    failed: AtomicU64,
}

/// One open-loop phase's answers plus arrivals never sent.
pub struct OpenRun {
    pub samples: Vec<Sample>,
    pub unsent: usize,
}

impl<'a> Load<'a> {
    pub fn new(target: Target<'a>, clients: usize, seed: u64) -> Self {
        Load {
            target,
            clients,
            seed,
            position: AtomicUsize::new(0),
            phases: AtomicU64::new(0),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    fn record(&self, samples: &[Sample]) {
        self.attempted
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        let failed = samples.iter().filter(|s| !s.ok).count() as u64;
        self.failed.fetch_add(failed, Ordering::Relaxed);
    }

    fn run(&self, pacings: Vec<Pacing<'_>>) -> Result<(Vec<Sample>, usize), String> {
        let start = Instant::now();
        let runs = std::thread::scope(|scope| {
            let handles: Vec<_> = pacings
                .iter()
                .map(|pacing| scope.spawn(move || drive(self.target, pacing, start)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut samples = Vec::new();
        let mut unsent = 0;
        for run in runs {
            samples.extend(run.samples);
            unsent += run.unsent;
        }
        self.record(&samples);
        Ok((samples, unsent))
    }

    /// Closed loop: each client sends its next request when the previous
    /// answer arrives, for `seconds`.
    pub fn closed(&self, seconds: f64) -> Result<Vec<Sample>, String> {
        self.closed_until(
            Instant::now() + Duration::from_secs_f64(seconds),
            usize::MAX,
        )
    }

    /// Closed loop over the schedule exactly once.
    pub fn closed_once(&self) -> Result<Vec<Sample>, String> {
        let far = Instant::now() + Duration::from_secs(3600);
        self.closed_until(far, self.target.schedule.ops.len())
    }

    fn closed_until(&self, until: Instant, end: usize) -> Result<Vec<Sample>, String> {
        let pacings = (0..self.clients)
            .map(|_| Pacing::Closed {
                next: &self.position,
                until,
                end,
            })
            .collect();
        Ok(self.run(pacings)?.0)
    }

    /// Point the load at a new deployment and send the schedule from
    /// its start again, so every fresh deployment sees the same work.
    pub fn restart(&mut self, addr: SocketAddr) {
        self.target.addr = addr;
        *self.position.get_mut() = 0;
    }

    /// The next schedule position a phase will send.
    pub fn position(&self) -> usize {
        self.position.load(Ordering::Relaxed)
    }

    /// The workload seed the arrival schedules derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Requests answered so far, across phases.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Answers that were not a correct 2xx, across phases.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Open loop at `rate` req/s for `seconds`: seeded exponential
    /// gaps, arrivals dealt round-robin to the clients, each pipelined
    /// up to [`WINDOW`]. A client abandons the phase once more than
    /// `abort_backlog` of its arrivals are due but unsent.
    pub fn open(&self, rate: f64, seconds: f64, abort_backlog: usize) -> Result<OpenRun, String> {
        let phase = self.phases.fetch_add(1, Ordering::Relaxed);
        let mut rng = Rng::new(self.seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut arrivals: Vec<Vec<(u64, usize)>> = vec![Vec::new(); self.clients];
        let mut t = rng.exponential(rate);
        let mut k = 0;
        while t < seconds {
            arrivals[k % self.clients].push(((t * 1e9) as u64, k));
            k += 1;
            t += rng.exponential(rate);
        }
        let base = self.position.fetch_add(k, Ordering::Relaxed);
        for lane in &mut arrivals {
            for arrival in lane.iter_mut() {
                arrival.1 += base;
            }
        }
        let pacings = arrivals
            .iter()
            .map(|lane| Pacing::Open {
                arrivals: lane,
                window: WINDOW,
                abort_backlog,
            })
            .collect();
        let (samples, unsent) = self.run(pacings)?;
        Ok(OpenRun { samples, unsent })
    }

    /// [`Load::open`] without an abandon limit, repeated while the
    /// generator lagged ([`OpenRound::valid`]), up to [`OPEN_ATTEMPTS`]
    /// times: the valid run, and the figures of every attempt.
    pub fn open_valid(&self, rate: f64, seconds: f64) -> Result<(OpenRun, Vec<OpenRound>), String> {
        let mut rounds = Vec::new();
        while rounds.len() < OPEN_ATTEMPTS {
            let run = self.open(rate, seconds, usize::MAX)?;
            let round = OpenRound::of(&run);
            let valid = round.valid();
            rounds.push(round);
            if valid {
                return Ok((run, rounds));
            }
        }
        Err(format!(
            "invalid run: in {OPEN_ATTEMPTS} latency rounds in a row the load generator's \
             lag p99 was over {MAX_LAG_SHARE} of the round's latency p99"
        ))
    }

    /// The highest rate of `spec`'s ladder that holds p99 (from intended
    /// send time) within the limit, with every answer correct and no
    /// backlog growth, found by bisection within `seconds`: each probe
    /// gets an equal part of it, sized for the most probes the
    /// bisection can take.
    /// The limit is per plan, as the paper's Table 6 response time is: a
    /// request carrying `k` plans (a batch, a diff) has `k` times the
    /// limit. The p99 is the median of the sub-window p99s, and a rung
    /// fails only when a second probe of it fails too, so one stall of
    /// the host does not end the climb.
    /// Returns the rate the highest passing rung achieved (answers per
    /// second of its step; 0 when even the lowest rung fails) and the
    /// probes as `(rung rate, p99 ms, passed)`.
    pub fn sustained(&self, spec: &Spec, seconds: f64) -> Result<(f64, Vec<Probe>), String> {
        let rates = spec.ladder();
        // Bisecting `rates.len() + 1` outcomes takes at most this many
        // steps, each of at most two probes.
        let steps = (rates.len() + 1).next_power_of_two().trailing_zeros() as usize;
        let step_seconds = seconds / (2 * steps) as f64;
        let (mut pass, mut fail) = (-1isize, rates.len() as isize);
        let mut sustained = 0.0;
        let mut probes = Vec::new();
        while fail - pass > 1 {
            let mid = (pass + fail) / 2;
            let rate = rates[mid as usize];
            let mut achieved = None;
            for _ in 0..2 {
                let (p99_ms, passed, rate_seen) = self.probe(spec, rate, step_seconds)?;
                probes.push((rate, p99_ms, passed));
                if passed {
                    achieved = Some(rate_seen);
                    break;
                }
            }
            match achieved {
                Some(rate_seen) => {
                    pass = mid;
                    sustained = rate_seen;
                }
                None => fail = mid,
            }
        }
        Ok((sustained, probes))
    }

    /// One ladder probe at `rate`: its per-plan p99 (ms), whether it
    /// passed, and the rate it achieved (answers per second from the
    /// first intended send to the last answer). Backlog growth shows as a last sub-window whose per-plan
    /// median is past the limit, or as a generator that had to abandon
    /// the step.
    fn probe(&self, spec: &Spec, rate: f64, seconds: f64) -> Result<(f64, bool, f64), String> {
        // Little's law: more than rate × limit waiting means the newest
        // of them cannot make the limit.
        let allowed = (rate * spec.limit_ms / 1e3).max(1.0);
        let abort = ((allowed * 4.0) as usize / self.clients).max(WINDOW);
        let run = self.open(rate, seconds, abort)?;
        let reqs = &self.target.schedule.reqs;
        let per_plan_ms =
            |s: &Sample| s.latency_ns() as f64 / 1e6 / reqs[s.req as usize].plans() as f64;
        let p99_ms =
            windowed(std::slice::from_ref(&run), 0.99, 0.5, per_plan_ms).unwrap_or(f64::INFINITY);
        let last_start = (seconds * 1e9 * 2.0 / 3.0) as u64;
        let last: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.due >= last_start)
            .map(per_plan_ms)
            .collect();
        let last_p50 = percentile(&last, 0.5).unwrap_or(f64::INFINITY);
        let passed = run.unsent == 0
            && run.samples.iter().all(|s| s.ok)
            && p99_ms <= spec.limit_ms
            && last_p50 <= spec.limit_ms;
        let first_due = run.samples.iter().map(|s| s.due).min().unwrap_or(0);
        let last_done = run.samples.iter().map(|s| s.done).max().unwrap_or(0);
        let achieved =
            run.samples.len() as f64 * 1e9 / last_done.saturating_sub(first_due).max(1) as f64;
        Ok((p99_ms, passed, achieved))
    }
}

/// Closed-loop throughput: correct answers per second between the
/// phase's first and last correct answer.
pub fn throughput(samples: &[Sample]) -> f64 {
    let done = samples.iter().filter(|s| s.ok).map(|s| s.done);
    let (first, last) = (
        done.clone().min().unwrap_or(0),
        done.clone().max().unwrap_or(0),
    );
    if last > first {
        (done.count() - 1) as f64 * 1e9 / (last - first) as f64
    } else {
        0.0
    }
}

/// Latency p99 from intended send time over open-loop phases, ms, as
/// [`windowed`] gives it, taking the lower quartile across windows. The
/// host loses the CPU to other guests in bursts that last seconds and
/// only ever make a window slower, so the faster quartile holds still
/// until a burst covers three quarters of the windows. Failed answers
/// count at their measured latency; correctness is tallied separately.
pub fn latency_p99(runs: &[OpenRun]) -> f64 {
    windowed(runs, 0.99, 0.25, |s| s.latency_ns() as f64 / 1e6).unwrap_or(0.0)
}

/// The answers of `runs`, run after run in intended-send order, cut
/// into consecutive windows (see [`MIN_WINDOW_ANSWERS`]; one window
/// when there are fewer answers): the `across` quantile, over windows,
/// of each window's `p` percentile of `value`; `None` without answers.
fn windowed(runs: &[OpenRun], p: f64, across: f64, value: impl Fn(&Sample) -> f64) -> Option<f64> {
    let mut values = Vec::new();
    for run in runs {
        let mut samples: Vec<&Sample> = run.samples.iter().collect();
        samples.sort_by_key(|s| s.due);
        values.extend(samples.into_iter().map(&value));
    }
    let n = values.len();
    let per_window = ((10.0 / (1.0 - p)).ceil() as usize).max(MIN_WINDOW_ANSWERS);
    let windows = (n / per_window).max(1);
    let ranks: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let mut window = values[w * n / windows..(w + 1) * n / windows].to_vec();
            window.sort_by(f64::total_cmp);
            (!window.is_empty()).then(|| rank(&window, p))
        })
        .collect();
    percentile(&ranks, across)
}

/// The largest share of a latency round's own p99 (from intended send
/// time) that the generator's lag p99 may make up. A request's latency
/// includes its lag, so the share is at most 1; past this, the round's
/// tail says more about the generator, or a host that took the CPU from
/// it, than about the service, and the round is not a data point.
pub const MAX_LAG_SHARE: f64 = 0.5;

/// Open-loop rounds tried in a row before a lagging generator fails
/// the run.
pub const OPEN_ATTEMPTS: usize = 3;

/// One open-loop round's figures, as the run record gives them.
pub struct OpenRound {
    pub lag_p50_us: f64,
    pub lag_p99_us: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl OpenRound {
    pub fn of(run: &OpenRun) -> Self {
        let ms: Vec<f64> = run
            .samples
            .iter()
            .map(|s| s.latency_ns() as f64 / 1e6)
            .collect();
        let lags: Vec<f64> = run
            .samples
            .iter()
            .filter_map(|s| s.lag)
            .map(|lag| lag as f64 / 1e3)
            .collect();
        OpenRound {
            lag_p50_us: percentile(&lags, 0.5).unwrap_or(0.0),
            lag_p99_us: percentile(&lags, 0.99).unwrap_or(0.0),
            p50_ms: percentile(&ms, 0.5).unwrap_or(0.0),
            p99_ms: percentile(&ms, 0.99).unwrap_or(0.0),
        }
    }

    /// The generator kept up: see [`MAX_LAG_SHARE`].
    pub fn valid(&self) -> bool {
        self.lag_p99_us <= MAX_LAG_SHARE * self.p99_ms * 1e3
    }

    pub fn to_json(&self) -> JsonValue {
        let mut round = BTreeMap::new();
        for (name, value) in [
            ("lag_p50_us", self.lag_p50_us),
            ("lag_p99_us", self.lag_p99_us),
            ("p50_ms", self.p50_ms),
            ("p99_ms", self.p99_ms),
        ] {
            round.insert(name.to_string(), JsonValue::Number(value));
        }
        round.insert("valid".to_string(), JsonValue::Bool(self.valid()));
        JsonValue::Object(round)
    }
}
