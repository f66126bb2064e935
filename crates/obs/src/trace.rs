//! Per-request tracing: stage spans, request IDs, and the slow log.
//!
//! The server calls [`Recorder::begin`] at ingress, which installs a
//! thread-local active trace. Any layer below — the router, the cache,
//! the diff engine — drops a [`span`] guard around the work it does;
//! the guard adds its elapsed time to the active trace without knowing
//! which recorder (or server) is listening, which keeps lower crates
//! free of any dependency on the serving stack. [`TraceGuard::finish`]
//! folds the stage vector into the recorder's histograms and, when the
//! request ran long enough, into a bounded slow-request ring buffer.
//!
//! Traces are thread-local, which matches the serving core: it
//! dispatches each parsed request to exactly one worker thread. When no
//! trace is active (or the recorder is disabled) a span is one TLS load
//! and a branch — no clock read.

use crate::hist::{AtomicHistogram, HistogramSnapshot};
use crate::registry::{Kind, MetricsPage};
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The pipeline stages a request can spend time in. `Read`/`Write` are
/// recorded by the serving cores; the rest by the router and the
/// layers below it. Spans may nest (`Narrate` contains `Fingerprint`
/// and `CacheLookup` on a cached server), so the stage vector is a
/// profile, not a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Reading and framing request bytes off the socket.
    Read,
    /// Parsing the plan document / request envelope.
    Parse,
    /// Canonical plan fingerprinting (cache key derivation).
    Fingerprint,
    /// Narration-cache probe (L1 digest + LRU).
    CacheLookup,
    /// The translation backend proper.
    Narrate,
    /// Plan-diff comparison and narration.
    Diff,
    /// Serializing the response body.
    Render,
    /// Encoding and writing response bytes to the socket.
    Write,
}

impl Stage {
    /// Number of stages (the length of every stage vector).
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Read,
        Stage::Parse,
        Stage::Fingerprint,
        Stage::CacheLookup,
        Stage::Narrate,
        Stage::Diff,
        Stage::Render,
        Stage::Write,
    ];

    /// The stage's label value in metric names and the slow log.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Parse => "parse",
            Stage::Fingerprint => "fingerprint",
            Stage::CacheLookup => "cache_lookup",
            Stage::Narrate => "narrate",
            Stage::Diff => "diff",
            Stage::Render => "render",
            Stage::Write => "write",
        }
    }

    /// This stage's position in a [`SlowEntry::stage_ns`] vector
    /// (and the recorder's internal histogram array).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Metric name of the per-stage latency histogram (label `stage`).
pub const METRIC_STAGE_SECONDS: &str = "lantern_stage_duration_seconds";
/// Metric name of the whole-request latency histogram.
pub const METRIC_REQUEST_SECONDS: &str = "lantern_request_duration_seconds";

/// [`Recorder`] construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Master switch. Disabled, [`Recorder::begin`] installs no trace,
    /// spans are inert, and nothing is recorded — only request IDs
    /// keep working.
    pub enabled: bool,
    /// Requests at least this slow are captured in the slow log.
    /// `0` captures every finished request (the ring still bounds
    /// memory), which is what lets tests and smoke lanes observe
    /// request IDs without manufacturing slowness.
    pub slow_log_ms: u64,
    /// Slow-log ring capacity (oldest entries are evicted).
    pub slow_log_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            enabled: true,
            slow_log_ms: 0,
            slow_log_capacity: 256,
        }
    }
}

/// One captured slow request: identity, outcome, and where the time
/// went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// The request ID echoed in the `x-lantern-request-id` header.
    pub id: String,
    /// Request path.
    pub path: String,
    /// Response status (0 when the handler panicked before answering).
    pub status: u16,
    /// End-to-end nanoseconds inside the trace.
    pub total_ns: u64,
    /// Nanoseconds per stage, indexed like [`Stage::ALL`].
    pub stage_ns: [u64; Stage::COUNT],
    /// Canonical plan fingerprint (hex), when a cache layer noted one.
    pub fingerprint: Option<String>,
}

struct ActiveTrace {
    stage_ns: [u64; Stage::COUNT],
    fingerprint: Option<String>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// The per-server metrics hub: stage and request histograms, the slow
/// log, and request-ID minting.
pub struct Recorder {
    enabled: AtomicBool,
    stages: [AtomicHistogram; Stage::COUNT],
    requests: AtomicHistogram,
    slow_threshold_ns: AtomicU64,
    slow_capacity: usize,
    slow: Mutex<VecDeque<SlowEntry>>,
    id_prefix: u32,
    id_seq: AtomicU64,
}

impl Recorder {
    /// Build a recorder.
    pub fn new(config: RecorderConfig) -> Recorder {
        // A per-process random prefix keeps IDs from different
        // replicas distinguishable without coordination. `RandomState`
        // is the only entropy std hands out.
        let id_prefix = RandomState::new().hash_one(std::process::id()) as u32;
        Recorder {
            enabled: AtomicBool::new(config.enabled),
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
            requests: AtomicHistogram::new(),
            slow_threshold_ns: AtomicU64::new(config.slow_log_ms.saturating_mul(1_000_000)),
            slow_capacity: config.slow_log_capacity.max(1),
            slow: Mutex::new(VecDeque::new()),
            id_prefix,
            id_seq: AtomicU64::new(0),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Mint a fresh request ID (`pppppppp-ssssssss`, hex). Works even
    /// when recording is disabled — responses always carry an ID.
    pub fn mint_id(&self) -> String {
        let seq = self.id_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{:08x}-{:08x}", self.id_prefix, seq as u32)
    }

    /// Start tracing a request on this thread. The returned guard must
    /// be [`finish`](TraceGuard::finish)ed with the response status;
    /// a guard dropped during a panic records status 0.
    pub fn begin(self: &Arc<Self>, id: String, path: &str) -> TraceGuard {
        if !self.enabled() {
            return TraceGuard {
                recorder: None,
                id,
                path: String::new(),
                started: None,
            };
        }
        ACTIVE.with(|active| {
            *active.borrow_mut() = Some(ActiveTrace {
                stage_ns: [0; Stage::COUNT],
                fingerprint: None,
            });
        });
        TraceGuard {
            recorder: Some(Arc::clone(self)),
            id,
            path: path.to_string(),
            started: Some(Instant::now()),
        }
    }

    /// Record time directly into a stage histogram, outside any trace —
    /// the serving cores use this for `Read`/`Write`, which happen
    /// before a trace exists / after it finished.
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        if self.enabled() {
            self.stages[stage.index()].record(ns);
        }
    }

    /// Snapshot of one stage's histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage.index()].snapshot()
    }

    /// Snapshot of the whole-request histogram.
    pub fn request_snapshot(&self) -> HistogramSnapshot {
        self.requests.snapshot()
    }

    /// The configured capture threshold, nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Captured slow requests at least `threshold_ns` slow, newest
    /// first.
    pub fn slow_entries(&self, threshold_ns: u64) -> Vec<SlowEntry> {
        let ring = self
            .slow
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        ring.iter()
            .rev()
            .filter(|e| e.total_ns >= threshold_ns)
            .cloned()
            .collect()
    }

    /// Add the stage and request histograms to `page`, with `labels`
    /// on every series — the coordinator uses this to mark its own
    /// series apart from merged replica series. Stages that recorded
    /// nothing are left out; the stage family keeps its `# TYPE` line.
    pub fn export(&self, page: &mut MetricsPage, labels: &[(&str, &str)]) {
        page.declare(METRIC_STAGE_SECONDS, Kind::Histogram);
        for stage in Stage::ALL {
            let snap = self.stage_snapshot(stage);
            if snap.count == 0 {
                continue;
            }
            let mut stage_labels = vec![("stage", stage.name())];
            stage_labels.extend_from_slice(labels);
            page.add_histogram(METRIC_STAGE_SECONDS, &stage_labels, &snap);
        }
        page.add_histogram(METRIC_REQUEST_SECONDS, labels, &self.request_snapshot());
    }

    fn finish_trace(&self, guard: &mut TraceGuard, status: u16) {
        let Some(started) = guard.started.take() else {
            return;
        };
        let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.requests.record(total_ns);
        let Some(trace) = ACTIVE.with(|active| active.borrow_mut().take()) else {
            return;
        };
        for (i, ns) in trace.stage_ns.iter().enumerate() {
            if *ns > 0 {
                self.stages[i].record(*ns);
            }
        }
        if total_ns >= self.slow_threshold_ns() {
            let entry = SlowEntry {
                id: std::mem::take(&mut guard.id),
                path: std::mem::take(&mut guard.path),
                status,
                total_ns,
                stage_ns: trace.stage_ns,
                fingerprint: trace.fingerprint,
            };
            let mut ring = self
                .slow
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if ring.len() >= self.slow_capacity {
                ring.pop_front();
            }
            ring.push_back(entry);
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .field("requests", &self.requests.count())
            .finish_non_exhaustive()
    }
}

/// Guard for one traced request (see [`Recorder::begin`]).
#[derive(Debug)]
pub struct TraceGuard {
    recorder: Option<Arc<Recorder>>,
    id: String,
    path: String,
    started: Option<Instant>,
}

impl TraceGuard {
    /// The request ID this trace runs under (minted or propagated).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Finish the trace with the response status: records the request
    /// and stage histograms and, past the threshold, a slow-log entry.
    pub fn finish(mut self, status: u16) {
        if let Some(recorder) = self.recorder.take() {
            recorder.finish_trace(&mut self, status);
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        // Not `finish`ed — the handler panicked out of the request.
        // Record what we know (status 0) and clear the thread-local so
        // the worker's next request starts clean.
        if let Some(recorder) = self.recorder.take() {
            recorder.finish_trace(self, 0);
        }
    }
}

/// Span guard: adds its lifetime's elapsed time to the active trace's
/// stage slot on drop (see [`span`]).
#[derive(Debug)]
pub struct SpanGuard {
    stage: Stage,
    started: Option<Instant>,
}

/// Time a stage of the request active on this thread. With no active
/// trace (recorder disabled, or code running outside a request) the
/// guard is inert and no clock is read.
pub fn span(stage: Stage) -> SpanGuard {
    let active = ACTIVE.with(|active| active.borrow().is_some());
    SpanGuard {
        stage,
        started: active.then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ACTIVE.with(|active| {
            if let Some(trace) = active.borrow_mut().as_mut() {
                trace.stage_ns[self.stage.index()] += ns;
            }
        });
    }
}

/// Attach a plan fingerprint to the active trace (first caller wins —
/// a batch request keeps its first item's fingerprint). The closure
/// only runs when a trace is active, so callers can defer hex
/// formatting.
pub fn note_fingerprint<F: FnOnce() -> String>(fingerprint: F) {
    ACTIVE.with(|active| {
        if let Some(trace) = active.borrow_mut().as_mut() {
            if trace.fingerprint.is_none() {
                trace.fingerprint = Some(fingerprint());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Series;
    use std::time::Duration;

    #[test]
    fn trace_records_stages_requests_and_slow_log() {
        let recorder = Arc::new(Recorder::new(RecorderConfig::default()));
        let trace = recorder.begin(recorder.mint_id(), "/narrate");
        {
            let _parse = span(Stage::Parse);
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _narrate = span(Stage::Narrate);
            std::thread::sleep(Duration::from_millis(1));
        }
        note_fingerprint(|| "deadbeef".to_string());
        note_fingerprint(|| unreachable!("first fingerprint wins"));
        trace.finish(200);

        assert_eq!(recorder.request_snapshot().count, 1);
        assert_eq!(recorder.stage_snapshot(Stage::Parse).count, 1);
        assert!(recorder.stage_snapshot(Stage::Parse).max >= 2_000_000);
        assert_eq!(recorder.stage_snapshot(Stage::Narrate).count, 1);
        assert_eq!(recorder.stage_snapshot(Stage::Read).count, 0);

        let slow = recorder.slow_entries(0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].path, "/narrate");
        assert_eq!(slow[0].status, 200);
        assert_eq!(slow[0].fingerprint.as_deref(), Some("deadbeef"));
        assert!(slow[0].stage_ns[Stage::Parse as usize] >= 2_000_000);
        assert!(slow[0].total_ns >= 3_000_000);
        // Threshold filtering.
        assert!(recorder.slow_entries(u64::MAX).is_empty());
    }

    #[test]
    fn disabled_recorder_mints_ids_but_records_nothing() {
        let recorder = Arc::new(Recorder::new(RecorderConfig {
            enabled: false,
            ..RecorderConfig::default()
        }));
        let id = recorder.mint_id();
        assert_eq!(id.len(), 17);
        let trace = recorder.begin(id.clone(), "/narrate");
        assert_eq!(trace.id(), id);
        {
            let _s = span(Stage::Narrate);
        }
        trace.finish(200);
        assert_eq!(recorder.request_snapshot().count, 0);
        assert!(recorder.slow_entries(0).is_empty());
    }

    #[test]
    fn span_outside_a_trace_is_inert() {
        let _s = span(Stage::Narrate);
        note_fingerprint(|| unreachable!("no active trace"));
    }

    #[test]
    fn slow_ring_is_bounded_and_newest_first() {
        let recorder = Arc::new(Recorder::new(RecorderConfig {
            slow_log_capacity: 2,
            ..RecorderConfig::default()
        }));
        for i in 0..4 {
            let trace = recorder.begin(format!("id-{i}"), "/p");
            trace.finish(200);
        }
        let slow = recorder.slow_entries(0);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].id, "id-3");
        assert_eq!(slow[1].id, "id-2");
    }

    #[test]
    fn dropped_guard_records_status_zero() {
        let recorder = Arc::new(Recorder::new(RecorderConfig::default()));
        let trace = recorder.begin("panic-id".to_string(), "/narrate");
        drop(trace);
        let slow = recorder.slow_entries(0);
        assert_eq!(slow[0].status, 0);
        assert_eq!(slow[0].id, "panic-id");
    }

    #[test]
    fn ids_are_unique_and_stable_width() {
        let recorder = Arc::new(Recorder::new(RecorderConfig::default()));
        let a = recorder.mint_id();
        let b = recorder.mint_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        assert_eq!(&a[..9], &b[..9], "same process prefix");
    }

    #[test]
    fn render_exposes_stage_and_request_histograms() {
        let recorder = Arc::new(Recorder::new(RecorderConfig::default()));
        recorder.record_stage(Stage::Read, 5_000);
        let trace = recorder.begin(recorder.mint_id(), "/narrate");
        trace.finish(200);
        let mut page = MetricsPage::new();
        recorder.export(&mut page, &[("node", "coordinator")]);
        page.add_series("lantern_", &[], [Series::counter("extra_total", 7)]);
        let text = page.render();
        assert!(text.contains("# TYPE lantern_stage_duration_seconds histogram"));
        assert!(text.contains("stage=\"read\""));
        assert!(text.contains("node=\"coordinator\""));
        assert!(text.contains("lantern_request_duration_seconds_count{node=\"coordinator\"} 1"));
        assert!(text.contains("lantern_extra_total 7"));
        // Empty stages are omitted.
        assert!(!text.contains("stage=\"diff\""));
    }
}
