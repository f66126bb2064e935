//! # lantern-obs
//!
//! The observability substrate for the serving stack: lock-free
//! log-bucketed latency histograms, counter tables and a
//! [`MetricsPage`] that writes (and merges) Prometheus text exposition,
//! a [`Recorder`]/stage-span API that turns every request into a
//! per-stage timing vector, request-ID minting, and a bounded
//! slow-request ring buffer.
//!
//! Like the rest of the workspace the crate is **std-only** — no atomics
//! beyond `std::sync::atomic`, no clocks beyond `std::time::Instant` —
//! so it can sit below every other crate in the DAG (`lantern-cache`
//! emits fingerprint/cache-lookup spans without knowing anything about
//! the server that aggregates them).
//!
//! ## The pieces
//!
//! * [`AtomicHistogram`] — 64 power-of-√2 buckets of `AtomicU64` over
//!   nanoseconds; record is wait-free, snapshots are mergeable
//!   bucket-wise, percentile queries are exact to bucket resolution
//!   (≤ √2 relative error) with an exact max.
//! * [`Series`] + [`MetricsPage`] — a component keeps its counters as
//!   plain atomics and lists them once in a table of [`Series`] rows
//!   (name, counter/gauge, value); `GET /stats` and `GET /metrics` are
//!   both rendered from that table. The page takes those rows and
//!   histogram snapshots, folds in whole scraped pages (the cluster
//!   coordinator merges its replicas bucket-wise), and renders
//!   Prometheus text; [`parse_exposition`] reads the format back.
//! * [`Recorder`] + [`Stage`] — per-request tracing: the server calls
//!   [`Recorder::begin`] at ingress, lower layers drop [`span`] guards
//!   around the work they do, and [`TraceGuard::finish`] folds the
//!   stage vector into the histograms and the slow log. When no trace
//!   is active on the thread a span is one thread-local load and a
//!   branch — no clock read.

mod hist;
mod registry;
mod trace;

pub use hist::{bucket_index, AtomicHistogram, HistogramSnapshot, BOUNDS, BUCKETS};
pub use registry::{
    parse_exposition, snapshot_from_samples, Exposition, Kind, MetricsPage, Sample, Series,
};
pub use trace::{
    note_fingerprint, span, Recorder, RecorderConfig, SlowEntry, SpanGuard, Stage, TraceGuard,
    METRIC_REQUEST_SECONDS, METRIC_STAGE_SECONDS,
};
