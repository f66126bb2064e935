//! # lantern-bench
//!
//! Benchmark harnesses regenerating every table and figure of the
//! paper's evaluation (§7), plus criterion micro-benchmarks and the
//! ablation studies called out in DESIGN.md.
//!
//! Each `benches/<id>_*.rs` target prints the same rows/series the
//! paper reports and is runnable via `cargo bench`. Shared
//! infrastructure lives here: the 22 TPC-H-shaped workload queries, the
//! 71 SDSS-shaped workload queries, pipeline builders, and a tiny
//! fixed-width table printer.

pub mod pipelines;
pub mod report;
pub mod workloads;

pub use pipelines::{bench_scale, quick_config, studies, BenchContext};
pub use report::TableReport;
pub use workloads::{sdss_workload, tpch_workload};
