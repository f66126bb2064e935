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

pub use pipelines::{bench_scale, quick_config, studies, train_quick, BenchContext};
pub use report::TableReport;
pub use workloads::{sdss_workload, tpch_workload};

#[cfg(unix)]
pub use serving::serve_translator;

#[cfg(unix)]
mod serving {
    use lantern_cache::CacheControl;
    use lantern_core::Translator;
    use lantern_serve::{serve, Router, ServeConfig, ServeStats, ServerHandle};
    use std::net::TcpListener;
    use std::sync::Arc;

    /// Serve `translator` — with its cache admin surface when `cache`
    /// is given — on an ephemeral loopback port: the replica shape the
    /// serving benches drive.
    pub fn serve_translator<T: Translator + Send + Sync + 'static>(
        translator: T,
        cache: Option<Arc<dyn CacheControl + Send + Sync>>,
        config: ServeConfig,
    ) -> ServerHandle {
        let router =
            Router::with_catalog(translator, Arc::new(ServeStats::new()), cache, None, None)
                .with_obs(config.recorder());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        serve(Arc::new(router), listener, config).expect("serve")
    }
}
