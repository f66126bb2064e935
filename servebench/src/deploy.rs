//! Standing the service up through its public API — `LanternBuilder` →
//! `LanternService::serve`, plus `serve_cluster` for the fleet — and
//! the in-process reference routers every answer is checked against.

use crate::conn::body_digest;
use crate::schedule::{ReqKind, Schedule};
use crate::spec::{Kind, Spec};
use lantern::builder::{LanternBuilder, LanternService};
use lantern::cache::{CacheConfig, Fingerprint};
use lantern::catalog::tpch_catalog;
use lantern::cluster::{serve_cluster, ClusterConfig, ClusterHandle};
use lantern::core::DiffTranslator;
use lantern::engine::Database;
use lantern::neural::{NeuralLantern, Qep2SeqConfig};
use lantern::pool::default_mssql_store;
use lantern::serve::{
    CacheControl, CatalogControl, Request, Router, ServeConfig, ServeStats, ServerHandle,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Workers per replica on `fleet-mixed`.
const FLEET_REPLICA_WORKERS: usize = 1;
/// Replicas behind the `fleet-mixed` coordinator.
const FLEET_REPLICAS: usize = 2;

/// Train NEURAL-LANTERN the way every serving process must today:
/// `Qep2SeqConfig::quick()` on 20 random TPC-H queries, fixed seeds,
/// over the combined pg + mssql catalog (the workloads mix formats).
pub fn train_model() -> NeuralLantern {
    let db = Database::generate(&tpch_catalog(), 0.0002, 42);
    let (model, _) =
        NeuralLantern::train_on(&db, &default_mssql_store(), 20, Qep2SeqConfig::quick(), 3);
    model
}

/// The cache each workload's replicas run: the binary's default, except
/// that `neural` holds 256 narrations so its 1536-plan pool always
/// misses (the default would take ~6 s of decoding to cycle past).
pub fn cache_config(kind: Kind) -> CacheConfig {
    match kind {
        Kind::Neural => CacheConfig {
            max_entries: 256,
            ..CacheConfig::default()
        },
        _ => CacheConfig::default(),
    }
}

fn service(kind: Kind, model: Option<NeuralLantern>) -> Result<LanternService, String> {
    let mut builder = LanternBuilder::new().cache(cache_config(kind));
    if let Some(model) = model {
        builder = builder.neural_model(model);
    }
    builder.build().map_err(|e| format!("build service: {e}"))
}

/// The live service(s) under test.
pub struct Deployment {
    pub replicas: Vec<ServerHandle>,
    pub coordinator: Option<ClusterHandle>,
}

impl Deployment {
    /// Build, bind and (for `fleet-mixed`) front with a coordinator.
    /// `model` is required for `neural`.
    pub fn start(spec: &Spec, model: Option<NeuralLantern>) -> Result<Deployment, String> {
        let bind = |svc: LanternService, workers: usize| {
            svc.serve(
                "127.0.0.1:0",
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("bind replica: {e}"))
        };
        match spec.kind {
            Kind::Fresh | Kind::Repeat | Kind::Neural => {
                let replica = bind(service(spec.kind, model)?, 0)?;
                Ok(Deployment {
                    replicas: vec![replica],
                    coordinator: None,
                })
            }
            Kind::Fleet => {
                let mut replicas = Vec::new();
                for _ in 0..FLEET_REPLICAS {
                    replicas.push(bind(service(spec.kind, None)?, FLEET_REPLICA_WORKERS)?);
                }
                let coordinator = front(&replicas)?;
                Ok(Deployment {
                    replicas,
                    coordinator: Some(coordinator),
                })
            }
        }
    }

    /// Where the load goes: the coordinator when there is one.
    pub fn entry(&self) -> SocketAddr {
        match &self.coordinator {
            Some(c) => c.addr(),
            None => self.replicas[0].addr(),
        }
    }

    pub fn replica_addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(ServerHandle::addr).collect()
    }

    /// Shut the coordinator down, then every replica, waiting for each.
    pub fn shutdown(self) -> Result<(), String> {
        if let Some(c) = self.coordinator {
            c.shutdown()
                .map_err(|e| format!("coordinator shutdown: {e}"))?;
        }
        for r in self.replicas {
            r.shutdown().map_err(|e| format!("replica shutdown: {e}"))?;
        }
        Ok(())
    }
}

/// A coordinator with the default `ClusterConfig` over `replicas`.
pub fn front(replicas: &[ServerHandle]) -> Result<ClusterHandle, String> {
    let config = ClusterConfig {
        replicas: replicas.iter().map(ServerHandle::addr).collect(),
        ..ClusterConfig::default()
    };
    serve_cluster(config, "127.0.0.1:0").map_err(|e| format!("bind coordinator: {e}"))
}

/// An in-process router over a service built exactly like a live
/// replica (same backend, catalog and cache configuration), driven
/// through `Router::handle` with no socket.
pub struct Reference {
    pub service: Arc<LanternService>,
    pub router: Router<Arc<LanternService>>,
    /// Catalog statements applied so far.
    applied: AtomicU64,
}

impl Reference {
    pub fn new(kind: Kind, model: Option<NeuralLantern>) -> Result<Reference, String> {
        let service = Arc::new(service(kind, model)?);
        let cache: Arc<dyn CacheControl + Send + Sync> = Arc::clone(&service) as _;
        let diff: Arc<dyn DiffTranslator + Send + Sync> = Arc::clone(&service) as _;
        let catalog: Arc<dyn CatalogControl + Send + Sync> = Arc::clone(&service) as _;
        let router = Router::with_catalog(
            Arc::clone(&service),
            Arc::new(ServeStats::new()),
            Some(cache),
            Some(diff),
            Some(catalog),
        );
        Ok(Reference {
            service,
            router,
            applied: AtomicU64::new(0),
        })
    }

    /// `POST path` with `body`; `uncached` adds `?nocache=1`, so the
    /// answer neither reads nor fills the cache.
    pub fn post(&self, path: &str, body: &str, uncached: bool) -> (u16, Vec<u8>) {
        let query = if uncached {
            vec![("nocache".to_string(), "1".to_string())]
        } else {
            Vec::new()
        };
        let response = self.router.handle(&Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        });
        (response.status, response.body)
    }

    /// Apply one POOL statement the way a coordinator broadcast does.
    pub fn apply(&self, statement: &str) -> Result<(), String> {
        let seq = self.applied.fetch_add(1, Ordering::Relaxed) + 1;
        self.service
            .catalog_apply(seq, &[statement.to_string()])
            .map_err(|e| format!("reference catalog apply: {e}"))
            .and_then(|applied| match applied.errors.first() {
                Some(e) => Err(format!("reference catalog apply: {e}")),
                None => Ok(()),
            })
    }
}

/// The expected body digest ([`body_digest`]) of every request in
/// `schedule`: an uncached in-process `Router::handle` answer at the
/// base catalog. Every batch answer is also checked to equal its items'
/// single-plan answers stitched together (batch ≡ sequential). Computed
/// on `threads` threads, one answer at a time, so no body outlives its
/// digest.
pub fn expectations(
    reference: &Reference,
    schedule: &Schedule,
    threads: usize,
) -> Result<Vec<Fingerprint>, String> {
    let answer = |path: &str, body: &str| -> Result<Vec<u8>, String> {
        let (status, answer) = reference.post(path, body, true);
        if status == 200 {
            Ok(answer)
        } else {
            Err(format!(
                "reference answered {status} to a generated {path} request: {}",
                String::from_utf8_lossy(&answer)
            ))
        }
    };
    parallel_map(&schedule.reqs, threads, |req| {
        let body = schedule.body(req);
        let expected = match &req.kind {
            ReqKind::Narrate { .. } | ReqKind::Diff { .. } => answer(req.path, body)?,
            ReqKind::Batch { docs } => {
                let mut sequential = b"[".to_vec();
                for (i, &d) in docs.iter().enumerate() {
                    if i > 0 {
                        sequential.push(b',');
                    }
                    sequential.extend_from_slice(&answer("/narrate", &schedule.docs[d as usize])?);
                }
                sequential.push(b']');
                if answer(req.path, body)? != sequential {
                    return Err("a batch answer differs from its items' single answers".into());
                }
                sequential
            }
            // Catalog acks carry sequence numbers and versions; their
            // shape is checked instead (`conn::catalog_ack_ok`).
            ReqKind::Write { .. } => Vec::new(),
        };
        Ok(body_digest(&expected))
    })
}

/// Map `f` over `items` on `threads` scoped threads, in order.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                scope.spawn(move || part.iter().map(f).collect::<Result<Vec<R>, String>>())
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(
                handle
                    .join()
                    .map_err(|_| "worker thread panicked".to_string())??,
            );
        }
        Ok(out)
    })
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
