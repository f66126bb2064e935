//! # lantern-serve
//!
//! A long-lived narration service over the unified
//! [`Translator`](lantern_core::Translator) API: the layer that turns
//! the reproduction from a library into the interactive system the
//! paper describes — students paste an `EXPLAIN` artifact at one end
//! and read prose back at the other.
//!
//! The server is **std-only**, consistent with the workspace's
//! offline-shim constraint: no async runtime, no HTTP crate, no serde.
//! One serving core runs every server — replicas and the cluster
//! coordinator alike: an event-driven readiness loop (raw `epoll` on
//! Linux, `poll` elsewhere) with HTTP/1.1 pipelining and
//! load-shedding, running any [`Handler`]. Serving is therefore
//! Unix-only; the router, HTTP codec, and client build everywhere.
//! Request envelopes are read, and error bodies written, by [`envelope`]
//! with the in-tree JSON pull reader (`lantern_text::json`), for the
//! router and the cluster coordinator alike; narration bodies use the
//! stable `Narration::to_json` wire format.
//!
//! ## Endpoints
//!
//! | Method | Path | Body | Response |
//! |---|---|---|---|
//! | `POST` | `/narrate` | one raw plan document (PG JSON or SQL Server XML, auto-detected) | narration object |
//! | `POST` | `/narrate/batch` | JSON array of plan-document strings | array of per-item narration objects / error objects |
//! | `POST` | `/narrate/diff` | `{"base": doc, "alt": doc}` (formats auto-detected per side) | diff object: change list, score, narration |
//! | `POST` | `/narrate/diff/batch` | `{"base": doc, "alts": [doc, ...]}` | array ranked by informativeness, each with `alt_index` |
//! | `GET` | `/healthz` | — | liveness + backend name |
//! | `GET` | `/stats` | — | request counters (cache counters under `"cache"` when caching is on) |
//! | `GET` | `/metrics` | — | Prometheus text exposition: per-stage + request latency histograms, server/cache counters |
//! | `GET` | `/debug/slow` | — | recent requests (`?threshold_ms=N` filter): IDs, statuses, per-stage timings |
//! | `POST` | `/cache/clear` | — | drop all cached narrations (only routed when caching is on) |
//!
//! The diff endpoints are routed only when the router was built with a
//! diff backend ([`Router::with_catalog`]); without one they 404 like
//! any unknown path. All narrate endpoints accept a
//! `?style=numbered|bulleted|paragraph`
//! query parameter, plus `?nocache=1` to bypass the narration cache for
//! one request. Failures map to HTTP statuses through
//! [`LanternError::http_status`](lantern_core::LanternError::http_status)
//! and carry a structured `{"error": {...}}` body. Every response
//! carries an `x-lantern-request-id` header — echoed if the caller
//! supplied one, minted otherwise (`docs/OBSERVABILITY.md` covers the
//! tracing surface, which is always on). `docs/SERVING.md` in the
//! repository root is the full endpoint reference.
//!
//! ## Quick start
//!
//! ```
//! use lantern_core::RuleTranslator;
//! use lantern_pool::default_pg_store;
//! use lantern_serve::{serve, HttpClient, Router, ServeConfig, ServeStats};
//! use std::net::TcpListener;
//! use std::sync::Arc;
//!
//! // A router over a translator, with no cache, diff, or catalog
//! // surface; `serve` runs it on an ephemeral port.
//! let translator = RuleTranslator::new(default_pg_store());
//! let router = Router::with_catalog(translator, Arc::new(ServeStats::new()), None, None, None);
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let handle = serve(Arc::new(router), listener, ServeConfig::default()).unwrap();
//!
//! let mut client = HttpClient::connect(handle.addr()).unwrap();
//! let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
//! let resp = client.post("/narrate", doc).unwrap();
//! assert_eq!(resp.status, 200);
//! assert!(resp.body.contains("sequential scan on orders"));
//!
//! drop(client);
//! handle.shutdown().unwrap();
//! ```
//!
//! The root crate wires this into the builder
//! (`LanternBuilder::serve(addr)`) and ships a `lantern-serve` binary;
//! `cargo run --example serve_demo` is a scripted end-to-end tour.

pub mod catalog;
pub mod client;
pub mod envelope;
#[cfg(unix)]
pub(crate) mod event;
pub mod http;
pub mod router;
pub mod server;

pub use catalog::{CatalogApplied, CatalogApplyError, CatalogControl};
pub use client::{ClientConfig, ClientError, ClientErrorKind, ClientResponse, HttpClient};
pub use http::{Request, Response};
pub use lantern_cache::{CacheControl, CacheStatsSnapshot};
pub use router::Router;
#[cfg(unix)]
pub use server::{serve, ServerHandle};
pub use server::{Handler, ServeConfig, ServeStats};
