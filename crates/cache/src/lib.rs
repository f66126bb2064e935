//! # lantern-cache
//!
//! A plan-fingerprint narration cache for the LANTERN service stack.
//!
//! The paper's target workload is database education: many students
//! submit the *same or near-identical* queries, so an uncached service
//! re-narrates the same QEP thousands of times. This crate puts a
//! correct, concurrent answer cache in front of every backend:
//!
//! * [`fingerprint`] — canonicalization + a stable 128-bit digest over
//!   the parsed plan tree, invariant to JSON key order, whitespace, and
//!   cost-estimate jitter (opt-in strict mode includes cardinalities);
//! * [`lru`] — a sharded, lock-striped LRU bounded by entry count *and*
//!   approximate bytes, with atomic hit/miss/eviction/byte counters;
//! * [`cached`] — the [`CachedTranslator`] decorator: single-flight
//!   coalescing of concurrent identical misses (a batch takes the same
//!   path item by item), and the [`CacheControl`] admin surface
//!   (`?nocache=1` bypass, stats, clear) the serving layer exposes.
//!
//! ## Quick start
//!
//! ```
//! use lantern_cache::{CacheConfig, CachedTranslator};
//! use lantern_core::{NarrationRequest, RuleTranslator, Translator};
//! use lantern_pool::default_pg_store;
//!
//! let store = default_pg_store();
//! let generation_store = store.clone();
//! let cached = CachedTranslator::new(RuleTranslator::new(store), CacheConfig::default())
//!     .with_generation(move || generation_store.version());
//!
//! let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
//! let req = NarrationRequest::auto(doc).unwrap();
//! let cold = cached.narrate(&req).unwrap(); // narrates
//! let warm = cached.narrate(&req).unwrap(); // cache hit, byte-identical
//! assert_eq!(cold, warm);
//! assert_eq!(cached.cache().stats().hits, 1);
//! ```
//!
//! The root crate wires this through `LanternBuilder::cache`, and
//! `lantern-serve` exposes the admin surface over HTTP (`?nocache=1`,
//! `POST /cache/clear`, cache counters inside `GET /stats`).

pub mod cached;
pub mod fingerprint;
pub mod lru;

pub use cached::{CacheConfig, CacheControl, CacheStatsSnapshot, CachedTranslator, NarrationCache};
pub use fingerprint::{
    fingerprint_document, fingerprint_subtree, fingerprint_tree, Fingerprint, FingerprintOptions,
    Hasher128,
};
pub use lru::{LruStats, ShardedLru};
