//! The [`CachedTranslator`] decorator: a plan-fingerprint narration
//! cache in front of any [`Translator`].
//!
//! * **Keying** — requests are keyed by the canonical plan fingerprint
//!   ([`crate::fingerprint`]) combined with the backend name, the
//!   per-request style override, a caller-supplied *generation* (e.g.
//!   the POEM catalog version, so POOL mutations invalidate naturally),
//!   and the strict flag. Serialized documents take an exact-text fast
//!   path: a byte-identical re-submission maps to its canonical
//!   fingerprint without re-parsing.
//! * **Storage** — completed narrations live in a sharded, lock-striped
//!   LRU ([`crate::lru`]) as `Arc<Narration>` plus the rendered text,
//!   bounded by entry count and approximate bytes.
//! * **Single-flight** — concurrent misses on the same key coalesce:
//!   one leader narrates, followers block on a condvar and share the
//!   result (errors included), so a thundering herd of identical
//!   submissions costs one backend call.
//!
//! A batch takes this same path item by item (the trait's default
//! [`Translator::narrate_batch`]), so a plan repeated inside a batch is
//! an ordinary hit, or a coalesced miss, on its second occurrence.
//!
//! Failed narrations are *not* cached: an error is returned to every
//! coalesced waiter of that flight, but the next request retries the
//! backend (a transient failure must not poison the cache).

use crate::fingerprint::{
    fingerprint_document, fingerprint_tree, Fingerprint, FingerprintOptions, Hasher128,
};
use crate::lru::{LruStats, ShardedLru};
use lantern_core::{
    LanternError, Narration, NarrationRequest, NarrationResponse, PlanSource, RenderStyle,
    Translator,
};
use lantern_obs::Series;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Tunables for the narration cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident narrations (across all shards).
    pub max_entries: usize,
    /// Maximum approximate resident bytes (across all shards).
    pub max_bytes: u64,
    /// Lock stripes; rounded up to a power of two.
    pub shards: usize,
    /// Fingerprint in strict mode (cardinality/cost estimates are
    /// significant). See [`FingerprintOptions`].
    pub strict: bool,
}

impl Default for CacheConfig {
    /// 4096 narrations / 32 MiB / 16 shards, lax fingerprints — sized
    /// for a classroom-scale service on one host.
    fn default() -> Self {
        CacheConfig {
            max_entries: 4096,
            max_bytes: 32 * 1024 * 1024,
            shards: 16,
            strict: false,
        }
    }
}

/// One cached narration: the structured steps plus the text as rendered
/// for the keyed style. Cloning is two `Arc` bumps.
#[derive(Clone)]
struct CachedEntry {
    narration: Arc<Narration>,
    text: Arc<str>,
}

impl CachedEntry {
    fn of(resp: &NarrationResponse) -> (Self, u64) {
        let entry = CachedEntry {
            narration: Arc::new(resp.narration.clone()),
            text: Arc::from(resp.text.as_str()),
        };
        let steps: u64 = resp
            .narration
            .steps()
            .iter()
            .map(|s| (s.text.len() + s.tagged.len() + 96) as u64)
            .sum();
        // Approximate resident weight: rendered text + step payloads +
        // fixed overhead for the Arcs, map slot, and recency links.
        (entry, resp.text.len() as u64 + steps + 128)
    }
}

/// A narration in flight: the leader publishes into `done` and wakes
/// the condvar; followers wait and clone the outcome.
struct InFlight {
    done: Mutex<Option<Result<CachedEntry, LanternError>>>,
    cv: Condvar,
}

/// The shared cache state behind a [`CachedTranslator`]; also the
/// handle admin surfaces (stats, clear) operate on.
pub struct NarrationCache {
    config: CacheConfig,
    /// fingerprint-key → narration.
    lru: ShardedLru<CachedEntry>,
    /// exact-document digest → canonical tree fingerprint (L1: skips
    /// re-parsing byte-identical submissions).
    doc_index: ShardedLru<Fingerprint>,
    /// fingerprint-key → in-flight computation.
    inflight: Mutex<HashMap<u128, Arc<InFlight>>>,
    doc_hits: AtomicU64,
    coalesced: AtomicU64,
    uncacheable: AtomicU64,
    clears: AtomicU64,
}

impl NarrationCache {
    /// A fresh, empty cache.
    pub fn new(config: CacheConfig) -> Self {
        NarrationCache {
            lru: ShardedLru::new(config.shards, config.max_entries, config.max_bytes),
            // The document index holds 16-byte fingerprints; give it
            // more entries than the narration LRU so L1 keys for live
            // narrations are rarely the eviction victim.
            doc_index: ShardedLru::new(
                config.shards,
                config.max_entries.saturating_mul(4),
                u64::MAX,
            ),
            inflight: Mutex::new(HashMap::new()),
            doc_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
            clears: AtomicU64::new(0),
            config,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Drop every cached narration and document-index entry; returns
    /// the number of narrations dropped. In-flight computations finish
    /// and insert their (fresh) results afterwards.
    pub fn clear(&self) -> u64 {
        let dropped = self.lru.clear();
        self.doc_index.clear();
        self.clears.fetch_add(1, Ordering::Relaxed);
        dropped
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStatsSnapshot {
        let lru: LruStats = self.lru.stats();
        CacheStatsSnapshot {
            entries: lru.entries,
            bytes: lru.bytes,
            max_entries: self.config.max_entries as u64,
            max_bytes: self.config.max_bytes,
            shards: self.lru.shard_count() as u64,
            hits: lru.hits,
            misses: lru.misses,
            insertions: lru.insertions,
            evictions: lru.evictions,
            doc_hits: self.doc_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            clears: self.clears.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for NarrationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NarrationCache")
            .field("config", &self.config)
            .field("entries", &self.lru.len())
            .finish_non_exhaustive()
    }
}

/// Plain-data counter snapshot of a [`NarrationCache`] — the `cache`
/// object of the service's `GET /stats` body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Narrations currently resident.
    pub entries: u64,
    /// Approximate resident bytes.
    pub bytes: u64,
    /// Configured entry budget.
    pub max_entries: u64,
    /// Configured byte budget.
    pub max_bytes: u64,
    /// Lock stripes.
    pub shards: u64,
    /// Narration-LRU hits.
    pub hits: u64,
    /// Narration-LRU misses.
    pub misses: u64,
    /// Narrations inserted.
    pub insertions: u64,
    /// Narrations evicted by the entry/byte budgets.
    pub evictions: u64,
    /// Exact-document (L1) index hits: re-submissions that skipped
    /// parsing entirely.
    pub doc_hits: u64,
    /// Misses coalesced onto another thread's in-flight narration.
    pub coalesced: u64,
    /// Requests that could not be keyed (e.g. unparseable documents).
    pub uncacheable: u64,
    /// Times the cache was cleared.
    pub clears: u64,
}

impl CacheStatsSnapshot {
    /// The counter table — the `cache` object of `GET /stats` and the
    /// `lantern_cache_*` families of `GET /metrics`. Sizes and budgets
    /// are gauges; the rest only ever grow.
    pub fn series(&self) -> [Series; 13] {
        [
            Series::gauge("entries", self.entries),
            Series::gauge("bytes", self.bytes),
            Series::gauge("max_entries", self.max_entries),
            Series::gauge("max_bytes", self.max_bytes),
            Series::gauge("shards", self.shards),
            Series::counter("hits", self.hits),
            Series::counter("misses", self.misses),
            Series::counter("insertions", self.insertions),
            Series::counter("evictions", self.evictions),
            Series::counter("doc_hits", self.doc_hits),
            Series::counter("coalesced", self.coalesced),
            Series::counter("uncacheable", self.uncacheable),
            Series::counter("clears", self.clears),
        ]
    }
}

/// Admin surface of a cache-fronted translator, object-safe so serving
/// layers can hold it type-erased next to the [`Translator`] itself:
/// bypassing the cache for one request (`?nocache=1`), reading the
/// counters, and clearing.
pub trait CacheControl {
    /// Narrate without consulting or filling the cache.
    fn narrate_uncached(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError>;

    /// Counter snapshot.
    fn cache_stats(&self) -> CacheStatsSnapshot;

    /// Drop all cached narrations; returns how many were resident.
    fn clear_cache(&self) -> u64;
}

/// A [`Translator`] decorator that answers repeated plans from the
/// [`NarrationCache`]. Transparent: `backend()` and every response are
/// byte-identical to the inner translator's (regression-tested), only
/// faster on repeats.
pub struct CachedTranslator<T> {
    inner: T,
    cache: Arc<NarrationCache>,
    /// Configuration epoch folded into every key; bump it (e.g. the
    /// POEM catalog version) and every cached narration goes stale at
    /// once without an explicit flush.
    generation: Arc<dyn Fn() -> u64 + Send + Sync>,
}

impl<T: Translator> CachedTranslator<T> {
    /// Wrap `inner` with a fresh cache. The generation is constant
    /// until [`CachedTranslator::with_generation`] wires a real source.
    pub fn new(inner: T, config: CacheConfig) -> Self {
        CachedTranslator {
            inner,
            cache: Arc::new(NarrationCache::new(config)),
            generation: Arc::new(|| 0),
        }
    }

    /// Key every narration by `generation()`'s current value — wire the
    /// POEM store's catalog version here so POOL mutations invalidate
    /// the cache implicitly.
    pub fn with_generation(mut self, generation: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        self.generation = Arc::new(generation);
        self
    }

    /// The shared cache state (stats, clear).
    pub fn cache(&self) -> &Arc<NarrationCache> {
        &self.cache
    }

    /// The wrapped translator.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn fingerprint_opts(&self) -> FingerprintOptions {
        FingerprintOptions {
            strict: self.cache.config.strict,
        }
    }

    /// Canonical tree fingerprint of the request's plan, through the
    /// exact-document L1 index when the source is serialized. When the
    /// index misses and the document had to be parsed, the parsed tree
    /// rides back so a cache miss can hand it to the backend instead of
    /// parsing a second time. `None` when the document cannot be keyed
    /// (it will not parse; the inner backend owns producing the
    /// structured error).
    fn tree_fingerprint(
        &self,
        req: &NarrationRequest,
    ) -> Option<(Fingerprint, Option<Box<lantern_plan::PlanTree>>)> {
        let opts = self.fingerprint_opts();
        let (format_tag, doc) = match &req.source {
            PlanSource::Tree(tree) => return Some((fingerprint_tree(tree, opts), None)),
            PlanSource::PgJson(doc) => (0u8, doc),
            PlanSource::SqlServerXml(doc) => (1u8, doc),
        };
        let doc_key = fingerprint_document(format_tag, doc);
        if let Some(fp) = self.cache.doc_index.get(doc_key) {
            self.cache.doc_hits.fetch_add(1, Ordering::Relaxed);
            return Some((fp, None));
        }
        let tree = req.source.resolve().ok()?;
        let fp = fingerprint_tree(&tree, opts);
        // ~16 payload bytes per index entry; weight is nominal.
        self.cache.doc_index.insert(doc_key, fp, 16);
        Some((fp, Some(Box::new(tree))))
    }

    /// The full cache key — tree fingerprint ⊕ backend ⊕ style override
    /// ⊕ generation — plus the parsed tree when keying had to parse.
    /// A `None` key marks the request uncacheable.
    fn request_key(
        &self,
        req: &NarrationRequest,
    ) -> (Option<Fingerprint>, Option<Box<lantern_plan::PlanTree>>) {
        let (tree_fp, parsed) = match self.tree_fingerprint(req) {
            Some(keyed) => keyed,
            None => {
                self.cache.uncacheable.fetch_add(1, Ordering::Relaxed);
                return (None, None);
            }
        };
        let mut h = Hasher128::new("lantern/req-key/v1");
        h.write(&tree_fp.0.to_le_bytes());
        h.write_str(self.inner.backend());
        match req.style {
            None => h.write_u8(0),
            Some(style) => {
                h.write_u8(1);
                h.write_u8(match style {
                    RenderStyle::Numbered => 0,
                    RenderStyle::Paragraph => 1,
                    RenderStyle::Bulleted => 2,
                });
            }
        }
        h.write_u64((self.generation)());
        (Some(h.finish()), parsed)
    }

    /// The request a cache miss forwards to the backend: when keying
    /// already parsed the document, the backend gets the parsed tree
    /// (narration is source-agnostic past parsing) so a miss costs one
    /// parse, not two.
    fn miss_request(
        req: &NarrationRequest,
        parsed: Option<Box<lantern_plan::PlanTree>>,
    ) -> Option<NarrationRequest> {
        parsed.map(|tree| NarrationRequest {
            source: PlanSource::Tree(tree),
            style: req.style,
        })
    }

    /// Rebuild a response from a cached entry. The key covers backend,
    /// plan, style, and generation, so the reconstruction is
    /// byte-identical to what the inner translator returned when the
    /// entry was filled.
    fn response_of(&self, entry: &CachedEntry) -> NarrationResponse {
        NarrationResponse {
            backend: self.inner.backend().to_string(),
            narration: (*entry.narration).clone(),
            text: entry.text.to_string(),
        }
    }

    fn store(&self, key: Fingerprint, resp: &NarrationResponse) -> CachedEntry {
        let (entry, bytes) = CachedEntry::of(resp);
        self.cache.lru.insert(key, entry.clone(), bytes);
        entry
    }

    /// Miss path with single-flight coalescing: become the leader (and
    /// narrate), or wait for the leader's outcome.
    fn narrate_miss(
        &self,
        key: Fingerprint,
        req: &NarrationRequest,
    ) -> Result<NarrationResponse, LanternError> {
        let flight = {
            let mut inflight = self
                .cache
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match inflight.get(&key.0) {
                Some(flight) => {
                    let flight = Arc::clone(flight);
                    drop(inflight);
                    // Follower: block until the leader publishes.
                    self.cache.coalesced.fetch_add(1, Ordering::Relaxed);
                    let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
                    while done.is_none() {
                        done = flight.cv.wait(done).unwrap_or_else(|e| e.into_inner());
                    }
                    let outcome = done.clone().expect("loop exits only when published");
                    return outcome.map(|entry| self.response_of(&entry));
                }
                None => {
                    let flight = Arc::new(InFlight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    inflight.insert(key.0, Arc::clone(&flight));
                    flight
                }
            }
        };
        // Leader: narrate, publish (even on panic — followers must not
        // hang), cache successes.
        let guard = FlightGuard {
            cache: &self.cache,
            key,
            flight: &flight,
            published: false,
        };
        // Re-probe before computing: another leader may have filled the
        // entry between this thread's (counted) miss and winning the
        // flight; serving the resident narration avoids a duplicate
        // backend call (~ms on the neural backend).
        if let Some(entry) = self.cache.lru.probe(key) {
            let response = self.response_of(&entry);
            guard.publish(Ok(entry));
            return Ok(response);
        }
        let result = self.inner.narrate(req);
        let outcome = match &result {
            Ok(resp) => Ok(self.store(key, resp)),
            Err(e) => Err(e.clone()),
        };
        guard.publish(outcome);
        result
    }
}

/// Publishes the leader's outcome exactly once; if the leader panics
/// before publishing, `Drop` publishes a structured error so coalesced
/// followers wake instead of hanging.
struct FlightGuard<'a> {
    cache: &'a NarrationCache,
    key: Fingerprint,
    flight: &'a InFlight,
    published: bool,
}

impl FlightGuard<'_> {
    fn publish(mut self, outcome: Result<CachedEntry, LanternError>) {
        self.publish_inner(outcome);
        self.published = true;
    }

    fn publish_inner(&self, outcome: Result<CachedEntry, LanternError>) {
        // Cache insert happened before this call; removing the flight
        // after publishing means late arrivals either hit the LRU or
        // start a fresh flight — never wait on a dead one.
        *self.flight.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.flight.cv.notify_all();
        self.cache
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key.0);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish_inner(Err(LanternError::Backend {
                backend: "cache".to_string(),
                message: "narration leader panicked before completing".to_string(),
            }));
        }
    }
}

impl<T: Translator> Translator for CachedTranslator<T> {
    fn backend(&self) -> &str {
        self.inner.backend()
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        let (key, parsed) = {
            let _fp = lantern_obs::span(lantern_obs::Stage::Fingerprint);
            self.request_key(req)
        };
        let Some(key) = key else {
            return self.inner.narrate(req);
        };
        // Ties the plan's cache key to the request id in the slow log
        // (no-op unless a trace is active on this thread).
        lantern_obs::note_fingerprint(|| format!("{:032x}", key.0));
        let hit = {
            let _lookup = lantern_obs::span(lantern_obs::Stage::CacheLookup);
            self.cache.lru.get(key)
        };
        if let Some(entry) = hit {
            return Ok(self.response_of(&entry));
        }
        let rewritten = Self::miss_request(req, parsed);
        self.narrate_miss(key, rewritten.as_ref().unwrap_or(req))
    }
}

impl<T: Translator> CacheControl for CachedTranslator<T> {
    fn narrate_uncached(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        self.inner.narrate(req)
    }

    fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    fn clear_cache(&self) -> u64 {
        self.cache.clear()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CachedTranslator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedTranslator")
            .field("inner", &self.inner)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_core::RuleTranslator;
    use lantern_pool::{default_mssql_store, default_pg_store};
    use std::sync::atomic::AtomicUsize;

    const PG_DOC: &str = r#"[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}]"#;
    const PG_DOC_REORDERED: &str =
        r#"  [ { "Plan" : { "Relation Name": "orders", "Node Type": "Seq Scan" } } ] "#;
    const XML_DOC: &str = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple>
        <QueryPlan><RelOp PhysicalOp="Table Scan"><Object Table="photoobj"/></RelOp></QueryPlan>
        </StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;

    /// A translator that counts how many narrations actually reach it.
    struct Counting<T> {
        inner: T,
        calls: AtomicUsize,
    }

    impl<T> Counting<T> {
        fn new(inner: T) -> Self {
            Counting {
                inner,
                calls: AtomicUsize::new(0),
            }
        }
        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    impl<T: Translator> Translator for Counting<T> {
        fn backend(&self) -> &str {
            self.inner.backend()
        }
        fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.narrate(req)
        }
    }

    fn cached_rule() -> (
        &'static Counting<RuleTranslator>,
        CachedTranslator<&'static Counting<RuleTranslator>>,
    ) {
        let counting: &'static Counting<RuleTranslator> = Box::leak(Box::new(Counting::new(
            RuleTranslator::new(default_mssql_store()),
        )));
        (
            counting,
            CachedTranslator::new(counting, CacheConfig::default()),
        )
    }

    #[test]
    fn hit_is_byte_identical_and_skips_the_backend() {
        let (counting, cached) = cached_rule();
        let req = NarrationRequest::auto(PG_DOC).unwrap();
        let cold = cached.narrate(&req).unwrap();
        let warm = cached.narrate(&req).unwrap();
        assert_eq!(counting.calls(), 1, "second call must be a hit");
        assert_eq!(cold, warm);
        let stats = cached.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.doc_hits, 1, "exact re-submission skips parsing");
    }

    #[test]
    fn reordered_document_hits_the_same_entry() {
        let (counting, cached) = cached_rule();
        let a = cached
            .narrate(&NarrationRequest::auto(PG_DOC).unwrap())
            .unwrap();
        let b = cached
            .narrate(&NarrationRequest::auto(PG_DOC_REORDERED).unwrap())
            .unwrap();
        assert_eq!(counting.calls(), 1);
        assert_eq!(a, b);
        // Different bytes: the L1 document index missed, the canonical
        // fingerprint hit.
        assert_eq!(cached.cache_stats().doc_hits, 0);
        assert_eq!(cached.cache_stats().hits, 1);
    }

    #[test]
    fn style_override_is_part_of_the_key() {
        let (counting, cached) = cached_rule();
        let plain = cached
            .narrate(&NarrationRequest::auto(PG_DOC).unwrap())
            .unwrap();
        let bulleted = cached
            .narrate(
                &NarrationRequest::auto(PG_DOC)
                    .unwrap()
                    .with_style(RenderStyle::Bulleted),
            )
            .unwrap();
        assert_eq!(counting.calls(), 2, "styles must not share entries");
        assert!(plain.text.starts_with("1. "));
        assert!(bulleted.text.starts_with("- "));
    }

    #[test]
    fn generation_bump_invalidates() {
        let counting: &'static Counting<RuleTranslator> = Box::leak(Box::new(Counting::new(
            RuleTranslator::new(default_mssql_store()),
        )));
        let generation = Arc::new(AtomicU64::new(0));
        let generation_handle = Arc::clone(&generation);
        let cached = CachedTranslator::new(counting, CacheConfig::default())
            .with_generation(move || generation_handle.load(Ordering::SeqCst));
        let req = NarrationRequest::auto(PG_DOC).unwrap();
        cached.narrate(&req).unwrap();
        cached.narrate(&req).unwrap();
        assert_eq!(counting.calls(), 1);
        generation.fetch_add(1, Ordering::SeqCst);
        cached.narrate(&req).unwrap();
        assert_eq!(counting.calls(), 2, "new generation misses");
    }

    #[test]
    fn errors_are_returned_but_not_cached() {
        // pg-only store: the mssql plan fails with UnknownOperator.
        let counting: &'static Counting<RuleTranslator> = Box::leak(Box::new(Counting::new(
            RuleTranslator::new(default_pg_store()),
        )));
        let cached = CachedTranslator::new(counting, CacheConfig::default());
        let req = NarrationRequest::auto(XML_DOC).unwrap();
        assert!(matches!(
            cached.narrate(&req),
            Err(LanternError::UnknownOperator { .. })
        ));
        assert!(matches!(
            cached.narrate(&req),
            Err(LanternError::UnknownOperator { .. })
        ));
        assert_eq!(counting.calls(), 2, "errors must not be cached");
        assert_eq!(cached.cache_stats().entries, 0);
    }

    #[test]
    fn unparseable_documents_fall_through_uncached() {
        let (counting, cached) = cached_rule();
        let req = NarrationRequest::pg_json("{ definitely not json");
        assert!(matches!(
            cached.narrate(&req),
            Err(LanternError::Parse { .. })
        ));
        assert_eq!(counting.calls(), 1);
        assert_eq!(cached.cache_stats().uncacheable, 1);
    }

    #[test]
    fn batch_dedup_narrates_unique_plans_once() {
        let (counting, cached) = cached_rule();
        // 8 requests, 2 unique plans (75% duplicates). Each item takes
        // the single-request path: the first occurrence of a plan
        // narrates, every later one is an ordinary hit.
        let reqs: Vec<NarrationRequest> = (0..8)
            .map(|i| {
                if i % 4 == 0 {
                    NarrationRequest::auto(XML_DOC).unwrap()
                } else {
                    NarrationRequest::auto(PG_DOC).unwrap()
                }
            })
            .collect();
        let out = cached.narrate_batch(&reqs);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(counting.calls(), 2, "only the unique plans narrate");
        let stats = cached.cache_stats();
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.doc_hits, 6, "repeated documents skip parsing");
        // Stitching preserved positions.
        assert!(out[0].as_ref().unwrap().text.contains("photoobj"));
        assert!(out[1].as_ref().unwrap().text.contains("orders"));
        // A warm batch is all hits.
        let out = cached.narrate_batch(&reqs);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(counting.calls(), 2);
        assert_eq!(cached.cache_stats().hits, 14);
    }

    #[test]
    fn batch_mixes_hits_errors_and_uncacheable() {
        let (counting, cached) = cached_rule();
        cached
            .narrate(&NarrationRequest::auto(PG_DOC).unwrap())
            .unwrap();
        let reqs = vec![
            NarrationRequest::auto(PG_DOC).unwrap(), // warm hit
            NarrationRequest::pg_json("not json"),   // uncacheable error
            NarrationRequest::auto(PG_DOC).unwrap(), // warm hit
        ];
        let out = cached.narrate_batch(&reqs);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(LanternError::Parse { .. })));
        assert!(out[2].is_ok());
        assert_eq!(counting.calls(), 2, "one cold narrate + one failing");
    }

    #[test]
    fn clear_empties_and_counts() {
        let (_, cached) = cached_rule();
        cached
            .narrate(&NarrationRequest::auto(PG_DOC).unwrap())
            .unwrap();
        assert_eq!(cached.clear_cache(), 1);
        let stats = cached.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.clears, 1);
    }

    #[test]
    fn nocache_path_skips_the_cache_entirely() {
        let (counting, cached) = cached_rule();
        let req = NarrationRequest::auto(PG_DOC).unwrap();
        cached.narrate_uncached(&req).unwrap();
        cached.narrate_uncached(&req).unwrap();
        assert_eq!(counting.calls(), 2);
        assert_eq!(cached.cache_stats().entries, 0);
    }
}
