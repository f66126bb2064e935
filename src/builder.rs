//! [`LanternBuilder`]: one configuration surface for the whole
//! translation service — backend choice (rule / neural / NEURON
//! baseline), POEM store, paraphrase layer, rendering style — producing
//! a [`LanternService`] that serves the unified
//! [`lantern_core::Translator`] API.
//!
//! ```
//! use lantern::builder::LanternBuilder;
//! use lantern_core::{NarrationRequest, Translator};
//!
//! let service = LanternBuilder::new().build().unwrap();
//! let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
//! let response = service.narrate(&NarrationRequest::auto(doc).unwrap()).unwrap();
//! assert_eq!(
//!     response.text,
//!     "1. perform sequential scan on orders to get the final results."
//! );
//! ```

use lantern_cache::{CacheConfig, CacheControl, CacheStatsSnapshot, CachedTranslator};
use lantern_core::{
    DiffResponse, DiffTranslator, LanternError, NarrationRequest, NarrationResponse, PlanSource,
    RenderStyle, RuleTranslator, Translator,
};
use lantern_diff::RuleDiffTranslator;
use lantern_neural::NeuralLantern;
use lantern_neuron::Neuron;
use lantern_paraphrase::ParaphrasedTranslator;
use lantern_plan::PlanTree;
use lantern_pool::{default_mssql_store, PoemStore};
use lantern_serve::{CatalogApplied, CatalogApplyError, CatalogControl};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
#[cfg(unix)]
use {
    lantern_serve::{Router, ServeConfig, ServeStats, ServerHandle},
    std::net::ToSocketAddrs,
};

/// Which translation backend a [`LanternService`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// RULE-LANTERN: POOL-driven rule translation (the default).
    #[default]
    Rule,
    /// NEURAL-LANTERN: the trained QEP2Seq model (requires
    /// [`LanternBuilder::neural_model`]).
    Neural,
    /// The NEURON baseline: hard-coded PostgreSQL rules, no POEM store.
    Neuron,
}

/// Builder for a [`LanternService`].
///
/// Defaults: rule backend, the combined `pg` + `mssql` operator
/// catalog, paraphrasing off, numbered-document rendering.
#[derive(Default)]
pub struct LanternBuilder {
    backend: Backend,
    store: Option<PoemStore>,
    neural: Option<NeuralLantern>,
    paraphrase: bool,
    style: RenderStyle,
    cache: Option<CacheConfig>,
}

impl LanternBuilder {
    /// Start from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Use this POEM store instead of the default combined catalog.
    /// (Ignored by the NEURON baseline, which has no store — that is
    /// its defining limitation.)
    pub fn store(mut self, store: PoemStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Provide a trained NEURAL-LANTERN and select the neural backend.
    pub fn neural_model(mut self, model: NeuralLantern) -> Self {
        self.neural = Some(model);
        self.backend = Backend::Neural;
        self
    }

    /// Toggle the paraphrase output layer (off by default).
    pub fn paraphrase(mut self, on: bool) -> Self {
        self.paraphrase = on;
        self
    }

    /// Default rendering style for responses (requests may override
    /// per-call).
    pub fn style(mut self, style: RenderStyle) -> Self {
        self.style = style;
        self
    }

    /// Put a plan-fingerprint narration cache (`lantern-cache`) in
    /// front of the selected backend: repeated plans — the classroom
    /// pattern — are answered from a sharded LRU keyed by a canonical
    /// fingerprint (invariant to JSON key order, whitespace, and
    /// cost-estimate jitter), with single-flight coalescing of
    /// concurrent identical misses. The cache is keyed by the POEM
    /// catalog generation, so POOL mutations invalidate it implicitly.
    /// Only narrations are cached; plan diffs are computed afresh.
    /// Off by default; a cache-less service answers byte-identically to
    /// a cached one.
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Assemble the service.
    ///
    /// Fails with [`LanternError::Config`] when the neural backend is
    /// selected without a model.
    pub fn build(self) -> Result<LanternService, LanternError> {
        let store = self.store.unwrap_or_else(default_mssql_store);
        // Backends that accept a default style render the configured
        // one natively; `needs_restyle` marks the style-less ones
        // (neuron, neural), whose responses the service re-renders.
        let mut needs_restyle = false;
        let inner: Box<dyn Translator + Send + Sync> = match self.backend {
            Backend::Rule => Box::new(RuleTranslator::new(store.clone()).with_style(self.style)),
            Backend::Neuron => {
                needs_restyle = true;
                Box::new(Neuron::new())
            }
            Backend::Neural => {
                needs_restyle = true;
                Box::new(self.neural.ok_or_else(|| {
                    LanternError::Config {
                        message: "neural backend selected but no model was provided \
                          (call LanternBuilder::neural_model)"
                            .to_string(),
                    }
                })?)
            }
        };
        let translator: Box<dyn Translator + Send + Sync> = if self.paraphrase {
            // The paraphrase layer re-renders anyway; give it the
            // configured style and drop the service-level re-render.
            needs_restyle = false;
            Box::new(ParaphrasedTranslator::new(inner).with_style(self.style))
        } else {
            inner
        };
        // The cache decorates the *complete* chain (backend [+
        // paraphrase]) so a hit skips every layer below it; keys fold
        // in the store's catalog generation so POOL mutations
        // invalidate implicitly.
        let translator = match self.cache {
            Some(config) => {
                let generation_store = store.clone();
                ServiceCore::Cached(Arc::new(
                    CachedTranslator::new(translator, config)
                        .with_generation(move || generation_store.version()),
                ))
            }
            None => ServiceCore::Plain(translator),
        };
        Ok(LanternService {
            translator,
            diff: RuleDiffTranslator::new(store.clone()).with_style(self.style),
            store,
            style: self.style,
            needs_restyle,
            catalog_seq: AtomicU64::new(0),
            catalog_lock: Mutex::new(()),
        })
    }

    /// Assemble the service and boot an HTTP narration server on
    /// `addr` with the default [`ServeConfig`] — the one-call path from
    /// a builder to a live endpoint:
    ///
    /// ```
    /// use lantern::builder::LanternBuilder;
    /// use lantern::serve::HttpClient;
    ///
    /// let handle = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    /// let mut client = HttpClient::connect(handle.addr()).unwrap();
    /// let resp = client
    ///     .post("/narrate", r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#)
    ///     .unwrap();
    /// assert_eq!(resp.status, 200);
    /// assert!(resp.body.contains("sequential scan on orders"));
    /// drop(client);
    /// handle.shutdown().unwrap();
    /// ```
    ///
    /// Bind failures surface as [`LanternError::Config`]; use
    /// [`LanternService::serve`] to pass a custom [`ServeConfig`] or
    /// keep the `std::io::Error`.
    #[cfg(unix)]
    pub fn serve(self, addr: impl ToSocketAddrs) -> Result<ServerHandle, LanternError> {
        let service = self.build()?;
        service
            .serve(addr, ServeConfig::default())
            .map_err(|e| LanternError::Config {
                message: format!("failed to start narration server: {e}"),
            })
    }
}

/// The assembled translator chain: bare, or fronted by the narration
/// cache (kept concrete — not type-erased — so the service can still
/// reach the cache's admin surface).
enum ServiceCore {
    Plain(Box<dyn Translator + Send + Sync>),
    Cached(Arc<CachedTranslator<Box<dyn Translator + Send + Sync>>>),
}

impl ServiceCore {
    fn translator(&self) -> &(dyn Translator + Send + Sync) {
        match self {
            ServiceCore::Plain(t) => t,
            ServiceCore::Cached(c) => c.as_ref(),
        }
    }
}

/// A configured translation service: the product of
/// [`LanternBuilder::build`], serving the unified [`Translator`] API
/// over whichever backend was selected.
pub struct LanternService {
    translator: ServiceCore,
    /// The plan-diff backend, always present: compare-and-narrate is a
    /// capability of every service, whichever narration backend runs.
    diff: RuleDiffTranslator,
    store: PoemStore,
    style: RenderStyle,
    /// True when the inner backend cannot be configured with a style
    /// (it renders its own numbered default) and the service must
    /// re-render responses into the configured style.
    needs_restyle: bool,
    /// Highest cluster-broadcast sequence number applied to `store`
    /// (see [`CatalogControl`]); `0` until a coordinator first pushes.
    catalog_seq: AtomicU64,
    /// Serializes [`CatalogControl::catalog_apply`] calls so statement
    /// order (and therefore the resulting store version) is identical
    /// on every replica even under concurrent broadcast + replay.
    catalog_lock: Mutex<()>,
}

impl std::fmt::Debug for LanternService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LanternService")
            .field("backend", &self.translator.translator().backend())
            .field("style", &self.style)
            .field("cached", &self.has_cache())
            .finish_non_exhaustive()
    }
}

impl LanternService {
    /// The POEM store handle the service was built with (e.g. to run
    /// POOL statements against a live service).
    pub fn store(&self) -> &PoemStore {
        &self.store
    }

    /// The configured default rendering style.
    pub fn style(&self) -> RenderStyle {
        self.style
    }

    /// Whether the service was built with a narration cache
    /// ([`LanternBuilder::cache`]).
    pub fn has_cache(&self) -> bool {
        matches!(self.translator, ServiceCore::Cached(_))
    }

    /// Narration-cache counter snapshot; `None` without a cache.
    pub fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        match &self.translator {
            ServiceCore::Cached(c) => Some(c.cache().stats()),
            ServiceCore::Plain(_) => None,
        }
    }

    /// Convenience: diff two serialized plan documents (formats
    /// auto-detected independently, errors as [`PlanSource::parse_pair`]
    /// reports them) and narrate the comparison in the configured style.
    pub fn diff_documents(&self, base: &str, alt: &str) -> Result<DiffResponse, LanternError> {
        let (base, alt) = PlanSource::parse_pair(base, alt)?;
        Ok(self.narrate_trees(&base, &alt, None))
    }

    /// Convenience: narrate a serialized plan document, auto-detecting
    /// the vendor format.
    pub fn narrate_document(&self, doc: &str) -> Result<NarrationResponse, LanternError> {
        self.narrate(&NarrationRequest::auto(doc)?)
    }

    /// Boot an HTTP narration server over this service on `addr`
    /// (consuming it — the server's worker pool owns the service from
    /// here on). The router serves the full surface: narration, diffs,
    /// the catalog admin surface a cluster coordinator replicates
    /// through, and — when the service carries a narration cache —
    /// `?nocache=1`, `POST /cache/clear`, and cache counters in
    /// `GET /stats`. See [`lantern_serve::serve`] for the serving core.
    #[cfg(unix)]
    pub fn serve(
        self,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        self.serve_on_listener(std::net::TcpListener::bind(addr)?, config)
    }

    /// [`LanternService::serve`] over a listener the caller already
    /// bound. A restarted replica can bind its old port again with
    /// [`std::net::TcpListener::bind`] while prior connections sit in
    /// `TIME_WAIT`: std sets `SO_REUSEADDR` on Unix.
    #[cfg(unix)]
    pub fn serve_on_listener(
        self,
        listener: std::net::TcpListener,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        let has_cache = self.has_cache();
        let service = Arc::new(self);
        let cache: Option<Arc<dyn CacheControl + Send + Sync>> = if has_cache {
            Some(Arc::clone(&service) as _)
        } else {
            None
        };
        let diff: Arc<dyn DiffTranslator + Send + Sync> = Arc::clone(&service) as _;
        let catalog: Arc<dyn CatalogControl + Send + Sync> = Arc::clone(&service) as _;
        let stats = Arc::new(ServeStats::new());
        let router = Router::with_catalog(service, stats, cache, Some(diff), Some(catalog))
            .with_obs(config.recorder());
        lantern_serve::serve(Arc::new(router), listener, config)
    }

    /// Apply the service's configured style to a response from a
    /// style-less backend when the request didn't override it —
    /// requests are never cloned on the way in, and style-aware
    /// backends already rendered the configured style natively.
    fn restyle(&self, req: &NarrationRequest, resp: &mut NarrationResponse) {
        if self.needs_restyle && req.style.is_none() && self.style != RenderStyle::default() {
            resp.text = resp.narration.render(self.style);
        }
    }
}

impl Translator for LanternService {
    fn backend(&self) -> &str {
        self.translator.translator().backend()
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        let mut resp = self.translator.translator().narrate(req)?;
        self.restyle(req, &mut resp);
        Ok(resp)
    }
}

/// The cache admin surface, restyle-aware: `?nocache=1` responses must
/// be byte-identical to cached ones, so the bypass path applies the
/// same service-level re-rendering the normal path does. On a
/// cache-less service the bypass degrades to the normal path and the
/// counters are all zero.
impl CacheControl for LanternService {
    fn narrate_uncached(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        let mut resp = match &self.translator {
            ServiceCore::Cached(c) => c.narrate_uncached(req)?,
            ServiceCore::Plain(t) => t.narrate(req)?,
        };
        self.restyle(req, &mut resp);
        Ok(resp)
    }

    fn cache_stats(&self) -> CacheStatsSnapshot {
        LanternService::cache_stats(self).unwrap_or_default()
    }

    fn clear_cache(&self) -> u64 {
        match &self.translator {
            ServiceCore::Cached(c) => c.clear_cache(),
            ServiceCore::Plain(_) => 0,
        }
    }
}

/// The diff surface: compare a base plan against an alternative and
/// narrate the difference through the service's rule diff backend.
impl DiffTranslator for LanternService {
    fn diff_backend(&self) -> &str {
        self.diff.diff_backend()
    }

    fn narrate_trees(
        &self,
        base: &PlanTree,
        alt: &PlanTree,
        style: Option<RenderStyle>,
    ) -> DiffResponse {
        self.diff.narrate_trees(base, alt, style)
    }
}

/// The cluster catalog surface: ordered, idempotent application of
/// POOL statements broadcast by a coordinator. Execution against the
/// POEM store is deterministic, so every replica that applies the same
/// statement log from the same base store lands on the same
/// [`PoemStore::version`] — including replicas that restarted and
/// caught up through a replay. Version bumps implicitly roll the
/// narration-cache keys over (they fold the generation in), so a
/// broadcast mutation cold-misses exactly once per plan per replica.
impl CatalogControl for LanternService {
    fn catalog_version(&self) -> u64 {
        self.store.version()
    }

    fn catalog_seq(&self) -> u64 {
        self.catalog_seq.load(Ordering::SeqCst)
    }

    fn catalog_apply(
        &self,
        from_seq: u64,
        statements: &[String],
    ) -> Result<CatalogApplied, CatalogApplyError> {
        let _guard = self
            .catalog_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut seq = self.catalog_seq.load(Ordering::SeqCst);
        if from_seq > seq + 1 {
            return Err(CatalogApplyError::SequenceGap {
                expected: seq + 1,
                got: from_seq,
            });
        }
        let mut applied = 0u64;
        let mut skipped = 0u64;
        let mut errors = Vec::new();
        for (offset, statement) in statements.iter().enumerate() {
            let statement_seq = from_seq + offset as u64;
            if statement_seq <= seq {
                skipped += 1;
                continue;
            }
            // A failing statement still consumes its sequence number:
            // execution is deterministic, so every replica fails it the
            // same way, and skipping it would wedge the log forever.
            if let Err(e) = lantern_pool::execute(statement, &self.store) {
                errors.push(format!("seq {statement_seq}: {e}"));
            }
            seq = statement_seq;
            applied += 1;
        }
        self.catalog_seq.store(seq, Ordering::SeqCst);
        Ok(CatalogApplied {
            applied,
            skipped,
            applied_seq: seq,
            version: self.store.version(),
            errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_pool::default_pg_store;

    const PG_DOC: &str = r#"[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}]"#;
    const XML_DOC: &str = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple>
        <QueryPlan><RelOp PhysicalOp="Table Scan"><Object Table="photoobj"/></RelOp></QueryPlan>
        </StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;

    #[test]
    fn default_service_narrates_both_vendors() {
        let service = LanternBuilder::new().build().unwrap();
        assert_eq!(service.backend(), "rule");
        let pg = service.narrate_document(PG_DOC).unwrap();
        assert!(pg.text.contains("sequential scan on orders"));
        // The default store carries the mssql catalog too.
        let ms = service.narrate_document(XML_DOC).unwrap();
        assert!(ms.text.contains("table scan on photoobj"));
    }

    #[test]
    fn neuron_backend_via_builder() {
        let service = LanternBuilder::new()
            .backend(Backend::Neuron)
            .build()
            .unwrap();
        assert_eq!(service.backend(), "neuron");
        let pg = service.narrate_document(PG_DOC).unwrap();
        assert!(pg.text.contains("perform sequential scan on orders"));
        // And the US 5 failure mode is structured.
        let err = service.narrate_document(XML_DOC).unwrap_err();
        assert!(matches!(err, LanternError::Backend { .. }));
    }

    #[test]
    fn neural_backend_without_model_is_a_config_error() {
        let err = LanternBuilder::new()
            .backend(Backend::Neural)
            .build()
            .unwrap_err();
        assert!(matches!(err, LanternError::Config { .. }));
    }

    #[test]
    fn builder_style_applies_and_request_overrides() {
        let service = LanternBuilder::new()
            .style(RenderStyle::Bulleted)
            .build()
            .unwrap();
        let resp = service.narrate_document(PG_DOC).unwrap();
        assert!(resp.text.starts_with("- "), "{}", resp.text);
        let numbered = service
            .narrate(
                &NarrationRequest::auto(PG_DOC)
                    .unwrap()
                    .with_style(RenderStyle::Numbered),
            )
            .unwrap();
        assert!(numbered.text.starts_with("1. "));
    }

    #[test]
    fn builder_style_applies_to_style_less_backends() {
        // Neuron renders its own numbered default; the service
        // re-renders into the configured style.
        let service = LanternBuilder::new()
            .backend(Backend::Neuron)
            .style(RenderStyle::Bulleted)
            .build()
            .unwrap();
        let resp = service.narrate_document(PG_DOC).unwrap();
        assert!(resp.text.starts_with("- "), "{}", resp.text);
    }

    #[test]
    fn paraphrase_layer_composes_with_rule_backend() {
        let plain = LanternBuilder::new().build().unwrap();
        let varied = LanternBuilder::new().paraphrase(true).build().unwrap();
        assert_eq!(varied.backend(), "rule+paraphrase");
        let doc = r#"[{"Plan": {"Node Type": "Hash Join",
            "Hash Cond": "((a.x) = (b.y))",
            "Plans": [
              {"Node Type": "Seq Scan", "Relation Name": "a"},
              {"Node Type": "Hash",
               "Plans": [{"Node Type": "Seq Scan", "Relation Name": "b"}]}
            ]}}]"#;
        let a = plain.narrate_document(doc).unwrap();
        let b = varied.narrate_document(doc).unwrap();
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn custom_store_is_honoured() {
        let service = LanternBuilder::new()
            .store(default_pg_store())
            .build()
            .unwrap();
        // pg-only store: the mssql plan now fails with a structured
        // unknown-operator error.
        let err = service.narrate_document(XML_DOC).unwrap_err();
        assert!(matches!(err, LanternError::UnknownOperator { .. }));
    }

    #[test]
    fn cached_service_is_byte_identical_to_plain() {
        // The acceptance bar for the cache layer: with the cache on,
        // cold responses, warm responses, and `nocache` responses are
        // all byte-identical to a cache-less service's — across
        // backends, styles, and both vendors.
        let docs = [PG_DOC, XML_DOC];
        for backend in [Backend::Rule, Backend::Neuron] {
            for style in [RenderStyle::Numbered, RenderStyle::Bulleted] {
                let plain = LanternBuilder::new()
                    .backend(backend)
                    .style(style)
                    .build()
                    .unwrap();
                let cached = LanternBuilder::new()
                    .backend(backend)
                    .style(style)
                    .cache(lantern_cache::CacheConfig::default())
                    .build()
                    .unwrap();
                for doc in docs {
                    let expected = plain.narrate_document(doc);
                    let cold = cached.narrate_document(doc);
                    let warm = cached.narrate_document(doc);
                    let bypass = NarrationRequest::auto(doc)
                        .ok()
                        .map(|r| CacheControl::narrate_uncached(&cached, &r));
                    match expected {
                        Ok(expected) => {
                            assert_eq!(cold.as_ref().unwrap(), &expected);
                            assert_eq!(warm.as_ref().unwrap(), &expected);
                            assert_eq!(bypass.unwrap().as_ref().unwrap(), &expected);
                        }
                        Err(expected) => {
                            assert_eq!(cold.unwrap_err(), expected);
                            assert_eq!(warm.unwrap_err(), expected);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cached_service_reports_hits_and_clears() {
        let service = LanternBuilder::new()
            .cache(lantern_cache::CacheConfig::default())
            .build()
            .unwrap();
        assert!(service.has_cache());
        service.narrate_document(PG_DOC).unwrap();
        service.narrate_document(PG_DOC).unwrap();
        let stats = service.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(CacheControl::clear_cache(&service), 1);
        assert_eq!(service.cache_stats().unwrap().entries, 0);
    }

    #[test]
    fn pool_mutation_invalidates_cached_narrations() {
        use lantern_pool::OperatorArity;
        let service = LanternBuilder::new()
            .cache(lantern_cache::CacheConfig::default())
            .build()
            .unwrap();
        let before = service.narrate_document(PG_DOC).unwrap();
        service.narrate_document(PG_DOC).unwrap(); // warm
        assert_eq!(service.cache_stats().unwrap().hits, 1);
        // A POOL mutation bumps the catalog generation: the next
        // narration misses (fresh key) instead of serving stale prose.
        service.store().create(
            "pg",
            "Seq Scan",
            None,
            OperatorArity::Unary,
            Some("re-read {rel} end to end"),
            &["re-read {rel} end to end"],
            false,
            None,
        );
        let after = service.narrate_document(PG_DOC).unwrap();
        let stats = service.cache_stats().unwrap();
        assert_eq!(stats.hits, 1, "generation change must miss");
        assert_eq!(stats.entries, 2, "old and new generations coexist");
        // (The default store already had a Seq Scan entry, so the
        // narration itself is unchanged — the point is the key.)
        assert_eq!(before.backend, after.backend);
    }

    #[test]
    fn plain_service_has_no_cache_surface() {
        let service = LanternBuilder::new().build().unwrap();
        assert!(!service.has_cache());
        assert!(service.cache_stats().is_none());
        assert_eq!(CacheControl::clear_cache(&service), 0);
        // The trait's bypass path still narrates.
        let resp =
            CacheControl::narrate_uncached(&service, &NarrationRequest::auto(PG_DOC).unwrap())
                .unwrap();
        assert!(resp.text.contains("sequential scan on orders"));
    }

    const PG_ALT: &str = r#"[{"Plan": {"Node Type": "Index Scan", "Relation Name": "orders", "Index Name": "orders_pkey"}}]"#;

    #[test]
    fn every_service_diffs_plans() {
        // The diff surface is always on, whichever narration backend.
        for backend in [Backend::Rule, Backend::Neuron] {
            let service = LanternBuilder::new().backend(backend).build().unwrap();
            assert_eq!(service.diff_backend(), "rule-diff");
            let resp = service.diff_documents(PG_DOC, PG_ALT).unwrap();
            assert!(!resp.is_identical());
            assert_eq!(resp.changes[0].kind, "operator-substitution");
            let same = service.diff_documents(PG_DOC, PG_DOC).unwrap();
            assert!(same.is_identical());
            assert_eq!(same.score, 0.0);
        }
    }

    #[test]
    fn diff_respects_configured_and_overridden_style() {
        let service = LanternBuilder::new()
            .style(RenderStyle::Bulleted)
            .build()
            .unwrap();
        let resp = service.diff_documents(PG_DOC, PG_ALT).unwrap();
        assert!(resp.text.starts_with("- "), "{}", resp.text);
        let base = PlanSource::parse_auto(PG_DOC).unwrap();
        let alt = PlanSource::parse_auto(PG_ALT).unwrap();
        let numbered = service.narrate_trees(&base, &alt, Some(RenderStyle::Numbered));
        assert!(numbered.text.starts_with("1. "), "{}", numbered.text);
    }

    #[test]
    fn cached_service_diffs_equal_plain_and_leave_the_cache_alone() {
        let plain = LanternBuilder::new().build().unwrap();
        let cached = LanternBuilder::new()
            .cache(lantern_cache::CacheConfig::default())
            .build()
            .unwrap();
        let expected = plain.diff_documents(PG_DOC, PG_ALT).unwrap();
        for _ in 0..2 {
            assert_eq!(cached.diff_documents(PG_DOC, PG_ALT).unwrap(), expected);
        }
        // Diffs are computed afresh: they neither read nor fill the
        // narration cache, and `/cache/clear` counts narrations only.
        let stats = cached.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        cached.narrate_document(PG_DOC).unwrap();
        assert_eq!(CacheControl::clear_cache(&cached), 1);
    }

    #[test]
    fn service_batches() {
        let service = LanternBuilder::new().build().unwrap();
        let reqs = vec![
            NarrationRequest::auto(PG_DOC).unwrap(),
            NarrationRequest::auto(XML_DOC).unwrap(),
        ];
        let out = service.narrate_batch(&reqs);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(Result::is_ok));
    }
}
