//! The unified translator API: one request/response pipeline over
//! every LANTERN backend.
//!
//! The paper evaluates LANTERN as *one* system with interchangeable
//! instantiations — RULE-LANTERN, NEURAL-LANTERN — side by side with
//! the NEURON baseline. This module gives the reproduction the same
//! shape: a [`Translator`] trait every backend implements, fed by a
//! source-agnostic [`PlanSource`] (PostgreSQL JSON, SQL Server XML, or
//! an already-parsed tree, with format auto-detection), returning a
//! [`NarrationResponse`] and reporting failures through one structured
//! [`LanternError`].
//!
//! A batch ([`Translator::narrate_batch`]) is its requests narrated one
//! by one, each exactly as [`Translator::narrate`] narrates it alone.

use crate::narrate::{narrate_with_lookup, CoreError, Narration, RenderStyle};
use lantern_plan::{parse_pg_json_plan, parse_sqlserver_xml_plan, PlanTree};
use lantern_pool::PoemStore;
use std::fmt;

/// The plan serialization formats the pipeline understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanFormat {
    /// PostgreSQL `EXPLAIN (FORMAT JSON)` document.
    PgJson,
    /// SQL Server XML showplan.
    SqlServerXml,
}

impl PlanFormat {
    /// Parse a document of this format into a [`PlanTree`]. Parse
    /// failures become [`LanternError::Parse`].
    pub fn parse(self, doc: &str) -> Result<PlanTree, LanternError> {
        let parsed = match self {
            PlanFormat::PgJson => parse_pg_json_plan(doc).map_err(|e| e.to_string()),
            PlanFormat::SqlServerXml => parse_sqlserver_xml_plan(doc).map_err(|e| e.to_string()),
        };
        parsed.map_err(|message| LanternError::Parse {
            format: self,
            message,
        })
    }
}

impl fmt::Display for PlanFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanFormat::PgJson => write!(f, "PostgreSQL JSON"),
            PlanFormat::SqlServerXml => write!(f, "SQL Server XML"),
        }
    }
}

/// Structured error type of the unified pipeline. Every backend and
/// every pipeline stage (format detection, parsing, POEM lookup,
/// model inference) reports through this one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LanternError {
    /// The request carried an empty (or whitespace-only) document.
    EmptyInput,
    /// Format auto-detection could not classify the document.
    UnknownFormat {
        /// The first bytes of the offending document.
        snippet: String,
    },
    /// The document claimed (or was detected as) `format` but did not
    /// parse as a plan of that format.
    Parse {
        /// Format the document was parsed as.
        format: PlanFormat,
        /// Parser diagnostic.
        message: String,
    },
    /// The plan references an operator the POEM store has no entry for
    /// (the failure NEURON hits on SQL Server plans, paper US 5).
    UnknownOperator {
        /// Source system of the plan.
        source: String,
        /// Vendor operator name.
        op: String,
    },
    /// Structurally invalid plan (e.g. an auxiliary node without a
    /// child).
    Plan {
        /// Diagnostic message.
        message: String,
    },
    /// A backend-specific failure (e.g. the NEURON baseline has no
    /// hard-coded rule for an operator).
    Backend {
        /// Backend name as reported by [`Translator::backend`].
        backend: String,
        /// Backend diagnostic.
        message: String,
    },
    /// The pipeline was mis-configured (e.g. a backend was selected
    /// without the model it needs).
    Config {
        /// Diagnostic message.
        message: String,
    },
}

impl fmt::Display for LanternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LanternError::EmptyInput => write!(f, "empty plan document"),
            LanternError::UnknownFormat { snippet } => {
                write!(f, "unrecognized plan format (input starts {snippet:?})")
            }
            LanternError::Parse { format, message } => {
                write!(f, "invalid {format} plan: {message}")
            }
            LanternError::UnknownOperator { source, op } => {
                write!(f, "operator '{op}' has no POEM entry for source '{source}'")
            }
            LanternError::Plan { message } => write!(f, "plan error: {message}"),
            LanternError::Backend { backend, message } => {
                write!(f, "backend '{backend}' failed: {message}")
            }
            LanternError::Config { message } => write!(f, "configuration error: {message}"),
        }
    }
}

impl LanternError {
    /// Stable machine-readable error kind, used as the `error.kind`
    /// field of the service wire format (see `lantern-serve` and
    /// `docs/SERVING.md`). One value per variant; these strings are a
    /// compatibility surface — add new ones, never rename.
    pub fn kind(&self) -> &'static str {
        match self {
            LanternError::EmptyInput => "empty_input",
            LanternError::UnknownFormat { .. } => "unknown_format",
            LanternError::Parse { .. } => "parse",
            LanternError::UnknownOperator { .. } => "unknown_operator",
            LanternError::Plan { .. } => "plan",
            LanternError::Backend { .. } => "backend",
            LanternError::Config { .. } => "config",
        }
    }

    /// The HTTP status a narration service should answer with when this
    /// error terminates a request.
    ///
    /// The mapping follows the error's locus of blame:
    ///
    /// * the *document* is unusable (empty, unclassifiable, or does not
    ///   parse as its detected vendor format) → `400 Bad Request`;
    /// * the document is well-formed but the *plan* cannot be narrated
    ///   (structurally invalid tree, or an operator the POEM catalog
    ///   has no entry for — the paper's US 5 failure) →
    ///   `422 Unprocessable Content`;
    /// * the selected *backend* cannot handle an otherwise valid
    ///   request (e.g. NEURON has no hard-coded rule for a vendor) →
    ///   `501 Not Implemented`;
    /// * the *service* itself is mis-assembled → `500 Internal Server
    ///   Error`.
    pub fn http_status(&self) -> u16 {
        match self {
            LanternError::EmptyInput
            | LanternError::UnknownFormat { .. }
            | LanternError::Parse { .. } => 400,
            LanternError::UnknownOperator { .. } | LanternError::Plan { .. } => 422,
            LanternError::Backend { .. } => 501,
            LanternError::Config { .. } => 500,
        }
    }
}

impl std::error::Error for LanternError {}

impl From<CoreError> for LanternError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::UnknownOperator { source, op } => {
                LanternError::UnknownOperator { source, op }
            }
            CoreError::PlanError(message) => LanternError::Plan { message },
        }
    }
}

impl From<LanternError> for CoreError {
    /// Lossy back-conversion for callers that still speak the
    /// pre-unified `CoreError`.
    fn from(e: LanternError) -> Self {
        match e {
            LanternError::UnknownOperator { source, op } => {
                CoreError::UnknownOperator { source, op }
            }
            other => CoreError::PlanError(other.to_string()),
        }
    }
}

/// `doc` past its leading BOM / whitespace prefix.
fn skip_prefix(doc: &str) -> &str {
    doc.trim_start_matches(|c: char| c.is_whitespace() || c == '\u{feff}')
}

/// A source-agnostic plan input: the serialized vendor artifact, or an
/// already-parsed [`PlanTree`] (e.g. straight from the internal
/// planner).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanSource {
    /// A PostgreSQL `EXPLAIN (FORMAT JSON)` document.
    PgJson(String),
    /// A SQL Server XML showplan.
    SqlServerXml(String),
    /// An already-parsed plan tree (boxed: a tree is an order of
    /// magnitude larger than a document pointer).
    Tree(Box<PlanTree>),
}

impl PlanSource {
    /// Classify a serialized document by shape: JSON documents start
    /// with `{` or `[`, XML showplans with `<`. A UTF-8 BOM and leading
    /// whitespace/newlines — in any interleaving, as editors and shell
    /// pipelines produce them — are skipped before sniffing. Returns
    /// [`LanternError::EmptyInput`] / [`LanternError::UnknownFormat`]
    /// when no classification is possible.
    pub fn detect(doc: &str) -> Result<PlanFormat, LanternError> {
        let trimmed = skip_prefix(doc).trim_end();
        match trimmed.chars().next() {
            None => Err(LanternError::EmptyInput),
            Some('{') | Some('[') => Ok(PlanFormat::PgJson),
            Some('<') => Ok(PlanFormat::SqlServerXml),
            Some(_) => Err(LanternError::UnknownFormat {
                snippet: trimmed.chars().take(40).collect(),
            }),
        }
    }

    /// Build a source from a serialized document, auto-detecting the
    /// vendor format. Any leading BOM/whitespace prefix the detector
    /// skipped is stripped from the stored document too, so downstream
    /// parsers never see it.
    pub fn auto(doc: impl Into<String>) -> Result<PlanSource, LanternError> {
        let mut doc = doc.into();
        let format = Self::detect(&doc)?;
        let prefix = doc.len() - skip_prefix(&doc).len();
        if prefix > 0 {
            doc.drain(..prefix);
        }
        Ok(match format {
            PlanFormat::PgJson => PlanSource::PgJson(doc),
            PlanFormat::SqlServerXml => PlanSource::SqlServerXml(doc),
        })
    }

    /// Detect a serialized document's format and parse it in place:
    /// what `PlanSource::auto(doc)?.resolve()` answers, without copying
    /// the document into a source first.
    pub fn parse_auto(doc: &str) -> Result<PlanTree, LanternError> {
        Self::detect(doc)?.parse(skip_prefix(doc))
    }

    /// Detect and parse a diff's two documents in place, each once. An
    /// error names the first failing step: detect `base`, detect `alt`,
    /// parse `base`, parse `alt`.
    pub fn parse_pair(base: &str, alt: &str) -> Result<(PlanTree, PlanTree), LanternError> {
        let (base_format, alt_format) = (Self::detect(base)?, Self::detect(alt)?);
        let base = base_format.parse(skip_prefix(base))?;
        Ok((base, alt_format.parse(skip_prefix(alt))?))
    }

    /// Parse (or clone) into a [`PlanTree`].
    pub fn resolve(&self) -> Result<PlanTree, LanternError> {
        match self {
            PlanSource::PgJson(doc) => PlanFormat::PgJson.parse(doc),
            PlanSource::SqlServerXml(doc) => PlanFormat::SqlServerXml.parse(doc),
            PlanSource::Tree(tree) => Ok(tree.as_ref().clone()),
        }
    }
}

impl From<PlanTree> for PlanSource {
    fn from(tree: PlanTree) -> Self {
        PlanSource::Tree(Box::new(tree))
    }
}

impl From<&PlanTree> for PlanSource {
    fn from(tree: &PlanTree) -> Self {
        PlanSource::Tree(Box::new(tree.clone()))
    }
}

/// One narration request: a plan (from any source) plus per-request
/// rendering options.
#[derive(Debug, Clone, PartialEq)]
pub struct NarrationRequest {
    /// Where the plan comes from.
    pub source: PlanSource,
    /// Per-request rendering override; `None` uses the translator's
    /// configured default.
    pub style: Option<RenderStyle>,
}

impl NarrationRequest {
    /// Request narration of the given source.
    pub fn new(source: impl Into<PlanSource>) -> Self {
        NarrationRequest {
            source: source.into(),
            style: None,
        }
    }

    /// Request narration of a serialized document, auto-detecting the
    /// vendor format.
    pub fn auto(doc: impl Into<String>) -> Result<Self, LanternError> {
        Ok(Self::new(PlanSource::auto(doc)?))
    }

    /// Request narration of a PostgreSQL `EXPLAIN (FORMAT JSON)`
    /// document.
    pub fn pg_json(doc: impl Into<String>) -> Self {
        Self::new(PlanSource::PgJson(doc.into()))
    }

    /// Request narration of a SQL Server XML showplan.
    pub fn sqlserver_xml(doc: impl Into<String>) -> Self {
        Self::new(PlanSource::SqlServerXml(doc.into()))
    }

    /// Request narration of an already-parsed tree.
    pub fn from_tree(tree: impl Into<PlanSource>) -> Self {
        Self::new(tree)
    }

    /// Override the rendering style for this request only.
    pub fn with_style(mut self, style: RenderStyle) -> Self {
        self.style = Some(style);
        self
    }

    /// Resolve the request's plan into a tree.
    pub fn resolve_tree(&self) -> Result<PlanTree, LanternError> {
        self.source.resolve()
    }

    /// The style this request renders with, given a translator default.
    pub fn effective_style(&self, default: RenderStyle) -> RenderStyle {
        self.style.unwrap_or(default)
    }
}

/// A completed narration plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct NarrationResponse {
    /// Which backend produced the narration (`"rule"`, `"neural"`,
    /// `"neuron"`, …).
    pub backend: String,
    /// The structured narration (steps, tag abstraction, bindings).
    pub narration: Narration,
    /// The narration rendered in the effective style of the request.
    pub text: String,
}

impl NarrationResponse {
    /// Assemble a response, rendering `narration` in `style`.
    pub fn new(backend: impl Into<String>, narration: Narration, style: RenderStyle) -> Self {
        let text = narration.render(style);
        NarrationResponse {
            backend: backend.into(),
            narration,
            text,
        }
    }

    /// Re-render the contained narration in another style.
    pub fn render(&self, style: RenderStyle) -> String {
        self.narration.render(style)
    }
}

/// A QEP-to-natural-language translator: the one interface the rule,
/// neural, and NEURON-baseline backends all serve.
pub trait Translator {
    /// Stable backend identifier (`"rule"`, `"neural"`, `"neuron"`).
    fn backend(&self) -> &str;

    /// Narrate one request.
    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError>;

    /// Narrate a batch of requests, returning one result per request in
    /// order: each request narrated as [`Translator::narrate`] narrates
    /// it. Only a backend whose batch does real shared work (the neural
    /// decoder batching acts across plans) overrides this loop.
    fn narrate_batch(
        &self,
        reqs: &[NarrationRequest],
    ) -> Vec<Result<NarrationResponse, LanternError>> {
        reqs.iter().map(|r| self.narrate(r)).collect()
    }
}

impl<T: Translator + ?Sized> Translator for &T {
    fn backend(&self) -> &str {
        (**self).backend()
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        (**self).narrate(req)
    }
}

impl<T: Translator + ?Sized> Translator for std::sync::Arc<T> {
    fn backend(&self) -> &str {
        (**self).backend()
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        (**self).narrate(req)
    }
}

impl<T: Translator + ?Sized> Translator for Box<T> {
    fn backend(&self) -> &str {
        (**self).backend()
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        (**self).narrate(req)
    }
}

/// One classified edit between a base plan and an alternative, in wire
/// form: a stable `kind` slug, the anchor node's path, and a rendered
/// one-line `detail`. The structural edit model itself (typed variants,
/// matching, scoring) lives in the `lantern-diff` crate; this flattened
/// shape is what crosses the API and the HTTP boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffChange {
    /// Stable change-kind slug. Current values: `operator-substitution`,
    /// `join-input-swap`, `estimate-delta`, `predicate-change`,
    /// `subtree-insert`, `subtree-delete`. Like error kinds, new slugs
    /// may be added; existing ones are never renamed.
    pub kind: String,
    /// Dotted child-index path to the anchor node in the *base* tree
    /// (`"root"`, `"root.0.1"`; inserts anchor at the position the new
    /// subtree takes in the alternative).
    pub path: String,
    /// Operator name at the anchor node (base side where it exists).
    pub op: String,
    /// One human-readable sentence describing the change.
    pub detail: String,
    /// This edit's contribution to the diff's informativeness score.
    pub weight: f64,
}

/// A completed plan diff: the classified changes, an informativeness
/// score for ranking alternatives, and the narrated comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffResponse {
    /// Which backend narrated the diff (`"rule-diff"`, …).
    pub backend: String,
    /// Informativeness: structural-change magnitude weighted by the
    /// estimated-cost delta. `0.0` iff the plans are structurally
    /// identical. Higher means the alternative is more worth showing a
    /// student; estimate jitter scores far below a join-algorithm
    /// change.
    pub score: f64,
    /// The classified changes, in base-tree pre-order.
    pub changes: Vec<DiffChange>,
    /// The structured narration of the comparison.
    pub narration: Narration,
    /// The narration rendered in the effective style of the request.
    pub text: String,
}

impl DiffResponse {
    /// Whether the two plans were structurally identical (estimates
    /// included).
    pub fn is_identical(&self) -> bool {
        self.changes.is_empty()
    }
}

/// A plan-diff backend: compares two parsed plans and narrates the
/// differences. Object-safe so the serving layer can hold one behind
/// `Arc<dyn DiffTranslator>` next to the narration `Translator`. The
/// caller parses each document once ([`PlanSource::parse_auto`]), so a
/// base compared against many alternatives is parsed once, not once per
/// alternative.
pub trait DiffTranslator {
    /// Stable backend identifier (`"rule-diff"`, …).
    fn diff_backend(&self) -> &str;

    /// Diff and narrate one base/alternative pair; `style` overrides the
    /// backend's configured default for this call only.
    fn narrate_trees(
        &self,
        base: &PlanTree,
        alt: &PlanTree,
        style: Option<RenderStyle>,
    ) -> DiffResponse;
}

impl<T: DiffTranslator + ?Sized> DiffTranslator for std::sync::Arc<T> {
    fn diff_backend(&self) -> &str {
        (**self).diff_backend()
    }

    fn narrate_trees(
        &self,
        base: &PlanTree,
        alt: &PlanTree,
        style: Option<RenderStyle>,
    ) -> DiffResponse {
        (**self).narrate_trees(base, alt, style)
    }
}

/// Map `items` across scoped worker threads behind an atomic
/// work-stealing index: items are claimed one at a time rather than
/// pre-partitioned into fixed chunks, so skewed item costs (one deep
/// join tree vs a dozen scans, one long act vs many short ones) don't
/// straggle a single worker. Each worker builds private state once via
/// `init` (e.g. a decoder scratch arena). Results come back in item
/// order. Worker count adapts to the machine
/// (`available_parallelism`, capped by the item count); on a
/// single-core host this degrades to an in-thread loop with no spawn
/// overhead.
pub fn work_steal_map<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(&mut state, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("work-stealing worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item processed"))
        .collect()
}

/// The rule-based backend (RULE-LANTERN) behind the unified API.
///
/// Owns a handle to the POEM store. Every narration runs against an
/// immutable catalog snapshot (version-cached inside the store, so an
/// unchanged catalog is assembled once, not per call).
///
/// ```
/// use lantern_core::{NarrationRequest, RuleTranslator, Translator};
/// use lantern_pool::default_pg_store;
///
/// let rule = RuleTranslator::new(default_pg_store());
/// let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
/// let response = rule.narrate(&NarrationRequest::auto(doc).unwrap()).unwrap();
/// assert_eq!(
///     response.text,
///     "1. perform sequential scan on orders to get the final results."
/// );
/// ```
#[derive(Debug, Clone)]
pub struct RuleTranslator {
    store: PoemStore,
    style: RenderStyle,
}

impl RuleTranslator {
    /// A rule backend over the given store, rendering numbered
    /// documents by default.
    pub fn new(store: PoemStore) -> Self {
        RuleTranslator {
            store,
            style: RenderStyle::default(),
        }
    }

    /// Change the default rendering style.
    pub fn with_style(mut self, style: RenderStyle) -> Self {
        self.style = style;
        self
    }

    /// The underlying store handle (e.g. to run POOL statements).
    pub fn store(&self) -> &PoemStore {
        &self.store
    }
}

impl Translator for RuleTranslator {
    fn backend(&self) -> &str {
        "rule"
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        let snapshot = self.store.snapshot();
        // Borrow already-parsed trees instead of deep-cloning them
        // through `resolve`: a cache miss hands over the tree it parsed.
        let narration = match &req.source {
            PlanSource::Tree(tree) => narrate_with_lookup(tree, &snapshot)?,
            serialized => narrate_with_lookup(&serialized.resolve()?, &snapshot)?,
        };
        Ok(NarrationResponse::new(
            self.backend(),
            narration,
            req.effective_style(self.style),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_plan::PlanNode;
    use lantern_pool::{default_mssql_store, default_pg_store};

    const PG_DOC: &str = r#"[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}]"#;
    const XML_DOC: &str = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple>
        <QueryPlan><RelOp PhysicalOp="Table Scan"><Object Table="photoobj"/></RelOp></QueryPlan>
        </StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;

    #[test]
    fn auto_detects_json_and_xml() {
        assert!(matches!(
            PlanSource::auto(PG_DOC).unwrap(),
            PlanSource::PgJson(_)
        ));
        assert!(matches!(
            PlanSource::auto(XML_DOC).unwrap(),
            PlanSource::SqlServerXml(_)
        ));
        assert!(matches!(
            PlanSource::auto("  \n { \"Plan\": {} }").unwrap(),
            PlanSource::PgJson(_)
        ));
    }

    #[test]
    fn auto_skips_bom_and_leading_whitespace_in_any_order() {
        // BOM first, whitespace first, and interleaved: all must sniff
        // correctly AND parse (the stored document drops the prefix).
        for doc in [
            format!("\u{feff}{PG_DOC}"),
            format!("\n\u{feff}{PG_DOC}"),
            format!("\u{feff}\n\t \u{feff}{PG_DOC}"),
            format!("   \r\n{PG_DOC}"),
        ] {
            let source = PlanSource::auto(doc.as_str()).unwrap();
            assert!(matches!(source, PlanSource::PgJson(_)), "{doc:?}");
            let tree = source.resolve().expect("prefix must be stripped");
            assert_eq!(tree.root.op, "Seq Scan");
        }
        let xml = format!("\u{feff}  {XML_DOC}");
        assert!(matches!(
            PlanSource::auto(xml.as_str()).unwrap(),
            PlanSource::SqlServerXml(_)
        ));
        // A BOM-only document is still empty input.
        assert_eq!(
            PlanSource::auto("\u{feff} \n").unwrap_err(),
            LanternError::EmptyInput
        );
    }

    #[test]
    fn parse_auto_answers_what_auto_then_resolve_answers() {
        for doc in [
            PG_DOC.to_string(),
            format!("\u{feff}\n{PG_DOC}"),
            format!("  {XML_DOC}"),
            String::new(),
            "EXPLAIN SELECT 1".to_string(),
            r#"{"Plan": {"Node Type"#.to_string(),
            "<ShowPlanXML/>".to_string(),
        ] {
            assert_eq!(
                PlanSource::parse_auto(&doc),
                PlanSource::auto(doc.as_str()).and_then(|source| source.resolve()),
                "{doc:?}"
            );
        }
    }

    #[test]
    fn auto_rejects_empty_and_unknown() {
        assert_eq!(PlanSource::auto("").unwrap_err(), LanternError::EmptyInput);
        assert_eq!(
            PlanSource::auto("   \t\n").unwrap_err(),
            LanternError::EmptyInput
        );
        match PlanSource::auto("EXPLAIN SELECT * FROM t").unwrap_err() {
            LanternError::UnknownFormat { snippet } => {
                assert!(snippet.starts_with("EXPLAIN"), "{snippet}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_json_is_a_parse_error() {
        let req = NarrationRequest::auto(r#"[{"Plan": {"Node Type": "Seq"#).unwrap();
        match req.resolve_tree().unwrap_err() {
            LanternError::Parse { format, .. } => assert_eq!(format, PlanFormat::PgJson),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xml_without_relop_is_a_parse_error() {
        let req = NarrationRequest::auto("<ShowPlanXML><BatchSequence/></ShowPlanXML>").unwrap();
        match req.resolve_tree().unwrap_err() {
            LanternError::Parse { format, message } => {
                assert_eq!(format, PlanFormat::SqlServerXml);
                assert!(message.contains("RelOp"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rule_translator_narrates_all_source_kinds() {
        let rule = RuleTranslator::new(default_mssql_store());
        let from_json = rule
            .narrate(&NarrationRequest::auto(PG_DOC).unwrap())
            .unwrap();
        assert_eq!(from_json.backend, "rule");
        assert_eq!(
            from_json.text,
            "1. perform sequential scan on orders to get the final results."
        );
        let from_xml = rule
            .narrate(&NarrationRequest::auto(XML_DOC).unwrap())
            .unwrap();
        assert!(
            from_xml.text.contains("table scan on photoobj"),
            "{}",
            from_xml.text
        );
        let tree = PlanTree::new("pg", PlanNode::new("Seq Scan").on_relation("orders"));
        let from_tree = rule.narrate(&NarrationRequest::from_tree(&tree)).unwrap();
        assert_eq!(from_tree.narration, from_json.narration);
    }

    #[test]
    fn json_to_narration() {
        let rule = RuleTranslator::new(default_pg_store());
        let doc = r#"[{"Plan": {"Node Type": "Hash Join",
            "Hash Cond": "((a.x) = (b.y))",
            "Plans": [
              {"Node Type": "Seq Scan", "Relation Name": "a"},
              {"Node Type": "Hash",
               "Plans": [{"Node Type": "Seq Scan", "Relation Name": "b"}]}
            ]}}]"#;
        let n = rule.narrate(&NarrationRequest::auto(doc).unwrap()).unwrap();
        assert!(
            n.text.contains("hash b and perform hash join on a and b"),
            "{}",
            n.text
        );
    }

    #[test]
    fn xml_to_narration_requires_mssql_store() {
        let doc = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple><QueryPlan>
            <RelOp PhysicalOp="Table Scan" EstimateRows="10" EstimatedTotalSubtreeCost="1">
              <Object Table="photoobj"/>
            </RelOp>
        </QueryPlan></StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;
        let req = NarrationRequest::auto(doc).unwrap();
        // pg-only store: fails (operator names differ across sources).
        let pg_only = RuleTranslator::new(default_pg_store());
        assert!(matches!(
            pg_only.narrate(&req),
            Err(LanternError::UnknownOperator { .. })
        ));
        // Store with the mssql catalog: succeeds.
        let both = RuleTranslator::new(default_mssql_store());
        let n = both.narrate(&req).unwrap();
        assert!(n.text.contains("perform table scan on photoobj"));
    }

    #[test]
    fn unknown_operator_is_structured() {
        let rule = RuleTranslator::new(default_pg_store());
        let err = rule
            .narrate(&NarrationRequest::auto(XML_DOC).unwrap())
            .unwrap_err();
        assert_eq!(
            err,
            LanternError::UnknownOperator {
                source: "mssql".into(),
                op: "Table Scan".into(),
            }
        );
    }

    #[test]
    fn per_request_style_overrides_default() {
        let rule = RuleTranslator::new(default_pg_store());
        let req = NarrationRequest::auto(PG_DOC)
            .unwrap()
            .with_style(RenderStyle::Bulleted);
        let resp = rule.narrate(&req).unwrap();
        assert!(resp.text.starts_with("- perform sequential scan"));
        assert!(resp.render(RenderStyle::Numbered).starts_with("1. "));
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let rule = RuleTranslator::new(default_pg_store());
        let reqs: Vec<NarrationRequest> = (0..8)
            .map(|i| {
                let tree = PlanTree::new(
                    "pg",
                    PlanNode::new("Sort")
                        .with_child(PlanNode::new("Seq Scan").on_relation(format!("t{i}"))),
                );
                NarrationRequest::from_tree(tree)
            })
            .collect();
        let sequential: Vec<_> = reqs.iter().map(|r| rule.narrate(r)).collect();
        let batched = rule.narrate_batch(&reqs);
        assert_eq!(batched.len(), sequential.len());
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.as_ref().unwrap().narration, s.as_ref().unwrap().narration);
        }
        // Order preserved: each narration mentions its own relation.
        for (i, b) in batched.iter().enumerate() {
            assert!(b.as_ref().unwrap().text.contains(&format!("t{i}")));
        }
    }

    #[test]
    fn batch_reports_per_request_errors() {
        let rule = RuleTranslator::new(default_pg_store());
        let reqs = vec![
            NarrationRequest::pg_json(PG_DOC),
            NarrationRequest::pg_json("not json"),
            NarrationRequest::pg_json(PG_DOC),
        ];
        let out = rule.narrate_batch(&reqs);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(LanternError::Parse { .. })));
        assert!(out[2].is_ok());
    }

    #[test]
    fn error_kinds_and_statuses_are_stable() {
        // Every variant has a distinct kind string; the service wire
        // format (lantern-serve, docs/SERVING.md) depends on these
        // exact values, so this test is the rename tripwire.
        let variants = [
            (LanternError::EmptyInput, "empty_input", 400),
            (
                LanternError::UnknownFormat {
                    snippet: "x".into(),
                },
                "unknown_format",
                400,
            ),
            (
                LanternError::Parse {
                    format: PlanFormat::PgJson,
                    message: "m".into(),
                },
                "parse",
                400,
            ),
            (
                LanternError::UnknownOperator {
                    source: "pg".into(),
                    op: "X".into(),
                },
                "unknown_operator",
                422,
            ),
            (
                LanternError::Plan {
                    message: "m".into(),
                },
                "plan",
                422,
            ),
            (
                LanternError::Backend {
                    backend: "neuron".into(),
                    message: "m".into(),
                },
                "backend",
                501,
            ),
            (
                LanternError::Config {
                    message: "m".into(),
                },
                "config",
                500,
            ),
        ];
        let mut kinds: Vec<&str> = variants.iter().map(|(e, ..)| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), variants.len(), "kinds must be distinct");
        for (err, kind, status) in &variants {
            assert_eq!(err.kind(), *kind);
            assert_eq!(err.http_status(), *status);
        }
    }

    #[test]
    fn error_displays_are_informative() {
        let e = LanternError::Backend {
            backend: "neuron".into(),
            message: "no rule for 'Table Scan'".into(),
        };
        assert!(e.to_string().contains("neuron"));
        assert!(LanternError::EmptyInput.to_string().contains("empty"));
        let core: CoreError = LanternError::UnknownOperator {
            source: "pg".into(),
            op: "X".into(),
        }
        .into();
        assert!(matches!(core, CoreError::UnknownOperator { .. }));
    }
}
