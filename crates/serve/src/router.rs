//! Request routing: maps parsed HTTP requests onto the
//! [`Translator`] API and renders responses in the service wire
//! format.
//!
//! The wire format (see `docs/SERVING.md`):
//!
//! * success — `{"backend": "...", "narration": {"steps": [...]},
//!   "text": "..."}` where `narration` is exactly
//!   [`Narration::to_json`](lantern_core::Narration::to_json);
//! * failure — `{"error": {"kind": "...", "message": "...",
//!   "status": N}}` with the status code duplicated in the HTTP
//!   status line, mapped through [`LanternError::http_status`].
//!
//! Every 200 body on the narration and diff paths is written straight
//! into the response buffer by the `write_json` writers in
//! `lantern_core::wire` — no `JsonValue` tree on the way. A batch body
//! is `[` + its item bodies joined by `,` + `]`, each item written by
//! the same writer its single-plan endpoint uses, so batch ≡ sequential
//! holds by construction. Request envelopes are read, and error bodies
//! written, by [`crate::envelope`], which the cluster coordinator shares.
//! The admin pages stay on `JsonValue`; its serializer shares the same
//! escaper and number formatter.

use crate::catalog::{CatalogApplyError, CatalogControl};
use crate::envelope::{self, error_response, json_error, write_lantern_error, Diff};
use crate::http::{Request, Response, REQUEST_ID_HEADER};
use crate::server::{Handler, ServeStats};
use lantern_cache::CacheControl;
use lantern_core::{
    DiffResponse, DiffTranslator, LanternError, NarrationRequest, NarrationResponse, PlanSource,
    RenderStyle, Translator,
};
use lantern_obs::{span, MetricsPage, Recorder, RecorderConfig, Series, Stage};
use lantern_text::json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One route-table entry: method, path, whether the route is live on
/// this server, and the function answering it.
pub type Route<H> = (
    &'static str,
    &'static str,
    bool,
    fn(&H, &Request) -> Response,
);

/// Answer `req` from a route table: the live entry matching its method
/// and path; else `405` when a live entry serves the path under another
/// method; else `404`, counted into `not_found`. Entries that are not
/// live are invisible, so their paths 404 like any unknown path.
pub fn route<H>(owner: &H, req: &Request, routes: &[Route<H>], not_found: &AtomicU64) -> Response {
    let mut path_served = false;
    for &(method, path, live, answer) in routes {
        if live && path == req.path {
            if method == req.method {
                return answer(owner, req);
            }
            path_served = true;
        }
    }
    if path_served {
        let message = format!("method {} not allowed on {}", req.method, req.path);
        return json_error("http", &message, 405);
    }
    not_found.fetch_add(1, Ordering::Relaxed);
    json_error("http", &format!("no route for {}", req.path), 404)
}

/// Request entry, shared by every handler (the replica router and the
/// cluster coordinator): counts `requests_total`, holds the
/// `requests_in_flight` gauge while the handler runs, keeps the
/// incoming `x-lantern-request-id` or mints one, traces `dispatch`
/// under it (so per-stage time lands in `GET /metrics` and slow requests
/// in `GET /debug/slow`), counts `error_responses` for a status ≥ 400,
/// and echoes the id on the response. `dispatch` is handed the id.
pub fn handle_traced(
    stats: &ServeStats,
    obs: &Arc<Recorder>,
    req: &Request,
    dispatch: impl FnOnce(&str) -> Response,
) -> Response {
    stats.requests_total.fetch_add(1, Ordering::Relaxed);
    stats.requests_in_flight.fetch_add(1, Ordering::Relaxed);
    let _in_flight = InFlightGuard(stats);
    let id = match req.header(REQUEST_ID_HEADER) {
        Some(id) if !id.is_empty() => id.to_string(),
        _ => obs.mint_id(),
    };
    let trace = obs.begin(id, &req.path);
    let response = dispatch(trace.id());
    if response.status >= 400 {
        stats.error_responses.fetch_add(1, Ordering::Relaxed);
    }
    let response = response.with_request_id(trace.id());
    trace.finish(response.status);
    response
}

/// Decrements the in-flight gauge when the handler returns (or
/// unwinds — a leaked gauge would report phantom load forever).
struct InFlightGuard<'a>(&'a ServeStats);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.requests_in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A counter table as a `GET /stats` JSON object: one number per row.
pub fn series_value(rows: impl IntoIterator<Item = Series>) -> JsonValue {
    JsonValue::Object(
        rows.into_iter()
            .map(|row| (row.name.to_string(), JsonValue::Number(row.value as f64)))
            .collect(),
    )
}

/// Routes requests for one service instance: holds the translator, the
/// shared counters, the derived backend name, and — when the service
/// was built with a narration cache — the cache's admin surface
/// (`?nocache=1` bypass, `POST /cache/clear`, counters in `/stats`).
pub struct Router<T> {
    translator: T,
    stats: std::sync::Arc<ServeStats>,
    cache: Option<Arc<dyn CacheControl + Send + Sync>>,
    diff: Option<Arc<dyn DiffTranslator + Send + Sync>>,
    catalog: Option<Arc<dyn CatalogControl + Send + Sync>>,
    obs: Arc<Recorder>,
}

impl<T: Translator + Send + Sync> Handler for Router<T> {
    fn handle(&self, req: &Request) -> Response {
        Router::handle(self, req)
    }

    fn recorder(&self) -> &Recorder {
        &self.obs
    }

    fn stats(&self) -> &ServeStats {
        &self.stats
    }
}

impl<T: Translator> Router<T> {
    /// A router over `translator`, recording into `stats`, with each
    /// optional surface routed only when present:
    ///
    /// * `cache` — the narration cache's admin surface, typically the
    ///   same object as `translator` (`?nocache=1` bypass,
    ///   `POST /cache/clear`, cache counters in `GET /stats`);
    /// * `diff` — the plan-diff backend (`POST /narrate/diff` and
    ///   `POST /narrate/diff/batch`);
    /// * `catalog` — the catalog admin surface (`GET /catalog` and
    ///   `POST /catalog/apply`), which lets a cluster coordinator
    ///   replicate POEM mutations to this node.
    pub fn with_catalog(
        translator: T,
        stats: std::sync::Arc<ServeStats>,
        cache: Option<Arc<dyn CacheControl + Send + Sync>>,
        diff: Option<Arc<dyn DiffTranslator + Send + Sync>>,
        catalog: Option<Arc<dyn CatalogControl + Send + Sync>>,
    ) -> Self {
        Router {
            translator,
            stats,
            cache,
            diff,
            catalog,
            obs: Arc::new(Recorder::new(RecorderConfig::default())),
        }
    }

    /// Replace the default observability recorder (servers pass
    /// [`ServeConfig::recorder`](crate::server::ServeConfig::recorder)
    /// so `--slow-log-ms` reaches the router).
    pub fn with_obs(mut self, obs: Arc<Recorder>) -> Self {
        self.obs = obs;
        self
    }

    /// Dispatch one parsed request to its handler, under the shared
    /// request entry ([`handle_traced`]): every response carries an
    /// `x-lantern-request-id` header, and the whole handler runs under
    /// a stage trace.
    pub fn handle(&self, req: &Request) -> Response {
        handle_traced(&self.stats, &self.obs, req, |_| self.dispatch(req))
    }

    fn dispatch(&self, req: &Request) -> Response {
        let diff = self.diff.is_some();
        let catalog = self.catalog.is_some();
        let routes: [Route<Self>; 11] = [
            ("POST", "/narrate", true, Self::narrate),
            ("POST", "/narrate/batch", true, Self::narrate_batch),
            ("POST", "/narrate/diff", diff, Self::narrate_diff),
            ("POST", "/narrate/diff/batch", diff, Self::diff_batch),
            ("GET", "/healthz", true, |r, _| r.healthz()),
            ("GET", "/stats", true, |r, _| r.stats()),
            ("GET", "/metrics", true, |r, _| r.metrics()),
            ("GET", "/debug/slow", true, |r, req| debug_slow(&r.obs, req)),
            ("GET", "/catalog", catalog, |r, _| r.catalog_info()),
            ("POST", "/catalog/apply", catalog, Self::catalog_apply),
            ("POST", "/cache/clear", self.cache.is_some(), |r, _| {
                r.cache_clear()
            }),
        ];
        route(self, req, &routes, &self.stats.not_found)
    }

    /// Whether `?nocache=1` (any value but `0`) asks this request to
    /// bypass the narration cache.
    fn wants_nocache(req: &Request) -> bool {
        req.query_param("nocache").is_some_and(|v| v != "0")
    }

    fn build_request(
        doc: impl Into<String>,
        style: Option<RenderStyle>,
    ) -> Result<NarrationRequest, LanternError> {
        let mut narration_req = NarrationRequest::auto(doc)?;
        if let Some(style) = style {
            narration_req = narration_req.with_style(style);
        }
        Ok(narration_req)
    }

    /// `POST /narrate` — the body is one raw plan document, vendor
    /// format auto-detected.
    fn narrate(&self, req: &Request) -> Response {
        self.stats.narrate_requests.fetch_add(1, Ordering::Relaxed);
        let read = match envelope::narrate(req) {
            Ok(read) => read,
            Err(response) => return response,
        };
        let parsed = {
            let _parse = span(Stage::Parse);
            Self::build_request(read.body, read.style)
        };
        let narrated = parsed.and_then(|r| self.narrate_one(&r, Self::wants_nocache(req)));
        match narrated {
            Ok(resp) => {
                self.stats.narrate_ok.fetch_add(1, Ordering::Relaxed);
                let _render = span(Stage::Render);
                Response::json(200, resp.to_json())
            }
            Err(err) => {
                self.stats.narrate_errors.fetch_add(1, Ordering::Relaxed);
                error_response(&err)
            }
        }
    }

    /// Narrate one request exactly as `POST /narrate` does: through the
    /// translator, or around the cache (neither consulted nor filled)
    /// under `?nocache=1` when one is configured.
    fn narrate_one(
        &self,
        r: &NarrationRequest,
        nocache: bool,
    ) -> Result<NarrationResponse, LanternError> {
        let _narrate = span(Stage::Narrate);
        match (&self.cache, nocache) {
            (Some(cache), true) => cache.narrate_uncached(r),
            _ => self.translator.narrate(r),
        }
    }

    /// `POST /narrate/batch` — the body is a JSON array of plan
    /// document strings. The envelope must parse (else 400); individual
    /// documents fail *per item* so one bad plan doesn't reject the
    /// classmates batched with it. Each entry is narrated as `/narrate`
    /// narrates it, and written into the body before the next starts.
    fn narrate_batch(&self, req: &Request) -> Response {
        self.stats.batch_requests.fetch_add(1, Ordering::Relaxed);
        let parse_span = span(Stage::Parse);
        let read = match envelope::batch(req) {
            Ok(read) => read,
            Err(response) => return response,
        };
        drop(parse_span);
        self.stats
            .batch_items
            .fetch_add(read.docs.len() as u64, Ordering::Relaxed);
        let nocache = Self::wants_nocache(req);
        // Per-item errors are short; answers reserve their own size.
        let mut body = String::with_capacity(read.docs.len() * 128);
        body.push('[');
        // Each request takes its entry's decoded document by move: an
        // entry without escapes is copied once, out of the body.
        for (i, entry) in read.docs.into_iter().enumerate() {
            let parsed = {
                let _parse = span(Stage::Parse);
                entry
                    .doc
                    .and_then(|doc| Self::build_request(doc, read.style))
            };
            let result = parsed.and_then(|r| self.narrate_one(&r, nocache));
            let _render = span(Stage::Render);
            if i > 0 {
                body.push(',');
            }
            match result {
                Ok(resp) => {
                    self.stats.narrate_ok.fetch_add(1, Ordering::Relaxed);
                    body.reserve(resp.json_len_hint());
                    resp.write_json(&mut body);
                }
                Err(err) => {
                    self.stats.narrate_errors.fetch_add(1, Ordering::Relaxed);
                    write_lantern_error(&mut body, &err, None);
                }
            }
        }
        body.push(']');
        Response::json(200, body)
    }

    /// `GET /healthz` — liveness plus which backend is live.
    fn healthz(&self) -> Response {
        let backend = self.translator.backend().to_string();
        let uptime_ms = self.stats.uptime().as_millis() as f64;
        let body = JsonValue::object([
            ("status", JsonValue::String("ok".to_string())),
            ("backend", JsonValue::String(backend)),
            ("uptime_ms", JsonValue::Number(uptime_ms)),
        ]);
        Response::json(200, body.to_string_compact())
    }

    /// `GET /stats` — the counter snapshot, with the narration cache's
    /// counters merged in under `"cache"` when one is configured.
    fn stats(&self) -> Response {
        let mut body = series_value(self.stats.series());
        if let (Some(cache), JsonValue::Object(obj)) = (&self.cache, &mut body) {
            obj.insert(
                "cache".to_string(),
                series_value(cache.cache_stats().series()),
            );
        }
        Response::json(200, body.to_string_compact())
    }

    /// `POST /narrate/diff` — the body is a JSON object
    /// `{"base": "<plan doc>", "alt": "<plan doc>"}`; each document's
    /// vendor format is auto-detected independently, and each is parsed
    /// in place, once ([`PlanSource::parse_pair`]). Only routed when a
    /// diff backend is configured.
    fn narrate_diff(&self, req: &Request) -> Response {
        let diff = self.diff.as_ref().expect("routed only with a diff backend");
        self.stats.diff_requests.fetch_add(1, Ordering::Relaxed);
        let parse_span = span(Stage::Parse);
        let (style, Diff { base, alt }) = match envelope::diff(req) {
            Ok(read) => (read.style, read.docs),
            Err(response) => return response,
        };
        let trees = PlanSource::parse_pair(&base, &alt);
        drop(parse_span);
        let compared = trees.map(|(base, alt)| {
            let _diff = span(Stage::Diff);
            diff.narrate_trees(&base, &alt, style)
        });
        match compared {
            Ok(resp) => {
                self.stats.diff_ok.fetch_add(1, Ordering::Relaxed);
                let _render = span(Stage::Render);
                Response::json(200, resp.to_json())
            }
            Err(err) => {
                self.stats.diff_errors.fetch_add(1, Ordering::Relaxed);
                error_response(&err)
            }
        }
    }

    /// `POST /narrate/diff/batch` — the body is
    /// `{"base": "<doc>", "alts": ["<doc>", ...]}`: one base compared
    /// against every alternative. Successful comparisons come back
    /// ranked by informativeness (highest score first); per-item
    /// failures follow in input order. Every item carries `alt_index`,
    /// its position in the request's `alts` array. The base is parsed
    /// once, before any alternative; a base that fails to detect or
    /// parse rejects the whole request — nothing could be compared.
    fn diff_batch(&self, req: &Request) -> Response {
        let diff = self.diff.as_ref().expect("routed only with a diff backend");
        self.stats
            .diff_batch_requests
            .fetch_add(1, Ordering::Relaxed);
        let parse_span = span(Stage::Parse);
        let (style, Diff { base, alt: alts }) = match envelope::diff_batch(req) {
            Ok(read) => (read.style, read.docs),
            Err(response) => return response,
        };
        // The base failing to detect/parse is a whole-request error:
        // with no base there is nothing to compare any alternative to.
        let base = match PlanSource::parse_auto(&base) {
            Ok(base) => base,
            Err(err) => {
                self.stats.diff_errors.fetch_add(1, Ordering::Relaxed);
                return error_response(&err);
            }
        };
        self.stats
            .diff_batch_items
            .fetch_add(alts.len() as u64, Ordering::Relaxed);
        drop(parse_span);
        // One `narrate_trees` per alternative against the one parsed
        // base. Rank: successes by score descending (ties keep input
        // order), failures after them in input order.
        let mut oks: Vec<(usize, DiffResponse)> = Vec::with_capacity(alts.len());
        let mut errs: Vec<(usize, LanternError)> = Vec::new();
        for (index, entry) in alts.into_iter().enumerate() {
            let alt = {
                let _parse = span(Stage::Parse);
                entry.doc.and_then(|doc| PlanSource::parse_auto(&doc))
            };
            let result = alt.map(|alt| {
                let _diff = span(Stage::Diff);
                diff.narrate_trees(&base, &alt, style)
            });
            match result {
                Ok(resp) => {
                    self.stats.diff_ok.fetch_add(1, Ordering::Relaxed);
                    oks.push((index, resp));
                }
                Err(err) => {
                    self.stats.diff_errors.fetch_add(1, Ordering::Relaxed);
                    errs.push((index, err));
                }
            }
        }
        let _render = span(Stage::Render);
        oks.sort_by(|(ai, a), (bi, b)| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ai.cmp(bi))
        });
        let hint = (oks.len() + errs.len()) * 160
            + oks.iter().map(|(_, r)| r.json_len_hint()).sum::<usize>();
        let mut body = String::with_capacity(hint);
        body.push('[');
        for (index, resp) in &oks {
            if body.len() > 1 {
                body.push(',');
            }
            resp.write_json(&mut body, Some(*index));
        }
        for (index, err) in &errs {
            if body.len() > 1 {
                body.push(',');
            }
            write_lantern_error(&mut body, err, Some(*index));
        }
        body.push(']');
        Response::json(200, body)
    }

    /// `POST /cache/clear` — drop every cached narration; answers how
    /// many were resident. Only routed when a cache is configured.
    fn cache_clear(&self) -> Response {
        let cache = self.cache.as_ref().expect("routed only with a cache");
        let body = JsonValue::object([("cleared", JsonValue::Number(cache.clear_cache() as f64))]);
        Response::json(200, body.to_string_compact())
    }

    /// `GET /catalog` — the node's catalog version and the highest
    /// broadcast sequence number applied. Doubles as the coordinator's
    /// health + lag probe. Only routed with a catalog surface.
    fn catalog_info(&self) -> Response {
        let catalog = self.catalog.as_ref().expect("routed only with a catalog");
        let (version, applied_seq) = (catalog.catalog_version(), catalog.catalog_seq());
        let body = JsonValue::object([
            ("version", JsonValue::Number(version as f64)),
            ("applied_seq", JsonValue::Number(applied_seq as f64)),
        ]);
        Response::json(200, body.to_string_compact())
    }

    /// `POST /catalog/apply` — body
    /// `{"from_seq": N, "statements": ["<POOL statement>", ...]}` where
    /// `statements[i]` carries sequence number `N + i`. Already-applied
    /// sequence numbers are skipped (idempotent replay); a batch that
    /// would skip ahead of this node's `applied_seq + 1` is rejected
    /// with `409` so the sender replays the missing prefix first.
    fn catalog_apply(&self, req: &Request) -> Response {
        let catalog = self.catalog.as_ref().expect("routed only with a catalog");
        let (from_seq, statements) = match envelope::catalog_apply(req) {
            Ok(envelope) => envelope,
            Err(response) => return response,
        };
        match catalog.catalog_apply(from_seq, &statements) {
            Ok(applied) => {
                let errors = applied.errors.into_iter().map(JsonValue::String).collect();
                let body = JsonValue::object([
                    ("applied", JsonValue::Number(applied.applied as f64)),
                    ("skipped", JsonValue::Number(applied.skipped as f64)),
                    ("applied_seq", JsonValue::Number(applied.applied_seq as f64)),
                    ("version", JsonValue::Number(applied.version as f64)),
                    ("errors", JsonValue::Array(errors)),
                ]);
                Response::json(200, body.to_string_compact())
            }
            Err(err @ CatalogApplyError::SequenceGap { .. }) => {
                json_error("catalog", &err.to_string(), 409)
            }
        }
    }

    /// `GET /metrics` — Prometheus text exposition: per-stage and
    /// whole-request latency histograms from the recorder, the server
    /// counter table as `lantern_server_*`, and (when a cache is
    /// configured) its table as `lantern_cache_*`.
    fn metrics(&self) -> Response {
        let mut page = MetricsPage::new();
        self.obs.export(&mut page, &[]);
        page.add_series("lantern_server_", &[], self.stats.series());
        if let Some(cache) = &self.cache {
            page.add_series("lantern_cache_", &[], cache.cache_stats().series());
        }
        Response::text(200, page.render())
    }
}

/// `GET /debug/slow?threshold_ms=N` over `recorder`'s slow-request ring
/// (newest first): request id, path, status, total and per-stage latency
/// in microseconds, and the plan fingerprint when the request reached
/// the cache layer. `threshold_ms` filters at read time; capture is
/// governed by `--slow-log-ms`. Shared with the cluster coordinator,
/// which serves the same endpoint over its own recorder.
pub fn debug_slow(recorder: &Recorder, req: &Request) -> Response {
    let threshold_ms = req
        .query_param("threshold_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let entries = recorder
        .slow_entries(threshold_ms.saturating_mul(1_000_000))
        .into_iter()
        .map(|entry| {
            let stages = Stage::ALL
                .into_iter()
                .map(|stage| (stage.name(), entry.stage_ns[stage.index()]))
                .filter(|&(_, ns)| ns > 0)
                .map(|(name, ns)| (name, JsonValue::Number(ns as f64 / 1_000.0)));
            let fingerprint = entry
                .fingerprint
                .map(|fp| ("fingerprint", JsonValue::String(fp)));
            JsonValue::object(
                [
                    ("id", JsonValue::String(entry.id)),
                    ("path", JsonValue::String(entry.path)),
                    ("status", JsonValue::Number(entry.status as f64)),
                    (
                        "total_us",
                        JsonValue::Number(entry.total_ns as f64 / 1_000.0),
                    ),
                    ("stages_us", JsonValue::object(stages)),
                ]
                .into_iter()
                .chain(fingerprint),
            )
        })
        .collect();
    let body = JsonValue::object([
        ("threshold_ms", JsonValue::Number(threshold_ms as f64)),
        (
            "capture_threshold_ms",
            JsonValue::Number(recorder.slow_threshold_ns() as f64 / 1e6),
        ),
        ("entries", JsonValue::Array(entries)),
    ]);
    Response::json(200, body.to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_core::RuleTranslator;
    use lantern_pool::{default_mssql_store, default_pg_store};
    use std::sync::Arc;

    const PG_DOC: &str = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
    const XML_DOC: &str = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple>
        <QueryPlan><RelOp PhysicalOp="Table Scan"><Object Table="photoobj"/></RelOp></QueryPlan>
        </StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;

    fn router() -> Router<RuleTranslator> {
        Router::with_catalog(
            RuleTranslator::new(default_mssql_store()),
            Arc::new(ServeStats::new()),
            None,
            None,
            None,
        )
    }

    /// The request `raw` holds, through the server's own parser.
    fn parsed(raw: &str) -> Request {
        match crate::http::parse_request(raw.as_bytes(), 1 << 20) {
            crate::http::Parsed::Done(req, _) => req,
            other => panic!("{raw:?} did not parse: {other:?}"),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        parsed(&raw)
    }

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        parsed(&raw)
    }

    #[test]
    fn narrate_round_trips_both_vendors() {
        let router = router();
        for (doc, needle) in [
            (PG_DOC, "sequential scan on orders"),
            (XML_DOC, "table scan on photoobj"),
        ] {
            let resp = router.handle(&post("/narrate", doc));
            assert_eq!(resp.status, 200);
            let value = JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let text = value.get("text").and_then(JsonValue::as_str).unwrap();
            assert!(text.contains(needle), "{text}");
            assert_eq!(
                value.get("backend").and_then(JsonValue::as_str),
                Some("rule")
            );
            // The narration field is the stable wire format.
            let narration = lantern_core::Narration::from_json(
                &value.get("narration").unwrap().to_string_compact(),
            )
            .unwrap();
            assert!(!narration.steps().is_empty());
        }
    }

    #[test]
    fn style_query_parameter_applies() {
        let router = router();
        let resp = router.handle(&post("/narrate?style=bulleted", PG_DOC));
        let value = JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(value
            .get("text")
            .and_then(JsonValue::as_str)
            .unwrap()
            .starts_with("- "));
        // Unknown styles are a client error, not a crash.
        let resp = router.handle(&post("/narrate?style=sonnet", PG_DOC));
        assert_eq!(resp.status, 400);
        let value = JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            value
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str),
            Some("style")
        );
    }

    /// Table-driven: every `LanternError` variant the service can
    /// surface maps to its intended status and `error.kind`.
    #[test]
    fn error_to_http_mapping_table() {
        let router = router();
        let cases: &[(&str, &str, u16, &str)] = &[
            ("/narrate", "", 400, "empty_input"),
            ("/narrate", "EXPLAIN SELECT 1", 400, "unknown_format"),
            ("/narrate", r#"{"Plan": {"Node Type"#, 400, "parse"),
            ("/narrate", "<html><body/></html>", 400, "parse"),
            (
                // A childless Hash clustered under its join is the
                // structurally-invalid-plan case (auxiliary operator
                // with nothing to build from).
                "/narrate",
                r#"{"Plan": {"Node Type": "Hash Join", "Hash Cond": "(a.x = b.y)",
                    "Plans": [{"Node Type": "Seq Scan", "Relation Name": "a"},
                              {"Node Type": "Hash"}]}}"#,
                422,
                "plan",
            ),
        ];
        for (path, body, status, kind) in cases {
            let resp = router.handle(&post(path, body));
            assert_eq!(resp.status, *status, "{body:?}");
            let value = JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let err = value.get("error").expect("error body");
            assert_eq!(err.get("kind").and_then(JsonValue::as_str), Some(*kind));
            assert_eq!(
                err.get("status").and_then(JsonValue::as_f64),
                Some(*status as f64)
            );
            assert!(err.get("message").and_then(JsonValue::as_str).is_some());
        }
    }

    #[test]
    fn unknown_operator_maps_to_422() {
        // A pg-only catalog cannot narrate the mssql plan.
        let router = Router::with_catalog(
            RuleTranslator::new(default_pg_store()),
            Arc::new(ServeStats::new()),
            None,
            None,
            None,
        );
        let resp = router.handle(&post("/narrate", XML_DOC));
        assert_eq!(resp.status, 422);
        let value = JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            value
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str),
            Some("unknown_operator")
        );
    }

    #[test]
    fn batch_mixes_successes_and_per_item_errors() {
        let router = router();
        let body = format!(
            "[{}, {}, \"not a plan\"]",
            JsonValue::String(PG_DOC.to_string()).to_string_compact(),
            JsonValue::String(XML_DOC.to_string()).to_string_compact(),
        );
        let resp = router.handle(&post("/narrate/batch", &body));
        assert_eq!(resp.status, 200);
        let JsonValue::Array(items) =
            JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
        else {
            panic!("batch response must be an array");
        };
        assert_eq!(items.len(), 3);
        assert!(items[0].get("text").is_some());
        assert!(items[1].get("text").is_some());
        assert_eq!(
            items[2]
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str),
            Some("unknown_format")
        );
    }

    #[test]
    fn batch_envelope_failures_are_400() {
        let router = router();
        for body in [
            "not json",
            r#"{"plans": []}"#,
            "[]",
            "  [ ]  ",
            "\"doc\"",
            "42",
        ] {
            let resp = router.handle(&post("/narrate/batch", body));
            assert_eq!(resp.status, 400, "{body:?}");
            let value = json_body(&resp);
            let err = value.get("error").expect("structured error body");
            assert_eq!(err.get("kind").and_then(JsonValue::as_str), Some("parse"));
            assert!(err.get("message").and_then(JsonValue::as_str).is_some());
        }
        // Non-string entries are per-item errors, not envelope errors.
        let resp = router.handle(&post("/narrate/batch", "[42]"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn encoded_style_values_decode_and_trim() {
        let router = router();
        for path in [
            "/narrate?style=bulleted%20",
            "/narrate?style=bulleted+",
            "/narrate?style=%20bulleted",
        ] {
            let resp = router.handle(&post(path, PG_DOC));
            assert_eq!(resp.status, 200, "{path}");
            let value = json_body(&resp);
            assert!(value
                .get("text")
                .and_then(JsonValue::as_str)
                .unwrap()
                .starts_with("- "));
        }
        // Whitespace alone is still an unknown style.
        assert_eq!(
            router.handle(&post("/narrate?style=%20", PG_DOC)).status,
            400
        );
    }

    fn cached_router() -> Router<Arc<lantern_cache::CachedTranslator<RuleTranslator>>> {
        let cached = Arc::new(lantern_cache::CachedTranslator::new(
            RuleTranslator::new(default_mssql_store()),
            lantern_cache::CacheConfig::default(),
        ));
        Router::with_catalog(
            Arc::clone(&cached),
            Arc::new(ServeStats::new()),
            Some(cached as Arc<dyn CacheControl + Send + Sync>),
            None,
            None,
        )
    }

    #[test]
    fn cache_hits_show_in_stats_and_nocache_bypasses() {
        let router = cached_router();
        assert_eq!(router.handle(&post("/narrate", PG_DOC)).status, 200);
        assert_eq!(router.handle(&post("/narrate", PG_DOC)).status, 200);
        let stats = json_body(&router.handle(&get("/stats")));
        let cache = stats.get("cache").expect("cache object in /stats");
        assert_eq!(cache.get("hits").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(cache.get("entries").and_then(JsonValue::as_f64), Some(1.0));

        // A bypassed request neither hits nor fills the cache...
        let resp = router.handle(&post("/narrate?nocache=1", PG_DOC));
        assert_eq!(resp.status, 200);
        let stats = json_body(&router.handle(&get("/stats")));
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(JsonValue::as_f64), Some(1.0));
        // ...and its body is identical to the cached one.
        let cached_body = router.handle(&post("/narrate", PG_DOC));
        assert_eq!(resp.body, cached_body.body);
        // `nocache=0` means "use the cache".
        let _ = router.handle(&post("/narrate?nocache=0", PG_DOC));
        let stats = json_body(&router.handle(&get("/stats")));
        assert_eq!(
            stats
                .get("cache")
                .unwrap()
                .get("hits")
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn cache_clear_route_drops_entries() {
        let router = cached_router();
        let _ = router.handle(&post("/narrate", PG_DOC));
        let _ = router.handle(&post("/narrate", XML_DOC));
        let resp = router.handle(&post("/cache/clear", ""));
        assert_eq!(resp.status, 200);
        let body = json_body(&resp);
        assert_eq!(body.get("cleared").and_then(JsonValue::as_f64), Some(2.0));
        let stats = json_body(&router.handle(&get("/stats")));
        assert_eq!(
            stats
                .get("cache")
                .unwrap()
                .get("entries")
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );
        // Wrong method on a live cache route is 405, not 404.
        assert_eq!(router.handle(&get("/cache/clear")).status, 405);
    }

    #[test]
    fn cache_routes_absent_without_a_cache() {
        let router = router();
        assert_eq!(router.handle(&post("/cache/clear", "")).status, 404);
        let stats = json_body(&router.handle(&get("/stats")));
        assert!(stats.get("cache").is_none());
    }

    #[test]
    fn in_flight_gauge_counts_self_and_returns_to_zero() {
        let router = router();
        let stats = json_body(&router.handle(&get("/stats")));
        assert_eq!(
            stats.get("requests_in_flight").and_then(JsonValue::as_f64),
            Some(1.0),
            "a /stats response counts at least itself"
        );
        assert!(stats
            .get("uptime_seconds")
            .and_then(JsonValue::as_f64)
            .is_some());
        // After the handler returned, the gauge is back to zero.
        let stats = json_body(&router.handle(&get("/stats")));
        assert_eq!(
            stats.get("requests_in_flight").and_then(JsonValue::as_f64),
            Some(1.0)
        );
    }

    fn json_body(resp: &Response) -> JsonValue {
        JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    const PG_ALT_DOC: &str = r#"{"Plan": {"Node Type": "Index Scan", "Relation Name": "orders", "Index Name": "orders_pkey"}}"#;

    fn diff_router() -> Router<RuleTranslator> {
        Router::with_catalog(
            RuleTranslator::new(default_mssql_store()),
            Arc::new(ServeStats::new()),
            None,
            Some(Arc::new(lantern_diff::RuleDiffTranslator::new(
                default_mssql_store(),
            ))),
            None,
        )
    }

    fn diff_body(base: &str, alt: &str) -> String {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("base".to_string(), JsonValue::String(base.to_string()));
        obj.insert("alt".to_string(), JsonValue::String(alt.to_string()));
        JsonValue::Object(obj).to_string_compact()
    }

    #[test]
    fn diff_round_trips_and_classifies_the_change() {
        let router = diff_router();
        let resp = router.handle(&post("/narrate/diff", &diff_body(PG_DOC, PG_ALT_DOC)));
        assert_eq!(resp.status, 200);
        let value = json_body(&resp);
        assert_eq!(
            value.get("backend").and_then(JsonValue::as_str),
            Some("rule-diff")
        );
        assert_eq!(value.get("identical"), Some(&JsonValue::Bool(false)));
        let JsonValue::Array(changes) = value.get("changes").unwrap() else {
            panic!("changes must be an array");
        };
        assert!(!changes.is_empty());
        assert_eq!(
            changes[0].get("kind").and_then(JsonValue::as_str),
            Some("operator-substitution")
        );
        assert!(
            changes[0]
                .get("weight")
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(value.get("score").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert!(value
            .get("text")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("index scan"));

        // Self-diff is empty and scores zero.
        let resp = router.handle(&post("/narrate/diff", &diff_body(PG_DOC, PG_DOC)));
        let value = json_body(&resp);
        assert_eq!(value.get("identical"), Some(&JsonValue::Bool(true)));
        assert_eq!(value.get("score").and_then(JsonValue::as_f64), Some(0.0));
    }

    #[test]
    fn diff_detects_each_document_format_independently() {
        let router = diff_router();
        // pg base vs mssql alternative: formats auto-detect per side.
        let resp = router.handle(&post("/narrate/diff", &diff_body(PG_DOC, XML_DOC)));
        assert_eq!(resp.status, 200);
        let value = json_body(&resp);
        assert_eq!(value.get("identical"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn diff_malformed_envelopes_are_structured_400s() {
        let router = diff_router();
        for body in [
            "not json",
            "[]",
            "42",
            r#"{"base": "x"}"#,
            r#"{"alt": "x"}"#,
            r#"{"base": 42, "alt": "x"}"#,
            &format!(
                r#"{{"base": {}, "alt": 42}}"#,
                JsonValue::String(PG_DOC.into()).to_string_compact()
            ),
        ] {
            let resp = router.handle(&post("/narrate/diff", body));
            assert_eq!(resp.status, 400, "{body:?}");
            let value = json_body(&resp);
            let err = value.get("error").expect("structured error body");
            assert_eq!(err.get("kind").and_then(JsonValue::as_str), Some("parse"));
        }
        // Well-formed envelope around an empty document: the
        // translator's empty_input, not a parse error.
        let resp = router.handle(&post("/narrate/diff", &diff_body("", PG_DOC)));
        assert_eq!(resp.status, 400);
        assert_eq!(
            json_body(&resp)
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str),
            Some("empty_input")
        );
    }

    #[test]
    fn diff_batch_ranks_by_informativeness_with_alt_index() {
        let router = diff_router();
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("base".to_string(), JsonValue::String(PG_DOC.to_string()));
        obj.insert(
            "alts".to_string(),
            JsonValue::Array(vec![
                JsonValue::String(PG_DOC.to_string()),     // identical: score 0
                JsonValue::String("nonsense".to_string()), // per-item error
                JsonValue::String(PG_ALT_DOC.to_string()), // real change
            ]),
        );
        let resp = router.handle(&post(
            "/narrate/diff/batch",
            &JsonValue::Object(obj).to_string_compact(),
        ));
        assert_eq!(resp.status, 200);
        let JsonValue::Array(items) = json_body(&resp) else {
            panic!("batch response must be an array");
        };
        assert_eq!(items.len(), 3);
        // Ranked: the informative alternative first, the identical one
        // second, the per-item failure trailing.
        assert_eq!(
            items[0].get("alt_index").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert!(items[0].get("score").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert_eq!(
            items[1].get("alt_index").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(items[1].get("identical"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            items[2].get("alt_index").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            items[2]
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str),
            Some("unknown_format")
        );
    }

    #[test]
    fn diff_batch_envelope_and_base_failures_reject_the_request() {
        let router = diff_router();
        for body in [
            r#"{"base": "x", "alts": []}"#,
            r#"{"base": "x", "alts": "not an array"}"#,
            r#"{"alts": ["x"]}"#,
        ] {
            let resp = router.handle(&post("/narrate/diff/batch", body));
            assert_eq!(resp.status, 400, "{body:?}");
            assert_eq!(
                json_body(&resp)
                    .get("error")
                    .unwrap()
                    .get("kind")
                    .and_then(JsonValue::as_str),
                Some("parse")
            );
        }
        // A base that parses as no known format fails the whole
        // request: there is nothing to compare against.
        let body = format!(
            r#"{{"base": "EXPLAIN SELECT 1", "alts": [{}]}}"#,
            JsonValue::String(PG_DOC.into()).to_string_compact()
        );
        let resp = router.handle(&post("/narrate/diff/batch", &body));
        assert_eq!(resp.status, 400);
        assert_eq!(
            json_body(&resp)
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str),
            Some("unknown_format")
        );
    }

    #[test]
    fn diff_style_override_applies_to_rendered_text() {
        let router = diff_router();
        let resp = router.handle(&post(
            "/narrate/diff?style=bulleted",
            &diff_body(PG_DOC, PG_ALT_DOC),
        ));
        assert_eq!(resp.status, 200);
        assert!(json_body(&resp)
            .get("text")
            .and_then(JsonValue::as_str)
            .unwrap()
            .starts_with("- "));
    }

    #[test]
    fn diff_routes_absent_without_a_diff_backend_405_with_one() {
        // No diff backend configured: the paths don't exist.
        let router = router();
        assert_eq!(
            router
                .handle(&post("/narrate/diff", &diff_body(PG_DOC, PG_ALT_DOC)))
                .status,
            404
        );
        assert_eq!(
            router.handle(&post("/narrate/diff/batch", "{}")).status,
            404
        );
        // Configured: wrong method is 405, not 404.
        let router = diff_router();
        assert_eq!(router.handle(&get("/narrate/diff")).status, 405);
        assert_eq!(router.handle(&get("/narrate/diff/batch")).status, 405);
    }

    #[test]
    fn diff_counters_show_in_stats() {
        let router = diff_router();
        let _ = router.handle(&post("/narrate/diff", &diff_body(PG_DOC, PG_ALT_DOC)));
        let _ = router.handle(&post("/narrate/diff", "not json"));
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("base".to_string(), JsonValue::String(PG_DOC.to_string()));
        obj.insert(
            "alts".to_string(),
            JsonValue::Array(vec![
                JsonValue::String(PG_ALT_DOC.to_string()),
                JsonValue::String("junk".to_string()),
            ]),
        );
        let _ = router.handle(&post(
            "/narrate/diff/batch",
            &JsonValue::Object(obj).to_string_compact(),
        ));
        let stats = json_body(&router.handle(&get("/stats")));
        assert_eq!(
            stats.get("diff_requests").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            stats.get("diff_batch_requests").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            stats.get("diff_batch_items").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(stats.get("diff_ok").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(
            stats.get("diff_errors").and_then(JsonValue::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn healthz_and_stats_and_routing_misses() {
        let router = router();
        let health = router.handle(&get("/healthz"));
        assert_eq!(health.status, 200);
        let value = JsonValue::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
        assert_eq!(value.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(
            value.get("backend").and_then(JsonValue::as_str),
            Some("rule")
        );

        assert_eq!(router.handle(&get("/nope")).status, 404);
        assert_eq!(router.handle(&get("/narrate")).status, 405);

        let _ = router.handle(&post("/narrate", PG_DOC));
        let stats = router.handle(&get("/stats"));
        let value = JsonValue::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        assert_eq!(
            value.get("narrate_ok").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            value.get("not_found").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        // requests_total counts narrate + healthz + 404 + 405 + stats.
        assert_eq!(
            value.get("requests_total").and_then(JsonValue::as_f64),
            Some(5.0)
        );
    }

    fn post_with(path: &str, body: &str, headers: &[(&str, &str)]) -> Request {
        let mut raw = format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n", body.len());
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str("\r\n");
        raw.push_str(body);
        parsed(&raw)
    }

    #[test]
    fn metrics_exposition_covers_stages_requests_and_server_counters() {
        use lantern_obs::{
            parse_exposition, snapshot_from_samples, METRIC_REQUEST_SECONDS, METRIC_STAGE_SECONDS,
        };
        let router = router();
        for _ in 0..3 {
            assert_eq!(router.handle(&post("/narrate", XML_DOC)).status, 200);
        }
        let resp = router.handle(&get("/metrics"));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain"));
        let body = std::str::from_utf8(&resp.body).unwrap();
        assert!(body.contains("# TYPE lantern_stage_duration_seconds histogram"));
        assert!(body.contains("# TYPE lantern_request_duration_seconds histogram"));
        assert!(body.contains("lantern_server_requests_total"));

        let parsed = parse_exposition(body);
        // The /metrics request itself is still in flight at render
        // time, so exactly the three narrations are recorded.
        let requests = snapshot_from_samples(&parsed.samples, METRIC_REQUEST_SECONDS, &[])
            .expect("request histogram");
        assert_eq!(requests.count, 3);
        for stage in ["parse", "narrate", "render"] {
            let snap =
                snapshot_from_samples(&parsed.samples, METRIC_STAGE_SECONDS, &[("stage", stage)])
                    .unwrap_or_else(|| panic!("stage {stage} series"));
            assert_eq!(snap.count, 3, "stage {stage}");
        }

        // Write endpoints reject non-GET without losing the route.
        assert_eq!(router.handle(&post("/metrics", "")).status, 405);
        assert_eq!(router.handle(&post("/debug/slow", "")).status, 405);
    }

    /// `/stats` and `/metrics` render from the same counter tables: every
    /// numeric `/stats` key is a `lantern_server_<key>` series of the
    /// same value and type, every `cache.<key>` a `lantern_cache_<key>`
    /// series. The only differences allowed are the documented ones:
    /// the scrape itself adds one to `requests_total`, and `uptime_*`
    /// moves between the two reads.
    #[test]
    fn stats_and_metrics_are_two_views_of_the_same_counters() {
        use lantern_obs::parse_exposition;
        let router = cached_router();
        for path in ["/narrate", "/narrate", "/narrate?nocache=1", "/nope"] {
            let _ = router.handle(&post(path, PG_DOC));
        }
        let _ = router.handle(&post("/narrate/batch", "[1]"));
        let stats = json_body(&router.handle(&get("/stats")));
        let resp = router.handle(&get("/metrics"));
        let page = parse_exposition(std::str::from_utf8(&resp.body).unwrap());

        let check = |prefix: &str, object: &JsonValue, gauges: &[&str]| {
            let JsonValue::Object(object) = object else {
                panic!("{prefix} stats are an object");
            };
            let mut checked = 0;
            for (key, value) in object {
                let Some(value) = value.as_f64() else {
                    continue;
                };
                let name = format!("{prefix}{key}");
                let sample = page
                    .samples
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap_or_else(|| panic!("no {name} series"));
                let kind = if gauges.contains(&key.as_str()) {
                    "gauge"
                } else {
                    "counter"
                };
                assert_eq!(
                    page.types.get(&name).map(String::as_str),
                    Some(kind),
                    "{name}"
                );
                match key.as_str() {
                    "requests_total" => assert_eq!(sample.value, value + 1.0, "{name}"),
                    k if k.starts_with("uptime_") => {}
                    _ => assert_eq!(sample.value, value, "{name}"),
                }
                checked += 1;
            }
            checked
        };
        let server_gauges = [
            "queue_depth",
            "requests_in_flight",
            "uptime_ms",
            "uptime_seconds",
        ];
        assert_eq!(check("lantern_server_", &stats, &server_gauges), 21);
        let cache_gauges = ["entries", "bytes", "max_entries", "max_bytes", "shards"];
        let cache = stats.get("cache").expect("cache object");
        assert_eq!(check("lantern_cache_", cache, &cache_gauges), 13);
        // Nonzero values on both sides, so the equalities above bite.
        assert_eq!(
            stats.get("narrate_ok").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            stats.get("error_responses").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(cache.get("hits").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn request_ids_echo_when_supplied_and_mint_when_absent() {
        let router = router();
        let resp = router.handle(&post_with(
            "/narrate",
            PG_DOC,
            &[(REQUEST_ID_HEADER, "caller-7")],
        ));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header(REQUEST_ID_HEADER), Some("caller-7"));

        let first = router.handle(&post("/narrate", PG_DOC));
        let second = router.handle(&post("/narrate", PG_DOC));
        let first_id = first.header(REQUEST_ID_HEADER).expect("minted id");
        let second_id = second.header(REQUEST_ID_HEADER).expect("minted id");
        assert!(!first_id.is_empty());
        assert_ne!(first_id, second_id, "minted ids are distinct");

        // An empty header value counts as absent: mint, don't echo.
        let resp = router.handle(&post_with("/narrate", PG_DOC, &[(REQUEST_ID_HEADER, "")]));
        assert!(!resp.header(REQUEST_ID_HEADER).unwrap().is_empty());
    }

    #[test]
    fn debug_slow_captures_ids_stages_and_fingerprints() {
        use lantern_cache::{CacheConfig, CachedTranslator};
        let cached = Arc::new(CachedTranslator::new(
            RuleTranslator::new(default_pg_store()),
            CacheConfig::default(),
        ));
        let router = Router::with_catalog(
            Arc::clone(&cached),
            Arc::new(ServeStats::new()),
            Some(cached),
            None,
            None,
        );
        let resp = router.handle(&post_with(
            "/narrate",
            PG_DOC,
            &[(REQUEST_ID_HEADER, "slow-able")],
        ));
        assert_eq!(resp.status, 200);

        let resp = router.handle(&get("/debug/slow?threshold_ms=0"));
        assert_eq!(resp.status, 200);
        let value = JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let entries = value.get("entries").and_then(|e| e.as_array()).unwrap();
        let entry = entries
            .iter()
            .find(|e| e.get("id").and_then(JsonValue::as_str) == Some("slow-able"))
            .expect("traced entry in the slow log");
        assert_eq!(
            entry.get("path").and_then(JsonValue::as_str),
            Some("/narrate")
        );
        assert_eq!(entry.get("status").and_then(JsonValue::as_f64), Some(200.0));
        let stages = entry.get("stages_us").expect("per-stage breakdown");
        assert!(stages.get("fingerprint").is_some(), "{stages:?}");
        // The cache layer noted the plan fingerprint for correlation
        // with cache keys.
        let fingerprint = entry
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .expect("fingerprint recorded");
        assert_eq!(fingerprint.len(), 32);
        assert!(fingerprint.chars().all(|c| c.is_ascii_hexdigit()));

        // A threshold far above the observed latency filters it out.
        let resp = router.handle(&get("/debug/slow?threshold_ms=60000"));
        let value = JsonValue::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let entries = value.get("entries").and_then(|e| e.as_array()).unwrap();
        assert!(entries.is_empty(), "{entries:?}");
    }
}
