//! Differential suite for the streaming request-envelope readers.
//!
//! `lantern_serve::envelope` reads the `/narrate`, `/narrate/batch`,
//! `/narrate/diff`, `/narrate/diff/batch` and `/catalog/apply` envelopes
//! with the pull reader and writes their error bodies straight to bytes.
//! The oracle below is the previous design, kept as it was: each
//! envelope decoded into a `JsonValue` tree, error bodies built as
//! `JsonValue` objects. Every input must give, on both sides, the same
//! error `Response` (status, content type, body bytes), or the same
//! decoded envelope with the same per-item error bytes:
//!
//! * seeded `lantern-gen` batch, diff, diff-batch and catalog envelopes,
//!   compact and pretty-printed;
//! * every truncation of a few envelopes;
//! * seeded byte-level mutations;
//! * hand-written cases: duplicate keys, `\"` / `é` / surrogate
//!   escapes, non-string entries, empty and non-array `alts`, numeric
//!   forms of `from_seq`, trailing garbage and bytes that are not UTF-8.
//!
//! Error answers are also checked end to end through `Router::handle`.

use lantern::core::{DiffTranslator, RenderStyle, RuleTranslator};
use lantern::gen::{FormatMix, GenConfig, PlanGenerator};
use lantern::serve::envelope;
use lantern::serve::http::{Request, Response};
use lantern::serve::{CatalogApplied, CatalogApplyError, CatalogControl, Router, ServeStats};
use lantern::text::json::JsonValue;
use std::sync::Arc;

mod oracle {
    //! The DOM envelope decoding and error bodies the streaming readers
    //! replaced.

    use lantern::core::{LanternError, PlanFormat, RenderStyle};
    use lantern::serve::http::{Request, Response};
    use lantern::text::json::JsonValue;
    use std::collections::BTreeMap;

    pub fn error_body_raw(kind: &str, message: &str, status: u16) -> JsonValue {
        let mut inner = BTreeMap::new();
        inner.insert("kind".to_string(), JsonValue::String(kind.to_string()));
        inner.insert(
            "message".to_string(),
            JsonValue::String(message.to_string()),
        );
        inner.insert("status".to_string(), JsonValue::Number(status as f64));
        let mut obj = BTreeMap::new();
        obj.insert("error".to_string(), JsonValue::Object(inner));
        JsonValue::Object(obj)
    }

    pub fn error_body(err: &LanternError) -> JsonValue {
        error_body_raw(err.kind(), &err.to_string(), err.http_status())
    }

    /// A diff-batch item's error body: the error object plus `alt_index`.
    pub fn indexed_error_body(err: &LanternError, index: usize) -> String {
        let mut value = error_body(err);
        if let JsonValue::Object(obj) = &mut value {
            obj.insert("alt_index".to_string(), JsonValue::Number(index as f64));
        }
        value.to_string_compact()
    }

    fn json_error(kind: &str, message: &str, status: u16) -> Response {
        Response::json(
            status,
            error_body_raw(kind, message, status).to_string_compact(),
        )
    }

    fn parse_style(raw: &str) -> Result<RenderStyle, String> {
        match raw.trim() {
            "numbered" => Ok(RenderStyle::Numbered),
            "bulleted" => Ok(RenderStyle::Bulleted),
            "paragraph" => Ok(RenderStyle::Paragraph),
            other => Err(format!(
                "unknown style {other:?} (expected numbered, bulleted, or paragraph)"
            )),
        }
    }

    fn style_of(req: &Request) -> Result<Option<RenderStyle>, Response> {
        match req.query_param("style").map(parse_style).transpose() {
            Ok(style) => Ok(style),
            Err(message) => Err(json_error("style", &message, 400)),
        }
    }

    fn entry_error(message: &str) -> LanternError {
        LanternError::Parse {
            format: PlanFormat::PgJson,
            message: message.into(),
        }
    }

    pub fn narrate(req: &Request) -> Result<(Option<RenderStyle>, String), Response> {
        let style = style_of(req)?;
        let Some(doc) = req.body_utf8() else {
            let err = entry_error("request body is not valid UTF-8");
            return Err(Response::json(
                err.http_status(),
                error_body(&err).to_string_compact(),
            ));
        };
        Ok((style, doc.to_string()))
    }

    /// Decoded entries: each document, or the per-item error it gets.
    pub type Entries = Vec<Result<String, LanternError>>;

    pub fn batch(req: &Request) -> Result<(Option<RenderStyle>, Entries), Response> {
        let style = style_of(req)?;
        let Some(body) = req.body_utf8() else {
            return Err(json_error("parse", "request body is not valid UTF-8", 400));
        };
        let docs = match JsonValue::parse(body) {
            Ok(JsonValue::Array(items)) if items.is_empty() => {
                return Err(json_error(
                    "parse",
                    "batch body must be a non-empty JSON array of plan document strings",
                    400,
                ))
            }
            Ok(JsonValue::Array(items)) => items,
            Ok(_) => {
                return Err(json_error(
                    "parse",
                    "batch body must be a JSON array of plan document strings",
                    400,
                ))
            }
            Err(e) => {
                return Err(json_error(
                    "parse",
                    &format!("batch body is not JSON: {e}"),
                    400,
                ))
            }
        };
        let entries = docs
            .iter()
            .map(|doc| match doc.as_str() {
                Some(doc) => Ok(doc.to_string()),
                None => Err(entry_error("batch entries must be plan document strings")),
            })
            .collect();
        Ok((style, entries))
    }

    fn diff_envelope(req: &Request, alt_key: &str) -> Result<(String, JsonValue), Response> {
        let parse_err = |message: &str| Err(json_error("parse", message, 400));
        let Some(body) = req.body_utf8() else {
            return parse_err("request body is not valid UTF-8");
        };
        let envelope = match JsonValue::parse(body) {
            Ok(value) => value,
            Err(e) => return parse_err(&format!("diff body is not JSON: {e}")),
        };
        let Some(base) = envelope.get("base").and_then(JsonValue::as_str) else {
            return parse_err(&format!(
                "diff body must be an object with string \"base\" and {alt_key:?} keys"
            ));
        };
        let Some(alt) = envelope.get(alt_key) else {
            return parse_err(&format!(
                "diff body must be an object with string \"base\" and {alt_key:?} keys"
            ));
        };
        Ok((base.to_string(), alt.clone()))
    }

    pub fn diff(req: &Request) -> Result<(Option<RenderStyle>, String, String), Response> {
        let style = style_of(req)?;
        let (base, alt) = diff_envelope(req, "alt")?;
        let Some(alt) = alt.as_str() else {
            return Err(json_error(
                "parse",
                "\"alt\" must be a plan document string",
                400,
            ));
        };
        Ok((style, base, alt.to_string()))
    }

    pub fn diff_batch(req: &Request) -> Result<(Option<RenderStyle>, String, Entries), Response> {
        let style = style_of(req)?;
        let (base, alts) = diff_envelope(req, "alts")?;
        let alts = match alts {
            JsonValue::Array(items) if items.is_empty() => {
                return Err(json_error(
                    "parse",
                    "\"alts\" must be a non-empty JSON array of plan document strings",
                    400,
                ))
            }
            JsonValue::Array(items) => items,
            _ => {
                return Err(json_error(
                    "parse",
                    "\"alts\" must be a JSON array of plan document strings",
                    400,
                ))
            }
        };
        let entries = alts
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| entry_error("\"alts\" entries must be plan document strings"))
            })
            .collect();
        Ok((style, base, entries))
    }

    pub fn catalog_apply(req: &Request) -> Result<(u64, Vec<String>), Response> {
        let parse_err = |message: &str| json_error("parse", message, 400);
        let Some(body) = req.body_utf8() else {
            return Err(parse_err("request body is not valid UTF-8"));
        };
        let envelope = match JsonValue::parse(body) {
            Ok(value) => value,
            Err(e) => return Err(parse_err(&format!("catalog body is not JSON: {e}"))),
        };
        let Some(from_seq) = envelope.get("from_seq").and_then(JsonValue::as_f64) else {
            return Err(parse_err("catalog body must carry a numeric \"from_seq\""));
        };
        let statements: Vec<String> = match envelope.get("statements") {
            Some(JsonValue::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match item.as_str() {
                        Some(stmt) => out.push(stmt.to_string()),
                        None => {
                            return Err(parse_err(
                                "\"statements\" entries must be POOL statement strings",
                            ))
                        }
                    }
                }
                out
            }
            _ => return Err(parse_err("catalog body must carry a \"statements\" array")),
        };
        Ok((from_seq as u64, statements))
    }
}

const ROUTES: [&str; 5] = [
    "/narrate",
    "/narrate/batch",
    "/narrate/diff",
    "/narrate/diff/batch",
    "/catalog/apply",
];

const STYLES: [Option<&str>; 4] = [None, Some("bulleted"), Some("paragraph%20"), Some("bogus")];

fn request(path: &str, style: Option<&str>, body: &[u8]) -> Request {
    let query = style
        .map(|s| vec![("style".to_string(), s.replace("%20", " "))])
        .unwrap_or_default();
    Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query,
        headers: Vec::new(),
        body: body.to_vec(),
        keep_alive: true,
    }
}

/// The decoded form both sides are compared in: the style, the
/// documents, and each entry as its document or its error body bytes.
type Decoded = (
    Option<RenderStyle>,
    Vec<String>,
    Vec<Result<String, String>>,
);

fn new_side(req: &Request) -> Result<Decoded, Response> {
    let entries = |entries: Vec<envelope::Entry>, indexed: bool| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, entry)| match entry.doc {
                Ok(doc) => Ok(doc.into_owned()),
                Err(err) => {
                    let mut out = String::new();
                    envelope::write_lantern_error(&mut out, &err, indexed.then_some(i));
                    Err(out)
                }
            })
            .collect()
    };
    Ok(match req.path.as_str() {
        "/narrate" => {
            let read = envelope::narrate(req)?;
            (read.style, vec![read.body.to_string()], Vec::new())
        }
        "/narrate/batch" => {
            let read = envelope::batch(req)?;
            for entry in &read.docs {
                let raw = &read.body[entry.span.clone()];
                if let Ok(doc) = &entry.doc {
                    let reparsed = JsonValue::parse(raw).expect("a string entry's span");
                    assert_eq!(reparsed.as_str(), Some(doc.as_ref()), "span {raw:?}");
                }
            }
            (read.style, Vec::new(), entries(read.docs, false))
        }
        "/narrate/diff" => {
            let read = envelope::diff(req)?;
            let docs = vec![read.docs.base.into_owned(), read.docs.alt.into_owned()];
            (read.style, docs, Vec::new())
        }
        "/narrate/diff/batch" => {
            let read = envelope::diff_batch(req)?;
            let docs = vec![read.docs.base.into_owned()];
            (read.style, docs, entries(read.docs.alt, true))
        }
        _ => {
            let (from_seq, statements) = envelope::catalog_apply(req)?;
            let mut docs = vec![from_seq.to_string()];
            docs.extend(statements);
            (None, docs, Vec::new())
        }
    })
}

fn old_side(req: &Request) -> Result<Decoded, Response> {
    let entries = |entries: oracle::Entries, indexed: bool| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, entry)| {
                entry.map_err(|err| match indexed {
                    true => oracle::indexed_error_body(&err, i),
                    false => oracle::error_body(&err).to_string_compact(),
                })
            })
            .collect()
    };
    Ok(match req.path.as_str() {
        "/narrate" => {
            let (style, doc) = oracle::narrate(req)?;
            (style, vec![doc], Vec::new())
        }
        "/narrate/batch" => {
            let (style, items) = oracle::batch(req)?;
            (style, Vec::new(), entries(items, false))
        }
        "/narrate/diff" => {
            let (style, base, alt) = oracle::diff(req)?;
            (style, vec![base, alt], Vec::new())
        }
        "/narrate/diff/batch" => {
            let (style, base, alts) = oracle::diff_batch(req)?;
            (style, vec![base], entries(alts, true))
        }
        _ => {
            let (from_seq, statements) = oracle::catalog_apply(req)?;
            let mut docs = vec![from_seq.to_string()];
            docs.extend(statements);
            (None, docs, Vec::new())
        }
    })
}

/// A catalog surface that accepts every envelope and changes nothing.
struct NoopCatalog;

impl CatalogControl for NoopCatalog {
    fn catalog_version(&self) -> u64 {
        0
    }

    fn catalog_seq(&self) -> u64 {
        0
    }

    fn catalog_apply(
        &self,
        _from_seq: u64,
        _statements: &[String],
    ) -> Result<CatalogApplied, CatalogApplyError> {
        Ok(CatalogApplied {
            applied: 0,
            skipped: 0,
            applied_seq: 0,
            version: 0,
            errors: Vec::new(),
        })
    }
}

struct Suite {
    router: Router<RuleTranslator>,
    compared: usize,
    rejected: usize,
}

impl Suite {
    fn new() -> Self {
        let store = lantern::pool::default_mssql_store();
        let diff: Arc<dyn DiffTranslator + Send + Sync> =
            Arc::new(lantern::diff::RuleDiffTranslator::new(store.clone()));
        let router = Router::with_catalog(
            RuleTranslator::new(store),
            Arc::new(ServeStats::new()),
            None,
            Some(diff),
            Some(Arc::new(NoopCatalog)),
        );
        Suite {
            router,
            compared: 0,
            rejected: 0,
        }
    }

    /// `body` on every route and style: the same decode or the same
    /// error response on both sides, and the router answers that error.
    fn check(&mut self, body: &[u8]) {
        self.check_styles(body, &STYLES);
    }

    /// [`Suite::check`] under the given `?style=` values only.
    fn check_styles(&mut self, body: &[u8], styles: &[Option<&str>]) {
        for path in ROUTES {
            for &style in styles {
                let req = request(path, style, body);
                let new = new_side(&req);
                let old = old_side(&req);
                assert_eq!(new, old, "{path} style {style:?} on {body:?}");
                self.compared += 1;
                if let Err(expected) = old {
                    let answered = self.router.handle(&req);
                    assert_eq!(
                        (answered.status, &answered.body),
                        (expected.status, &expected.body),
                        "router {path} style {style:?} on {body:?}"
                    );
                    self.rejected += 1;
                }
            }
        }
    }

    fn check_str(&mut self, body: &str) {
        self.check(body.as_bytes());
    }

    /// [`Suite::check`] without a `?style=`: the many near-identical
    /// bodies of the truncation and mutation cases.
    fn check_unstyled(&mut self, body: &str) {
        self.check_styles(body.as_bytes(), &[None]);
    }
}

fn corpus(seed: u64, n: usize) -> Vec<String> {
    let config = GenConfig::default()
        .with_seed(seed)
        .with_format(FormatMix::Mixed)
        .with_ops(0, 8)
        .with_mutate_rate(0.3)
        .with_duplicate_rate(0.1);
    PlanGenerator::new(config)
        .generate(n)
        .into_iter()
        .map(|item| item.doc)
        .collect()
}

fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

fn object(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Seeded envelopes of every kind around generated documents, with
/// non-string entries mixed in, compact and pretty-printed.
fn generated_envelopes(seed: u64) -> Vec<String> {
    let docs = corpus(seed, 8);
    let mut items: Vec<JsonValue> = docs.iter().map(|d| string(d)).collect();
    items.insert(2, JsonValue::Number(7.5));
    items.push(JsonValue::Null);
    let values = [
        JsonValue::Array(items.clone()),
        JsonValue::Array(docs.iter().map(|d| string(d)).collect()),
        object(vec![("base", string(&docs[0])), ("alt", string(&docs[1]))]),
        object(vec![
            ("base", string(&docs[2])),
            ("alts", JsonValue::Array(items)),
        ]),
        object(vec![
            ("from_seq", JsonValue::Number(seed as f64 + 1.0)),
            (
                "statements",
                JsonValue::Array(vec![string("SHOW VERSION"), string(&docs[3])]),
            ),
        ]),
    ];
    values
        .iter()
        .flat_map(|v| [v.to_string_compact(), v.to_string_pretty()])
        .collect()
}

#[test]
fn generated_envelopes_match_the_dom_oracle() {
    let mut suite = Suite::new();
    for seed in 0..6 {
        for body in generated_envelopes(seed) {
            suite.check_str(&body);
        }
    }
    assert!(suite.rejected > 0 && suite.compared > suite.rejected);
}

#[test]
fn every_truncation_matches_the_dom_oracle() {
    let mut suite = Suite::new();
    let docs = corpus(11, 2);
    let envelopes = [
        object(vec![("base", string(&docs[0])), ("alt", string("é\"😀"))]).to_string_compact(),
        JsonValue::Array(vec![string(&docs[1]), JsonValue::Bool(true), string("x")])
            .to_string_pretty(),
        r#"{"from_seq": 1e0, "statements": ["aé😀", "b\"c"]}"#.to_string(),
        r#"{"alts": [{"x": [1, null]}, "é"], "base": "b\\q"}"#.to_string(),
    ];
    for envelope in &envelopes {
        let mut cut = 0;
        while cut <= envelope.len() {
            if envelope.is_char_boundary(cut) {
                suite.check_unstyled(&envelope[..cut]);
            }
            cut += 1;
        }
    }
}

#[test]
fn mutated_envelopes_match_the_dom_oracle() {
    let mut suite = Suite::new();
    let mut rng = Lcg(0x5eed);
    let snippets = [
        "\"",
        "\\",
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        " ",
        "\"base\": 1,",
        "\"alt\": [],",
        "\"alts\": \"x\",",
        "\"from_seq\": -1,",
        "\"statements\": [2],",
        "\\u00e9",
        "\\ud83d",
        "null",
        "tru",
        "1e",
        "-",
        "é",
        "\u{1}",
    ];
    for seed in 20..22 {
        for envelope in generated_envelopes(seed).iter().step_by(2) {
            for _ in 0..50 {
                suite.check_unstyled(&mutate(envelope, &mut rng, &snippets));
            }
        }
    }
}

#[test]
fn hostile_envelopes_match_the_dom_oracle() {
    let mut suite = Suite::new();
    let cases = [
        // Duplicate keys: the later one wins, whatever its type.
        r#"{"base": "a", "alt": "b", "base": "c"}"#,
        r#"{"base": "a", "alt": "b", "base": 2}"#,
        r#"{"base": 2, "alt": "b", "base": "c"}"#,
        r#"{"base": "a", "alt": "b", "alt": 3}"#,
        r#"{"base": "a", "alt": 3, "alt": "b"}"#,
        r#"{"base": "a", "alts": [], "alts": ["x", 1]}"#,
        r#"{"base": "a", "alts": ["x"], "alts": "x"}"#,
        r#"{"base": "a", "alts": ["x"], "alts": []}"#,
        r#"{"from_seq": 1, "statements": ["a"], "from_seq": "2"}"#,
        r#"{"from_seq": "1", "statements": ["a"], "from_seq": 2}"#,
        r#"{"from_seq": 1, "statements": [1], "statements": ["a"]}"#,
        r#"{"from_seq": 1, "statements": ["a"], "statements": {}}"#,
        r#"{"base": "a", "alt": "b"}"#,
        // Escapes, decoded once.
        r#"["a\"b", "é", "😀", "\/\b\f\n\r\t", "plain"]"#,
        r#"{"base": "\"q\"", "alt": "café 😀"}"#,
        r#"["\ud83d"]"#,
        r#"["\ud83dx"]"#,
        r#"["\udc00"]"#,
        r#"["\q"]"#,
        r#"["\u12"]"#,
        "[\"tab\there\"]",
        // Non-string entries; empty and non-array alts.
        "[1, true, null, {}, [], \"x\"]",
        "[[]]",
        r#"{"base": "a", "alts": []}"#,
        r#"{"base": "a", "alts": {}}"#,
        r#"{"base": "a", "alts": "x"}"#,
        r#"{"base": "a", "alts": null}"#,
        r#"{"base": "a", "alts": [1, "x", null]}"#,
        r#"{"base": "a"}"#,
        r#"{"alt": "a"}"#,
        "{}",
        "[]",
        "  [ ]  ",
        "\"doc\"",
        "42",
        "null",
        // Numeric forms of from_seq.
        r#"{"from_seq": 1e0, "statements": []}"#,
        r#"{"from_seq": -1, "statements": []}"#,
        r#"{"from_seq": 1.5, "statements": []}"#,
        r#"{"from_seq": 1E2, "statements": ["a"]}"#,
        r#"{"from_seq": -0, "statements": []}"#,
        r#"{"from_seq": 1e400, "statements": []}"#,
        r#"{"from_seq": 18446744073709551616, "statements": []}"#,
        r#"{"from_seq": 01, "statements": []}"#,
        r#"{"from_seq": 1., "statements": []}"#,
        r#"{"from_seq": -, "statements": []}"#,
        r#"{"from_seq": true, "statements": []}"#,
        r#"{"statements": []}"#,
        // Trailing garbage and syntax errors behind a shape error.
        "[\"x\"] x",
        "[\"x\"],",
        r#"{"base": "a", "alt": "b"} {}"#,
        r#"{"plans": [1, 2,]}"#,
        r#"{"base": 1, "alt": tru}"#,
        r#"{"from_seq": "x", "statements": [1 2]}"#,
        "[1, 2",
        "{\"base\" \"a\"}",
        "",
        "   ",
        "not json",
    ];
    for case in cases {
        suite.check_str(case);
    }
    // Bytes that are not UTF-8, alone and inside a valid envelope.
    for body in [
        &b"\xff"[..],
        b"[\"\xc3\x28\"]",
        b"{\"base\": \"a\", \"alt\": \"\xed\xa0\x80\"}",
        b"[\"ok\"]\xfe",
    ] {
        suite.check(body);
    }
}

/// A tiny deterministic generator for the mutation cases.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// `doc` with one seeded edit: a character replaced by, or a snippet
/// inserted from, `snippets`; or a span deleted.
fn mutate(doc: &str, rng: &mut Lcg, snippets: &[&str]) -> String {
    let boundaries: Vec<usize> = doc
        .char_indices()
        .map(|(i, _)| i)
        .chain([doc.len()])
        .collect();
    let at = boundaries[rng.below(boundaries.len())];
    let snippet = snippets[rng.below(snippets.len())];
    let mut out = String::with_capacity(doc.len() + snippet.len());
    out.push_str(&doc[..at]);
    match rng.below(3) {
        0 => {
            out.push_str(snippet);
            out.push_str(&doc[at..]);
        }
        1 => {
            out.push_str(snippet);
            let next = doc[at..].chars().next().map_or(0, char::len_utf8);
            out.push_str(&doc[at + next..]);
        }
        _ => {
            let skip = boundaries
                .iter()
                .copied()
                .find(|&b| b >= at + rng.below(12))
                .unwrap_or(doc.len());
            out.push_str(&doc[skip..]);
        }
    }
    out
}
