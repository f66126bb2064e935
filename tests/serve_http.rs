//! Socket-level integration tests for the narration service: real
//! `TcpStream`s against servers booted on ephemeral ports, round-
//! tripping PG-JSON and SQL-Server-XML plans through all three
//! backends, the batch endpoint, the error→status mapping, and
//! graceful shutdown.
//!
//! The fixtures and assertions here are the source of truth for the
//! endpoint reference in `docs/SERVING.md` — change one, change both.

use lantern::core::Narration;
use lantern::neural::Qep2SeqConfig;
use lantern::prelude::*;
use lantern::text::json::JsonValue;

/// The paper's Figure 4 plan as a PostgreSQL EXPLAIN (FORMAT JSON)
/// document (also the `docs/SERVING.md` single-narration example).
const PG_DOC: &str = r#"{"Plan": {"Node Type": "Aggregate",
    "Plans": [{"Node Type": "Hash Join",
        "Hash Cond": "((i.proceeding_key) = (p.pub_key))",
        "Plans": [
            {"Node Type": "Seq Scan", "Relation Name": "inproceedings"},
            {"Node Type": "Hash",
             "Plans": [{"Node Type": "Seq Scan", "Relation Name": "publication",
                        "Filter": "title LIKE '%July%'"}]}
        ]}]}}"#;

/// A SQL Server XML showplan (the `docs/SERVING.md` cross-vendor
/// example).
const XML_DOC: &str = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple>
    <QueryPlan><RelOp PhysicalOp="Table Scan"><Object Table="photoobj"/></RelOp></QueryPlan>
    </StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;

fn json_of(body: &str) -> JsonValue {
    JsonValue::parse(body).unwrap_or_else(|e| panic!("unparseable body {body:?}: {e}"))
}

fn text_of(value: &JsonValue) -> String {
    value
        .get("text")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no text field in {}", value.to_string_compact()))
        .to_string()
}

fn error_kind_of(value: &JsonValue) -> String {
    value
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no error.kind in {}", value.to_string_compact()))
        .to_string()
}

/// Acceptance: PG-JSON and SQL-Server-XML documents round-trip through
/// all three backends over real sockets, and the response narration is
/// the stable wire format.
#[test]
fn all_three_backends_round_trip_over_sockets() {
    // Rule and NEURON come from the builder directly; NEURAL is a
    // quickly-trained tiny model over the combined pg+mssql catalog
    // (translation *quality* is not under test — the serving path is).
    let store = lantern::pool::default_mssql_store();
    let db = Database::generate(&dblp_catalog(), 0.0003, 5);
    let mut config = Qep2SeqConfig {
        hidden: 16,
        ..Default::default()
    };
    config.train.epochs = 2;
    let (model, _) = NeuralLantern::train_on(&db, &store, 10, config, 9);

    let rule = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let neural = LanternBuilder::new()
        .neural_model(model)
        .serve("127.0.0.1:0")
        .unwrap();
    let neuron = LanternBuilder::new()
        .backend(Backend::Neuron)
        .serve("127.0.0.1:0")
        .unwrap();

    for (backend, handle) in [("rule", &rule), ("neural", &neural), ("neuron", &neuron)] {
        let mut client = HttpClient::connect(handle.addr()).unwrap();

        // PG JSON narrates on every backend.
        let resp = client.post("/narrate", PG_DOC).unwrap();
        assert_eq!(resp.status, 200, "{backend}: {}", resp.body);
        let value = json_of(&resp.body);
        assert_eq!(
            value.get("backend").and_then(JsonValue::as_str),
            Some(backend)
        );
        let text = text_of(&value);
        assert!(text.starts_with("1. "), "{backend}: {text}");
        // The narration field is exactly the `Narration::to_json` wire
        // format: it deserializes and re-serializes byte-identically.
        let wire = value.get("narration").unwrap().to_string_compact();
        let narration = Narration::from_json(&wire).unwrap();
        assert!(!narration.steps().is_empty(), "{backend}");
        assert_eq!(narration.to_json(), wire, "{backend}");

        // SQL Server XML: rule and neural narrate via the combined
        // catalog; NEURON's hard-coded PostgreSQL rules make it a
        // structured 501 — its defining limitation (paper US 5),
        // reported over the wire rather than as a crash.
        let resp = client.post("/narrate", XML_DOC).unwrap();
        if backend == "neuron" {
            assert_eq!(resp.status, 501, "{backend}: {}", resp.body);
            assert_eq!(error_kind_of(&json_of(&resp.body)), "backend");
        } else {
            assert_eq!(resp.status, 200, "{backend}: {}", resp.body);
            let text = text_of(&json_of(&resp.body));
            assert!(!text.is_empty(), "{backend}");
        }
    }

    for handle in [rule, neural, neuron] {
        handle.shutdown().unwrap();
    }
}

/// The served response is byte-for-byte what the in-process service
/// produces: HTTP adds transport, not translation drift.
#[test]
fn served_narration_equals_in_process_service() {
    let local = LanternBuilder::new().build().unwrap();
    let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for doc in [PG_DOC, XML_DOC] {
        let direct = local.narrate_document(doc).unwrap();
        let value = json_of(&client.post("/narrate", doc).unwrap().body);
        assert_eq!(text_of(&value), direct.text);
        assert_eq!(
            value.get("narration").unwrap().to_string_compact(),
            direct.narration.to_json()
        );
    }
    drop(client);
    server.shutdown().unwrap();
}

#[test]
fn batch_endpoint_preserves_order_and_isolates_failures() {
    let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Distinct relations per entry so order is observable; entry 2 is
    // garbage and must fail alone.
    let docs: Vec<String> = (0..4)
        .map(|i| {
            if i == 2 {
                "EXPLAIN is not a serialized plan".to_string()
            } else {
                format!(r#"{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "t{i}"}}}}"#)
            }
        })
        .collect();
    let body =
        JsonValue::Array(docs.iter().cloned().map(JsonValue::String).collect()).to_string_compact();
    let resp = client.post("/narrate/batch", &body).unwrap();
    assert_eq!(resp.status, 200);
    let JsonValue::Array(items) = json_of(&resp.body) else {
        panic!("batch response must be an array: {}", resp.body);
    };
    assert_eq!(items.len(), 4);
    for (i, item) in items.iter().enumerate() {
        if i == 2 {
            assert_eq!(error_kind_of(item), "unknown_format");
        } else {
            assert!(
                text_of(item).contains(&format!("t{i}")),
                "entry {i} out of order: {}",
                item.to_string_compact()
            );
        }
    }

    // Styles apply to the whole batch.
    let resp = client.post("/narrate/batch?style=bulleted", &body).unwrap();
    let JsonValue::Array(items) = json_of(&resp.body) else {
        panic!("batch response must be an array");
    };
    assert!(text_of(&items[0]).starts_with("- "));

    drop(client);
    server.shutdown().unwrap();
}

/// The error→HTTP mapping observed over the wire, end to end (the
/// `docs/SERVING.md` status table).
#[test]
fn error_statuses_over_sockets() {
    let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let cases: &[(&str, &str, u16, &str)] = &[
        ("/narrate", "", 400, "empty_input"),
        ("/narrate", "EXPLAIN SELECT 1", 400, "unknown_format"),
        ("/narrate", r#"{"Plan": {"Node Type"#, 400, "parse"),
        ("/narrate", "<html><body/></html>", 400, "parse"),
        (
            "/narrate",
            r#"{"Plan": {"Node Type": "Hash Join", "Hash Cond": "(a.x = b.y)",
                "Plans": [{"Node Type": "Seq Scan", "Relation Name": "a"},
                          {"Node Type": "Hash"}]}}"#,
            422,
            "plan",
        ),
        ("/narrate?style=sonnet", PG_DOC, 400, "style"),
        ("/narrate/batch", "not json", 400, "parse"),
    ];
    for (path, body, status, kind) in cases {
        let resp = client.post(path, body).unwrap();
        assert_eq!(resp.status, *status, "{path} {body:?}: {}", resp.body);
        let value = json_of(&resp.body);
        assert_eq!(error_kind_of(&value), *kind, "{path} {body:?}");
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("status"))
                .and_then(JsonValue::as_f64),
            Some(*status as f64)
        );
    }

    // Routing misses.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(
        client.request("DELETE", "/narrate", None).unwrap().status,
        405
    );

    drop(client);
    server.shutdown().unwrap();

    // Unknown operator needs a narrower catalog: a pg-only store makes
    // the mssql plan a structured 422.
    let server = LanternBuilder::new()
        .store(PoemStore::with_default_pg_operators())
        .serve("127.0.0.1:0")
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let resp = client.post("/narrate", XML_DOC).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert_eq!(error_kind_of(&json_of(&resp.body)), "unknown_operator");
    drop(client);
    server.shutdown().unwrap();
}

#[test]
fn healthz_stats_and_graceful_shutdown() {
    let server = LanternBuilder::new()
        .style(RenderStyle::Bulleted)
        .serve("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).unwrap();

    let health = json_of(&client.get("/healthz").unwrap().body);
    assert_eq!(health.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(
        health.get("backend").and_then(JsonValue::as_str),
        Some("rule")
    );
    assert!(health
        .get("uptime_ms")
        .and_then(JsonValue::as_f64)
        .is_some());

    // The builder's configured style flows through the served path.
    let resp = client.post("/narrate", PG_DOC).unwrap();
    assert!(text_of(&json_of(&resp.body)).starts_with("- "));

    let _ = client.post("/narrate", "").unwrap();
    let stats = json_of(&client.get("/stats").unwrap().body);
    let count = |key: &str| stats.get(key).and_then(JsonValue::as_f64).unwrap() as u64;
    assert_eq!(count("narrate_requests"), 2);
    assert_eq!(count("narrate_ok"), 1);
    assert_eq!(count("narrate_errors"), 1);
    assert_eq!(count("connections"), 1, "keep-alive reuses one connection");
    assert_eq!(count("requests_total"), 4);
    // The gauges: exactly this /stats request is in flight while its
    // snapshot is taken, and uptime is reported in whole seconds too.
    assert_eq!(count("requests_in_flight"), 1);
    assert!(count("uptime_seconds") <= count("uptime_ms") / 1000 + 1);

    // In-process stats agree with the served snapshot (modulo the
    // /stats request itself, already counted above).
    assert_eq!(
        server
            .stats()
            .narrate_ok
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    drop(client);
    server.shutdown().unwrap();

    // After shutdown nothing serves: a fresh HTTP exchange must fail.
    let gone =
        match std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(500)) {
            Err(_) => true,
            Ok(mut stream) => {
                use std::io::{Read, Write};
                stream
                    .set_read_timeout(Some(std::time::Duration::from_millis(500)))
                    .unwrap();
                let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                let mut buf = Vec::new();
                matches!(stream.read_to_end(&mut buf), Ok(0) | Err(_))
            }
        };
    assert!(gone, "server still answering after graceful shutdown");
}

/// Write one raw HTTP request over a fresh socket and collect the
/// response (status, full text). Used where `HttpClient` is too
/// well-behaved to produce the malformed wire forms under test.
fn raw_exchange(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

/// Wire-level hardening: conflicting duplicate `Content-Length`
/// headers are rejected as a request-smuggling guard (identical
/// repeats still serve), and query parameters percent-decode before
/// they are matched.
#[test]
fn wire_hardening_over_sockets() {
    let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;

    // Two Content-Length values that disagree: ambiguous body
    // boundary, refused outright with a 400.
    let (status, text) = raw_exchange(
        addr,
        "POST /narrate HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\
         Connection: close\r\n\r\nbody",
    );
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("conflicting Content-Length"), "{text}");

    // Identical duplicates fold to one value and serve normally.
    let raw = format!(
        "POST /narrate HTTP/1.1\r\nContent-Length: {len}\r\nContent-Length: {len}\r\n\
         Connection: close\r\n\r\n{doc}",
        len = doc.len()
    );
    let (status, text) = raw_exchange(addr, &raw);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("sequential scan on orders"), "{text}");

    // An encoded trailing space (`%20` and `+`) in ?style= decodes
    // and trims instead of 400ing on a style named "bulleted ".
    for encoded in ["bulleted%20", "bulleted+"] {
        let raw = format!(
            "POST /narrate?style={encoded} HTTP/1.1\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{doc}",
            doc.len()
        );
        let (status, text) = raw_exchange(addr, &raw);
        assert_eq!(status, 200, "style={encoded}: {text}");
        assert!(text.contains("- "), "bulleted style applies: {text}");
    }

    server.shutdown().unwrap();
}

/// `POST /narrate/batch` envelope rejections over real sockets: an
/// empty JSON array and every non-array body are clear, structured
/// 400s — never a confusing 200 from the narrate pipeline.
#[test]
fn batch_envelope_rejections_over_sockets() {
    let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for body in ["[]", "  [ ]  ", "{}", "\"a plan\"", "17", "null"] {
        let resp = client.post("/narrate/batch", body).unwrap();
        assert_eq!(resp.status, 400, "{body:?}: {}", resp.body);
        let value = json_of(&resp.body);
        assert_eq!(error_kind_of(&value), "parse", "{body:?}");
        let message = value
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(JsonValue::as_str)
            .unwrap();
        assert!(
            message.contains("non-empty JSON array") || message.contains("JSON array"),
            "{body:?}: {message}"
        );
    }
    // The guard does not over-reject: a one-element array still works.
    let body = JsonValue::Array(vec![JsonValue::String(PG_DOC.to_string())]).to_string_compact();
    let resp = client.post("/narrate/batch", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    drop(client);
    server.shutdown().unwrap();
}

/// The Figure 4 plan with the hash join swapped for a merge join —
/// the `docs/SERVING.md` diff example's alternative.
const MERGE_ALT_DOC: &str = r#"{"Plan": {"Node Type": "Aggregate",
    "Plans": [{"Node Type": "Merge Join",
        "Merge Cond": "((i.proceeding_key) = (p.pub_key))",
        "Plans": [
            {"Node Type": "Seq Scan", "Relation Name": "inproceedings"},
            {"Node Type": "Hash",
             "Plans": [{"Node Type": "Seq Scan", "Relation Name": "publication",
                        "Filter": "title LIKE '%July%'"}]}
        ]}]}}"#;

/// Acceptance: `POST /narrate/diff` round-trips a base plan and an
/// alternative over real sockets (formats auto-detected per side), and
/// `POST /narrate/diff/batch` ranks one base against N alternatives by
/// informativeness, tagging every item with its input position.
#[test]
fn diff_endpoints_over_sockets() {
    let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let envelope = |base: &str, alt: &str| {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("base".to_string(), JsonValue::String(base.to_string()));
        obj.insert("alt".to_string(), JsonValue::String(alt.to_string()));
        JsonValue::Object(obj).to_string_compact()
    };

    // One plan against its join-algorithm rewrite: the change list
    // names the substitution and the narration says it in POEM voice.
    let resp = client
        .post("/narrate/diff", &envelope(PG_DOC, MERGE_ALT_DOC))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let value = json_of(&resp.body);
    assert_eq!(
        value.get("backend").and_then(JsonValue::as_str),
        Some("rule-diff")
    );
    assert_eq!(value.get("identical"), Some(&JsonValue::Bool(false)));
    let JsonValue::Array(changes) = value.get("changes").unwrap() else {
        panic!("changes must be an array: {}", resp.body);
    };
    assert!(!changes.is_empty());
    assert!(
        changes
            .iter()
            .any(|c| c.get("kind").and_then(JsonValue::as_str) == Some("operator-substitution")),
        "{}",
        resp.body
    );
    let text = text_of(&value);
    assert!(text.contains("merge join"), "{text}");

    // Self-diff over the wire: identical, empty change list, score 0.
    let resp = client
        .post("/narrate/diff", &envelope(PG_DOC, PG_DOC))
        .unwrap();
    let value = json_of(&resp.body);
    assert_eq!(value.get("identical"), Some(&JsonValue::Bool(true)));
    assert_eq!(value.get("score").and_then(JsonValue::as_f64), Some(0.0));

    // Cross-vendor: a pg base against an mssql alternative — each
    // side's format detects independently.
    let resp = client
        .post("/narrate/diff", &envelope(PG_DOC, XML_DOC))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Batch: identical plan (score 0), a filter tweak (small), and the
    // join rewrite (large) come back ranked large-to-small with
    // `alt_index` pointing at their input positions.
    let filter_alt = PG_DOC.replace("%July%", "%June%");
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("base".to_string(), JsonValue::String(PG_DOC.to_string()));
    obj.insert(
        "alts".to_string(),
        JsonValue::Array(vec![
            JsonValue::String(PG_DOC.to_string()),
            JsonValue::String(filter_alt),
            JsonValue::String(MERGE_ALT_DOC.to_string()),
        ]),
    );
    let resp = client
        .post(
            "/narrate/diff/batch",
            &JsonValue::Object(obj).to_string_compact(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let JsonValue::Array(items) = json_of(&resp.body) else {
        panic!("diff batch response must be an array: {}", resp.body);
    };
    assert_eq!(items.len(), 3);
    let ranked: Vec<f64> = items
        .iter()
        .map(|i| i.get("alt_index").and_then(JsonValue::as_f64).unwrap())
        .collect();
    assert_eq!(ranked, [2.0, 1.0, 0.0], "{}", resp.body);
    let scores: Vec<f64> = items
        .iter()
        .map(|i| i.get("score").and_then(JsonValue::as_f64).unwrap())
        .collect();
    assert!(scores[0] > scores[1] && scores[1] > scores[2], "{scores:?}");
    assert_eq!(scores[2], 0.0);

    drop(client);
    server.shutdown().unwrap();
}

/// Malformed diff bodies over raw sockets are structured 400s keyed by
/// `LanternError::kind()` — never a hung connection or an opaque 500.
#[test]
fn diff_envelope_rejections_over_sockets() {
    let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let post_raw = |path: &str, body: &str| {
        raw_exchange(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        )
    };

    let empty_base = format!(
        r#"{{"base": "", "alt": {}}}"#,
        JsonValue::String(PG_DOC.to_string()).to_string_compact()
    );
    let garbage_base = format!(
        r#"{{"base": "EXPLAIN SELECT 1", "alts": [{}]}}"#,
        JsonValue::String(PG_DOC.to_string()).to_string_compact()
    );
    let cases: &[(&str, &str, &str)] = &[
        ("/narrate/diff", "not json at all", "parse"),
        ("/narrate/diff", "[]", "parse"),
        ("/narrate/diff", r#"{"base": "x"}"#, "parse"),
        ("/narrate/diff", r#"{"alt": "x"}"#, "parse"),
        ("/narrate/diff", r#"{"base": 1, "alt": "x"}"#, "parse"),
        ("/narrate/diff", &empty_base, "empty_input"),
        (
            "/narrate/diff/batch",
            r#"{"base": "x", "alts": []}"#,
            "parse",
        ),
        (
            "/narrate/diff/batch",
            r#"{"base": "x", "alts": "y"}"#,
            "parse",
        ),
        // A base in no known format fails the whole batch request.
        ("/narrate/diff/batch", &garbage_base, "unknown_format"),
    ];
    for (path, body, kind) in cases {
        let (status, text) = post_raw(path, body);
        assert_eq!(status, 400, "{path} {body:?}: {text}");
        let json_start = text.find("\r\n\r\n").unwrap() + 4;
        let value = json_of(&text[json_start..]);
        assert_eq!(error_kind_of(&value), *kind, "{path} {body:?}");
    }

    // Wrong method on a live diff route is 405, not 404.
    let (status, _) = raw_exchange(
        addr,
        "GET /narrate/diff HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);

    server.shutdown().unwrap();
}

/// Event-core behaviour over raw sockets — HTTP/1.1 pipelining,
/// slow-loris isolation, and load-shedding.
mod event_core {
    use super::{json_of, raw_exchange};
    use lantern::core::{
        LanternError, NarrationRequest, NarrationResponse, RuleTranslator, Translator,
    };
    use lantern::prelude::*;
    use lantern::serve::{serve, Router, ServeStats};
    use lantern::text::json::JsonValue;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    fn pg_doc(relation: &str) -> String {
        format!(r#"{{"Plan": {{"Node Type": "Seq Scan", "Relation Name": "{relation}"}}}}"#)
    }

    /// One `POST /narrate` on the wire; `close` marks the last request
    /// of a pipelined burst so the server ends the connection after it.
    fn post_narrate(doc: &str, close: bool) -> String {
        format!(
            "POST /narrate HTTP/1.1\r\nContent-Length: {}\r\n{}\r\n{doc}",
            doc.len(),
            if close { "Connection: close\r\n" } else { "" },
        )
    }

    /// A burst of pipelined requests written in one send comes back as
    /// one response per request, in request order, on one connection.
    #[test]
    fn pipelined_burst_answers_in_request_order() {
        let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
        let mut burst = String::new();
        for i in 0..3 {
            burst.push_str(&post_narrate(&pg_doc(&format!("pipelined_{i}")), i == 2));
        }
        let (status, text) = raw_exchange(server.addr(), &burst);
        assert_eq!(status, 200, "{text}");
        assert_eq!(
            text.matches("HTTP/1.1 200").count(),
            3,
            "one response per pipelined request: {text}"
        );
        let pos = |needle: &str| {
            text.find(needle)
                .unwrap_or_else(|| panic!("{needle} missing from {text}"))
        };
        assert!(pos("pipelined_0") < pos("pipelined_1"), "{text}");
        assert!(pos("pipelined_1") < pos("pipelined_2"), "{text}");
        server.shutdown().unwrap();
    }

    /// Two bursts of four pipelined requests against one slow worker
    /// all answer 200 without shedding, and `/stats` counts the
    /// requests that arrived while an earlier one on the same
    /// connection was still unanswered.
    #[test]
    fn slow_pipelined_bursts_count_pipelined_requests() {
        // Slow enough that a burst's trailing requests are guaranteed
        // to arrive while the first is still being handled.
        struct Slow(RuleTranslator);
        impl Translator for Slow {
            fn backend(&self) -> &str {
                "slow"
            }
            fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
                std::thread::sleep(Duration::from_millis(10));
                self.0.narrate(req)
            }
        }

        let router = Router::with_catalog(
            Slow(RuleTranslator::new(lantern::pool::default_mssql_store())),
            Arc::new(ServeStats::new()),
            None,
            None,
            None,
        );
        let server = serve(
            Arc::new(router),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();

        for burst_no in 0..2 {
            let mut burst = String::new();
            for i in 0..4 {
                burst.push_str(&post_narrate(
                    &pg_doc(&format!("burst{burst_no}_{i}")),
                    i == 3,
                ));
            }
            let (_, text) = raw_exchange(server.addr(), &burst);
            assert_eq!(text.matches("HTTP/1.1 200").count(), 4, "{text}");
            assert_eq!(text.matches("HTTP/1.1 503").count(), 0, "{text}");
        }

        let mut client = HttpClient::connect(server.addr()).unwrap();
        let stats = json_of(&client.get("/stats").unwrap().body);
        let pipelined = stats.get("pipelined_requests").and_then(JsonValue::as_f64);
        assert!(
            pipelined.unwrap_or(0.0) >= 3.0,
            "{}",
            stats.to_string_compact()
        );
        server.shutdown().unwrap();
    }

    /// A connection that trickles half a header must not occupy the
    /// (single) worker: request dispatch happens only after a full
    /// frame arrives, so well-formed clients keep being served.
    #[test]
    fn partial_header_does_not_stall_other_connections() {
        let server = LanternBuilder::new()
            .build()
            .unwrap()
            .serve(
                "127.0.0.1:0",
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        let addr = server.addr();

        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"POST /narr").unwrap(); // header never completes

        for i in 0..3 {
            let (status, text) =
                raw_exchange(addr, &post_narrate(&pg_doc(&format!("live{i}")), true));
            assert_eq!(status, 200, "stalled behind a slow-loris: {text}");
        }
        drop(loris);
        server.shutdown().unwrap();
    }

    /// When the dispatch queue saturates, overflow requests are shed
    /// with an immediate `503` carrying `Retry-After` and the
    /// structured error body — and accepted requests still narrate on
    /// the same (still-open) connection, in request order.
    #[test]
    fn saturated_queue_sheds_503_with_retry_after() {
        struct Slow(RuleTranslator);
        impl Translator for Slow {
            fn backend(&self) -> &str {
                "slow"
            }
            fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
                std::thread::sleep(Duration::from_millis(25));
                self.0.narrate(req)
            }
        }

        let router = Router::with_catalog(
            Slow(RuleTranslator::new(lantern::pool::default_mssql_store())),
            Arc::new(ServeStats::new()),
            None,
            None,
            None,
        );
        let server = serve(
            Arc::new(router),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            ServeConfig {
                workers: 1,
                queue_depth: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();

        // Eight requests in one write against a 25 ms worker behind a
        // one-slot queue: the first is accepted, most of the rest
        // arrive while the queue is full and must shed.
        let mut burst = String::new();
        for i in 0..8 {
            burst.push_str(&post_narrate(&pg_doc(&format!("shed{i}")), i == 7));
        }
        let (_, text) = raw_exchange(server.addr(), &burst);
        assert_eq!(
            text.matches("HTTP/1.1 ").count(),
            8,
            "every pipelined request answered: {text}"
        );
        let shed = text.matches("HTTP/1.1 503").count();
        assert!(shed >= 1, "saturated queue must shed: {text}");
        assert!(
            text.matches("HTTP/1.1 200").count() >= 1,
            "shedding must not starve accepted work: {text}"
        );
        assert!(
            text.contains("Retry-After: 1"),
            "503 must advertise Retry-After: {text}"
        );
        // The shed body is the structured error envelope, parsed from
        // the first 503 in the stream.
        let at = text.find("HTTP/1.1 503").unwrap();
        let body_start = text[at..].find("\r\n\r\n").unwrap() + at + 4;
        let body_end = text[body_start..]
            .find("HTTP/1.1 ")
            .map(|i| body_start + i)
            .unwrap_or(text.len());
        let value = json_of(text[body_start..body_end].trim());
        let error = value.get("error").expect("structured error body");
        assert_eq!(
            error.get("kind").and_then(JsonValue::as_str),
            Some("overloaded")
        );
        assert_eq!(error.get("status").and_then(JsonValue::as_f64), Some(503.0));
        // Responses still serialize in request order: the accepted
        // first request's narration precedes everything else.
        let first_body = text.find("shed0").expect("first request narrated");
        assert!(first_body < body_start, "{text}");
        // The server's shed counter agrees with the 503s the client saw.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let stats = json_of(&client.get("/stats").unwrap().body);
        assert_eq!(
            stats.get("shed_requests").and_then(JsonValue::as_f64),
            Some(shed as f64),
            "{}",
            stats.to_string_compact()
        );
        server.shutdown().unwrap();
    }

    /// Many open keep-alive connections, driven from one thread: every
    /// request answers 200 on whichever parked connection carries it.
    #[test]
    fn many_parked_keep_alive_connections_all_answer_200() {
        const CONNS: usize = 256;
        let server = LanternBuilder::new().serve("127.0.0.1:0").unwrap();
        let mut clients: Vec<HttpClient> = (0..CONNS)
            .map(|_| HttpClient::connect(server.addr()).unwrap())
            .collect();
        for i in 0..2 * CONNS {
            let doc = pg_doc(&format!("conn{}", i % 8));
            let resp = clients[i % CONNS].post("/narrate", &doc).unwrap();
            assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        }
        drop(clients);
        server.shutdown().unwrap();
    }
}

/// Acceptance: a cache-enabled service over real sockets — a repeated
/// plan reports a cache hit in `/stats`, `?nocache=1` bypasses,
/// `POST /cache/clear` empties, and every response body is identical.
#[test]
fn cached_service_over_sockets() {
    let server = LanternBuilder::new()
        .cache(CacheConfig::default())
        .serve("127.0.0.1:0")
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let cold = client.post("/narrate", PG_DOC).unwrap();
    assert_eq!(cold.status, 200);
    let warm = client.post("/narrate", PG_DOC).unwrap();
    assert_eq!(warm.body, cold.body, "a hit must be byte-identical");

    let cache_of = |body: &str| {
        json_of(body)
            .get("cache")
            .expect("cache object in /stats")
            .clone()
    };
    let stats = cache_of(&client.get("/stats").unwrap().body);
    let count = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap() as u64;
    assert_eq!(count(&stats, "hits"), 1);
    assert_eq!(count(&stats, "entries"), 1);
    assert_eq!(
        count(&stats, "doc_hits"),
        1,
        "byte-identical re-submission skips parsing"
    );

    // Bypass: same body, no extra hit.
    let bypass = client.post("/narrate?nocache=1", PG_DOC).unwrap();
    assert_eq!(bypass.body, cold.body);
    let stats = cache_of(&client.get("/stats").unwrap().body);
    assert_eq!(count(&stats, "hits"), 1, "nocache must not touch the cache");

    // Admin clear.
    let resp = client.post("/cache/clear", "").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        json_of(&resp.body)
            .get("cleared")
            .and_then(JsonValue::as_f64),
        Some(1.0)
    );
    let stats = cache_of(&client.get("/stats").unwrap().body);
    assert_eq!(count(&stats, "entries"), 0);

    // Batch with 75% duplicates against the now-cold cache: each item
    // takes the single-request path, so the first narrates (one
    // insertion) and the other three are ordinary hits.
    let entry = JsonValue::String(PG_DOC.to_string()).to_string_compact();
    let batch = format!("[{entry}, {entry}, {entry}, {entry}]");
    let resp = client.post("/narrate/batch", &batch).unwrap();
    assert_eq!(resp.status, 200);
    let stats = cache_of(&client.get("/stats").unwrap().body);
    assert_eq!(
        count(&stats, "hits"),
        4,
        "three repeats hit the first's entry"
    );
    assert_eq!(count(&stats, "insertions"), 2, "one narration per batch");
    assert_eq!(count(&stats, "entries"), 1, "the unique plan was cached");

    drop(client);
    server.shutdown().unwrap();
}
