//! Nesting depth is bounded where untrusted bytes land. The JSON and
//! XML readers refuse documents nested deeper than
//! `lantern::text::MAX_DEPTH`, so a deep plan, envelope or shard key is
//! a 400 `parse` error instead of a stack overflow that aborts the
//! process. A document nested exactly at the limit still goes through
//! every recursive walk on a thread with the workers' stack size.

use lantern::cache::CacheControl;
use lantern::cluster::{document_key, shard_key};
use lantern::core::{DiffTranslator, RuleTranslator};
use lantern::prelude::*;
use lantern::serve::http::{Request, Response};
use lantern::serve::{Router, ServeStats};
use lantern::text::json::JsonValue;
use lantern::text::MAX_DEPTH;
use std::sync::Arc;

type CachedRouter = Router<Arc<CachedTranslator<RuleTranslator>>>;

fn router() -> CachedRouter {
    let store = lantern::pool::default_mssql_store();
    let cached = Arc::new(CachedTranslator::new(
        RuleTranslator::new(store.clone()),
        CacheConfig::default(),
    ));
    let diff: Arc<dyn DiffTranslator + Send + Sync> = Arc::new(RuleDiffTranslator::new(store));
    Router::with_catalog(
        Arc::clone(&cached),
        Arc::new(ServeStats::new()),
        Some(cached as Arc<dyn CacheControl + Send + Sync>),
        Some(diff),
        None,
    )
}

fn request(method: &str, path: &str, query: &[(&str, &str)], body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn post(router: &CachedRouter, path: &str, body: &str) -> Response {
    router.handle(&request("POST", path, &[], body))
}

fn json_of(resp: &Response) -> JsonValue {
    JsonValue::parse(std::str::from_utf8(&resp.body).expect("UTF-8 body")).expect("JSON body")
}

fn error_kind(value: &JsonValue) -> Option<&str> {
    value.get("error")?.get("kind")?.as_str()
}

fn json_string(s: &str) -> String {
    JsonValue::String(s.to_string()).to_string_compact()
}

/// `depth` nested JSON arrays: `[[[…]]]`.
fn nested_arrays(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// A PostgreSQL document whose plan is a chain of `nodes` operators
/// (`Sort` over `Sort` … over a `Seq Scan` on `leaf`). The JSON nests
/// `2 * nodes` levels: the outer object, then an object and a `Plans`
/// array per node below the root.
fn plans_chain(nodes: usize, leaf: &str) -> String {
    let mut doc = String::from(r#"{"Plan": "#);
    for _ in 1..nodes {
        doc.push_str(r#"{"Node Type": "Sort", "Plans": ["#);
    }
    doc.push_str(&format!(
        r#"{{"Node Type": "Seq Scan", "Relation Name": "{leaf}"}}"#
    ));
    doc.push_str(&"]}".repeat(nodes - 1));
    doc.push('}');
    doc
}

/// A SQL Server showplan whose plan is a chain of `relops` directly
/// nested `RelOp`s over a `Table Scan` of `leaf`. The XML nests
/// `6 + relops` open elements (the self-closing `Object` adds none).
fn relop_chain(relops: usize, leaf: &str) -> String {
    let mut doc =
        String::from("<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple><QueryPlan>");
    for _ in 1..relops {
        doc.push_str(r#"<RelOp PhysicalOp="Sort">"#);
    }
    doc.push_str(&format!(
        r#"<RelOp PhysicalOp="Table Scan"><Object Table="{leaf}"/></RelOp>"#
    ));
    doc.push_str(&"</RelOp>".repeat(relops - 1));
    doc.push_str("</QueryPlan></StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>");
    doc
}

#[test]
fn deep_documents_are_400_parse_and_the_router_survives() {
    let router = router();
    let reproductions = [
        ("100 KB of nested [", nested_arrays(50_000)),
        ("3,000-deep Plans chain", plans_chain(3_000, "t")),
        ("3,000-deep RelOp showplan", relop_chain(3_000, "t")),
    ];
    assert!(reproductions[0].1.len() >= 100_000);
    for (name, doc) in &reproductions {
        for query in [&[][..], &[("nocache", "1")][..]] {
            let resp = router.handle(&request("POST", "/narrate", query, doc));
            assert_eq!(resp.status, 400, "{name} {query:?}");
            assert_eq!(error_kind(&json_of(&resp)), Some("parse"), "{name}");
        }
        // As a batch entry: a per-item parse error beside a good plan.
        let batch = format!(
            "[{}, {}]",
            json_string(doc),
            json_string(&plans_chain(2, "ok"))
        );
        let resp = post(&router, "/narrate/batch", &batch);
        assert_eq!(resp.status, 200, "{name}");
        let items = json_of(&resp);
        let items = items.as_array().expect("batch array");
        assert_eq!(error_kind(&items[0]), Some("parse"), "{name}");
        assert!(items[1].get("text").is_some(), "{name}");
        // As a diff base: the whole request is refused.
        let diff = format!(
            r#"{{"base": {}, "alt": {}}}"#,
            json_string(doc),
            json_string(&plans_chain(2, "ok"))
        );
        assert_eq!(post(&router, "/narrate/diff", &diff).status, 400, "{name}");
        let diff_batch = format!(
            r#"{{"base": {}, "alts": [{}]}}"#,
            json_string(doc),
            json_string(&plans_chain(2, "ok"))
        );
        // A diff batch parses its base before any alternative, so the
        // deep base is one whole-request error.
        let resp = post(&router, "/narrate/diff/batch", &diff_batch);
        assert_eq!(resp.status, 400, "{name}");
        assert_eq!(error_kind(&json_of(&resp)), Some("parse"), "{name}");
    }
    // The nest as a request envelope is refused by the envelope reader.
    let resp = post(&router, "/narrate/batch", &reproductions[0].1);
    assert_eq!(resp.status, 400);
    assert_eq!(error_kind(&json_of(&resp)), Some("parse"));
    assert_eq!(
        router.handle(&request("GET", "/healthz", &[], "")).status,
        200
    );

    // The coordinator keys a 400 KB nest by its text, as it keys every
    // document that does not parse.
    let nest = nested_arrays(200_000);
    assert_eq!(shard_key(&nest), document_key(&nest).0);
}

#[test]
fn documents_at_the_depth_limit_take_every_walk_on_a_worker_stack() {
    // Worker threads run on the platform default of 2 MiB.
    let walked = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let router = router();
            let at_limit = [
                (
                    plans_chain(MAX_DEPTH / 2, "a"),
                    plans_chain(MAX_DEPTH / 2, "b"),
                ),
                (
                    relop_chain(MAX_DEPTH - 6, "a"),
                    relop_chain(MAX_DEPTH - 6, "b"),
                ),
            ];
            for (doc, alt) in &at_limit {
                // Parse + fingerprint + narrate + render, cold and warm.
                let cold = post(&router, "/narrate", doc);
                assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
                assert!(std::str::from_utf8(&cold.body).unwrap().contains("on a"));
                assert_eq!(post(&router, "/narrate", doc).body, cold.body);
                // Diff + render against the same chain over another table.
                let diff = format!(
                    r#"{{"base": {}, "alt": {}}}"#,
                    json_string(doc),
                    json_string(alt)
                );
                let resp = post(&router, "/narrate/diff", &diff);
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                assert!(!json_of(&resp)
                    .get("changes")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .is_empty());
                // The coordinator's routing parse reaches the tree.
                assert_ne!(shard_key(doc), document_key(doc).0);
            }
            // One level more is refused, in both formats.
            let over = [
                format!("[{}]", plans_chain(MAX_DEPTH / 2, "a")),
                relop_chain(MAX_DEPTH - 5, "a"),
            ];
            for doc in &over {
                let resp = post(&router, "/narrate", doc);
                assert_eq!(resp.status, 400);
                assert_eq!(error_kind(&json_of(&resp)), Some("parse"));
            }
        })
        .expect("spawn a worker-sized thread")
        .join();
    assert!(walked.is_ok(), "a walk at the depth limit failed");
}
