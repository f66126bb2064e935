//! Byte-level response invariants of the narration service, pinned on a
//! seeded `lantern-gen` stream of PostgreSQL JSON, SQL Server XML and
//! broken documents driven through `Router::handle`:
//!
//! * a `/narrate/batch` body is `[` + the single `/narrate` bodies of its
//!   items joined by `,` + `]`;
//! * a cached answer equals the `?nocache=1` answer, byte for byte;
//! * a `/narrate/diff/batch` body is the single `/narrate/diff` bodies,
//!   each led by its `alt_index`, ranked by score (ties in input order)
//!   with failures after them in input order;
//! * a failing `/narrate/diff` answers the error of its first failing
//!   step (detect base, detect alt, parse base, parse alt), and a diff
//!   batch whose base cannot be detected or parsed is one whole-request
//!   error.

use lantern::cache::CacheControl;
use lantern::core::{DiffTranslator, RuleTranslator};
use lantern::prelude::*;
use lantern::serve::http::{Request, Response};
use lantern::serve::{Router, ServeStats};
use lantern::text::json::JsonValue;
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

fn post(router: &CachedRouter, path: &str, body: &str, nocache: bool) -> Response {
    let query = if nocache {
        vec![("nocache".to_string(), "1".to_string())]
    } else {
        Vec::new()
    };
    router.handle(&Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    })
}

fn stats(router: &CachedRouter) -> JsonValue {
    let resp = router.handle(&Request {
        method: "GET".to_string(),
        path: "/stats".to_string(),
        query: Vec::new(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    });
    JsonValue::parse(text(&resp)).expect("stats JSON")
}

fn counter(stats: &JsonValue, name: &str) -> f64 {
    stats.get(name).and_then(JsonValue::as_f64).expect(name)
}

fn text(resp: &Response) -> &str {
    std::str::from_utf8(&resp.body).expect("UTF-8 body")
}

fn json_string(s: &str) -> String {
    JsonValue::String(s.to_string()).to_string_compact()
}

/// `n` generated documents (both vendor formats, duplicates and
/// near-duplicate mutants included) followed by documents no backend
/// can narrate: empty, unknown format, truncated JSON and XML, and a
/// body full of characters the writer must escape.
fn stream(seed: u64, n: usize) -> Vec<String> {
    let config = GenConfig::default()
        .with_seed(seed)
        .with_duplicate_rate(0.25)
        .with_mutate_rate(0.25);
    let mut docs: Vec<String> = PlanGenerator::new(config)
        .generate(n)
        .into_iter()
        .map(|item| item.doc)
        .collect();
    let truncated_json = docs[0][..docs[0].len() / 2].to_string();
    docs.extend([
        String::new(),
        "EXPLAIN SELECT 1".to_string(),
        truncated_json,
        "<ShowPlanXML><BatchSequence>".to_string(),
        "{\"Plan\": {\"Node Type\": \"Seq\\u0001 \\\"Scan\\\"\\n\\u2028é\"}}".to_string(),
    ]);
    docs
}

#[test]
fn batch_bodies_are_their_single_bodies_stitched() {
    for seed in [1, 2, 3] {
        let router = router();
        let docs = stream(seed, 10);
        let singles: Vec<String> = docs
            .iter()
            .map(|doc| text(&post(&router, "/narrate", doc, true)).to_string())
            .collect();
        assert!(singles.iter().any(|b| b.starts_with("{\"backend\":")));
        assert!(singles.iter().any(|b| b.starts_with("{\"error\":")));
        let envelope = format!(
            "[{}]",
            docs.iter()
                .map(|d| json_string(d))
                .collect::<Vec<_>>()
                .join(",")
        );
        let expected = format!("[{}]", singles.join(","));
        for nocache in [true, false, false] {
            let batch = post(&router, "/narrate/batch", &envelope, nocache);
            assert_eq!(batch.status, 200);
            assert_eq!(text(&batch), expected, "seed {seed}, nocache {nocache}");
        }
    }
}

#[test]
fn cached_answers_equal_uncached_answers_byte_for_byte() {
    let router = router();
    let docs = stream(4, 16);
    for doc in &docs {
        let uncached = post(&router, "/narrate", doc, true);
        let miss = post(&router, "/narrate", doc, false);
        let hit = post(&router, "/narrate", doc, false);
        assert_eq!(miss.status, uncached.status, "{doc}");
        assert_eq!(hit.status, uncached.status, "{doc}");
        assert_eq!(text(&miss), text(&uncached), "{doc}");
        assert_eq!(text(&hit), text(&uncached), "{doc}");
    }
    let stats = stats(&router);
    let hits = stats.get("cache").and_then(|c| c.get("hits"));
    assert!(
        hits.and_then(JsonValue::as_f64).unwrap() >= 16.0,
        "{stats:?}"
    );
}

#[test]
fn diff_batch_ranks_single_diff_bodies_under_their_alt_index() {
    for seed in [5, 6] {
        let router = router();
        let mut generator = PlanGenerator::new(GenConfig::default().with_seed(seed));
        let base_tree = generator.next_tree();
        let base = PlanGenerator::render(&base_tree, ArtifactFormat::PgJson);
        let mut alts = vec![base.clone()];
        for format in [ArtifactFormat::PgJson, ArtifactFormat::SqlServerXml] {
            for _ in 0..3 {
                let (mutant, _) = generator.mutate(&base_tree);
                alts.push(PlanGenerator::render(&mutant, format));
            }
            alts.push(PlanGenerator::render(&generator.next_tree(), format));
        }
        alts.extend(stream(seed, 1).into_iter().skip(1));

        // Each alternative on its own: its body and, for a success, its
        // score.
        let singles: Vec<(String, Option<f64>)> = alts
            .iter()
            .map(|alt| {
                let envelope = format!(
                    "{{\"alt\":{},\"base\":{}}}",
                    json_string(alt),
                    json_string(&base)
                );
                let body = text(&post(&router, "/narrate/diff", &envelope, false)).to_string();
                let score = JsonValue::parse(&body)
                    .ok()
                    .and_then(|v| v.get("score").and_then(JsonValue::as_f64));
                (body, score)
            })
            .collect();
        let mut ranked: Vec<usize> = (0..alts.len())
            .filter(|&i| singles[i].1.is_some())
            .collect();
        ranked.sort_by(|&a, &b| {
            let (sa, sb) = (singles[a].1.unwrap(), singles[b].1.unwrap());
            sb.partial_cmp(&sa).unwrap().then(a.cmp(&b))
        });
        ranked.extend((0..alts.len()).filter(|&i| singles[i].1.is_none()));
        assert!(ranked.len() > 5 && singles[ranked[0]].1.unwrap() > 0.0);
        let expected = ranked
            .iter()
            .map(|&i| format!("{{\"alt_index\":{i},{}", &singles[i].0[1..]))
            .collect::<Vec<_>>()
            .join(",");

        let envelope = format!(
            "{{\"alts\":[{}],\"base\":{}}}",
            alts.iter()
                .map(|a| json_string(a))
                .collect::<Vec<_>>()
                .join(","),
            json_string(&base)
        );
        let batch = post(&router, "/narrate/diff/batch", &envelope, false);
        assert_eq!(batch.status, 200);
        assert_eq!(text(&batch), format!("[{expected}]"), "seed {seed}");
    }
}

/// A `"Plans"` chain of `nodes` operators; past `MAX_DEPTH` the reader
/// refuses it.
fn plans_chain(nodes: usize) -> String {
    format!(
        r#"{{"Plan": {}{{"Node Type": "Seq Scan", "Relation Name": "t"}}{}}}"#,
        r#"{"Node Type": "Sort", "Plans": ["#.repeat(nodes - 1),
        "]}".repeat(nodes - 1)
    )
}

/// One document of each kind a diff can be handed: valid, empty, of
/// unknown format, truncated, and nested past the readers' depth limit.
fn diff_documents() -> Vec<(&'static str, String)> {
    let valid = PlanGenerator::render(
        &PlanGenerator::new(GenConfig::default().with_seed(9)).next_tree(),
        ArtifactFormat::PgJson,
    );
    let truncated = valid[..valid.len() / 2].to_string();
    let nested = plans_chain(lantern::text::MAX_DEPTH);
    assert!(PlanSource::parse_auto(&plans_chain(8)).is_ok());
    vec![
        ("valid", valid),
        ("empty", String::new()),
        ("unknown", "EXPLAIN SELECT 1".to_string()),
        ("truncated", truncated),
        ("nested", nested),
    ]
}

#[test]
fn single_diff_answers_the_error_of_the_first_failing_step() {
    let router = router();
    let docs = diff_documents();
    // A failing document's error body, as `/narrate` answers it.
    let alone = |doc: &str| {
        let resp = post(&router, "/narrate", doc, true);
        (resp.status, text(&resp).to_string())
    };
    let detects = |doc: &str| PlanSource::detect(doc).is_ok();
    let parses = |doc: &str| PlanSource::parse_auto(doc).is_ok();
    for (base_name, base) in &docs {
        for (alt_name, alt) in &docs {
            let first_failure = [
                (!detects(base)).then_some(base),
                (!detects(alt)).then_some(alt),
                (!parses(base)).then_some(base),
                (!parses(alt)).then_some(alt),
            ]
            .into_iter()
            .flatten()
            .next();
            let envelope = format!(
                "{{\"base\":{},\"alt\":{}}}",
                json_string(base),
                json_string(alt)
            );
            let resp = post(&router, "/narrate/diff", &envelope, false);
            let pair = format!("base {base_name}, alt {alt_name}");
            match first_failure {
                Some(doc) => {
                    let (status, body) = alone(doc);
                    assert_eq!(status, 400, "{pair}");
                    assert_eq!(
                        (resp.status, text(&resp)),
                        (status, body.as_str()),
                        "{pair}"
                    );
                }
                None => {
                    assert_eq!(resp.status, 200, "{pair}");
                    assert!(text(&resp).starts_with("{\"backend\":"), "{pair}");
                }
            }
        }
    }
}

#[test]
fn diff_batch_with_a_failing_base_is_one_whole_request_error() {
    let router = router();
    let docs = diff_documents();
    let alts = format!(
        "[{}]",
        docs.iter()
            .map(|(_, d)| json_string(d))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (name, base) in &docs[1..] {
        let before = stats(&router);
        let envelope = format!("{{\"base\":{},\"alts\":{alts}}}", json_string(base));
        let resp = post(&router, "/narrate/diff/batch", &envelope, false);
        let single = post(&router, "/narrate", base, true);
        assert_eq!(resp.status, 400, "{name}");
        assert_eq!(text(&resp), text(&single), "{name}");
        let after = stats(&router);
        for (counter_name, delta) in [
            ("diff_batch_requests", 1.0),
            ("diff_batch_items", 0.0),
            ("diff_errors", 1.0),
            ("diff_ok", 0.0),
        ] {
            assert_eq!(
                counter(&after, counter_name) - counter(&before, counter_name),
                delta,
                "{name}: {counter_name}"
            );
        }
    }
    // With a valid base every alternative is an item again.
    let envelope = format!("{{\"base\":{},\"alts\":{alts}}}", json_string(&docs[0].1));
    let resp = post(&router, "/narrate/diff/batch", &envelope, false);
    assert_eq!(resp.status, 200);
    let items = JsonValue::parse(text(&resp)).unwrap();
    assert_eq!(items.as_array().map(<[JsonValue]>::len), Some(docs.len()));
}
