//! The unified translator API end to end: one `NarrationRequest`
//! pipeline over the rule, neural, and NEURON-baseline backends,
//! format auto-detection negative paths, wire-format stability, and
//! batch/sequential agreement.

use lantern::core::{LanternError, Narration, PlanFormat};
use lantern::neural::Qep2SeqConfig;
use lantern::prelude::*;

const PG_DOC: &str = r#"[{"Plan": {"Node Type": "Hash Join",
    "Hash Cond": "((a.x) = (b.y))",
    "Plans": [
      {"Node Type": "Seq Scan", "Relation Name": "a"},
      {"Node Type": "Hash",
       "Plans": [{"Node Type": "Seq Scan", "Relation Name": "b"}]}
    ]}}]"#;

/// Acceptance: the same request runs through all three backends via
/// the same trait and builder.
#[test]
fn same_request_through_all_three_backends() {
    let request = NarrationRequest::auto(PG_DOC).expect("auto-detects JSON");

    // Rule backend.
    let rule = LanternBuilder::new().build().unwrap();
    // Neural backend (quickly-trained tiny model; quality is not the
    // point of this test — the shared interface is).
    let db = Database::generate(&dblp_catalog(), 0.0003, 5);
    let mut config = Qep2SeqConfig {
        hidden: 16,
        ..Default::default()
    };
    config.train.epochs = 2;
    let (model, _) =
        NeuralLantern::train_on(&db, &PoemStore::with_default_pg_operators(), 10, config, 9);
    let neural = LanternBuilder::new().neural_model(model).build().unwrap();
    // NEURON baseline.
    let neuron = LanternBuilder::new()
        .backend(Backend::Neuron)
        .build()
        .unwrap();

    let services: [(&str, &LanternService); 3] =
        [("rule", &rule), ("neural", &neural), ("neuron", &neuron)];
    for (expected_backend, service) in services {
        let response = service.narrate(&request).unwrap();
        assert_eq!(response.backend, expected_backend);
        assert_eq!(service.backend(), expected_backend);
        assert!(!response.narration.steps().is_empty(), "{expected_backend}");
        assert!(
            response.text.starts_with("1. "),
            "{expected_backend}: {}",
            response.text
        );
    }

    // And through the trait object interface they are interchangeable.
    let translators: Vec<&dyn Translator> = vec![&rule, &neural, &neuron];
    let texts: Vec<String> = translators
        .iter()
        .map(|t| t.narrate(&request).unwrap().text)
        .collect();
    assert_eq!(texts.len(), 3);
}

#[test]
fn format_auto_detection_negative_paths() {
    // Empty and whitespace-only documents.
    assert_eq!(
        NarrationRequest::auto("").unwrap_err(),
        LanternError::EmptyInput
    );
    assert_eq!(
        NarrationRequest::auto(" \n\t ").unwrap_err(),
        LanternError::EmptyInput
    );

    // Unclassifiable text.
    match NarrationRequest::auto("Seq Scan on orders  (cost=0.00..35.50)").unwrap_err() {
        LanternError::UnknownFormat { snippet } => assert!(snippet.starts_with("Seq Scan")),
        other => panic!("{other:?}"),
    }

    let service = LanternBuilder::new().build().unwrap();

    // Truncated JSON: detected as JSON, fails in the parser.
    let truncated = &PG_DOC[..PG_DOC.len() / 2];
    match service
        .narrate(&NarrationRequest::auto(truncated).unwrap())
        .unwrap_err()
    {
        LanternError::Parse { format, .. } => assert_eq!(format, PlanFormat::PgJson),
        other => panic!("{other:?}"),
    }

    // XML with no RelOp anywhere: detected as XML, fails in the parser.
    let relop_less = "<ShowPlanXML><BatchSequence><Batch/></BatchSequence></ShowPlanXML>";
    match service
        .narrate(&NarrationRequest::auto(relop_less).unwrap())
        .unwrap_err()
    {
        LanternError::Parse { format, message } => {
            assert_eq!(format, PlanFormat::SqlServerXml);
            assert!(message.contains("RelOp"), "{message}");
        }
        other => panic!("{other:?}"),
    }

    // Wrong-vendor document: an arbitrary XML document that is not a
    // showplan at all.
    match service.narrate(&NarrationRequest::auto("<html><body/></html>").unwrap()) {
        Err(LanternError::Parse { format, .. }) => assert_eq!(format, PlanFormat::SqlServerXml),
        other => panic!("{other:?}"),
    }

    // Wrong-vendor *operators*: a valid showplan against a pg-only
    // store is a structured unknown-operator error, not a string.
    let pg_only = LanternBuilder::new()
        .store(PoemStore::with_default_pg_operators())
        .build()
        .unwrap();
    let xml = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple><QueryPlan>
        <RelOp PhysicalOp="Table Scan"><Object Table="photoobj"/></RelOp>
    </QueryPlan></StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;
    match pg_only
        .narrate(&NarrationRequest::auto(xml).unwrap())
        .unwrap_err()
    {
        LanternError::UnknownOperator { source, op } => {
            assert_eq!(source, "mssql");
            assert_eq!(op, "Table Scan");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn narration_wire_format_is_stable_for_service_responses() {
    let service = LanternBuilder::new().build().unwrap();
    let response = service
        .narrate(&NarrationRequest::auto(PG_DOC).unwrap())
        .unwrap();
    let wire = response.narration.to_json();
    let back = Narration::from_json(&wire).unwrap();
    assert_eq!(back, response.narration);
    assert_eq!(back.to_json(), wire);
    // The concrete/tagged pairing survives the wire: substituting each
    // step's bindings into its tagged text reproduces the text.
    for step in back.steps() {
        assert_eq!(
            lantern::core::substitute_tags(&step.tagged, &step.bindings),
            step.text
        );
    }
}

#[test]
fn batch_agrees_with_sequential_over_planner_output() {
    let db = Database::generate(&tpch_catalog(), 0.0002, 3);
    let planner = Planner::new(&db);
    let service = LanternBuilder::new().build().unwrap();
    let requests: Vec<NarrationRequest> = [
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 10",
        "SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey LIMIT 5",
        "SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus",
    ]
    .iter()
    .map(|sql| {
        let plan = planner.plan(&parse_sql(sql).unwrap()).unwrap();
        NarrationRequest::from(&plan)
    })
    .collect();
    let sequential: Vec<String> = requests
        .iter()
        .map(|r| service.narrate(r).unwrap().text)
        .collect();
    let batched: Vec<String> = service
        .narrate_batch(&requests)
        .into_iter()
        .map(|r| r.unwrap().text)
        .collect();
    assert_eq!(sequential, batched);
}

/// The explain bridge: the same plan narrates identically whether it
/// reaches the service as a tree, a JSON artifact, or an XML artifact
/// rendered into the mssql vocabulary (which narrates with the mssql
/// catalog instead).
#[test]
fn explain_source_bridges_every_format() {
    let db = Database::generate(&tpch_catalog(), 0.0002, 3);
    let planner = Planner::new(&db);
    let plan = planner
        .plan(&parse_sql("SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000").unwrap())
        .unwrap();
    let service = LanternBuilder::new().build().unwrap();
    let via_tree = service
        .narrate(&NarrationRequest::new(explain_source(
            &plan,
            ExplainFormat::Text,
        )))
        .unwrap();
    let via_json = service
        .narrate(&NarrationRequest::new(explain_source(
            &plan,
            ExplainFormat::PgJson,
        )))
        .unwrap();
    assert_eq!(via_tree.narration, via_json.narration);
    let via_xml = service
        .narrate(&NarrationRequest::new(explain_source(
            &plan,
            ExplainFormat::SqlServerXml,
        )))
        .unwrap();
    assert!(via_xml.text.ends_with("to get the final results."));
}
