//! Cross-crate integration: SQL text → planner → EXPLAIN artifacts →
//! plan parsers → RULE-LANTERN → NEURAL-LANTERN, on all four schemas.

use lantern::catalog::{imdb_catalog, sdss_catalog, tpch_catalog};
use lantern::core::{decompose_acts, RuleLantern};
use lantern::engine::{explain::explain, Database, ExplainFormat, Planner};
use lantern::plan::{parse_pg_json_plan, parse_sqlserver_xml_plan};
use lantern::pool::{default_mssql_store, default_pg_store};
use lantern::sql::parse_sql;

#[test]
fn json_artifact_round_trip_preserves_narration() {
    let db = Database::generate(&tpch_catalog(), 0.0002, 3);
    let planner = Planner::new(&db);
    let store = default_pg_store();
    let rule = RuleLantern::new(&store);
    let q = parse_sql(
        "SELECT n.n_name, COUNT(*) FROM nation n, customer c \
         WHERE c.c_nationkey = n.n_nationkey GROUP BY n.n_name ORDER BY n.n_name",
    )
    .unwrap();
    let plan = planner.plan(&q).unwrap();
    let direct = rule.narrate(&plan.tree()).unwrap().text();
    // Through the JSON artifact, as a real client would consume it.
    let json = explain(&plan, ExplainFormat::PgJson);
    let reparsed = parse_pg_json_plan(&json).unwrap();
    let via_artifact = rule.narrate(&reparsed).unwrap().text();
    assert_eq!(direct, via_artifact);
}

#[test]
fn sql_server_artifact_narrates_with_mssql_catalog() {
    let db = Database::generate(&sdss_catalog(), 0.0002, 4);
    let planner = Planner::new(&db);
    let q = parse_sql(
        "SELECT p.objid, s.z_redshift FROM photoobj p, specobj s \
         WHERE s.bestobjid = p.objid AND s.class = 'QSO' LIMIT 10",
    )
    .unwrap();
    let plan = planner.plan(&q).unwrap();
    let xml = explain(&plan, ExplainFormat::SqlServerXml);
    let tree = parse_sqlserver_xml_plan(&xml).unwrap();
    assert_eq!(tree.source, "mssql");
    let store = default_mssql_store();
    let narration = RuleLantern::new(&store).narrate(&tree).unwrap();
    assert!(narration.text().contains("table scan") || narration.text().contains("index seek"));
    assert!(narration.text().ends_with("to get the final results."));
}

#[test]
fn acts_cover_every_operator_of_every_workload_plan() {
    // Every act's ops must account for every node in the plan (aux
    // nodes are absorbed by clusters, never lost).
    let db = Database::generate(&tpch_catalog(), 0.0002, 5);
    let planner = Planner::new(&db);
    let store = default_pg_store();
    for sql in [
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 10",
        "SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey LIMIT 5",
        "SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus",
    ] {
        let plan = planner.plan(&parse_sql(sql).unwrap()).unwrap();
        let tree = plan.tree();
        let acts = decompose_acts(&tree, &store).unwrap();
        let ops_in_acts: usize = acts.iter().map(|a| a.ops.len()).sum();
        assert_eq!(ops_in_acts, tree.size(), "{sql}");
    }
}

#[test]
fn neural_pipeline_runs_cross_domain() {
    use lantern::neural::{NeuralLantern, Qep2SeqConfig};
    let imdb = Database::generate(&imdb_catalog(), 0.0002, 6);
    let store = default_pg_store();
    let mut config = Qep2SeqConfig {
        hidden: 24,
        ..Default::default()
    };
    config.train.epochs = 4;
    let (neural, ts) = NeuralLantern::train_on(&imdb, &store, 15, config, 6);
    assert!(ts.examples.len() > 15);
    // Translate a TPC-H plan with the IMDB-trained model — the
    // schema-independence the act/tag design buys.
    let tpch = Database::generate(&tpch_catalog(), 0.0002, 7);
    let planner = Planner::new(&tpch);
    let plan = planner
        .plan(&parse_sql("SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000").unwrap())
        .unwrap();
    let steps = neural.describe(&plan.tree()).unwrap();
    assert!(!steps.is_empty());
    for s in &steps {
        assert!(!s.contains("<T>") && !s.contains("<TN>"), "{s}");
    }
}

#[test]
fn facade_prelude_compiles_and_works() {
    use lantern::prelude::*;
    let catalog = tpch_catalog();
    let db = Database::generate(&catalog, 0.0002, 42);
    let query = parse_sql("SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'F'").unwrap();
    let qep = Planner::new(&db).plan(&query).unwrap();
    let store = PoemStore::with_default_pg_operators();
    let narration = RuleLantern::new(&store).narrate(&qep.tree()).unwrap();
    assert!(narration.text().contains("sequential scan") || narration.text().contains("scan"));
}
