//! PostgreSQL-style `EXPLAIN (FORMAT JSON)` reader and writer.
//!
//! The document shape follows PostgreSQL: a one-element array whose
//! element has a `"Plan"` key holding the root node; nodes carry
//! `"Node Type"`, `"Relation Name"`, `"Alias"`, `"Filter"`,
//! `"Hash Cond"` / `"Merge Cond"` / `"Join Filter"` / `"Index Cond"`,
//! `"Sort Key"`, `"Group Key"`, `"Strategy"`, `"Plan Rows"`,
//! `"Total Cost"`, and `"Plans"` (children).

use crate::node::{PlanNode, PlanTree};
use lantern_text::json::{JsonError, JsonReader, JsonValue};
use std::collections::BTreeMap;

/// Keys recognised as join conditions, in the order PostgreSQL uses
/// them for the respective join operators.
const JOIN_COND_KEYS: &[&str] = &["Hash Cond", "Merge Cond", "Join Filter", "Index Cond"];

/// Parse a PostgreSQL-style JSON plan document into a [`PlanTree`]
/// tagged with source `pg`.
///
/// The document is read once, straight into the tree: the fields the
/// plan model keeps are decoded, every other value is validated and
/// skipped. A later duplicate key wins. Every syntax error in the
/// document is reported before a missing `"Plan"` key or
/// `"Node Type"`.
pub fn parse_pg_json_plan(doc: &str) -> Result<PlanTree, JsonError> {
    let mut r = JsonReader::new(doc);
    // PostgreSQL wraps the plan in a single-element array; also accept
    // the bare object. Only the first array element is read.
    let plan = if r.peek() == Some(b'[') {
        let mut plan = None;
        if r.begin_array()? {
            plan = read_wrapper(&mut r)?;
            while r.next_item()? {
                r.skip_value()?;
            }
        }
        plan
    } else {
        read_wrapper(&mut r)?
    };
    r.finish()?;
    let plan = plan.ok_or_else(|| semantic("missing 'Plan' key"))?;
    let root = plan.ok_or_else(|| semantic("missing 'Node Type'"))?;
    Ok(PlanTree::new("pg", root))
}

fn semantic(message: &str) -> JsonError {
    JsonError {
        offset: 0,
        message: message.to_string(),
    }
}

/// The value holding `"Plan"`: `None` when it has no such key,
/// `Some(None)` when the plan below it lacks a `"Node Type"`.
fn read_wrapper(r: &mut JsonReader<'_>) -> Result<Option<Option<PlanNode>>, JsonError> {
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        return Ok(None);
    }
    let mut plan = None;
    let mut key = r.begin_object()?;
    while let Some(k) = key {
        if k == "Plan" {
            plan = Some(read_node(r)?);
        } else {
            r.skip_value()?;
        }
        key = r.next_key()?;
    }
    Ok(plan)
}

/// One plan node: `Ok(None)` when it, or a node below it, lacks a
/// string `"Node Type"` (the rest is still read, so a later syntax
/// error wins).
fn read_node(r: &mut JsonReader<'_>) -> Result<Option<PlanNode>, JsonError> {
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        return Ok(None);
    }
    let mut node = PlanNode::default();
    let mut op = None;
    let mut join_conds: [Option<String>; JOIN_COND_KEYS.len()] = Default::default();
    let mut children_ok = true;
    let mut key = r.begin_object()?;
    while let Some(k) = key {
        match &*k {
            "Node Type" => op = read_str(r)?,
            "Relation Name" => node.relation = read_str(r)?,
            "Alias" => node.alias = read_str(r)?,
            "Index Name" => node.index_name = read_str(r)?,
            "Filter" => node.filter = read_str(r)?,
            "Sort Key" => node.sort_keys = read_str_array(r)?,
            "Group Key" => node.group_keys = read_str_array(r)?,
            "Strategy" => node.strategy = read_str(r)?,
            "Plan Rows" => node.estimated_rows = read_f64(r)?,
            "Total Cost" => node.estimated_cost = read_f64(r)?,
            "Plans" => {
                node.children.clear();
                children_ok = true;
                if r.peek() == Some(b'[') {
                    let mut more = r.begin_array()?;
                    while more {
                        match read_node(r)? {
                            Some(child) => node.children.push(child),
                            None => children_ok = false,
                        }
                        more = r.next_item()?;
                    }
                } else {
                    r.skip_value()?;
                }
            }
            other => match JOIN_COND_KEYS.iter().position(|&c| c == other) {
                Some(i) => join_conds[i] = read_str(r)?,
                None => r.skip_value()?,
            },
        }
        key = r.next_key()?;
    }
    let Some(op) = op.filter(|_| children_ok) else {
        return Ok(None);
    };
    node.op = op;
    node.join_cond = join_conds.into_iter().flatten().next();
    Ok(Some(node))
}

/// A string field; any other value reads as absent.
fn read_str(r: &mut JsonReader<'_>) -> Result<Option<String>, JsonError> {
    if r.peek() == Some(b'"') {
        return r.string().map(|s| Some(s.into_owned()));
    }
    r.skip_value()?;
    Ok(None)
}

/// A number field; any other value reads as `0`.
fn read_f64(r: &mut JsonReader<'_>) -> Result<f64, JsonError> {
    if matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
        return r.number();
    }
    r.skip_value()?;
    Ok(0.0)
}

/// The string items of an array field (other items dropped); any
/// other value reads as empty.
fn read_str_array(r: &mut JsonReader<'_>) -> Result<Vec<String>, JsonError> {
    let mut items = Vec::new();
    if r.peek() != Some(b'[') {
        r.skip_value()?;
        return Ok(items);
    }
    let mut more = r.begin_array()?;
    while more {
        if let Some(s) = read_str(r)? {
            items.push(s);
        }
        more = r.next_item()?;
    }
    Ok(items)
}

/// Serialize a plan back into the PostgreSQL JSON document shape.
pub fn plan_to_pg_json(tree: &PlanTree) -> String {
    let mut top = BTreeMap::new();
    top.insert("Plan".to_string(), node_to_json(&tree.root));
    JsonValue::Array(vec![JsonValue::Object(top)]).to_string_pretty()
}

fn node_to_json(node: &PlanNode) -> JsonValue {
    let mut m = BTreeMap::new();
    m.insert("Node Type".into(), JsonValue::String(node.op.clone()));
    if let Some(r) = &node.relation {
        m.insert("Relation Name".into(), JsonValue::String(r.clone()));
    }
    if let Some(a) = &node.alias {
        m.insert("Alias".into(), JsonValue::String(a.clone()));
    }
    if let Some(i) = &node.index_name {
        m.insert("Index Name".into(), JsonValue::String(i.clone()));
    }
    if let Some(f) = &node.filter {
        m.insert("Filter".into(), JsonValue::String(f.clone()));
    }
    if let Some(c) = &node.join_cond {
        let key = match node.op.as_str() {
            "Hash Join" => "Hash Cond",
            "Merge Join" => "Merge Cond",
            "Index Scan" => "Index Cond",
            _ => "Join Filter",
        };
        m.insert(key.into(), JsonValue::String(c.clone()));
    }
    if !node.sort_keys.is_empty() {
        m.insert(
            "Sort Key".into(),
            JsonValue::Array(
                node.sort_keys
                    .iter()
                    .cloned()
                    .map(JsonValue::String)
                    .collect(),
            ),
        );
    }
    if !node.group_keys.is_empty() {
        m.insert(
            "Group Key".into(),
            JsonValue::Array(
                node.group_keys
                    .iter()
                    .cloned()
                    .map(JsonValue::String)
                    .collect(),
            ),
        );
    }
    if let Some(s) = &node.strategy {
        m.insert("Strategy".into(), JsonValue::String(s.clone()));
    }
    m.insert("Plan Rows".into(), JsonValue::Number(node.estimated_rows));
    m.insert("Total Cost".into(), JsonValue::Number(node.estimated_cost));
    if !node.children.is_empty() {
        m.insert(
            "Plans".into(),
            JsonValue::Array(node.children.iter().map(node_to_json).collect()),
        );
    }
    for (k, v) in &node.extra {
        m.entry(k.clone())
            .or_insert_with(|| JsonValue::String(v.clone()));
    }
    JsonValue::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE_1_DOC: &str = r#"[{"Plan": {
        "Node Type": "Unique",
        "Plan Rows": 50, "Total Cost": 910.0,
        "Plans": [{
            "Node Type": "Aggregate", "Strategy": "Sorted",
            "Group Key": ["i.proceeding_key"],
            "Filter": "count(*) > 200",
            "Plan Rows": 50, "Total Cost": 900.0,
            "Plans": [{
                "Node Type": "Sort", "Sort Key": ["i.proceeding_key"],
                "Plan Rows": 1200, "Total Cost": 850.0,
                "Plans": [{
                    "Node Type": "Hash Join",
                    "Hash Cond": "(i.proceeding_key) = (p.pub_key)",
                    "Plan Rows": 1200, "Total Cost": 700.0,
                    "Plans": [
                        {"Node Type": "Seq Scan", "Relation Name": "inproceedings",
                         "Alias": "i", "Plan Rows": 3000, "Total Cost": 100.0},
                        {"Node Type": "Hash", "Plan Rows": 400, "Total Cost": 220.0,
                         "Plans": [{"Node Type": "Seq Scan", "Relation Name": "publication",
                                    "Alias": "p", "Filter": "title ~~ '%July%'",
                                    "Plan Rows": 400, "Total Cost": 200.0}]}
                    ]
                }]
            }]
        }]
    }}]"#;

    #[test]
    fn parses_figure_1_style_document() {
        let tree = parse_pg_json_plan(FIGURE_1_DOC).unwrap();
        assert_eq!(tree.source, "pg");
        assert_eq!(tree.size(), 7);
        assert_eq!(tree.root.op, "Unique");
        let agg = &tree.root.children[0];
        assert_eq!(agg.group_keys, vec!["i.proceeding_key"]);
        let join = &agg.children[0].children[0];
        assert_eq!(
            join.join_cond.as_deref(),
            Some("(i.proceeding_key) = (p.pub_key)")
        );
        assert_eq!(tree.root.relations(), vec!["inproceedings", "publication"]);
    }

    #[test]
    fn accepts_bare_object() {
        let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "t"}}"#;
        let tree = parse_pg_json_plan(doc).unwrap();
        assert_eq!(tree.root.op, "Seq Scan");
    }

    #[test]
    fn missing_plan_key_is_error() {
        assert!(parse_pg_json_plan(r#"{"NotPlan": 1}"#).is_err());
    }

    #[test]
    fn missing_node_type_is_error() {
        assert!(parse_pg_json_plan(r#"{"Plan": {"Relation Name": "t"}}"#).is_err());
    }

    #[test]
    fn round_trip_preserves_tree() {
        let tree = parse_pg_json_plan(FIGURE_1_DOC).unwrap();
        let text = plan_to_pg_json(&tree);
        let tree2 = parse_pg_json_plan(&text).unwrap();
        assert_eq!(tree, tree2);
    }

    #[test]
    fn join_cond_key_depends_on_operator() {
        let mut tree = parse_pg_json_plan(FIGURE_1_DOC).unwrap();
        // Rename join to Merge Join; the writer must emit "Merge Cond".
        tree.root.children[0].children[0].children[0].op = "Merge Join".to_string();
        let text = plan_to_pg_json(&tree);
        assert!(text.contains("Merge Cond"));
    }
}
