//! SQL Server-style XML showplan reader and writer.
//!
//! The document shape follows SQL Server's `ShowPlanXML`:
//!
//! ```xml
//! <ShowPlanXML Version="1.5">
//!   <BatchSequence><Batch><Statements>
//!     <StmtSimple StatementText="SELECT ...">
//!       <QueryPlan>
//!         <RelOp PhysicalOp="Hash Match" LogicalOp="Inner Join" ...>
//!           <Predicate>...</Predicate>
//!           <RelOp .../> ...
//!         </RelOp>
//!       </QueryPlan>
//!     </StmtSimple>
//!   </Statements></Batch></BatchSequence>
//! </ShowPlanXML>
//! ```
//!
//! Operator names use SQL Server vocabulary (`Table Scan`,
//! `Index Seek`, `Hash Match`, `Nested Loops`, `Stream Aggregate`,
//! `Distinct Sort`, `Top`, …). The writer maps from PostgreSQL-style
//! names when exporting a `pg` tree so the same logical plan can be
//! rendered for either source — mirroring how the paper runs LANTERN on
//! both PostgreSQL and SQL Server.

use crate::node::{PlanNode, PlanTree};
use lantern_text::xml::{push_text, XmlError, XmlEvent, XmlNode, XmlReader, XmlTag};
use std::borrow::Cow;

/// PostgreSQL-name -> SQL Server-name operator mapping used when a
/// `pg`-sourced tree is exported as a showplan. (Auxiliary `Hash`
/// nodes are kept: our mssql dialect models the build side explicitly,
/// which preserves the auxiliary/critical structure the clustering
/// step needs.)
pub const PG_TO_MSSQL_OPS: &[(&str, &str)] = &[
    ("Seq Scan", "Table Scan"),
    ("Index Scan", "Index Seek"),
    ("Bitmap Heap Scan", "Index Seek"),
    ("Hash Join", "Hash Match"),
    ("Merge Join", "Merge Join"),
    ("Nested Loop", "Nested Loops"),
    ("Hash", "Hash Build"),
    ("Sort", "Sort"),
    ("Aggregate", "Stream Aggregate"),
    ("HashAggregate", "Hash Match Aggregate"),
    ("Unique", "Distinct Sort"),
    ("Limit", "Top"),
    ("Materialize", "Table Spool"),
    ("Gather", "Parallelism"),
];

/// Translate one PostgreSQL operator name to SQL Server vocabulary
/// (returns the input unchanged when no mapping exists).
pub fn pg_op_to_mssql(op: &str) -> &str {
    PG_TO_MSSQL_OPS
        .iter()
        .find(|(pg, _)| op.eq_ignore_ascii_case(pg))
        .map(|(_, ms)| *ms)
        .unwrap_or(op)
}

/// Parse an XML showplan into a [`PlanTree`] tagged with source
/// `mssql`. Vendor operator names are preserved verbatim.
///
/// The document is read once, straight into the tree. The plan root is
/// the first `RelOp` element in document order; only its direct `RelOp`
/// children are its children. The first of duplicate attributes wins.
/// Every syntax error in the document is reported before a missing
/// `RelOp`.
pub fn parse_sqlserver_xml_plan(doc: &str) -> Result<PlanTree, XmlError> {
    let mut r = XmlReader::new(doc);
    let mut root = None;
    loop {
        match r.next()? {
            XmlEvent::Start(tag) if root.is_none() && tag.local_name() == "RelOp" => {
                root = Some(read_relop(&mut r, &tag)?);
            }
            XmlEvent::Eof => break,
            _ => {}
        }
    }
    let root = root.ok_or(XmlError {
        offset: 0,
        message: "no RelOp element found in showplan".to_string(),
    })?;
    Ok(PlanTree::new("mssql", root))
}

/// The `RelOp` element just opened as `tag`, through its end tag.
fn read_relop(r: &mut XmlReader<'_>, tag: &XmlTag<'_>) -> Result<PlanNode, XmlError> {
    let [op, rows, cost, logical, strategy] = tag.attrs_named([
        "PhysicalOp",
        "EstimateRows",
        "EstimatedTotalSubtreeCost",
        "LogicalOp",
        "Strategy",
    ]);
    let mut node = PlanNode::new(op.as_deref().unwrap_or("Unknown"));
    let number = |value: Option<Cow<'_, str>>| value.and_then(|s| s.parse().ok()).unwrap_or(0.0);
    node.estimated_rows = number(rows);
    node.estimated_cost = number(cost);
    if let Some(logical) = logical {
        node.extra
            .insert("LogicalOp".to_string(), logical.into_owned());
    }
    node.strategy = strategy.map(Cow::into_owned);
    loop {
        let child = match r.next()? {
            XmlEvent::Start(child) => child,
            XmlEvent::End(_) | XmlEvent::Eof => return Ok(node),
            _ => continue,
        };
        match child.local_name() {
            "Object" => {
                let [table, alias, index] = child.attrs_named(["Table", "Alias", "Index"]);
                node.relation = table.map(Cow::into_owned);
                node.alias = alias.map(Cow::into_owned);
                node.index_name = index.map(Cow::into_owned);
                skip_element(r)?;
            }
            "Predicate" => node.filter = Some(read_text(r)?),
            "JoinPredicate" => node.join_cond = Some(read_text(r)?),
            "OrderBy" => read_columns(r, |col| {
                if let [Some(c), descending] = col.attrs_named(["Column", "Descending"]) {
                    let dir = if descending.as_deref() == Some("true") {
                        " DESC"
                    } else {
                        ""
                    };
                    node.sort_keys.push(format!("{c}{dir}"));
                }
            })?,
            "GroupBy" => read_columns(r, |col| {
                if let [Some(c)] = col.attrs_named(["Column"]) {
                    node.group_keys.push(c.into_owned());
                }
            })?,
            "RelOp" => node.children.push(read_relop(r, &child)?),
            _ => skip_element(r)?,
        }
    }
}

/// Skip the rest of the element just opened, through its end tag.
fn skip_element(r: &mut XmlReader<'_>) -> Result<(), XmlError> {
    let mut depth = 1usize;
    loop {
        match r.next()? {
            XmlEvent::Start(_) => depth += 1,
            XmlEvent::End(_) => {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
            XmlEvent::Eof => return Ok(()),
            _ => {}
        }
    }
}

/// The text directly inside the element just opened (descendants'
/// text excluded), built like [`XmlNode`] text.
fn read_text(r: &mut XmlReader<'_>) -> Result<String, XmlError> {
    let mut text = String::new();
    loop {
        match r.next()? {
            XmlEvent::Text(raw) => push_text(&mut text, raw),
            XmlEvent::CData(data) => text.push_str(data),
            XmlEvent::Start(_) => skip_element(r)?,
            XmlEvent::End(_) | XmlEvent::Eof => return Ok(text),
            XmlEvent::Comment | XmlEvent::Pi => {}
        }
    }
}

/// Visit the direct `ColumnReference` children of the element just
/// opened.
fn read_columns(r: &mut XmlReader<'_>, mut visit: impl FnMut(&XmlTag<'_>)) -> Result<(), XmlError> {
    loop {
        match r.next()? {
            XmlEvent::Start(col) => {
                if col.local_name() == "ColumnReference" {
                    visit(&col);
                }
                skip_element(r)?;
            }
            XmlEvent::End(_) | XmlEvent::Eof => return Ok(()),
            _ => {}
        }
    }
}

/// Serialize a plan as an XML showplan. If the tree's source is `pg`,
/// operator names are translated to SQL Server vocabulary first.
pub fn plan_to_sqlserver_xml(tree: &PlanTree) -> String {
    let translate = tree.source == "pg";
    let plan = XmlNode::new("QueryPlan").with_child(relop_to_xml(&tree.root, translate));
    let stmt = XmlNode::new("StmtSimple").with_child(plan);
    let doc = XmlNode::new("ShowPlanXML")
        .with_attr("Version", "1.5")
        .with_child(XmlNode::new("BatchSequence").with_child(
            XmlNode::new("Batch").with_child(XmlNode::new("Statements").with_child(stmt)),
        ));
    doc.to_string_pretty()
}

fn relop_to_xml(node: &PlanNode, translate: bool) -> XmlNode {
    let op = if translate {
        pg_op_to_mssql(&node.op).to_string()
    } else {
        node.op.clone()
    };
    let mut el = XmlNode::new("RelOp")
        .with_attr("PhysicalOp", op)
        .with_attr("EstimateRows", format!("{}", node.estimated_rows))
        .with_attr(
            "EstimatedTotalSubtreeCost",
            format!("{}", node.estimated_cost),
        );
    if let Some(s) = &node.strategy {
        el = el.with_attr("Strategy", s.clone());
    }
    if node.relation.is_some() || node.index_name.is_some() {
        let mut obj = XmlNode::new("Object");
        if let Some(r) = &node.relation {
            obj = obj.with_attr("Table", r.clone());
        }
        if let Some(a) = &node.alias {
            obj = obj.with_attr("Alias", a.clone());
        }
        if let Some(i) = &node.index_name {
            obj = obj.with_attr("Index", i.clone());
        }
        el = el.with_child(obj);
    }
    if let Some(f) = &node.filter {
        let mut p = XmlNode::new("Predicate");
        p.text = f.clone();
        el = el.with_child(p);
    }
    if let Some(c) = &node.join_cond {
        let mut p = XmlNode::new("JoinPredicate");
        p.text = c.clone();
        el = el.with_child(p);
    }
    if !node.sort_keys.is_empty() {
        let mut ob = XmlNode::new("OrderBy");
        for key in &node.sort_keys {
            let (col, desc) = match key.strip_suffix(" DESC") {
                Some(c) => (c, true),
                None => (key.as_str(), false),
            };
            let mut cr = XmlNode::new("ColumnReference").with_attr("Column", col);
            if desc {
                cr = cr.with_attr("Descending", "true");
            }
            ob = ob.with_child(cr);
        }
        el = el.with_child(ob);
    }
    if !node.group_keys.is_empty() {
        let mut gb = XmlNode::new("GroupBy");
        for key in &node.group_keys {
            gb = gb.with_child(XmlNode::new("ColumnReference").with_attr("Column", key.clone()));
        }
        el = el.with_child(gb);
    }
    for child in &node.children {
        el = el.with_child(relop_to_xml(child, translate));
    }
    el
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg_json::parse_pg_json_plan;

    const SHOWPLAN: &str = r#"<?xml version="1.0"?>
<ShowPlanXML Version="1.5">
 <BatchSequence><Batch><Statements>
  <StmtSimple StatementText="SELECT ...">
   <QueryPlan>
    <RelOp PhysicalOp="Hash Match" LogicalOp="Inner Join" EstimateRows="120" EstimatedTotalSubtreeCost="3.5">
      <JoinPredicate>(s.bestobjid) = (p.objid)</JoinPredicate>
      <RelOp PhysicalOp="Table Scan" EstimateRows="5000" EstimatedTotalSubtreeCost="1.0">
        <Object Table="photoobj" Alias="p"/>
      </RelOp>
      <RelOp PhysicalOp="Table Scan" EstimateRows="800" EstimatedTotalSubtreeCost="0.8">
        <Object Table="specobj" Alias="s"/>
        <Predicate>class = 'QSO'</Predicate>
      </RelOp>
    </RelOp>
   </QueryPlan>
  </StmtSimple>
 </Statements></Batch></BatchSequence>
</ShowPlanXML>"#;

    #[test]
    fn parses_showplan() {
        let tree = parse_sqlserver_xml_plan(SHOWPLAN).unwrap();
        assert_eq!(tree.source, "mssql");
        assert_eq!(tree.root.op, "Hash Match");
        assert_eq!(
            tree.root.join_cond.as_deref(),
            Some("(s.bestobjid) = (p.objid)")
        );
        assert_eq!(tree.root.children.len(), 2);
        assert_eq!(
            tree.root.children[1].filter.as_deref(),
            Some("class = 'QSO'")
        );
        assert_eq!(tree.root.relations(), vec!["photoobj", "specobj"]);
    }

    #[test]
    fn rejects_document_without_relop() {
        assert!(parse_sqlserver_xml_plan("<ShowPlanXML/>").is_err());
    }

    #[test]
    fn round_trip_mssql_tree() {
        let tree = parse_sqlserver_xml_plan(SHOWPLAN).unwrap();
        let text = plan_to_sqlserver_xml(&tree);
        let tree2 = parse_sqlserver_xml_plan(&text).unwrap();
        assert_eq!(tree.root.op, tree2.root.op);
        assert_eq!(tree.root.children.len(), tree2.root.children.len());
        assert_eq!(tree.root.join_cond, tree2.root.join_cond);
    }

    #[test]
    fn pg_tree_exports_with_translated_names() {
        let pg_doc = r#"{"Plan": {"Node Type": "Hash Join",
            "Hash Cond": "(a.x) = (b.y)", "Plan Rows": 10, "Total Cost": 1.0,
            "Plans": [
              {"Node Type": "Seq Scan", "Relation Name": "a", "Plan Rows": 100, "Total Cost": 0.5},
              {"Node Type": "Hash", "Plan Rows": 10, "Total Cost": 0.4,
               "Plans": [{"Node Type": "Seq Scan", "Relation Name": "b", "Plan Rows": 10, "Total Cost": 0.3}]}
            ]}}"#;
        let pg_tree = parse_pg_json_plan(pg_doc).unwrap();
        let xml = plan_to_sqlserver_xml(&pg_tree);
        assert!(xml.contains("Hash Match"));
        assert!(xml.contains("Table Scan"));
        assert!(xml.contains("Hash Build"));
        assert!(!xml.contains("Seq Scan"));
        let back = parse_sqlserver_xml_plan(&xml).unwrap();
        assert_eq!(back.root.op, "Hash Match");
    }

    #[test]
    fn op_mapping_total_for_engine_vocabulary() {
        // Every operator our engine can emit has an entry in the
        // mapping table ("Merge Join" and "Sort" happen to share names
        // across the two systems, which is fine — the entry exists).
        for op in [
            "Seq Scan",
            "Index Scan",
            "Hash Join",
            "Merge Join",
            "Nested Loop",
            "Hash",
            "Sort",
            "Aggregate",
            "Unique",
            "Limit",
            "Materialize",
        ] {
            assert!(
                PG_TO_MSSQL_OPS
                    .iter()
                    .any(|(pg, _)| pg.eq_ignore_ascii_case(op)),
                "{op} missing from PG_TO_MSSQL_OPS"
            );
        }
        assert_eq!(pg_op_to_mssql("Seq Scan"), "Table Scan");
        assert_eq!(pg_op_to_mssql("SomethingNew"), "SomethingNew");
    }

    #[test]
    fn sort_keys_round_trip_with_direction() {
        let mut node = PlanNode::new("Sort");
        node.sort_keys = vec!["revenue DESC".to_string(), "o_orderdate".to_string()];
        let tree = PlanTree::new("mssql", node);
        let xml = plan_to_sqlserver_xml(&tree);
        let back = parse_sqlserver_xml_plan(&xml).unwrap();
        assert_eq!(back.root.sort_keys, vec!["revenue DESC", "o_orderdate"]);
    }
}
