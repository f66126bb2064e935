//! The RDBMS-agnostic physical operator tree (paper §3): the abstract
//! representation of a query execution plan that every LANTERN
//! component consumes.

use std::collections::BTreeMap;
use std::fmt;

/// One physical operator node. `op` carries the *vendor* operator name
/// ("Seq Scan" in PostgreSQL, "Table Scan" in SQL Server) — mapping
/// vendor names to narration text is exactly the job of the POEM store,
/// so the tree preserves them verbatim.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanNode {
    /// Vendor operator name, e.g. `Seq Scan`, `Hash Join`, `Sort`.
    pub op: String,
    /// Scanned relation, for leaf operators.
    pub relation: Option<String>,
    /// Relation alias used by the query.
    pub alias: Option<String>,
    /// Index used, for index scans.
    pub index_name: Option<String>,
    /// Filter predicate text (`title LIKE '%July%'`).
    pub filter: Option<String>,
    /// Join condition text (`(i.proceeding_key) = (p.pub_key)`).
    pub join_cond: Option<String>,
    /// Sort keys, for Sort operators (`revenue DESC`).
    pub sort_keys: Vec<String>,
    /// Grouping keys, for Aggregate operators.
    pub group_keys: Vec<String>,
    /// Aggregate strategy (`Sorted`/`Hashed`), when applicable.
    pub strategy: Option<String>,
    /// Optimizer cardinality estimate.
    pub estimated_rows: f64,
    /// Optimizer cost estimate.
    pub estimated_cost: f64,
    /// Child operators (data flows children -> parent).
    pub children: Vec<PlanNode>,
    /// Vendor-specific extras preserved for round-tripping.
    pub extra: BTreeMap<String, String>,
}

impl PlanNode {
    /// Leaf/internal constructor with just an operator name.
    pub fn new(op: impl Into<String>) -> Self {
        PlanNode {
            op: op.into(),
            ..Default::default()
        }
    }

    /// Builder: attach a child.
    pub fn with_child(mut self, child: PlanNode) -> Self {
        self.children.push(child);
        self
    }

    /// Builder: set the scanned relation.
    pub fn on_relation(mut self, rel: impl Into<String>) -> Self {
        self.relation = Some(rel.into());
        self
    }

    /// Builder: set the filter text.
    pub fn with_filter(mut self, f: impl Into<String>) -> Self {
        self.filter = Some(f.into());
        self
    }

    /// Builder: set the join condition text.
    pub fn with_join_cond(mut self, c: impl Into<String>) -> Self {
        self.join_cond = Some(c.into());
        self
    }

    /// Number of nodes in this subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(PlanNode::depth).max().unwrap_or(0)
    }

    /// All relations scanned in this subtree, in leaf order.
    pub fn relations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations<'a>(&'a self, out: &mut Vec<&'a str>) {
        for c in &self.children {
            c.collect_relations(out);
        }
        if let Some(r) = &self.relation {
            out.push(r);
        }
    }

    /// Case-insensitive operator-name comparison (vendors differ in
    /// capitalization conventions).
    pub fn op_is(&self, name: &str) -> bool {
        self.op.eq_ignore_ascii_case(name)
    }
}

/// A complete plan: the operator tree plus its source system tag
/// (`pg` or `mssql`) — the POEM store entry point (paper §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTree {
    /// Source RDBMS identifier (`pg`, `mssql`).
    pub source: String,
    /// Root operator.
    pub root: PlanNode,
}

impl PlanTree {
    /// Wrap a root node with its source tag.
    pub fn new(source: impl Into<String>, root: PlanNode) -> Self {
        PlanTree {
            source: source.into(),
            root,
        }
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        self.root.size()
    }
}

impl fmt::Display for PlanNode {
    /// Indented text rendering, similar to `EXPLAIN` text output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn render(node: &PlanNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for _ in 0..depth {
                write!(f, "  ")?;
            }
            if depth > 0 {
                write!(f, "-> ")?;
            }
            write!(f, "{}", node.op)?;
            if let Some(r) = &node.relation {
                write!(f, " on {r}")?;
                if let Some(a) = &node.alias {
                    if a != r {
                        write!(f, " {a}")?;
                    }
                }
            }
            write!(
                f,
                "  (rows={:.0} cost={:.2})",
                node.estimated_rows, node.estimated_cost
            )?;
            if let Some(c) = &node.join_cond {
                writeln!(f)?;
                for _ in 0..depth + 1 {
                    write!(f, "  ")?;
                }
                write!(f, "Cond: {c}")?;
            }
            if let Some(fil) = &node.filter {
                writeln!(f)?;
                for _ in 0..depth + 1 {
                    write!(f, "  ")?;
                }
                write!(f, "Filter: {fil}")?;
            }
            if !node.sort_keys.is_empty() {
                writeln!(f)?;
                for _ in 0..depth + 1 {
                    write!(f, "  ")?;
                }
                write!(f, "Sort Key: {}", node.sort_keys.join(", "))?;
            }
            if !node.group_keys.is_empty() {
                writeln!(f)?;
                for _ in 0..depth + 1 {
                    write!(f, "  ")?;
                }
                write!(f, "Group Key: {}", node.group_keys.join(", "))?;
            }
            for child in &node.children {
                writeln!(f)?;
                render(child, depth + 1, f)?;
            }
            Ok(())
        }
        render(self, 0, f)
    }
}

impl fmt::Display for PlanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_tree() -> PlanNode {
        // The paper's Figure 4 tree.
        PlanNode::new("Unique").with_child(
            PlanNode::new("Aggregate").with_child(
                PlanNode::new("Sort").with_child(
                    PlanNode::new("Hash Join")
                        .with_join_cond("(i.proceeding_key) = (p.pub_key)")
                        .with_child(PlanNode::new("Seq Scan").on_relation("inproceedings"))
                        .with_child(
                            PlanNode::new("Hash").with_child(
                                PlanNode::new("Seq Scan")
                                    .on_relation("publication")
                                    .with_filter("title LIKE '%July%'"),
                            ),
                        ),
                ),
            ),
        )
    }

    #[test]
    fn size_and_depth() {
        let t = example_tree();
        assert_eq!(t.size(), 7);
        assert_eq!(t.depth(), 6);
    }

    #[test]
    fn relations_in_leaf_order() {
        let t = example_tree();
        assert_eq!(t.relations(), vec!["inproceedings", "publication"]);
    }

    #[test]
    fn display_contains_structure() {
        let text = example_tree().to_string();
        assert!(text.contains("Hash Join"));
        assert!(text.contains("Filter: title LIKE '%July%'"));
        assert!(text.contains("-> Seq Scan on publication"));
    }

    #[test]
    fn op_is_case_insensitive() {
        assert!(PlanNode::new("HASH JOIN").op_is("Hash Join"));
    }

    #[test]
    fn plan_tree_wraps_source() {
        let t = PlanTree::new("pg", example_tree());
        assert_eq!(t.source, "pg");
        assert_eq!(t.size(), 7);
    }
}
