//! # lantern-plan
//!
//! RDBMS-agnostic query execution plan (QEP) model and parsers.
//!
//! A QEP is abstractly a *physical operator tree* (paper §3): nodes are
//! physical operators, edges are data flow. This crate provides:
//!
//! * [`PlanTree`] / [`PlanNode`] — the operator-tree model every other
//!   LANTERN component consumes,
//! * [`parse_pg_json_plan`] — reader for PostgreSQL-style
//!   `EXPLAIN (FORMAT JSON)` documents,
//! * [`parse_sqlserver_xml_plan`] — reader for SQL Server-style XML
//!   showplans,
//!
//!   both reading the document once, through the `lantern-text` pull
//!   readers, straight into [`PlanNode`]s: fields the model keeps are
//!   decoded, everything else is validated and skipped, and no
//!   `JsonValue` / `XmlNode` tree is built,
//! * traversal utilities (post-order walks, parent maps, subtree
//!   extraction) used by RULE-LANTERN and the act decomposition.

pub mod node;
pub mod pg_json;
pub mod sqlserver_xml;
pub mod traverse;

pub use node::{PlanNode, PlanTree};
pub use pg_json::{parse_pg_json_plan, plan_to_pg_json};
pub use sqlserver_xml::{parse_sqlserver_xml_plan, plan_to_sqlserver_xml};
pub use traverse::{post_order, PostOrderItem};
