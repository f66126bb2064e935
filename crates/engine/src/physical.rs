//! Cost-based physical planning: access-path selection, dynamic-
//! programming join ordering, join-algorithm choice, and the post-join
//! pipeline (aggregation strategy, distinct, ordering, limit).
//!
//! The output [`PhysicalPlan`] renders to a PostgreSQL-vocabulary
//! [`PlanTree`] — with the auxiliary/critical structure the paper's
//! clustering step depends on (`Hash` under `Hash Join`, `Sort` under
//! `Merge Join` / sorted `Aggregate` / `Unique`).

use crate::cost::{self, consts, predicate_selectivity};
use crate::database::Database;
use crate::logical::{JoinPred, LogicalPlan};
use lantern_plan::{PlanNode, PlanTree};
use lantern_sql::{Expr, Query, SelectItem, SqlError};

/// Relational operators (scans and joins); the post-join pipeline lives
/// in [`PhysicalPlan`] fields.
#[derive(Debug, Clone)]
pub enum RelOp {
    /// Full table scan with pushed-down filters.
    SeqScan {
        visible: String,
        table: String,
        filters: Vec<Expr>,
        rows: f64,
        cost: f64,
    },
    /// Index scan driven by a predicate on `index_column`.
    IndexScan {
        visible: String,
        table: String,
        index_column: String,
        filters: Vec<Expr>,
        rows: f64,
        cost: f64,
    },
    /// Hash join: probe side streams, build side is hashed (rendered as
    /// an auxiliary `Hash` node, as PostgreSQL does).
    HashJoin {
        probe: Box<RelOp>,
        build: Box<RelOp>,
        pred: JoinPred,
        residual: Vec<Expr>,
        rows: f64,
        cost: f64,
    },
    /// Merge join; sides that are not already sorted get explicit
    /// auxiliary `Sort` nodes.
    MergeJoin {
        left: Box<RelOp>,
        right: Box<RelOp>,
        pred: JoinPred,
        sort_left: bool,
        sort_right: bool,
        residual: Vec<Expr>,
        rows: f64,
        cost: f64,
    },
    /// Nested-loop join (`pred: None` models a cross join).
    NestedLoop {
        outer: Box<RelOp>,
        inner: Box<RelOp>,
        pred: Option<JoinPred>,
        residual: Vec<Expr>,
        rows: f64,
        cost: f64,
    },
}

impl RelOp {
    /// Estimated output cardinality.
    pub fn rows(&self) -> f64 {
        match self {
            RelOp::SeqScan { rows, .. }
            | RelOp::IndexScan { rows, .. }
            | RelOp::HashJoin { rows, .. }
            | RelOp::MergeJoin { rows, .. }
            | RelOp::NestedLoop { rows, .. } => *rows,
        }
    }

    /// Estimated cumulative cost.
    pub fn cost(&self) -> f64 {
        match self {
            RelOp::SeqScan { cost, .. }
            | RelOp::IndexScan { cost, .. }
            | RelOp::HashJoin { cost, .. }
            | RelOp::MergeJoin { cost, .. }
            | RelOp::NestedLoop { cost, .. } => *cost,
        }
    }

    /// Visible relation names contributing to this subtree.
    pub fn visibles(&self) -> Vec<String> {
        match self {
            RelOp::SeqScan { visible, .. } | RelOp::IndexScan { visible, .. } => {
                vec![visible.clone()]
            }
            RelOp::HashJoin {
                probe: a, build: b, ..
            }
            | RelOp::MergeJoin {
                left: a, right: b, ..
            }
            | RelOp::NestedLoop {
                outer: a, inner: b, ..
            } => {
                let mut v = a.visibles();
                v.extend(b.visibles());
                v
            }
        }
    }
}

/// Aggregation strategy (PostgreSQL's `Strategy` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// Group rows after sorting on the group keys (renders an auxiliary
    /// `Sort` child under `Aggregate`).
    Sorted,
    /// Hash-based grouping (renders as `HashAggregate`).
    Hashed,
}

/// Aggregation stage description.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Group-by expressions (may be empty for scalar aggregates).
    pub group: Vec<Expr>,
    /// Chosen strategy.
    pub strategy: AggStrategy,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// Estimated output groups.
    pub rows: f64,
    /// Cost of this stage alone.
    pub cost: f64,
}

/// A complete physical plan for one query.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The scans+joins subtree.
    pub join_root: RelOp,
    /// Aggregation stage, if the query aggregates.
    pub agg: Option<AggSpec>,
    /// Duplicate elimination for `SELECT DISTINCT`. `pre_sorted` means
    /// the input already arrives sorted (no extra Sort needed).
    pub distinct: Option<bool>,
    /// `ORDER BY` keys (expr, descending).
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT`.
    pub limit: Option<u64>,
    /// The original select list.
    pub select: Vec<SelectItem>,
    /// The logical plan this was derived from.
    pub logical: LogicalPlan,
}

impl PhysicalPlan {
    /// Total estimated cost (top of the pipeline).
    pub fn total_cost(&self) -> f64 {
        let mut c = self.join_root.cost();
        let mut rows = self.join_root.rows();
        if let Some(a) = &self.agg {
            c += a.cost;
            rows = a.rows;
        }
        if self.distinct.is_some() {
            c += cost::sort_cost(rows);
        }
        if !self.order_by.is_empty() {
            c += cost::sort_cost(rows);
        }
        c
    }

    /// Render the PostgreSQL-vocabulary operator tree.
    pub fn tree(&self) -> PlanTree {
        let mut node = rel_tree(&self.join_root);
        let mut rows = self.join_root.rows();
        let mut cum_cost = self.join_root.cost();
        if let Some(a) = &self.agg {
            let group_keys: Vec<String> = a.group.iter().map(|g| g.to_string()).collect();
            cum_cost += a.cost;
            match a.strategy {
                AggStrategy::Sorted => {
                    if !group_keys.is_empty() {
                        let mut sort = PlanNode::new("Sort");
                        sort.sort_keys = group_keys.clone();
                        sort.estimated_rows = rows;
                        sort.estimated_cost = cum_cost - consts::AGG_TUPLE * rows;
                        sort.children.push(node);
                        node = sort;
                    }
                    let mut agg = PlanNode::new("Aggregate");
                    agg.strategy = Some("Sorted".to_string());
                    agg.group_keys = group_keys;
                    agg.filter = a.having.as_ref().map(|h| h.to_string());
                    agg.estimated_rows = a.rows;
                    agg.estimated_cost = cum_cost;
                    agg.children.push(node);
                    node = agg;
                }
                AggStrategy::Hashed => {
                    let mut agg = PlanNode::new("HashAggregate");
                    agg.strategy = Some("Hashed".to_string());
                    agg.group_keys = group_keys;
                    agg.filter = a.having.as_ref().map(|h| h.to_string());
                    agg.estimated_rows = a.rows;
                    agg.estimated_cost = cum_cost;
                    agg.children.push(node);
                    node = agg;
                }
            }
            rows = a.rows;
        }
        if let Some(pre_sorted) = self.distinct {
            if !pre_sorted {
                let mut sort = PlanNode::new("Sort");
                sort.sort_keys = select_texts(&self.select);
                cum_cost += cost::sort_cost(rows);
                sort.estimated_rows = rows;
                sort.estimated_cost = cum_cost;
                sort.children.push(node);
                node = sort;
            }
            let mut unique = PlanNode::new("Unique");
            rows *= 0.9;
            cum_cost += rows * 0.1;
            unique.estimated_rows = rows.max(1.0);
            unique.estimated_cost = cum_cost;
            unique.children.push(node);
            node = unique;
        }
        if !self.order_by.is_empty() {
            let mut sort = PlanNode::new("Sort");
            sort.sort_keys = self
                .order_by
                .iter()
                .map(|(e, desc)| {
                    if *desc {
                        format!("{e} DESC")
                    } else {
                        e.to_string()
                    }
                })
                .collect();
            cum_cost += cost::sort_cost(rows);
            sort.estimated_rows = rows;
            sort.estimated_cost = cum_cost;
            sort.children.push(node);
            node = sort;
        }
        if let Some(l) = self.limit {
            let mut limit = PlanNode::new("Limit");
            limit.estimated_rows = rows.min(l as f64).max(1.0);
            limit.estimated_cost = cum_cost;
            limit.children.push(node);
            node = limit;
        }
        PlanTree::new("pg", node)
    }
}

fn select_texts(select: &[SelectItem]) -> Vec<String> {
    select
        .iter()
        .map(|s| match s {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::Expr { expr, .. } => expr.to_string(),
        })
        .collect()
}

fn filters_text(filters: &[Expr]) -> Option<String> {
    if filters.is_empty() {
        None
    } else {
        Some(
            filters
                .iter()
                .map(|f| format!("({f})"))
                .collect::<Vec<_>>()
                .join(" AND "),
        )
    }
}

fn rel_tree(op: &RelOp) -> PlanNode {
    match op {
        RelOp::SeqScan {
            visible,
            table,
            filters,
            rows,
            cost,
        } => {
            let mut n = PlanNode::new("Seq Scan").on_relation(table.clone());
            n.alias = Some(visible.clone());
            n.filter = filters_text(filters);
            n.estimated_rows = *rows;
            n.estimated_cost = *cost;
            n
        }
        RelOp::IndexScan {
            visible,
            table,
            index_column,
            filters,
            rows,
            cost,
        } => {
            let mut n = PlanNode::new("Index Scan").on_relation(table.clone());
            n.alias = Some(visible.clone());
            n.index_name = Some(format!("{table}_{index_column}_idx"));
            n.filter = filters_text(filters);
            n.estimated_rows = *rows;
            n.estimated_cost = *cost;
            n
        }
        RelOp::HashJoin {
            probe,
            build,
            pred,
            residual,
            rows,
            cost,
        } => {
            let mut n = PlanNode::new("Hash Join");
            n.join_cond = Some(pred.condition_text());
            n.filter = filters_text(residual);
            n.estimated_rows = *rows;
            n.estimated_cost = *cost;
            n.children.push(rel_tree(probe));
            let mut hash = PlanNode::new("Hash");
            hash.estimated_rows = build.rows();
            hash.estimated_cost = build.cost() + consts::HASH_BUILD * build.rows();
            hash.children.push(rel_tree(build));
            n.children.push(hash);
            n
        }
        RelOp::MergeJoin {
            left,
            right,
            pred,
            sort_left,
            sort_right,
            residual,
            rows,
            cost,
        } => {
            let mut n = PlanNode::new("Merge Join");
            n.join_cond = Some(pred.condition_text());
            n.filter = filters_text(residual);
            n.estimated_rows = *rows;
            n.estimated_cost = *cost;
            let wrap = |child: &RelOp, key: String, need_sort: bool| -> PlanNode {
                let inner = rel_tree(child);
                if need_sort {
                    let mut sort = PlanNode::new("Sort");
                    sort.sort_keys = vec![key];
                    sort.estimated_rows = child.rows();
                    sort.estimated_cost = child.cost() + cost::sort_cost(child.rows());
                    sort.children.push(inner);
                    sort
                } else {
                    inner
                }
            };
            n.children.push(wrap(
                left,
                format!("{}.{}", pred.left_rel, pred.left_col),
                *sort_left,
            ));
            n.children.push(wrap(
                right,
                format!("{}.{}", pred.right_rel, pred.right_col),
                *sort_right,
            ));
            n
        }
        RelOp::NestedLoop {
            outer,
            inner,
            pred,
            residual,
            rows,
            cost,
        } => {
            let mut n = PlanNode::new("Nested Loop");
            n.join_cond = pred.as_ref().map(|p| p.condition_text());
            n.filter = filters_text(residual);
            n.estimated_rows = *rows;
            n.estimated_cost = *cost;
            n.children.push(rel_tree(outer));
            n.children.push(rel_tree(inner));
            n
        }
    }
}

/// The cost-based planner.
pub struct Planner<'a> {
    db: &'a Database,
    /// Disable DP join ordering (greedy left-deep instead) — the
    /// `ablation_join_order` bench toggles this.
    pub greedy_joins: bool,
}

/// DP table entry.
#[derive(Clone)]
struct DpEntry {
    op: RelOp,
    /// `(visible, column)` order the output is sorted on, if any.
    sorted_on: Option<(String, String)>,
}

impl<'a> Planner<'a> {
    /// Create a planner over a database (its statistics drive costing).
    pub fn new(db: &'a Database) -> Self {
        Planner {
            db,
            greedy_joins: false,
        }
    }

    /// Plan `query` into a physical plan.
    pub fn plan(&self, query: &Query) -> Result<PhysicalPlan, SqlError> {
        let logical = LogicalPlan::build(query, self.db.catalog())?;
        let n = logical.relations.len();
        if n == 0 {
            return Err(SqlError {
                position: 0,
                message: "query has no relations".into(),
            });
        }
        // Access paths per relation.
        let scans: Vec<DpEntry> = logical
            .relations
            .iter()
            .map(|r| self.access_path(r))
            .collect();

        let mut best = if n == 1 {
            scans.into_iter().next().expect("one relation")
        } else if self.greedy_joins || n > 12 {
            self.greedy_join_order(&logical, scans)
        } else {
            self.dp_join_order(&logical, scans)
        };

        // Attach residual predicates to the top join.
        if !logical.residual.is_empty() {
            let sel: f64 = logical.residual.iter().map(|_| 0.33).product();
            match &mut best.op {
                RelOp::HashJoin { residual, rows, .. }
                | RelOp::MergeJoin { residual, rows, .. }
                | RelOp::NestedLoop { residual, rows, .. } => {
                    residual.extend(logical.residual.iter().cloned());
                    *rows = (*rows * sel).max(1.0);
                }
                RelOp::SeqScan { filters, rows, .. } | RelOp::IndexScan { filters, rows, .. } => {
                    // Residuals with no column references (e.g. 1 = 1).
                    filters.extend(logical.residual.iter().cloned());
                    *rows = (*rows * sel).max(1.0);
                }
            }
        }

        let q = &logical.resolved.query;
        let agg = if q.is_aggregating() {
            Some(self.plan_aggregate(&logical, &best))
        } else {
            None
        };
        let distinct = if q.distinct {
            // Input is pre-sorted when a sorted aggregate just ran.
            let pre_sorted =
                matches!(&agg, Some(a) if a.strategy == AggStrategy::Sorted && !a.group.is_empty());
            Some(pre_sorted)
        } else {
            None
        };
        let order_by: Vec<(Expr, bool)> = q
            .order_by
            .iter()
            .map(|o| (o.expr.clone(), o.descending))
            .collect();
        Ok(PhysicalPlan {
            join_root: best.op,
            agg,
            distinct,
            order_by,
            limit: q.limit,
            select: q.select.clone(),
            logical,
        })
    }

    /// Choose seq scan vs index scan for one base relation.
    fn access_path(&self, rel: &crate::logical::BaseRel) -> DpEntry {
        let base_rows = self.db.row_count(&rel.table).max(1) as f64;
        let selectivity: f64 = rel
            .filters
            .iter()
            .map(|f| predicate_selectivity(self.db, &rel.table, f))
            .product();
        let out_rows = (base_rows * selectivity).max(1.0);
        // An index scan is considered when some filter touches an
        // indexed column and is selective enough to beat a full scan.
        let table = self.db.catalog().table(&rel.table);
        let indexed_filter_col = table.and_then(|t| {
            rel.filters.iter().find_map(|f| {
                f.columns().into_iter().find_map(|(_, name)| {
                    let col = t.column(name)?;
                    if col.indexed {
                        let sel = predicate_selectivity(self.db, &rel.table, f);
                        (sel < 0.2).then(|| name.to_string())
                    } else {
                        None
                    }
                })
            })
        });
        let seq_cost = base_rows * consts::SEQ_TUPLE;
        if let Some(col) = indexed_filter_col {
            let index_cost = consts::INDEX_STARTUP + out_rows * consts::INDEX_TUPLE;
            if index_cost < seq_cost {
                return DpEntry {
                    sorted_on: Some((rel.visible.clone(), col.clone())),
                    op: RelOp::IndexScan {
                        visible: rel.visible.clone(),
                        table: rel.table.clone(),
                        index_column: col,
                        filters: rel.filters.clone(),
                        rows: out_rows,
                        cost: index_cost,
                    },
                };
            }
        }
        DpEntry {
            sorted_on: None,
            op: RelOp::SeqScan {
                visible: rel.visible.clone(),
                table: rel.table.clone(),
                filters: rel.filters.clone(),
                rows: out_rows,
                cost: seq_cost,
            },
        }
    }

    /// Number of distinct values of `visible.column` at base-table
    /// granularity.
    fn column_ndv(&self, logical: &LogicalPlan, visible: &str, column: &str) -> f64 {
        let Some(rel) = logical.relations.iter().find(|r| r.visible == visible) else {
            return 100.0;
        };
        let Some(stats) = self.db.table_stats(&rel.table) else {
            return 100.0;
        };
        let Some(table) = self.db.catalog().table(&rel.table) else {
            return 100.0;
        };
        table
            .column_index(column)
            .map(|i| stats.columns[i].n_distinct.max(1) as f64)
            .unwrap_or(100.0)
    }

    /// Enumerate hash/merge/NL alternatives for joining `a` and `b`
    /// on `pred`; return the cheapest.
    fn best_join(
        &self,
        logical: &LogicalPlan,
        a: &DpEntry,
        b: &DpEntry,
        pred: &JoinPred,
    ) -> DpEntry {
        // Orient the predicate so `left` matches `a`.
        let a_vis = a.op.visibles();
        let oriented = if a_vis.contains(&pred.left_rel) {
            pred.clone()
        } else {
            JoinPred {
                left_rel: pred.right_rel.clone(),
                left_col: pred.right_col.clone(),
                right_rel: pred.left_rel.clone(),
                right_col: pred.left_col.clone(),
            }
        };
        let (ra, rb) = (a.op.rows(), b.op.rows());
        let ndv_a = self.column_ndv(logical, &oriented.left_rel, &oriented.left_col);
        let ndv_b = self.column_ndv(logical, &oriented.right_rel, &oriented.right_col);
        let out_rows = cost::join_cardinality(ra, rb, ndv_a, ndv_b);
        let input_cost = a.op.cost() + b.op.cost();

        // Hash join: build on the smaller side.
        let (probe, build, hash_pred) = if ra >= rb {
            (a, b, oriented.clone())
        } else {
            (
                b,
                a,
                JoinPred {
                    left_rel: oriented.right_rel.clone(),
                    left_col: oriented.right_col.clone(),
                    right_rel: oriented.left_rel.clone(),
                    right_col: oriented.left_col.clone(),
                },
            )
        };
        let hash_cost = input_cost + cost::hash_join_cost(probe.op.rows(), build.op.rows());
        let mut best = DpEntry {
            sorted_on: None,
            op: RelOp::HashJoin {
                probe: Box::new(probe.op.clone()),
                build: Box::new(build.op.clone()),
                pred: hash_pred,
                residual: Vec::new(),
                rows: out_rows,
                cost: hash_cost,
            },
        };

        // Merge join.
        let a_sorted =
            a.sorted_on.as_ref() == Some(&(oriented.left_rel.clone(), oriented.left_col.clone()));
        let b_sorted =
            b.sorted_on.as_ref() == Some(&(oriented.right_rel.clone(), oriented.right_col.clone()));
        let merge_cost = input_cost + cost::merge_join_cost(ra, rb, !a_sorted, !b_sorted);
        if merge_cost < best.op.cost() {
            best = DpEntry {
                sorted_on: Some((oriented.left_rel.clone(), oriented.left_col.clone())),
                op: RelOp::MergeJoin {
                    left: Box::new(a.op.clone()),
                    right: Box::new(b.op.clone()),
                    pred: oriented.clone(),
                    sort_left: !a_sorted,
                    sort_right: !b_sorted,
                    residual: Vec::new(),
                    rows: out_rows,
                    cost: merge_cost,
                },
            };
        }

        // Nested loop (index-assisted when the inner side is a base
        // index scan on the join column).
        let inner_indexed = matches!(
            &b.op,
            RelOp::IndexScan { index_column, .. } if *index_column == oriented.right_col
        );
        let nl_cost = input_cost + cost::nested_loop_cost(ra, rb, inner_indexed);
        if nl_cost < best.op.cost() {
            best = DpEntry {
                sorted_on: a.sorted_on.clone(),
                op: RelOp::NestedLoop {
                    outer: Box::new(a.op.clone()),
                    inner: Box::new(b.op.clone()),
                    pred: Some(oriented),
                    residual: Vec::new(),
                    rows: out_rows,
                    cost: nl_cost,
                },
            };
        }
        best
    }

    /// Exhaustive DP over connected subsets (DPsub).
    fn dp_join_order(&self, logical: &LogicalPlan, scans: Vec<DpEntry>) -> DpEntry {
        let n = scans.len();
        let full: usize = (1 << n) - 1;
        let mut dp: Vec<Option<DpEntry>> = vec![None; 1 << n];
        for (i, s) in scans.into_iter().enumerate() {
            dp[1 << i] = Some(s);
        }
        for mask in 1..=full {
            if dp[mask].is_some() {
                continue;
            }
            // Iterate proper non-empty submasks. Each split is visited
            // in both orders, which matters for join orientation.
            let mut best_for_mask: Option<DpEntry> = None;
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let other = mask & !sub;
                if let (Some(a), Some(b)) = (&dp[sub], &dp[other]) {
                    let a_vis = a.op.visibles();
                    let b_vis = b.op.visibles();
                    for pred in &logical.joins {
                        if pred.connects(&a_vis, &b_vis) {
                            let cand = self.best_join(logical, a, b, pred);
                            if best_for_mask
                                .as_ref()
                                .is_none_or(|cur| cand.op.cost() < cur.op.cost())
                            {
                                best_for_mask = Some(cand);
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            dp[mask] = best_for_mask;
            // Disconnected queries: allow a cross product as last
            // resort so planning never fails.
            if dp[mask].is_none() && mask == full {
                dp[mask] = self.cross_join_fallback(&dp, mask);
            }
        }
        match dp[full].take() {
            Some(e) => e,
            None => {
                // Fully disconnected graph: fold all singleton scans.
                let mut entries: Vec<DpEntry> = (0..n).filter_map(|i| dp[1 << i].take()).collect();
                let mut acc = entries.remove(0);
                for e in entries {
                    acc = self.cross_product(acc, e);
                }
                acc
            }
        }
    }

    fn cross_join_fallback(&self, dp: &[Option<DpEntry>], mask: usize) -> Option<DpEntry> {
        let mut sub = (mask - 1) & mask;
        let mut best: Option<DpEntry> = None;
        while sub > 0 {
            let other = mask & !sub;
            if let (Some(a), Some(b)) = (&dp[sub], &dp[other]) {
                let cand = self.cross_product(a.clone(), b.clone());
                if best
                    .as_ref()
                    .is_none_or(|cur| cand.op.cost() < cur.op.cost())
                {
                    best = Some(cand);
                }
            }
            sub = (sub - 1) & mask;
        }
        best
    }

    fn cross_product(&self, a: DpEntry, b: DpEntry) -> DpEntry {
        let rows = (a.op.rows() * b.op.rows()).max(1.0);
        let cost =
            a.op.cost() + b.op.cost() + cost::nested_loop_cost(a.op.rows(), b.op.rows(), false);
        DpEntry {
            sorted_on: None,
            op: RelOp::NestedLoop {
                outer: Box::new(a.op),
                inner: Box::new(b.op),
                pred: None,
                residual: Vec::new(),
                rows,
                cost,
            },
        }
    }

    /// Greedy left-deep join ordering (ablation baseline): repeatedly
    /// join the pair with the cheapest immediate cost.
    fn greedy_join_order(&self, logical: &LogicalPlan, scans: Vec<DpEntry>) -> DpEntry {
        let mut parts = scans;
        while parts.len() > 1 {
            let mut best: Option<(usize, usize, DpEntry)> = None;
            for i in 0..parts.len() {
                for j in 0..parts.len() {
                    if i == j {
                        continue;
                    }
                    let a_vis = parts[i].op.visibles();
                    let b_vis = parts[j].op.visibles();
                    for pred in &logical.joins {
                        if pred.connects(&a_vis, &b_vis) {
                            let cand = self.best_join(logical, &parts[i], &parts[j], pred);
                            if best
                                .as_ref()
                                .is_none_or(|(_, _, cur)| cand.op.cost() < cur.op.cost())
                            {
                                best = Some((i, j, cand));
                            }
                        }
                    }
                }
            }
            match best {
                Some((i, j, joined)) => {
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    parts.remove(hi);
                    parts.remove(lo);
                    parts.push(joined);
                }
                None => {
                    // Disconnected: cross-join the two smallest parts.
                    parts.sort_by(|a, b| a.op.rows().total_cmp(&b.op.rows()));
                    let b = parts.remove(1);
                    let a = parts.remove(0);
                    let joined = self.cross_product(a, b);
                    parts.push(joined);
                }
            }
        }
        parts.into_iter().next().expect("at least one relation")
    }

    /// Choose the aggregation strategy and estimate group counts.
    fn plan_aggregate(&self, logical: &LogicalPlan, input: &DpEntry) -> AggSpec {
        let q = &logical.resolved.query;
        let in_rows = input.op.rows();
        let mut groups = 1.0;
        for g in &q.group_by {
            if let Expr::Column { qualifier, name } = g {
                let visible = qualifier.clone().unwrap_or_else(|| {
                    logical
                        .resolved
                        .table_order
                        .first()
                        .cloned()
                        .unwrap_or_default()
                });
                groups *= self.column_ndv(logical, &visible, name);
            } else {
                groups *= 10.0;
            }
        }
        let mut rows = groups.min(in_rows).max(1.0);
        if q.having.is_some() {
            rows = (rows * 0.3).max(1.0);
        }
        let sorted_cost = cost::sort_cost(in_rows) + consts::AGG_TUPLE * in_rows;
        let hashed_cost = consts::HASH_BUILD * in_rows + consts::AGG_TUPLE * in_rows;
        // A sorted aggregate is preferred when the input is already
        // sorted on the first group key, or when sorting is cheap and
        // downstream stages (DISTINCT / ORDER BY on group keys) benefit
        // from sorted output.
        let input_sorted = match (&input.sorted_on, q.group_by.first()) {
            (Some((vis, col)), Some(Expr::Column { qualifier, name })) => {
                name == col && qualifier.as_deref().is_none_or(|x| x == vis)
            }
            _ => false,
        };
        let downstream_wants_sort = q.distinct || !q.order_by.is_empty();
        // Scalar aggregates (empty GROUP BY) always use a plain
        // Aggregate node, which the Sorted strategy degenerates to.
        let strategy = if q.group_by.is_empty()
            || input_sorted
            || downstream_wants_sort
            || sorted_cost <= hashed_cost
        {
            AggStrategy::Sorted
        } else {
            AggStrategy::Hashed
        };
        let cost = match strategy {
            AggStrategy::Sorted if !q.group_by.is_empty() && !input_sorted => sorted_cost,
            AggStrategy::Sorted => consts::AGG_TUPLE * in_rows,
            AggStrategy::Hashed => hashed_cost,
        };
        AggSpec {
            group: q.group_by.clone(),
            strategy,
            having: q.having.clone(),
            rows,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_catalog::{dblp_catalog, tpch_catalog};
    use lantern_sql::parse_sql;

    fn dblp_db() -> Database {
        Database::generate(&dblp_catalog(), 0.0005, 42)
    }

    fn tpch_db() -> Database {
        Database::generate(&tpch_catalog(), 0.0005, 42)
    }

    #[test]
    fn plans_paper_example_with_figure_4_shape() {
        let db = dblp_db();
        let q = parse_sql(
            "SELECT DISTINCT(I.proceeding_key) FROM inproceedings I, publication P \
             WHERE I.proceeding_key = P.pub_key AND P.title LIKE '%July%' \
             GROUP BY I.proceeding_key HAVING COUNT(*) > 200",
        )
        .unwrap();
        let plan = Planner::new(&db).plan(&q).unwrap();
        let tree = plan.tree();
        // Expect Unique on top, Aggregate below it, a join beneath.
        assert_eq!(tree.root.op, "Unique");
        let ops: Vec<&str> = lantern_plan::post_order(&tree.root)
            .iter()
            .map(|i| i.node.op.as_str())
            .collect();
        assert!(
            ops.contains(&"Aggregate") || ops.contains(&"HashAggregate"),
            "{ops:?}"
        );
        assert!(
            ops.contains(&"Hash Join")
                || ops.contains(&"Merge Join")
                || ops.contains(&"Nested Loop"),
            "{ops:?}"
        );
        assert_eq!(tree.root.relations().len(), 2);
    }

    #[test]
    fn single_table_scan() {
        let db = tpch_db();
        let q = parse_sql("SELECT o_orderkey FROM orders WHERE o_totalprice > 100000").unwrap();
        let plan = Planner::new(&db).plan(&q).unwrap();
        let tree = plan.tree();
        assert!(tree.root.op == "Seq Scan" || tree.root.op == "Index Scan");
        assert!(tree.root.filter.is_some());
    }

    #[test]
    fn selective_indexed_filter_uses_index_scan() {
        let db = tpch_db();
        let rows = db.row_count("orders");
        let q = parse_sql(&format!(
            "SELECT o_totalprice FROM orders WHERE o_orderkey < {}",
            rows / 50
        ))
        .unwrap();
        let plan = Planner::new(&db).plan(&q).unwrap();
        let tree = plan.tree();
        assert_eq!(tree.root.op, "Index Scan", "{tree}");
        assert!(tree
            .root
            .index_name
            .as_deref()
            .unwrap()
            .contains("o_orderkey"));
    }

    #[test]
    fn hash_join_builds_on_smaller_side() {
        let db = tpch_db();
        let q =
            parse_sql("SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
                .unwrap();
        let plan = Planner::new(&db).plan(&q).unwrap();
        if let RelOp::HashJoin { probe, build, .. } = &plan.join_root {
            assert!(build.rows() <= probe.rows());
        }
        let tree = plan.tree();
        // Auxiliary Hash node must wrap the build side.
        let has_hash_child = lantern_plan::post_order(&tree.root)
            .iter()
            .any(|i| i.node.op == "Hash" && i.parent.map(|p| p.op == "Hash Join").unwrap_or(false));
        if tree.root.op == "Hash Join" || plan_has_op(&tree.root, "Hash Join") {
            assert!(has_hash_child, "{tree}");
        }
    }

    fn plan_has_op(n: &PlanNode, op: &str) -> bool {
        n.op == op || n.children.iter().any(|c| plan_has_op(c, op))
    }

    #[test]
    fn three_way_join_covers_all_relations() {
        let db = tpch_db();
        let q = parse_sql(
            "SELECT n.n_name FROM customer c, orders o, nation n \
             WHERE c.c_custkey = o.o_custkey AND c.c_nationkey = n.n_nationkey",
        )
        .unwrap();
        let plan = Planner::new(&db).plan(&q).unwrap();
        let tree = plan.tree();
        let mut rels = tree.root.relations();
        rels.sort();
        assert_eq!(rels, vec!["customer", "nation", "orders"]);
    }

    #[test]
    fn greedy_matches_relations_of_dp() {
        let db = tpch_db();
        let q = parse_sql(
            "SELECT 1 FROM customer c, orders o, lineitem l \
             WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey",
        )
        .unwrap();
        let dp_plan = Planner::new(&db).plan(&q).unwrap();
        let mut greedy = Planner::new(&db);
        greedy.greedy_joins = true;
        let greedy_plan = greedy.plan(&q).unwrap();
        assert_eq!(
            dp_plan.tree().root.relations().len(),
            greedy_plan.tree().root.relations().len()
        );
        // DP can never be worse than greedy.
        assert!(dp_plan.join_root.cost() <= greedy_plan.join_root.cost() + 1e-6);
    }

    #[test]
    fn cross_join_fallback_for_disconnected_queries() {
        let db = tpch_db();
        let q = parse_sql("SELECT 1 FROM region r, part p").unwrap();
        let plan = Planner::new(&db).plan(&q).unwrap();
        assert!(matches!(
            plan.join_root,
            RelOp::NestedLoop { pred: None, .. }
        ));
    }

    #[test]
    fn order_by_and_limit_stack_on_top() {
        let db = tpch_db();
        let q =
            parse_sql("SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 10").unwrap();
        let tree = Planner::new(&db).plan(&q).unwrap().tree();
        assert_eq!(tree.root.op, "Limit");
        assert_eq!(tree.root.children[0].op, "Sort");
        assert_eq!(tree.root.children[0].sort_keys, vec!["o_totalprice DESC"]);
    }

    #[test]
    fn scalar_aggregate_has_no_group_keys() {
        let db = tpch_db();
        let q = parse_sql("SELECT COUNT(*) FROM orders").unwrap();
        let tree = Planner::new(&db).plan(&q).unwrap().tree();
        assert_eq!(tree.root.op, "Aggregate");
        assert!(tree.root.group_keys.is_empty());
        // No Sort child for a scalar aggregate.
        assert_ne!(tree.root.children[0].op, "Sort");
    }

    #[test]
    fn total_cost_increases_with_pipeline_stages() {
        let db = tpch_db();
        let simple = parse_sql("SELECT o_orderkey FROM orders").unwrap();
        let complex = parse_sql(
            "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey \
             ORDER BY o_custkey LIMIT 5",
        )
        .unwrap();
        let p1 = Planner::new(&db).plan(&simple).unwrap();
        let p2 = Planner::new(&db).plan(&complex).unwrap();
        assert!(p2.total_cost() > p1.total_cost());
    }

    #[test]
    fn residual_predicate_attached_to_top_join() {
        let db = tpch_db();
        let q = parse_sql(
            "SELECT 1 FROM orders o, customer c WHERE o.o_custkey = c.c_custkey \
             AND o.o_totalprice > c.c_acctbal",
        )
        .unwrap();
        let plan = Planner::new(&db).plan(&q).unwrap();
        let residual_len = match &plan.join_root {
            RelOp::HashJoin { residual, .. }
            | RelOp::MergeJoin { residual, .. }
            | RelOp::NestedLoop { residual, .. } => residual.len(),
            _ => 0,
        };
        assert_eq!(residual_len, 1);
    }
}
