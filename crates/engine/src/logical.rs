//! Logical plan extraction: classify a resolved query into per-relation
//! filters, equi-join predicates, residual predicates, and the
//! post-join pipeline (aggregation, distinct, ordering, limit).

use lantern_catalog::Catalog;
use lantern_sql::resolve::ResolvedQuery;
use lantern_sql::{resolve, BinaryOp, Expr, Query, SqlError};

/// A base relation participating in the query.
#[derive(Debug, Clone)]
pub struct BaseRel {
    /// Visible (possibly aliased) name.
    pub visible: String,
    /// Catalog table name.
    pub table: String,
    /// Single-table filter conjuncts.
    pub filters: Vec<Expr>,
}

/// An equi-join predicate between two base relations.
#[derive(Debug, Clone)]
pub struct JoinPred {
    /// Visible name of the left relation.
    pub left_rel: String,
    /// Left column name.
    pub left_col: String,
    /// Visible name of the right relation.
    pub right_rel: String,
    /// Right column name.
    pub right_col: String,
}

impl JoinPred {
    /// Condition text in the paper's rendering style:
    /// `((i.proceeding_key) = (p.pub_key))`.
    pub fn condition_text(&self) -> String {
        format!(
            "(({}.{}) = ({}.{}))",
            self.left_rel, self.left_col, self.right_rel, self.right_col
        )
    }

    /// Does this predicate connect the two given relation sets?
    pub fn connects(&self, a: &[String], b: &[String]) -> bool {
        (a.contains(&self.left_rel) && b.contains(&self.right_rel))
            || (a.contains(&self.right_rel) && b.contains(&self.left_rel))
    }
}

/// The logical plan the physical planner optimizes.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    /// The resolved query (AST + bindings).
    pub resolved: ResolvedQuery,
    /// Base relations in FROM order.
    pub relations: Vec<BaseRel>,
    /// Equi-join predicates.
    pub joins: Vec<JoinPred>,
    /// WHERE conjuncts that are neither single-table nor binary
    /// equi-joins (applied after all joins).
    pub residual: Vec<Expr>,
}

impl LogicalPlan {
    /// Build the logical plan for `query` against `catalog`.
    pub fn build(query: &Query, catalog: &Catalog) -> Result<LogicalPlan, SqlError> {
        let resolved = resolve(query, catalog)?;
        let mut relations: Vec<BaseRel> = resolved
            .table_order
            .iter()
            .map(|visible| BaseRel {
                visible: visible.clone(),
                table: resolved.tables[visible].clone(),
                filters: Vec::new(),
            })
            .collect();
        let mut joins = Vec::new();
        let mut residual = Vec::new();

        // Conjuncts come from WHERE plus explicit JOIN ... ON clauses.
        let mut conjuncts: Vec<Expr> = Vec::new();
        if let Some(w) = &query.where_clause {
            conjuncts.extend(w.conjuncts().into_iter().cloned());
        }
        for j in &query.joins {
            conjuncts.extend(j.on.conjuncts().into_iter().cloned());
        }

        for c in conjuncts {
            match classify(&c, &resolved, catalog) {
                Classified::SingleTable(visible) => {
                    relations
                        .iter_mut()
                        .find(|r| r.visible == visible)
                        .expect("classified table must exist")
                        .filters
                        .push(c);
                }
                Classified::EquiJoin(jp) => joins.push(jp),
                Classified::Residual => residual.push(c),
            }
        }
        Ok(LogicalPlan {
            resolved,
            relations,
            joins,
            residual,
        })
    }
}

enum Classified {
    SingleTable(String),
    EquiJoin(JoinPred),
    Residual,
}

fn classify(expr: &Expr, resolved: &ResolvedQuery, catalog: &Catalog) -> Classified {
    // Binary equi-join: col = col across two distinct relations.
    if let Expr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = expr
    {
        if let (
            Expr::Column {
                qualifier: lq,
                name: ln,
            },
            Expr::Column {
                qualifier: rq,
                name: rn,
            },
        ) = (left.as_ref(), right.as_ref())
        {
            let lr = resolved.resolve_column(catalog, lq, ln);
            let rr = resolved.resolve_column(catalog, rq, rn);
            if let (Ok(l), Ok(r)) = (lr, rr) {
                if l.table_visible != r.table_visible {
                    return Classified::EquiJoin(JoinPred {
                        left_rel: l.table_visible,
                        left_col: l.column,
                        right_rel: r.table_visible,
                        right_col: r.column,
                    });
                }
            }
        }
    }
    // Single-table if all columns bind to one visible relation.
    let cols = expr.columns();
    if cols.is_empty() {
        return Classified::Residual;
    }
    let mut owner: Option<String> = None;
    for (q, n) in cols {
        match resolved.resolve_column(catalog, q, n) {
            Ok(rc) => match &owner {
                None => owner = Some(rc.table_visible),
                Some(o) if *o == rc.table_visible => {}
                Some(_) => return Classified::Residual,
            },
            Err(_) => return Classified::Residual,
        }
    }
    Classified::SingleTable(owner.expect("nonempty cols"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_catalog::{dblp_catalog, tpch_catalog};
    use lantern_sql::parse_sql;

    #[test]
    fn classifies_paper_example() {
        let cat = dblp_catalog();
        let q = parse_sql(
            "SELECT DISTINCT(I.proceeding_key) FROM inproceedings I, publication P \
             WHERE I.proceeding_key = P.pub_key AND P.title LIKE '%July%' \
             GROUP BY I.proceeding_key HAVING COUNT(*) > 200",
        )
        .unwrap();
        let lp = LogicalPlan::build(&q, &cat).unwrap();
        assert_eq!(lp.relations.len(), 2);
        assert_eq!(lp.joins.len(), 1);
        assert_eq!(
            lp.joins[0].condition_text(),
            "((I.proceeding_key) = (P.pub_key))"
        );
        let p = lp.relations.iter().find(|r| r.visible == "P").unwrap();
        assert_eq!(p.filters.len(), 1);
        assert!(lp.residual.is_empty());
    }

    #[test]
    fn explicit_join_on_contributes_predicates() {
        let cat = tpch_catalog();
        let q = parse_sql(
            "SELECT c.c_name FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey \
             WHERE o.o_totalprice > 1000",
        )
        .unwrap();
        let lp = LogicalPlan::build(&q, &cat).unwrap();
        assert_eq!(lp.joins.len(), 1);
        let o = lp.relations.iter().find(|r| r.visible == "o").unwrap();
        assert_eq!(o.filters.len(), 1);
    }

    #[test]
    fn cross_table_inequality_is_residual() {
        let cat = tpch_catalog();
        let q = parse_sql(
            "SELECT 1 FROM orders o, customer c WHERE o.o_custkey = c.c_custkey \
             AND o.o_totalprice > c.c_acctbal",
        )
        .unwrap();
        let lp = LogicalPlan::build(&q, &cat).unwrap();
        assert_eq!(lp.joins.len(), 1);
        assert_eq!(lp.residual.len(), 1);
    }

    #[test]
    fn same_table_eq_is_filter_not_join() {
        let cat = tpch_catalog();
        let q = parse_sql("SELECT 1 FROM lineitem l WHERE l.l_commitdate = l.l_shipdate").unwrap();
        let lp = LogicalPlan::build(&q, &cat).unwrap();
        assert!(lp.joins.is_empty());
        assert_eq!(lp.relations[0].filters.len(), 1);
    }

    #[test]
    fn join_pred_connects() {
        let jp = JoinPred {
            left_rel: "a".into(),
            left_col: "x".into(),
            right_rel: "b".into(),
            right_col: "y".into(),
        };
        assert!(jp.connects(&["a".into()], &["b".into()]));
        assert!(jp.connects(&["b".into()], &["a".into()]));
        assert!(!jp.connects(&["a".into()], &["c".into()]));
    }

    #[test]
    fn constant_predicate_is_residual() {
        let cat = tpch_catalog();
        let q = parse_sql("SELECT 1 FROM orders WHERE 1 = 1").unwrap();
        let lp = LogicalPlan::build(&q, &cat).unwrap();
        assert_eq!(lp.residual.len(), 1);
    }
}
