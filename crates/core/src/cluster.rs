//! Tests of auxiliary/critical clustering (paper §5.4), read off the
//! narration: a clustered pair is one step whose `ops` list the
//! auxiliary operator first.

#[cfg(test)]
mod tests {
    use crate::narrate::RuleLantern;
    use lantern_plan::{PlanNode, PlanTree};
    use lantern_pool::default_pg_store;

    /// Each step's `ops`, in narration order.
    fn step_ops(root: PlanNode) -> Vec<Vec<String>> {
        RuleLantern::new(&default_pg_store())
            .narrate(&PlanTree::new("pg", root))
            .unwrap()
            .steps()
            .iter()
            .map(|s| s.ops.clone())
            .collect()
    }

    #[test]
    fn hash_under_hash_join_clusters() {
        let ops = step_ops(
            PlanNode::new("Hash Join")
                .with_child(PlanNode::new("Seq Scan").on_relation("a"))
                .with_child(
                    PlanNode::new("Hash").with_child(PlanNode::new("Seq Scan").on_relation("b")),
                ),
        );
        assert_eq!(
            ops,
            vec![
                vec!["Seq Scan"],
                vec!["Seq Scan"],
                vec!["Hash", "Hash Join"]
            ]
        );
    }

    #[test]
    fn sort_under_aggregate_clusters() {
        let ops = step_ops(PlanNode::new("Aggregate").with_child(
            PlanNode::new("Sort").with_child(PlanNode::new("Seq Scan").on_relation("a")),
        ));
        assert_eq!(ops, vec![vec!["Seq Scan"], vec!["Sort", "Aggregate"]]);
    }

    #[test]
    fn sort_under_hash_join_does_not_cluster() {
        // Sort targets mergejoin/aggregate/unique, not hash join.
        let ops = step_ops(
            PlanNode::new("Hash Join")
                .with_child(
                    PlanNode::new("Sort").with_child(PlanNode::new("Seq Scan").on_relation("a")),
                )
                .with_child(PlanNode::new("Seq Scan").on_relation("b")),
        );
        assert_eq!(
            ops,
            vec![
                vec!["Seq Scan"],
                vec!["Sort"],
                vec!["Seq Scan"],
                vec!["Hash Join"]
            ]
        );
    }

    #[test]
    fn merge_join_clusters_only_first_sort() {
        let ops = step_ops(
            PlanNode::new("Merge Join")
                .with_child(
                    PlanNode::new("Sort").with_child(PlanNode::new("Seq Scan").on_relation("a")),
                )
                .with_child(
                    PlanNode::new("Sort").with_child(PlanNode::new("Seq Scan").on_relation("b")),
                ),
        );
        assert_eq!(
            ops,
            vec![
                vec!["Seq Scan"],
                vec!["Seq Scan"],
                vec!["Sort"],
                vec!["Sort", "Merge Join"]
            ]
        );
    }

    #[test]
    fn nested_clusters_found_at_depth() {
        let ops = step_ops(
            PlanNode::new("Unique").with_child(
                PlanNode::new("Aggregate").with_child(
                    PlanNode::new("Sort").with_child(
                        PlanNode::new("Hash Join")
                            .with_child(PlanNode::new("Seq Scan").on_relation("a"))
                            .with_child(
                                PlanNode::new("Hash")
                                    .with_child(PlanNode::new("Seq Scan").on_relation("b")),
                            ),
                    ),
                ),
            ),
        );
        // Aggregate+Sort one level down; Hash Join+Hash three levels down.
        assert_eq!(
            ops,
            vec![
                vec!["Seq Scan"],
                vec!["Seq Scan"],
                vec!["Hash", "Hash Join"],
                vec!["Sort", "Aggregate"],
                vec!["Unique"]
            ]
        );
    }
}
