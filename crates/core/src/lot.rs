//! Tests of the LOT (paper §5.3): each plan node paired with its POEM
//! entry, read through [`lantern_pool::PoemSnapshot::entry`] and the
//! narration built from it.

#[cfg(test)]
mod tests {
    use crate::narrate::{CoreError, Narration, RuleLantern};
    use lantern_plan::{PlanNode, PlanTree};
    use lantern_pool::default_pg_store;

    fn figure_4_tree() -> PlanTree {
        PlanTree::new(
            "pg",
            PlanNode::new("Unique").with_child(
                PlanNode::new("Aggregate").with_child(
                    PlanNode::new("Sort").with_child(
                        PlanNode::new("Hash Join")
                            .with_join_cond("((i.proceeding_key) = (p.pub_key))")
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
            ),
        )
    }

    fn narrate(tree: &PlanTree) -> Result<Narration, CoreError> {
        RuleLantern::new(&default_pg_store()).narrate(tree)
    }

    #[test]
    fn annotates_every_node() {
        let narration = narrate(&figure_4_tree()).unwrap();
        let covered: usize = narration.steps().iter().map(|s| s.ops.len()).sum();
        assert_eq!(covered, 7);
        let snap = default_pg_store().snapshot();
        let (unique, label) = snap.entry("pg", "Unique").unwrap();
        assert_eq!(unique.display_name(), "duplicate removal"); // Unique alias
        assert_eq!(label, "perform duplicate removal on $R1$");
        let last = narration.steps().last().unwrap();
        assert_eq!(last.ops, vec!["Unique"]);
        assert_eq!(
            last.tagged,
            "perform duplicate removal on <T> to get the final results."
        );
    }

    #[test]
    fn hash_join_label_matches_paper_template() {
        let snap = default_pg_store().snapshot();
        let (_, label) = snap.entry("pg", "Hash Join").unwrap();
        assert_eq!(
            label,
            "perform hash join on $R2$ and $R1$ on condition $cond$"
        );
        let narration = narrate(&figure_4_tree()).unwrap();
        let step = &narration.steps()[2];
        assert_eq!(step.ops, vec!["Hash", "Hash Join"]);
        assert_eq!(
            step.tagged,
            "hash <T> and perform hash join on <T> and <T> on condition <C> \
             to get the intermediate relation <TN>."
        );
    }

    #[test]
    fn unknown_operator_is_an_error() {
        let tree = PlanTree::new("pg", PlanNode::new("Quantum Scan"));
        match narrate(&tree) {
            Err(CoreError::UnknownOperator { op, .. }) => assert_eq!(op, "Quantum Scan"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_source_is_an_error() {
        // A SQL Server plan against a pg-only store must fail — the
        // cross-RDBMS scenario of US 5.
        let tree = PlanTree::new("mssql", PlanNode::new("Table Scan"));
        assert!(narrate(&tree).is_err());
    }

    #[test]
    fn name_falls_back_to_poem_name_without_alias() {
        let snap = default_pg_store().snapshot();
        let (hash, _) = snap.entry("pg", "Hash").unwrap();
        assert_eq!(hash.display_name(), "hash"); // hash has no alias
                                                 // A leaf without a relation is referred to by that name.
        let tree = PlanTree::new(
            "pg",
            PlanNode::new("Nested Loop")
                .with_child(PlanNode::new("Seq Scan").on_relation("a"))
                .with_child(PlanNode::new("Hash")),
        );
        let narration = narrate(&tree).unwrap();
        assert_eq!(
            narration.steps()[2].text,
            "perform nested loop join on a and hash to get the final results."
        );
    }
}
