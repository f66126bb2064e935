//! # lantern-diff
//!
//! A structural diff engine over parsed query plans: compare a base
//! plan against an alternative, classify what changed, score how
//! *informative* the alternative is, and narrate the comparison in
//! the same learner-facing voice as the step narration.
//!
//! The paper's setting is database education: a student asks not just
//! "what does my plan do?" but "why this plan and not that one?" —
//! the same query after an index is added, a rewritten predicate, a
//! forced join order. This crate answers the second question:
//!
//! * [`engine`] — subtree matching anchored on per-subtree 128-bit
//!   fingerprints (the narration cache's canonical encoding, under its
//!   own digest domain), with edit classification: operator
//!   substitution, join-input swap, estimate drift, predicate change,
//!   subtree insert/delete.
//! * [`score`] — informativeness: structural-change magnitude
//!   amplified by the estimated-cost delta, weighted so a
//!   join-algorithm change always outranks cardinality jitter.
//! * [`narrate`] — the diff rendered as a [`Narration`](lantern_core::Narration) through POEM
//!   display names and a diff-specific template set.
//!
//! ## Quick start
//!
//! ```
//! use lantern_diff::{diff_plans, render_diff};
//! use lantern_plan::parse_pg_json_plan;
//! use lantern_pool::default_pg_store;
//!
//! let base = parse_pg_json_plan(
//!     r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders",
//!         "Filter": "o.total > 41"}}"#,
//! )
//! .unwrap();
//! let alt = parse_pg_json_plan(
//!     r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders",
//!         "Filter": "o.total > 42"}}"#,
//! )
//! .unwrap();
//!
//! let diff = diff_plans(&base, &alt);
//! assert_eq!(diff.kind_names(), ["predicate-change"]);
//! let (changes, narration) = render_diff(&base, &alt, &diff, &default_pg_store());
//! assert_eq!(changes.len(), 1);
//! assert!(narration.text().contains("filter"));
//! ```
//!
//! [`RuleDiffTranslator`] implements the
//! [`DiffTranslator`](lantern_core::DiffTranslator) trait on top of
//! this engine; the root crate's `LanternService` forwards to it, and
//! `lantern-serve` exposes it as `POST /narrate/diff` and
//! `POST /narrate/diff/batch` (alternatives ranked by
//! informativeness).

pub mod engine;
pub mod narrate;
pub mod score;
pub mod translator;

pub use engine::{
    diff_plans, diff_plans_with, ChangedField, DiffOptions, EditKind, PlanDiff, PlanEdit,
};
pub use narrate::{render_diff, render_diff_with, DiffTemplates};
pub use score::{informativeness, log2_ratio, score_edit};
pub use translator::RuleDiffTranslator;

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_plan::{PlanNode, PlanTree};
    use lantern_pool::default_pg_store;

    fn scan(rel: &str, alias: &str, rows: f64) -> PlanNode {
        let mut n = PlanNode::new("Seq Scan");
        n.relation = Some(rel.into());
        n.alias = Some(alias.into());
        n.estimated_rows = rows;
        n.estimated_cost = rows * 0.1;
        n
    }

    fn join(op: &str, left: PlanNode, right: PlanNode) -> PlanNode {
        let mut n = PlanNode::new(op);
        n.join_cond = Some("(a.id) = (b.id)".into());
        n.estimated_rows = 100.0;
        n.estimated_cost = 250.0;
        n.children = vec![left, right];
        n
    }

    fn tree(root: PlanNode) -> PlanTree {
        PlanTree::new("pg", root)
    }

    #[test]
    fn self_diff_is_empty_and_scores_zero() {
        let t = tree(join(
            "Hash Join",
            scan("orders", "o", 1000.0),
            scan("customers", "c", 200.0),
        ));
        let diff = diff_plans(&t, &t);
        assert!(diff.is_empty());
        assert_eq!(diff.score, 0.0);
        let (changes, narration) = render_diff(&t, &t, &diff, &default_pg_store());
        assert!(changes.is_empty());
        assert!(narration.text().contains("identical"));
    }

    #[test]
    fn operator_substitution_is_classified() {
        let base = tree(join(
            "Nested Loop",
            scan("orders", "o", 1000.0),
            scan("customers", "c", 200.0),
        ));
        let mut alt = base.clone();
        alt.root.op = "Hash Join".into();
        let diff = diff_plans(&base, &alt);
        assert_eq!(diff.kind_names(), ["operator-substitution"]);
        assert_eq!(diff.edits[0].path_string(), "root");
        let (changes, narration) = render_diff(&base, &alt, &diff, &default_pg_store());
        assert_eq!(changes[0].kind, "operator-substitution");
        // POEM display names, not vendor names.
        assert!(
            narration.text().contains("hash join"),
            "{}",
            narration.text()
        );
        assert!(
            narration.text().contains("nested loop"),
            "{}",
            narration.text()
        );
    }

    #[test]
    fn join_input_swap_is_one_edit_not_two_subtree_moves() {
        let base = tree(join(
            "Hash Join",
            scan("orders", "o", 1000.0),
            scan("customers", "c", 200.0),
        ));
        let mut alt = base.clone();
        alt.root.children.swap(0, 1);
        let diff = diff_plans(&base, &alt);
        assert_eq!(diff.kind_names(), ["join-input-swap"]);
        assert_eq!(diff.edits.len(), 1);
        let (changes, _) = render_diff(&base, &alt, &diff, &default_pg_store());
        assert_eq!(changes[0].path, "root");
    }

    #[test]
    fn estimate_jitter_scores_below_any_structural_change() {
        let base = tree(join(
            "Hash Join",
            scan("orders", "o", 1000.0),
            scan("customers", "c", 200.0),
        ));
        // Jitter every estimate by ~10%.
        let mut jittered = base.clone();
        fn bump(n: &mut PlanNode) {
            n.estimated_rows = (n.estimated_rows * 1.1).round();
            n.estimated_cost *= 1.1;
            n.children.iter_mut().for_each(bump);
        }
        bump(&mut jittered.root);
        let mut swapped = base.clone();
        swapped.root.children.swap(0, 1);

        let jitter_diff = diff_plans(&base, &jittered);
        let swap_diff = diff_plans(&base, &swapped);
        assert_eq!(jitter_diff.kind_names(), ["estimate-delta"]);
        assert!(jitter_diff.score > 0.0);
        assert!(
            jitter_diff.score < swap_diff.score,
            "jitter {} must rank below a join-order change {}",
            jitter_diff.score,
            swap_diff.score
        );
    }

    #[test]
    fn inserted_subtree_is_reported_with_its_size() {
        let mut base_root = PlanNode::new("Append");
        base_root.children = vec![scan("orders", "o", 1000.0)];
        let mut alt_root = base_root.clone();
        alt_root.children.push(join(
            "Hash Join",
            scan("lineitem", "l", 5000.0),
            scan("part", "p", 100.0),
        ));
        let base = tree(base_root);
        let alt = tree(alt_root);
        let diff = diff_plans(&base, &alt);
        assert_eq!(diff.kind_names(), ["subtree-insert"]);
        match &diff.edits[0].kind {
            EditKind::SubtreeInsert { op, size, .. } => {
                assert_eq!(op, "Hash Join");
                assert_eq!(*size, 3);
            }
            other => panic!("unexpected edit {other:?}"),
        }
        let reverse = diff_plans(&alt, &base);
        assert_eq!(reverse.kind_names(), ["subtree-delete"]);
    }

    #[test]
    fn filter_tweak_is_a_predicate_change_at_the_leaf() {
        let mut base_leaf = scan("orders", "o", 1000.0);
        base_leaf.filter = Some("o.total > 41".into());
        let base = tree(join(
            "Hash Join",
            base_leaf.clone(),
            scan("customers", "c", 200.0),
        ));
        let mut alt = base.clone();
        alt.root.children[0].filter = Some("o.total > 42".into());
        let diff = diff_plans(&base, &alt);
        assert_eq!(diff.kind_names(), ["predicate-change"]);
        assert_eq!(diff.edits[0].path_string(), "root.0");
        let (changes, _) = render_diff(&base, &alt, &diff, &default_pg_store());
        assert!(
            changes[0].detail.contains("o.total > 42"),
            "{}",
            changes[0].detail
        );
    }

    #[test]
    fn generated_mutants_are_identified_by_kind() {
        use lantern_gen::{GenConfig, Mutation, PlanGenerator};
        let mut gen = PlanGenerator::new(
            GenConfig::default()
                .with_seed(31)
                .with_ops(2, 4)
                .with_serial_stamps(false),
        );
        let mut seen = [0usize; 3];
        for _ in 0..60 {
            let base = gen.next_tree();
            for (i, kind) in Mutation::ALL.into_iter().enumerate() {
                let Some(mutant) = gen.mutate_as(&base, kind) else {
                    continue;
                };
                seen[i] += 1;
                let diff = diff_plans(&base, &mutant);
                let expected = match kind {
                    Mutation::SwapJoinInputs => "join-input-swap",
                    Mutation::JitterEstimates => "estimate-delta",
                    Mutation::TweakFilterConstant => "predicate-change",
                };
                assert_eq!(
                    diff.kind_names(),
                    [expected],
                    "mutation {} misclassified",
                    kind.name()
                );
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "all kinds exercised: {seen:?}");
    }

    #[test]
    fn informativeness_ranks_algorithm_change_above_everything() {
        let base = tree(join(
            "Nested Loop",
            scan("orders", "o", 1000.0),
            scan("customers", "c", 200.0),
        ));
        let mut algo = base.clone();
        algo.root.op = "Hash Join".into();
        let mut swap = base.clone();
        swap.root.children.swap(0, 1);
        let mut pred = base.clone();
        pred.root.join_cond = Some("(a.id) = (c.id)".into());
        let s_algo = diff_plans(&base, &algo).score;
        let s_swap = diff_plans(&base, &swap).score;
        let s_pred = diff_plans(&base, &pred).score;
        assert!(
            s_algo > s_swap && s_swap > s_pred,
            "{s_algo} {s_swap} {s_pred}"
        );
    }
}
