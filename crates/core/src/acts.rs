//! Act decomposition (paper §6.2): a QEP is decomposed into *acts*,
//! each a single operator or an auxiliary/critical cluster. Acts are
//! the training unit of NEURAL-LANTERN — input at the operator level
//! rather than the whole tree, which both multiplies training data and
//! improves generalization.

use crate::narrate::{CoreError, RuleLantern};
use crate::tags::TagBinding;
use lantern_plan::PlanTree;
use lantern_pool::PoemStore;

/// One act: an operator (or cluster) with its rule-generated labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Act {
    /// Vendor operator names (auxiliary first for clusters).
    pub ops: Vec<String>,
    /// Tag-abstracted output label (the seq2seq target).
    pub tagged_label: String,
    /// Concrete label (the rule-lantern sentence).
    pub concrete_label: String,
    /// Tag bindings to restore concrete values after decoding.
    pub bindings: TagBinding,
}

impl Act {
    /// Linearize this act into the QEP2Seq *input* token sequence:
    /// normalized operator tokens followed by one token per bound tag,
    /// in binding order. Example: `["HASHJOIN", "HASH", "<T>", "<T>",
    /// "<C>", "<TN>"]`.
    pub fn input_tokens(&self) -> Vec<String> {
        let mut toks: Vec<String> = self
            .ops
            .iter()
            .rev() // critical operator first
            .map(|o| {
                o.chars()
                    .filter(|c| c.is_alphanumeric())
                    .flat_map(char::to_uppercase)
                    .collect()
            })
            .collect();
        for (tag, _) in &self.bindings {
            toks.push(tag.clone());
        }
        toks
    }

    /// Tokenized output label (the seq2seq target sequence).
    pub fn output_tokens(&self) -> Vec<String> {
        lantern_text::tokenize(&self.tagged_label)
    }
}

/// Decompose a plan into acts (runs RULE-LANTERN once; each narration
/// step is one act).
pub fn decompose_acts(tree: &PlanTree, store: &PoemStore) -> Result<Vec<Act>, CoreError> {
    let narration = RuleLantern::new(store).narrate(tree)?;
    Ok(narration
        .steps()
        .iter()
        .map(|s| Act {
            ops: s.ops.clone(),
            tagged_label: s.tagged.clone(),
            concrete_label: s.text.clone(),
            bindings: s.bindings.clone(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_plan::PlanNode;
    use lantern_pool::default_pg_store;

    fn figure_4() -> PlanTree {
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

    #[test]
    fn figure_4_decomposes_into_five_acts() {
        // Paper §6.2: SEQUENTIAL SCAN and (HASH JOIN, HASH) are acts.
        let acts = decompose_acts(&figure_4(), &default_pg_store()).unwrap();
        assert_eq!(acts.len(), 5);
        assert_eq!(acts[0].ops, vec!["Seq Scan"]);
        assert_eq!(acts[2].ops, vec!["Hash", "Hash Join"]);
        assert_eq!(acts[3].ops, vec!["Sort", "Aggregate"]);
    }

    #[test]
    fn input_tokens_are_schema_independent() {
        let acts = decompose_acts(&figure_4(), &default_pg_store()).unwrap();
        let join_act = &acts[2];
        let toks = join_act.input_tokens();
        assert_eq!(toks[0], "HASHJOIN");
        assert_eq!(toks[1], "HASH");
        // No concrete relation names leak into the input.
        for t in &toks {
            assert!(!t.contains("inproceedings"), "{toks:?}");
        }
        assert!(toks.contains(&"<T>".to_string()));
        assert!(toks.contains(&"<C>".to_string()));
    }

    #[test]
    fn output_tokens_tokenize_the_tagged_label() {
        let acts = decompose_acts(&figure_4(), &default_pg_store()).unwrap();
        let toks = acts[0].output_tokens();
        assert_eq!(toks[0], "perform");
        assert!(toks.contains(&"<T>".to_string()));
    }

    #[test]
    fn different_plans_same_operator_share_input_tokens() {
        // Act-level granularity: the same operator shape yields the
        // same input regardless of schema (generalization rationale).
        let store = default_pg_store();
        let t1 = PlanTree::new("pg", PlanNode::new("Seq Scan").on_relation("orders"));
        let t2 = PlanTree::new("pg", PlanNode::new("Seq Scan").on_relation("movies"));
        let a1 = decompose_acts(&t1, &store).unwrap();
        let a2 = decompose_acts(&t2, &store).unwrap();
        assert_eq!(a1[0].input_tokens(), a2[0].input_tokens());
        assert_eq!(a1[0].tagged_label, a2[0].tagged_label);
        assert_ne!(a1[0].concrete_label, a2[0].concrete_label);
    }
}
