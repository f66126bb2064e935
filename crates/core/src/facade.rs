//! The end-to-end LANTERN facade: plan artifact in (JSON/XML/tree),
//! natural-language narration out.
//!
//! `Lantern` is a thin layer over [`RuleTranslator`] that implements
//! [`Translator`] itself: build a [`NarrationRequest`] from any plan
//! source and narrate it.

use crate::api::{LanternError, NarrationRequest, NarrationResponse, RuleTranslator, Translator};
use crate::lot::CoreError;
use crate::narrate::Narration;
use lantern_plan::PlanTree;
use lantern_pool::PoemStore;

/// End-to-end rule-based LANTERN: owns a POEM store and translates
/// plan artifacts from any supported source.
///
/// ```
/// use lantern_core::{Lantern, NarrationRequest, Translator};
/// use lantern_pool::default_pg_store;
///
/// let lantern = Lantern::new(default_pg_store());
/// let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
/// let response = lantern.narrate_request(&NarrationRequest::auto(doc).unwrap()).unwrap();
/// assert_eq!(
///     response.text,
///     "1. perform sequential scan on orders to get the final results."
/// );
/// ```
pub struct Lantern {
    rule: RuleTranslator,
}

impl Lantern {
    /// Create a facade over a POEM store.
    pub fn new(store: PoemStore) -> Self {
        Lantern {
            rule: RuleTranslator::new(store),
        }
    }

    /// Access the underlying store (e.g. to run POOL statements).
    pub fn store(&self) -> &PoemStore {
        self.rule.store()
    }

    /// Narrate a request through the unified pipeline (equivalent to
    /// [`Translator::narrate`]; named method provided so callers don't
    /// need the trait in scope).
    pub fn narrate_request(
        &self,
        req: &NarrationRequest,
    ) -> Result<NarrationResponse, LanternError> {
        self.rule.narrate(req)
    }

    /// Narrate an already-parsed plan tree (borrowed — no clone).
    pub fn narrate_tree(&self, tree: &PlanTree) -> Result<Narration, CoreError> {
        let snapshot = self.rule.store().snapshot();
        crate::narrate::narrate_with_lookup(tree, &snapshot)
    }
}

impl Translator for Lantern {
    fn backend(&self) -> &str {
        self.rule.backend()
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        self.rule.narrate(req)
    }

    fn narrate_batch(
        &self,
        reqs: &[NarrationRequest],
    ) -> Vec<Result<NarrationResponse, LanternError>> {
        self.rule.narrate_batch(reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_pool::{default_mssql_store, default_pg_store};

    #[test]
    fn json_to_narration() {
        let lantern = Lantern::new(default_pg_store());
        let doc = r#"[{"Plan": {"Node Type": "Hash Join",
            "Hash Cond": "((a.x) = (b.y))",
            "Plans": [
              {"Node Type": "Seq Scan", "Relation Name": "a"},
              {"Node Type": "Hash",
               "Plans": [{"Node Type": "Seq Scan", "Relation Name": "b"}]}
            ]}}]"#;
        let n = lantern
            .narrate_request(&NarrationRequest::auto(doc).unwrap())
            .unwrap();
        assert!(
            n.text.contains("hash b and perform hash join on a and b"),
            "{}",
            n.text
        );
    }

    #[test]
    fn xml_to_narration_requires_mssql_store() {
        let doc = r#"<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple><QueryPlan>
            <RelOp PhysicalOp="Table Scan" EstimateRows="10" EstimatedTotalSubtreeCost="1">
              <Object Table="photoobj"/>
            </RelOp>
        </QueryPlan></StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>"#;
        let req = NarrationRequest::auto(doc).unwrap();
        // pg-only store: fails (operator names differ across sources).
        let pg_only = Lantern::new(default_pg_store());
        assert!(matches!(
            pg_only.narrate_request(&req),
            Err(LanternError::UnknownOperator { .. })
        ));
        // Store with the mssql catalog: succeeds.
        let both = Lantern::new(default_mssql_store());
        let n = both.narrate_request(&req).unwrap();
        assert!(n.text.contains("perform table scan on photoobj"));
    }

    #[test]
    fn facade_serves_the_translator_trait() {
        fn narrate_via_trait<T: Translator>(t: &T, doc: &str) -> String {
            t.narrate(&NarrationRequest::auto(doc).unwrap())
                .unwrap()
                .text
        }
        let lantern = Lantern::new(default_pg_store());
        let text = narrate_via_trait(
            &lantern,
            r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#,
        );
        assert!(text.contains("sequential scan on orders"));
        assert_eq!(lantern.backend(), "rule");
    }
}
