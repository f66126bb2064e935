//! [`RuleDiffTranslator`]: the [`DiffTranslator`] backend over the
//! structural engine — diff two parsed trees and narrate against a POEM
//! store snapshot. The root crate's `LanternService` forwards to this;
//! `lantern-serve` routes to it behind `POST /narrate/diff`.

use lantern_core::{DiffResponse, DiffTranslator, RenderStyle};
use lantern_plan::PlanTree;
use lantern_pool::PoemStore;

use crate::engine::diff_plans;
use crate::narrate::{render_diff_with, DiffTemplates};

/// The rule-based diff backend: POEM display names, the default
/// [`DiffTemplates`], and a configurable default rendering style.
#[derive(Debug, Clone)]
pub struct RuleDiffTranslator {
    store: PoemStore,
    style: RenderStyle,
    templates: DiffTemplates,
}

impl RuleDiffTranslator {
    /// A diff backend over the given store, rendering numbered
    /// documents by default.
    pub fn new(store: PoemStore) -> Self {
        RuleDiffTranslator {
            store,
            style: RenderStyle::default(),
            templates: DiffTemplates::default(),
        }
    }

    /// Change the default rendering style.
    pub fn with_style(mut self, style: RenderStyle) -> Self {
        self.style = style;
        self
    }
}

impl DiffTranslator for RuleDiffTranslator {
    fn diff_backend(&self) -> &str {
        "rule-diff"
    }

    fn narrate_trees(
        &self,
        base: &PlanTree,
        alt: &PlanTree,
        style: Option<RenderStyle>,
    ) -> DiffResponse {
        let diff = diff_plans(base, alt);
        let snapshot = self.store.snapshot();
        let (changes, narration) = render_diff_with(base, alt, &diff, &snapshot, &self.templates);
        let text = narration.render(style.unwrap_or(self.style));
        DiffResponse {
            backend: self.diff_backend().to_string(),
            score: diff.score,
            changes,
            narration,
            text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_core::PlanSource;
    use lantern_pool::default_mssql_store;

    const BASE: &str = r#"{"Plan": {"Node Type": "Nested Loop", "Total Cost": 500.0,
        "Plans": [{"Node Type": "Seq Scan", "Relation Name": "orders", "Plan Rows": 1000},
                  {"Node Type": "Seq Scan", "Relation Name": "customers", "Plan Rows": 200}]}}"#;
    const ALT: &str = r#"{"Plan": {"Node Type": "Hash Join", "Total Cost": 120.0,
        "Plans": [{"Node Type": "Seq Scan", "Relation Name": "orders", "Plan Rows": 1000},
                  {"Node Type": "Seq Scan", "Relation Name": "customers", "Plan Rows": 200}]}}"#;

    fn tree(doc: &str) -> PlanTree {
        PlanSource::parse_auto(doc).unwrap()
    }

    #[test]
    fn end_to_end_over_documents() {
        let t = RuleDiffTranslator::new(default_mssql_store());
        let resp = t.narrate_trees(&tree(BASE), &tree(ALT), None);
        assert_eq!(resp.backend, "rule-diff");
        assert!(!resp.is_identical());
        assert!(resp.score > 0.0);
        assert_eq!(resp.changes[0].kind, "operator-substitution");
        assert!(resp.text.contains("hash join"), "{}", resp.text);
    }

    #[test]
    fn self_diff_reports_identical() {
        let t = RuleDiffTranslator::new(default_mssql_store());
        let base = tree(BASE);
        let resp = t.narrate_trees(&base, &base, None);
        assert!(resp.is_identical());
        assert_eq!(resp.score, 0.0);
        assert!(resp.changes.is_empty());
        assert!(resp.text.contains("identical"));
    }

    #[test]
    fn batch_default_ranks_by_caller() {
        // A diff batch is one `narrate_trees` per alternative against
        // the one parsed base; the caller ranks by score.
        let t = RuleDiffTranslator::new(default_mssql_store());
        let base = tree(BASE);
        let scores: Vec<f64> = [BASE, ALT]
            .iter()
            .map(|alt| t.narrate_trees(&base, &tree(alt), None).score)
            .collect();
        assert_eq!(scores[0], 0.0);
        assert!(scores[1] > 0.0);
    }

    #[test]
    fn style_override_changes_rendering() {
        let t = RuleDiffTranslator::new(default_mssql_store());
        let resp = t.narrate_trees(&tree(BASE), &tree(ALT), Some(RenderStyle::Bulleted));
        assert!(resp.text.starts_with("- "), "{}", resp.text);
    }
}
