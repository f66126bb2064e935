//! A [`Translator`] decorator that paraphrases narration steps on the
//! way out — the "paraphrase on/off" switch of the unified pipeline.
//!
//! Wraps any backend. Each step is rewritten by the first paraphrase
//! engine that produces a *valid* variant (same validity filter as
//! training-set expansion, §6.3), with the engine choice rotating by
//! step index so consecutive steps don't all receive the same
//! transformation. Steps no engine can rewrite pass through verbatim.
//! Rewriting is deterministic for a given narration.
//!
//! Only the concrete learner-facing `text` is rewritten; the
//! tag-abstracted rendering and its bindings are preserved as produced
//! by the backend, since they are the machine-facing contract.

use crate::engines::{
    is_valid_paraphrase, AggressiveParaphraser, Paraphraser, RestructureParaphraser,
    SynonymParaphraser,
};
use lantern_core::{
    LanternError, Narration, NarrationRequest, NarrationResponse, RenderStyle, Translator,
};

/// Paraphrasing wrapper around an inner [`Translator`].
pub struct ParaphrasedTranslator<T> {
    inner: T,
    backend: String,
    style: RenderStyle,
}

impl<T: Translator> ParaphrasedTranslator<T> {
    /// Wrap `inner`; the reported backend name gains a `+paraphrase`
    /// suffix so responses stay attributable.
    pub fn new(inner: T) -> Self {
        let backend = format!("{}+paraphrase", inner.backend());
        ParaphrasedTranslator {
            inner,
            backend,
            style: RenderStyle::default(),
        }
    }

    /// Default rendering style for re-rendered (paraphrased) text.
    pub fn with_style(mut self, style: RenderStyle) -> Self {
        self.style = style;
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn rewrite(&self, narration: Narration) -> Narration {
        let engines: [&dyn Paraphraser; 3] = [
            &SynonymParaphraser,
            &RestructureParaphraser,
            &AggressiveParaphraser,
        ];
        let mut steps = narration.steps().to_vec();
        for (i, step) in steps.iter_mut().enumerate() {
            // Rotate the starting engine by step index; fall through to
            // the others so every step gets its best chance.
            let variant = (0..engines.len()).find_map(|k| {
                let engine = engines[(i + k) % engines.len()];
                engine
                    .paraphrase(&step.text, i)
                    .filter(|c| is_valid_paraphrase(&step.text, c))
            });
            if let Some(text) = variant {
                step.text = text;
            }
        }
        Narration::from_steps(steps)
    }
}

impl<T: Translator> Translator for ParaphrasedTranslator<T> {
    fn backend(&self) -> &str {
        &self.backend
    }

    fn narrate(&self, req: &NarrationRequest) -> Result<NarrationResponse, LanternError> {
        let resp = self.inner.narrate(req)?;
        let narration = self.rewrite(resp.narration);
        Ok(NarrationResponse::new(
            self.backend(),
            narration,
            req.effective_style(self.style),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lantern_core::RuleTranslator;
    use lantern_pool::default_pg_store;

    const PG_DOC: &str = r#"[{"Plan": {"Node Type": "Hash Join",
        "Hash Cond": "((a.x) = (b.y))",
        "Plans": [
          {"Node Type": "Seq Scan", "Relation Name": "a"},
          {"Node Type": "Hash",
           "Plans": [{"Node Type": "Seq Scan", "Relation Name": "b"}]}
        ]}}]"#;

    #[test]
    fn paraphrases_at_least_one_step() {
        let plain = RuleTranslator::new(default_pg_store());
        let wrapped = ParaphrasedTranslator::new(RuleTranslator::new(default_pg_store()));
        let req = NarrationRequest::auto(PG_DOC).unwrap();
        let original = plain.narrate(&req).unwrap();
        let varied = wrapped.narrate(&req).unwrap();
        assert_eq!(varied.backend, "rule+paraphrase");
        assert_eq!(
            varied.narration.steps().len(),
            original.narration.steps().len()
        );
        assert_ne!(varied.text, original.text, "no step was rewritten");
    }

    #[test]
    fn rewriting_is_deterministic() {
        let wrapped = ParaphrasedTranslator::new(RuleTranslator::new(default_pg_store()));
        let req = NarrationRequest::auto(PG_DOC).unwrap();
        let a = wrapped.narrate(&req).unwrap();
        let b = wrapped.narrate(&req).unwrap();
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn batch_paraphrases_every_response() {
        let wrapped = ParaphrasedTranslator::new(RuleTranslator::new(default_pg_store()));
        let reqs = vec![
            NarrationRequest::auto(PG_DOC).unwrap(),
            NarrationRequest::pg_json("garbage"),
        ];
        let out = wrapped.narrate_batch(&reqs);
        assert_eq!(out[0].as_ref().unwrap().backend, "rule+paraphrase");
        assert!(out[1].is_err());
    }

    #[test]
    fn errors_pass_through_untouched() {
        let wrapped = ParaphrasedTranslator::new(RuleTranslator::new(default_pg_store()));
        let err = wrapped
            .narrate(&NarrationRequest::pg_json("nope"))
            .unwrap_err();
        assert!(matches!(err, LanternError::Parse { .. }));
    }
}
