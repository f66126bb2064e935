//! # lantern-core
//!
//! RULE-LANTERN (paper §5): the rule-based translator from a query
//! execution plan to a step-by-step natural-language narration, plus
//! the shared machinery NEURAL-LANTERN builds on.
//!
//! * [`narrate`] — Algorithm 1: post-order narration with intermediate
//!   result identifiers (T1, T2, …) and the four-layer narration model
//!   (§5.1). The *language-annotated operator tree* (LOT, §5.3) is the
//!   pairing of each plan node with its POEM entry (the object whose
//!   alias names the node, and its POOL-derived description template),
//!   borrowed from a [`lantern_pool::PoemSnapshot`] by pre-order
//!   position; each node clusters with its first auxiliary child that
//!   targets it, composed through `∘` (§5.4).
//! * [`acts`] — decomposition of a plan into *acts* (§6.2), the
//!   operator-level training units of NEURAL-LANTERN.
//! * [`tags`] — the special-tag abstraction of Table 1 (`<T>`, `<F>`,
//!   `<C>`, …) used to strip schema-dependent values from training
//!   labels and re-substitute them after decoding.
//! * [`api`] — the unified translator API: the [`Translator`] trait all
//!   backends (rule, neural, NEURON baseline) implement, with
//!   source-agnostic [`PlanSource`] inputs, structured
//!   [`LanternError`]s, and batched narration.
//! * [`wire`] — the stable JSON wire format for [`Narration`]s.

pub mod acts;
pub mod api;
pub mod narrate;
pub mod tags;
pub mod wire;

pub use acts::{decompose_acts, Act};
pub use api::{
    work_steal_map, DiffChange, DiffResponse, DiffTranslator, LanternError, NarrationRequest,
    NarrationResponse, PlanFormat, PlanSource, RuleTranslator, Translator,
};
pub use narrate::{
    narrate_with_lookup, CoreError, Narration, NarrationStep, RenderStyle, RuleLantern,
};
pub use tags::{abstract_tags, substitute_tags, TagBinding};

#[cfg(test)]
mod cluster;
#[cfg(test)]
mod lot;
