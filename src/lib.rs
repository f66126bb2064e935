//! # lantern
//!
//! Top-level facade crate for the LANTERN reproduction: natural language
//! generation for query execution plans (SIGMOD 2021).
//!
//! ## Quickstart: the unified translator API
//!
//! Every backend — the POOL-driven rules (RULE-LANTERN), the trained
//! QEP2Seq model (NEURAL-LANTERN), and the NEURON baseline — serves the
//! same [`Translator`](lantern_core::Translator) interface. Configure a
//! service with [`LanternBuilder`], feed it
//! [`NarrationRequest`](lantern_core::NarrationRequest)s built from any
//! plan source (PostgreSQL JSON, SQL Server XML, or a parsed tree —
//! with format auto-detection), and get structured
//! [`NarrationResponse`](lantern_core::NarrationResponse)s back:
//!
//! ```
//! use lantern::prelude::*;
//!
//! let service = LanternBuilder::new().build().unwrap();
//! let doc = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;
//! let response = service.narrate(&NarrationRequest::auto(doc).unwrap()).unwrap();
//! assert_eq!(
//!     response.text,
//!     "1. perform sequential scan on orders to get the final results."
//! );
//! ```
//!
//! The internal planner plugs straight in. Narration runs against a
//! version-cached, indexed snapshot of the POEM store (assembled once
//! per catalog generation, lock-free lookups); a batch narrates its
//! requests one by one, each exactly as a single request:
//!
//! ```
//! use lantern::prelude::*;
//!
//! let catalog = tpch_catalog();
//! let db = Database::generate(&catalog, 0.01, 42);
//! let query = parse_sql("SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'F'").unwrap();
//! let qep = Planner::new(&db).plan(&query).unwrap();
//!
//! let service = LanternBuilder::new().build().unwrap();
//! let responses = service.narrate_batch(&[NarrationRequest::from(&qep)]);
//! assert!(responses[0].as_ref().unwrap().text.contains("sequential scan"));
//! ```
//!
//! ## Migrating from the pre-0.2 per-vendor entry points
//!
//! | Old call | New call |
//! |---|---|
//! | `Lantern::new(store).narrate_pg_json(doc)` (removed) | `LanternBuilder::new().store(store).build()?.narrate(&NarrationRequest::pg_json(doc))` |
//! | `Lantern::new(store).narrate_sqlserver_xml(doc)` (removed) | same, with `NarrationRequest::sqlserver_xml(doc)` (or `::auto(doc)`) |
//! | `RuleLantern::new(&store).narrate(&tree)` | `RuleTranslator::new(store).narrate(&NarrationRequest::from_tree(&tree))` |
//! | `NeuralLantern::describe_text(&tree)` | `LanternBuilder::new().neural_model(model).build()?.narrate(&NarrationRequest::from_tree(&tree))` |
//! | `neuron::Neuron::new().describe_text(&tree)` | `LanternBuilder::new().backend(Backend::Neuron).build()?.narrate(...)` |
//! | vendor-specific error strings | structured [`LanternError`](lantern_core::LanternError) variants |
//!
//! The `lantern_core::Lantern` facade, a wrapper over
//! [`RuleTranslator`](lantern_core::RuleTranslator), has been removed:
//! use `RuleTranslator` (or `RuleLantern` for a parsed tree) directly.
//!
//! This crate re-exports every subsystem so downstream users can depend
//! on a single crate.

pub mod builder;

pub use builder::{Backend, LanternBuilder, LanternService};

pub use lantern_cache as cache;
pub use lantern_catalog as catalog;
pub use lantern_cluster as cluster;
pub use lantern_core as core;
pub use lantern_diff as diff;
pub use lantern_embed as embed;
pub use lantern_engine as engine;
pub use lantern_gen as gen;
pub use lantern_neural as neural;
pub use lantern_neuron as neuron;
pub use lantern_nn as nn;
pub use lantern_paraphrase as paraphrase;
pub use lantern_plan as plan;
pub use lantern_pool as pool;
pub use lantern_serve as serve;
pub use lantern_sql as sql;
pub use lantern_study as study;
pub use lantern_text as text;

/// Convenience re-exports of the most common entry points.
pub mod prelude {
    pub use crate::builder::{Backend, LanternBuilder, LanternService};
    pub use lantern_cache::{CacheConfig, CacheControl, CacheStatsSnapshot, CachedTranslator};
    pub use lantern_catalog::{dblp_catalog, imdb_catalog, sdss_catalog, tpch_catalog, Catalog};
    pub use lantern_core::{
        DiffChange, DiffResponse, DiffTranslator, LanternError, NarrationRequest,
        NarrationResponse, PlanSource, RenderStyle, RuleLantern, RuleTranslator, Translator,
    };
    pub use lantern_diff::{diff_plans, PlanDiff, RuleDiffTranslator};
    pub use lantern_engine::{explain_source, Database, ExplainFormat, Planner};
    pub use lantern_gen::{ArtifactFormat, FormatMix, GenConfig, PlanGenerator};
    pub use lantern_neural::NeuralLantern;
    pub use lantern_neuron::Neuron;
    pub use lantern_paraphrase::ParaphrasedTranslator;
    pub use lantern_plan::{parse_pg_json_plan, parse_sqlserver_xml_plan, PlanTree};
    pub use lantern_pool::{PoemSnapshot, PoemStore};
    #[cfg(unix)]
    pub use lantern_serve::ServerHandle;
    pub use lantern_serve::{HttpClient, ServeConfig};
    pub use lantern_sql::parse_sql;
}
