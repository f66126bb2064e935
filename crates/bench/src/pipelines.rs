//! Shared infrastructure for the figure/table harnesses: databases,
//! stores, narration pipelines, and scaled-down-by-default sizing.
//!
//! Every harness honours `LANTERN_BENCH_SCALE` (default `1.0`): set it
//! higher (e.g. `4`) for longer, closer-to-paper runs.

use crate::workloads::{sdss_workload, tpch_workload};
use lantern_catalog::{dblp_catalog, imdb_catalog, sdss_catalog, tpch_catalog};
use lantern_core::{decompose_acts, Act, RuleLantern};
use lantern_engine::{Database, Planner, QueryGenConfig, RandomQueryGen};
use lantern_neural::{DatasetBuilder, Qep2SeqConfig, TrainingSet};
use lantern_nn::TrainOptions;
use lantern_pool::{default_mssql_store, PoemStore};
use lantern_sql::parse_sql;

/// Relative effort multiplier from `LANTERN_BENCH_SCALE`.
pub fn bench_scale() -> f64 {
    std::env::var("LANTERN_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Shared benchmark context: the four domain databases and the
/// two-source POEM store.
pub struct BenchContext {
    /// TPC-H instance.
    pub tpch: Database,
    /// SDSS instance.
    pub sdss: Database,
    /// IMDB instance (cross-domain test set).
    pub imdb: Database,
    /// DBLP instance (running example).
    pub dblp: Database,
    /// POEM store with `pg` + `mssql` catalogs.
    pub store: PoemStore,
}

impl BenchContext {
    /// Build the standard context (small but realistic data scales).
    pub fn new() -> Self {
        let s = bench_scale();
        BenchContext {
            tpch: Database::generate(&tpch_catalog(), 0.0002 * s, 42),
            sdss: Database::generate(&sdss_catalog(), 0.0002 * s, 43),
            imdb: Database::generate(&imdb_catalog(), 0.0002 * s, 44),
            dblp: Database::generate(&dblp_catalog(), 0.0003 * s, 45),
            store: default_mssql_store(),
        }
    }

    /// RULE-LANTERN narrations for a SQL workload against `db`.
    pub fn rule_narrations(&self, db: &Database, workload: &[String]) -> Vec<String> {
        let planner = Planner::new(db);
        let rule = RuleLantern::new(&self.store);
        workload
            .iter()
            .filter_map(|sql| {
                let q = parse_sql(sql).ok()?;
                let plan = planner.plan(&q).ok()?;
                rule.narrate(&plan.tree()).ok().map(|n| n.text())
            })
            .collect()
    }

    /// The paper's training configuration: TPC-H + SDSS workloads plus
    /// random queries, paraphrase-expanded.
    pub fn paper_training_set(&self, extra_random: usize, paraphrase: bool) -> TrainingSet {
        let tpch_q: Vec<_> = tpch_workload()
            .iter()
            .filter_map(|s| parse_sql(s).ok())
            .collect();
        let sdss_q: Vec<_> = sdss_workload()
            .iter()
            .filter_map(|s| parse_sql(s).ok())
            .collect();
        let mut builder = DatasetBuilder::new(&self.tpch, &self.store)
            .with_queries(&tpch_q)
            .paraphrase(paraphrase);
        if extra_random > 0 {
            builder = builder.with_random_queries(extra_random, 77);
        }
        let mut ts = builder.build();
        // SDSS acts (separate database) appended through a second
        // builder, sharing the vocabulary construction at the end.
        let sdss_ts = DatasetBuilder::new(&self.sdss, &self.store)
            .with_queries(&sdss_q)
            .paraphrase(paraphrase)
            .build();
        ts.examples.extend(sdss_ts.examples);
        ts.act_count += sdss_ts.act_count;
        let input_vocab = lantern_text::Vocab::from_corpus(
            &ts.examples
                .iter()
                .map(|e| e.input_tokens.clone())
                .collect::<Vec<_>>(),
            1,
        );
        let output_vocab = lantern_text::Vocab::from_corpus(
            &ts.examples
                .iter()
                .map(|e| e.output_tokens.clone())
                .collect::<Vec<_>>(),
            1,
        );
        ts.input_vocab = input_vocab;
        ts.output_vocab = output_vocab;
        ts
    }

    /// IMDB test acts (the paper's cross-domain test set).
    pub fn imdb_test_acts(&self, n_queries: usize) -> Vec<Act> {
        let mut gen = RandomQueryGen::new(&self.imdb, 123, QueryGenConfig::default());
        let queries = gen.generate(n_queries);
        let planner = Planner::new(&self.imdb);
        let mut acts = Vec::new();
        for q in &queries {
            let Ok(plan) = planner.plan(q) else { continue };
            if let Ok(a) = decompose_acts(&plan.tree(), &self.store) {
                acts.extend(a);
            }
        }
        acts
    }
}

impl Default for BenchContext {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared study wiring.
pub mod studies {
    use super::*;

    /// Narration streams for the boredom/interest studies: rule
    /// narrations repeat phrasing; neural ones vary (trained model).
    ///
    /// Following the paper's US 3 protocol, queries are filtered so
    /// every plan contains a join *and* an aggregate — near-identical
    /// plan shapes are what make repetitive wording noticeable.
    pub fn narration_streams(
        ctx: &BenchContext,
        neural: &lantern_neural::NeuralLantern,
        n: usize,
    ) -> (Vec<String>, Vec<String>) {
        let queries = similar_plan_queries(ctx, n);
        let planner = Planner::new(&ctx.imdb);
        let rule = RuleLantern::new(&ctx.store);
        let mut rule_out = Vec::new();
        let mut neural_out = Vec::new();
        for q in &queries {
            let Ok(plan) = planner.plan(q) else { continue };
            let tree = plan.tree();
            if let Ok(nar) = rule.narrate(&tree) {
                rule_out.push(nar.text());
            }
            if let Ok(steps) = neural.describe(&tree) {
                neural_out.push(
                    steps
                        .iter()
                        .enumerate()
                        .map(|(i, s)| format!("{}. {}", i + 1, s))
                        .collect::<Vec<_>>()
                        .join("\n"),
                );
            }
        }
        (rule_out, neural_out)
    }

    /// Random IMDB queries whose plans all contain a join and an
    /// aggregate (the paper's US 3 "each of which contains Hash Join
    /// and Aggregate operators" protocol).
    pub fn similar_plan_queries(ctx: &BenchContext, n: usize) -> Vec<lantern_sql::Query> {
        let mut gen = RandomQueryGen::new(&ctx.imdb, 55, QueryGenConfig::default());
        let planner = Planner::new(&ctx.imdb);
        let mut queries = Vec::new();
        let mut rounds = 0;
        while queries.len() < n && rounds < 50 {
            for q in gen.generate(40) {
                let Ok(plan) = planner.plan(&q) else { continue };
                let ops: Vec<String> = lantern_plan::post_order(&plan.tree().root)
                    .iter()
                    .map(|i| i.node.op.clone())
                    .collect();
                let has_join = ops.iter().any(|o| o.contains("Join") || o.contains("Loop"));
                let has_agg = ops.iter().any(|o| o.contains("Aggregate"));
                if has_join && has_agg {
                    queries.push(q);
                    if queries.len() >= n {
                        break;
                    }
                }
            }
            rounds += 1;
        }
        queries
    }
}

/// Quick-training configuration for harnesses (small model, few
/// epochs, scaled by `LANTERN_BENCH_SCALE`).
pub fn quick_config(epochs: usize, seed: u64) -> Qep2SeqConfig {
    let s = bench_scale();
    Qep2SeqConfig {
        hidden: 32,
        encoder_embed_dim: 10,
        decoder_embed_dim: 16,
        attention_dim: 16,
        share_recurrent_weights: false,
        seed,
        train: TrainOptions {
            epochs: ((epochs as f64) * s).round().max(2.0) as usize,
            batch_size: 4,
            learning_rate: 0.25,
            clip: 5.0,
            early_stop_fluctuation: None,
            seed,
            parallel: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_narrates_tpch() {
        let ctx = BenchContext::new();
        let narrations = ctx.rule_narrations(&ctx.tpch, &tpch_workload());
        assert_eq!(narrations.len(), 22);
        assert!(narrations[0].contains("1. "));
    }

    #[test]
    fn paper_training_set_combines_tpch_and_sdss() {
        let ctx = BenchContext::new();
        let ts = ctx.paper_training_set(0, false);
        // 22 TPC-H + 71 SDSS plans decompose into well over 93 acts.
        assert!(ts.act_count > 150, "{}", ts.act_count);
        assert_eq!(ts.examples.len(), ts.act_count);
    }

    #[test]
    fn imdb_acts_generate() {
        let ctx = BenchContext::new();
        let acts = ctx.imdb_test_acts(20);
        assert!(acts.len() >= 20);
    }

    #[test]
    fn scale_env_parses() {
        assert!(bench_scale() > 0.0);
    }
}
