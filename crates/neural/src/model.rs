//! QEP2Seq (paper §6.4): the Seq2Seq model specialized to act
//! translation, with pluggable decoder embeddings, training, beam-
//! search inference, and tag re-substitution.

use crate::dataset::TrainingSet;
use lantern_core::Act;
use lantern_embed::Embedding;
use lantern_nn::{
    beam_search_batched_scratch, DecodeScratch, Seq2Seq, Seq2SeqConfig, TrainOptions, TrainReport,
    Trainer,
};
use lantern_text::{corpus_bleu, detokenize, BleuConfig, Vocab};

/// QEP2Seq hyperparameters (scaled-down defaults that train in seconds
/// on CPU; the paper-scale numbers live in `lantern_nn::params`).
#[derive(Debug, Clone)]
pub struct Qep2SeqConfig {
    /// LSTM hidden size.
    pub hidden: usize,
    /// Encoder embedding dimension.
    pub encoder_embed_dim: usize,
    /// Decoder embedding dimension (overridden by a pre-trained
    /// embedding's dimensionality when one is installed).
    pub decoder_embed_dim: usize,
    /// Attention dimensionality.
    pub attention_dim: usize,
    /// Share encoder/decoder recurrent weights (Fig 7(b)).
    pub share_recurrent_weights: bool,
    /// Init/shuffle seed.
    pub seed: u64,
    /// Training options.
    pub train: TrainOptions,
}

impl Default for Qep2SeqConfig {
    fn default() -> Self {
        Qep2SeqConfig {
            hidden: 48,
            encoder_embed_dim: 12,
            decoder_embed_dim: 16,
            attention_dim: 24,
            share_recurrent_weights: false,
            seed: 0,
            train: TrainOptions {
                epochs: 18,
                batch_size: 4,
                learning_rate: 0.25,
                clip: 5.0,
                early_stop_fluctuation: None,
                seed: 0,
                parallel: false,
            },
        }
    }
}

impl Qep2SeqConfig {
    /// The `quick` training profile: a deliberately tiny model and
    /// epoch budget that still learns the act-translation task well
    /// enough to assert on, so one end-to-end seq2seq training test can
    /// run un-`#[ignore]`d in tier-1 (seconds, not minutes). The
    /// paper-faithful numbers stay in [`Qep2SeqConfig::default`].
    pub fn quick() -> Self {
        Qep2SeqConfig {
            hidden: 32,
            encoder_embed_dim: 10,
            decoder_embed_dim: 12,
            attention_dim: 16,
            share_recurrent_weights: false,
            seed: 0,
            train: TrainOptions {
                epochs: 20,
                batch_size: 4,
                learning_rate: 0.25,
                clip: 5.0,
                early_stop_fluctuation: None,
                seed: 0,
                parallel: false,
            },
        }
    }
}

/// The act-level translation model.
pub struct Qep2Seq {
    model: Seq2Seq,
    input_vocab: Vocab,
    output_vocab: Vocab,
    config: Qep2SeqConfig,
}

impl Qep2Seq {
    /// Build with randomly initialized (learned) decoder embeddings.
    pub fn new(ts: &TrainingSet, config: Qep2SeqConfig) -> Self {
        let model = Seq2Seq::new(Self::nn_config(ts, &config, config.decoder_embed_dim));
        Qep2Seq {
            model,
            input_vocab: ts.input_vocab.clone(),
            output_vocab: ts.output_vocab.clone(),
            config,
        }
    }

    /// Build with frozen pre-trained decoder embeddings.
    pub fn with_embedding(
        ts: &TrainingSet,
        mut config: Qep2SeqConfig,
        embedding: &Embedding,
    ) -> Self {
        config.decoder_embed_dim = embedding.dim;
        let table = embedding.aligned_table(&ts.output_vocab);
        let model = Seq2Seq::new(Self::nn_config(ts, &config, embedding.dim))
            .with_pretrained_decoder_embeddings(table);
        Qep2Seq {
            model,
            input_vocab: ts.input_vocab.clone(),
            output_vocab: ts.output_vocab.clone(),
            config,
        }
    }

    fn nn_config(ts: &TrainingSet, c: &Qep2SeqConfig, dec_dim: usize) -> Seq2SeqConfig {
        Seq2SeqConfig {
            input_vocab: ts.input_vocab.len(),
            output_vocab: ts.output_vocab.len(),
            hidden: c.hidden,
            encoder_embed_dim: c.encoder_embed_dim,
            decoder_embed_dim: dec_dim,
            attention_dim: c.attention_dim,
            share_recurrent_weights: c.share_recurrent_weights,
            init_scale: 0.1,
            seed: c.seed,
        }
    }

    /// Train on `ts` with the paper's 80/20 split; returns the epoch
    /// curves (Figures 6/7 are drawn from these).
    pub fn train(&mut self, ts: &TrainingSet) -> TrainReport {
        let (train, val) = ts.split(0.8, self.config.seed);
        Trainer::new(self.config.train.clone()).train(&mut self.model, &train, &val)
    }

    /// Translate one act: beam-search decode (paper: beam 4) the tagged
    /// sentence, then substitute the act's concrete values back.
    ///
    /// The model occasionally emits a tag the act has no binding for
    /// (the paper's Exp-5 "wrong token" phenomenon — e.g. an
    /// "intermediate relation" ending on the final act); such leftovers
    /// are replaced with neutral fallbacks so learners never see raw
    /// tags, while the error stays measurable at the tagged level via
    /// [`Qep2Seq::translate_act_tagged`].
    pub fn translate_act(&self, act: &Act, beam: usize) -> String {
        self.translate_act_scratch(act, beam, &mut DecodeScratch::new())
    }

    /// [`Qep2Seq::translate_act`] with caller-owned decode buffers —
    /// batched narration reuses one arena across all acts a worker
    /// translates.
    pub fn translate_act_scratch(
        &self,
        act: &Act,
        beam: usize,
        scratch: &mut DecodeScratch,
    ) -> String {
        let input = self.input_vocab.encode(&act.input_tokens(), false);
        let hyps = beam_search_batched_scratch(&self.model, &input, beam, 60, scratch);
        let tokens = match hyps.first() {
            Some(h) => self.output_vocab.decode(&h.tokens),
            None => Vec::new(),
        };
        let tagged = detokenize(&tokens);
        let mut out = lantern_core::substitute_tags(&tagged, &act.bindings);
        for (tag, fallback) in [
            ("<TN>", "the result"),
            ("<T>", "its input"),
            ("<F>", "the stated condition"),
            ("<C>", "the stated condition"),
            ("<G>", "the grouping attribute"),
            ("<A>", "the sort attribute"),
            ("<I>", "the index"),
        ] {
            while out.contains(tag) {
                out = out.replacen(tag, fallback, 1);
            }
        }
        out
    }

    /// Translate a slice of acts with one shared scratch arena.
    pub fn translate_acts(&self, acts: &[Act], beam: usize) -> Vec<String> {
        let mut scratch = DecodeScratch::new();
        acts.iter()
            .map(|a| self.translate_act_scratch(a, beam, &mut scratch))
            .collect()
    }

    /// Tagged-level translation (before tag substitution) — what BLEU
    /// is computed on.
    pub fn translate_act_tagged(&self, act: &Act, beam: usize) -> Vec<String> {
        let input = self.input_vocab.encode(&act.input_tokens(), false);
        let hyps =
            beam_search_batched_scratch(&self.model, &input, beam, 60, &mut DecodeScratch::new());
        match hyps.first() {
            Some(h) => self.output_vocab.decode(&h.tokens),
            None => Vec::new(),
        }
    }

    /// Corpus BLEU of beam-4 decodes against the rule ground truth over
    /// a set of test acts (Table 5).
    pub fn test_bleu(&self, acts: &[Act], beam: usize) -> f64 {
        let pairs: Vec<(Vec<String>, Vec<String>)> = acts
            .iter()
            .map(|a| (self.translate_act_tagged(a, beam), a.output_tokens()))
            .collect();
        corpus_bleu(&pairs, BleuConfig::default()) * 100.0
    }

    /// Total parameters.
    pub fn parameter_count(&self) -> usize {
        self.model.parameter_count()
    }

    /// The underlying vocabularies (for reports).
    pub fn vocab_sizes(&self) -> (usize, usize) {
        (self.input_vocab.len(), self.output_vocab.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use lantern_catalog::tpch_catalog;
    use lantern_engine::Database;
    use lantern_pool::default_pg_store;

    fn training_set() -> TrainingSet {
        let db = Database::generate(&tpch_catalog(), 0.0002, 7);
        let store = default_pg_store();
        DatasetBuilder::new(&db, &store)
            .with_random_queries(40, 3)
            .paraphrase(false)
            .build()
    }

    /// End-to-end seq2seq training in tier-1: real plans, real acts,
    /// real vocabularies — shrunk to the `quick` profile. Previously
    /// `#[ignore]`d at the full config (~1 min); the batched GEMM
    /// kernels plus the tiny profile bring it into every test run.
    #[test]
    fn quick_profile_training_reduces_validation_loss() {
        let db = Database::generate(&tpch_catalog(), 0.0002, 7);
        let store = default_pg_store();
        let ts = DatasetBuilder::new(&db, &store)
            .with_random_queries(30, 3)
            .paraphrase(false)
            .build();
        let mut m = Qep2Seq::new(&ts, Qep2SeqConfig::quick());
        let report = m.train(&ts);
        let first = report.epochs.first().unwrap().val_loss;
        let best = report
            .epochs
            .iter()
            .map(|e| e.val_loss)
            .fold(f32::INFINITY, f32::min);
        assert!(best < first * 0.7, "val loss {first} -> {best}");
    }

    #[test]
    #[ignore = "25-epoch training run (~1.5 min) — run with --include-ignored"]
    fn trained_model_translates_an_act_with_concrete_values() {
        let ts = training_set();
        let mut config = Qep2SeqConfig::default();
        config.train.epochs = 25;
        let mut m = Qep2Seq::new(&ts, config);
        m.train(&ts);
        // Take a seq-scan act from the paper's running example.
        let store = default_pg_store();
        let tree = lantern_plan::PlanTree::new(
            "pg",
            lantern_plan::PlanNode::new("Seq Scan").on_relation("publication"),
        );
        let acts = lantern_core::decompose_acts(&tree, &store).unwrap();
        let out = m.translate_act(&acts[0], 4);
        // Concrete relation restored, no tags left.
        assert!(out.contains("publication"), "{out}");
        assert!(!out.contains("<T>"), "{out}");
    }

    #[test]
    #[ignore = "25-epoch training + BLEU scoring (~1.5 min) — run with --include-ignored"]
    fn test_bleu_is_high_after_training_on_same_distribution() {
        let ts = training_set();
        let mut config = Qep2SeqConfig::default();
        config.train.epochs = 25;
        let mut m = Qep2Seq::new(&ts, config);
        m.train(&ts);
        // Re-derive some acts as a "test set" (same distribution).
        let db = Database::generate(&tpch_catalog(), 0.0002, 7);
        let store = default_pg_store();
        let test = DatasetBuilder::new(&db, &store)
            .with_random_queries(8, 99)
            .paraphrase(false)
            .build();
        let acts: Vec<lantern_core::Act> = {
            // Rebuild acts from the same pipeline for scoring.
            let builder = DatasetBuilder::new(&db, &store).with_random_queries(8, 99);
            builder.acts()
        };
        assert!(!acts.is_empty());
        let bleu = m.test_bleu(&acts, 4);
        assert!(bleu > 30.0, "BLEU {bleu}");
        drop(test);
    }

    #[test]
    fn pretrained_embedding_variant_builds() {
        use lantern_embed::{builtin_english_corpus, Embedder, Word2VecTrainer};
        let ts = training_set();
        let emb = Word2VecTrainer {
            dim: 16,
            epochs: 1,
            ..Default::default()
        }
        .train(&builtin_english_corpus(), 1);
        let m = Qep2Seq::with_embedding(&ts, Qep2SeqConfig::default(), &emb);
        assert_eq!(m.config.decoder_embed_dim, 16);
        assert!(m.parameter_count() > 0);
    }
}
