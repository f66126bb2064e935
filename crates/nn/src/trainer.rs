//! Training loop (paper §6.4.2): SGD without momentum at a fixed
//! learning rate of 0.001, minibatches of 4, up to 50 epochs, uniform
//! `[-0.1, 0.1]` initialization, model selection on validation loss,
//! and the early-stopping rule of Exp 3 (stop when the training-loss
//! fluctuation falls below a threshold).
//!
//! Minibatches are gradient-accumulated: each item's
//! [`Seq2Seq::forward_backward`] fills a [`Seq2SeqGrads`], and with
//! [`TrainOptions::parallel`] the items fan out across scoped worker
//! threads (the same pattern as `work_steal_map` in `lantern-core`,
//! which the neural decoder uses). Each worker owns a private
//! accumulator; partials merge in a fixed slice order, so a run is
//! deterministic for a given machine, and a `batch_size` of 1 is
//! bit-identical to the sequential path regardless of `parallel`.

use crate::seq2seq::{Seq2Seq, Seq2SeqGrads};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One training pair: input token ids, target token ids (specials
/// excluded; the model adds `<BOS>`/`<END>`).
pub type Pair = (Vec<usize>, Vec<usize>);

/// Training options.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Epoch budget (paper: 50).
    pub epochs: usize,
    /// Minibatch size (paper: 4).
    pub batch_size: usize,
    /// Learning rate (paper: 0.001; scale up for the small models in
    /// tests/benches).
    pub learning_rate: f32,
    /// Gradient-clipping norm.
    pub clip: f32,
    /// Early stopping on training-loss fluctuation (paper Exp 3:
    /// threshold 0.001); `None` disables.
    pub early_stop_fluctuation: Option<f32>,
    /// Shuffle seed.
    pub seed: u64,
    /// Fan minibatch items out across scoped worker threads (capped by
    /// `available_parallelism` and the batch size; a single-item batch
    /// always runs in-thread). Off by default: the slice boundaries
    /// follow the machine's core count, so parallel results at
    /// `batch_size > 1` are reproducible per machine but not across
    /// machines — opt in where throughput beats cross-host
    /// bit-reproducibility.
    pub parallel: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 50,
            batch_size: 4,
            learning_rate: 0.001,
            clip: 5.0,
            early_stop_fluctuation: Some(0.001),
            seed: 0,
            parallel: false,
        }
    }
}

/// Early-stopping monitor on training-loss fluctuation.
#[derive(Debug, Clone)]
pub struct EarlyStopping {
    threshold: f32,
    last: Option<f32>,
}

impl EarlyStopping {
    /// New monitor with the given fluctuation threshold.
    pub fn new(threshold: f32) -> Self {
        EarlyStopping {
            threshold,
            last: None,
        }
    }

    /// Feed this epoch's training loss; returns `true` when training
    /// should stop.
    pub fn should_stop(&mut self, loss: f32) -> bool {
        let stop = match self.last {
            Some(prev) => (prev - loss).abs() < self.threshold,
            None => false,
        };
        self.last = Some(loss);
        stop
    }
}

/// Per-epoch record.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Mean validation loss.
    pub val_loss: f32,
    /// Validation `sparse_categorical_accuracy`.
    pub val_accuracy: f64,
}

/// Full training report.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// One entry per completed epoch.
    pub epochs: Vec<EpochStats>,
    /// Epoch whose model was selected (lowest validation loss).
    pub best_epoch: usize,
    /// Whether early stopping fired.
    pub early_stopped: bool,
}

impl TrainReport {
    /// Final validation accuracy of the selected epoch.
    pub fn best_val_accuracy(&self) -> f64 {
        self.epochs
            .iter()
            .find(|e| e.epoch == self.best_epoch)
            .map(|e| e.val_accuracy)
            .unwrap_or(0.0)
    }
}

/// Accumulate one minibatch's gradients into `grads` (which the caller
/// has cleared) and return the summed per-item loss. With `parallel`,
/// the chunk splits into contiguous slices, one scoped worker per
/// slice, each filling a private accumulator; partials merge in slice
/// order so the result does not depend on thread scheduling.
fn accumulate_batch(
    model: &Seq2Seq,
    train: &[Pair],
    chunk: &[usize],
    grads: &mut Seq2SeqGrads,
    parallel: bool,
) -> f32 {
    let workers = if parallel {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(chunk.len())
    } else {
        1
    };
    if workers <= 1 {
        let mut batch_loss = 0.0f32;
        for &i in chunk {
            let (input, target) = &train[i];
            let (loss, _, _) = model.forward_backward(input, target, grads);
            batch_loss += loss;
        }
        return batch_loss;
    }
    let slice_len = chunk.len().div_ceil(workers);
    let partials: Vec<(f32, Seq2SeqGrads)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunk
            .chunks(slice_len)
            .map(|slice| {
                scope.spawn(move || {
                    let mut local = Seq2SeqGrads::zeros(model);
                    let mut loss = 0.0f32;
                    for &i in slice {
                        let (input, target) = &train[i];
                        loss += model.forward_backward(input, target, &mut local).0;
                    }
                    (loss, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("minibatch worker panicked"))
            .collect()
    });
    let mut batch_loss = 0.0f32;
    for (loss, local) in &partials {
        batch_loss += loss;
        grads.merge(local);
    }
    batch_loss
}

/// Trainer owning the shuffle RNG.
pub struct Trainer {
    options: TrainOptions,
}

impl Trainer {
    /// New trainer.
    pub fn new(options: TrainOptions) -> Self {
        Trainer { options }
    }

    /// Train `model` on `train`, validating on `val` each epoch; the
    /// model with the lowest validation loss is kept (paper: "We
    /// select our model based on the validation loss").
    pub fn train(&self, model: &mut Seq2Seq, train: &[Pair], val: &[Pair]) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut grads = Seq2SeqGrads::zeros(model);
        let mut best: Option<(f32, Seq2Seq, usize)> = None;
        let mut stopper = self.options.early_stop_fluctuation.map(EarlyStopping::new);
        let mut epochs = Vec::new();
        let mut early_stopped = false;
        for epoch in 1..=self.options.epochs {
            order.shuffle(&mut rng);
            let mut train_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(self.options.batch_size.max(1)) {
                grads.clear();
                let batch_loss =
                    accumulate_batch(model, train, chunk, &mut grads, self.options.parallel);
                model.apply_gradients(
                    &mut grads,
                    self.options.learning_rate / chunk.len() as f32,
                    self.options.clip,
                );
                train_loss += batch_loss / chunk.len() as f32;
                batches += 1;
            }
            train_loss /= batches.max(1) as f32;
            let (val_loss, val_accuracy) = evaluate_set(model, val);
            epochs.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
                val_accuracy,
            });
            if best.as_ref().is_none_or(|(b, _, _)| val_loss < *b) {
                best = Some((val_loss, model.clone(), epoch));
            }
            if let Some(s) = stopper.as_mut() {
                if s.should_stop(train_loss) {
                    early_stopped = true;
                    break;
                }
            }
        }
        let best_epoch = match best {
            Some((_, best_model, epoch)) => {
                *model = best_model;
                epoch
            }
            None => 0,
        };
        TrainReport {
            epochs,
            best_epoch,
            early_stopped,
        }
    }
}

/// Mean loss and token accuracy over a dataset.
pub fn evaluate_set(model: &Seq2Seq, data: &[Pair]) -> (f32, f64) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let mut loss = 0.0f32;
    let mut correct = 0usize;
    let mut total = 0usize;
    for (input, target) in data {
        let (l, c, t) = model.evaluate(input, target);
        loss += l;
        correct += c;
        total += t;
    }
    (
        loss / data.len() as f32,
        correct as f64 / total.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq2seq::Seq2SeqConfig;

    fn tiny_model(seed: u64) -> Seq2Seq {
        Seq2Seq::new(Seq2SeqConfig {
            input_vocab: 12,
            output_vocab: 12,
            hidden: 20,
            encoder_embed_dim: 6,
            decoder_embed_dim: 6,
            attention_dim: 8,
            share_recurrent_weights: false,
            init_scale: 0.1,
            seed,
        })
    }

    fn copy_pairs() -> Vec<Pair> {
        let mut v = Vec::new();
        for a in 4..10 {
            for b in 4..10 {
                v.push((vec![a, b], vec![a, b]));
            }
        }
        v
    }

    #[test]
    fn training_improves_validation_accuracy() {
        // Validation drawn from the training distribution (every 4th
        // pair) — this exercises the loop mechanics and model
        // selection; generalization at tiny scale is covered by the
        // neural-lantern integration tests.
        let mut model = tiny_model(3);
        let data = copy_pairs();
        let train: Vec<Pair> = data.clone();
        let val: Vec<Pair> = data.iter().step_by(4).cloned().collect();
        let options = TrainOptions {
            epochs: 120,
            batch_size: 4,
            learning_rate: 0.5,
            clip: 5.0,
            early_stop_fluctuation: None,
            seed: 1,
            parallel: true,
        };
        let report = Trainer::new(options).train(&mut model, &train, &val);
        let first = &report.epochs[0];
        let last = report.epochs.last().unwrap();
        assert!(
            last.val_loss < first.val_loss,
            "{} -> {}",
            first.val_loss,
            last.val_loss
        );
        assert!(
            report.best_val_accuracy() > 0.6,
            "{}",
            report.best_val_accuracy()
        );
    }

    #[test]
    fn early_stopping_fires_on_plateau() {
        let mut s = EarlyStopping::new(0.01);
        assert!(!s.should_stop(1.0));
        assert!(!s.should_stop(0.5));
        assert!(s.should_stop(0.495));
    }

    #[test]
    fn model_selection_restores_best_epoch() {
        let mut model = tiny_model(4);
        let data = copy_pairs();
        let (train, val) = data.split_at(30);
        let options = TrainOptions {
            epochs: 10,
            batch_size: 4,
            learning_rate: 0.3,
            clip: 5.0,
            early_stop_fluctuation: None,
            seed: 2,
            parallel: true,
        };
        let report = Trainer::new(options).train(&mut model, train, val);
        // The restored model's val loss equals the best epoch's.
        let (val_loss, _) = evaluate_set(&model, val);
        let best = report
            .epochs
            .iter()
            .map(|e| e.val_loss)
            .fold(f32::INFINITY, f32::min);
        assert!((val_loss - best).abs() < 1e-4, "{val_loss} vs {best}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut model = tiny_model(5);
            let data = copy_pairs();
            let (train, val) = data.split_at(30);
            let options = TrainOptions {
                epochs: 3,
                batch_size: 4,
                learning_rate: 0.2,
                clip: 5.0,
                early_stop_fluctuation: None,
                seed: 3,
                parallel: true,
            };
            Trainer::new(options)
                .train(&mut model, train, val)
                .epochs
                .iter()
                .map(|e| e.train_loss)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batch_size_one_parallel_is_bitwise_sequential() {
        // A single-item minibatch never splits, so the parallel trainer
        // must reproduce the sequential trainer exactly — same losses,
        // same weights — on any machine.
        let run = |parallel: bool| {
            let mut model = tiny_model(6);
            let data = copy_pairs();
            let (train, val) = data.split_at(30);
            let options = TrainOptions {
                epochs: 3,
                batch_size: 1,
                learning_rate: 0.2,
                clip: 5.0,
                early_stop_fluctuation: None,
                seed: 4,
                parallel,
            };
            let report = Trainer::new(options).train(&mut model, train, val);
            let losses: Vec<f32> = report.epochs.iter().map(|e| e.train_loss).collect();
            (
                losses,
                model.w_out.data.clone(),
                model.encoder.v.data.clone(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn parallel_minibatch_converges_like_sequential() {
        // Beyond batch_size=1 the merge order differs from pure
        // sequential accumulation, so losses need not be bitwise equal
        // — but both must converge on the copy task.
        let run = |parallel: bool| {
            let mut model = tiny_model(7);
            let data = copy_pairs();
            let options = TrainOptions {
                epochs: 90,
                batch_size: 6,
                learning_rate: 0.5,
                clip: 5.0,
                early_stop_fluctuation: None,
                seed: 5,
                parallel,
            };
            let report = Trainer::new(options).train(&mut model, &data, &data[..8]);
            (
                report.epochs.first().unwrap().val_loss,
                report
                    .epochs
                    .iter()
                    .map(|e| e.val_loss)
                    .fold(f32::INFINITY, f32::min),
            )
        };
        for parallel in [false, true] {
            let (first, best) = run(parallel);
            assert!(best < first * 0.5, "parallel={parallel}: {first} -> {best}");
        }
    }
}
