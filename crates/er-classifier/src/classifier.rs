//! The classifier abstraction and end-to-end ER matcher.

use crate::features::{targets, PairFeaturizer};
use crate::linear::LogisticRegression;
use crate::mlp::Mlp;
use crate::optim::Regularization;
use er_base::{LabeledWorkload, Pair};
use er_similarity::MetricEvaluator;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters shared by the classifiers.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L1/L2 regularization.
    pub regularization: Regularization,
    /// Whether to up-weight the minority (matching) class.
    pub balance_classes: bool,
    /// Random seed (shuffling, initialization).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            learning_rate: 0.02,
            batch_size: 32,
            regularization: Regularization::new(0.0, 1e-4),
            balance_classes: true,
            seed: 7,
        }
    }
}

/// A binary classifier over dense feature vectors.
pub trait Classifier {
    /// Trains the classifier on features `xs` with targets `ys` (1.0 = match).
    fn train(&mut self, xs: &[Vec<f64>], ys: &[f64], config: &TrainConfig);

    /// Predicts the equivalence probability of a feature vector.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Predicts probabilities for many feature vectors.
    fn predict_proba_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_proba(x)).collect()
    }
}

/// Which model architecture an [`ErMatcher`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatcherKind {
    /// Logistic regression over similarity features.
    Logistic,
    /// Multi-layer perceptron over similarity features (DeepMatcher substitute).
    Mlp,
}

/// An end-to-end ER matcher: featurization plus a trained model.
///
/// This plays the role of DeepMatcher in the paper: given a training split it
/// learns to label pairs, and its probability outputs (including its mistakes)
/// are what risk analysis ranks.
pub struct ErMatcher {
    featurizer: PairFeaturizer,
    kind: MatcherKind,
    logistic: Option<LogisticRegression>,
    mlp: Option<Mlp>,
    config: TrainConfig,
}

impl ErMatcher {
    /// Creates a matcher over a metric evaluator.
    pub fn new(evaluator: MetricEvaluator, kind: MatcherKind, config: TrainConfig) -> Self {
        Self {
            featurizer: PairFeaturizer::new(evaluator),
            kind,
            logistic: None,
            mlp: None,
            config,
        }
    }

    /// The matcher's featurizer (shared with baselines that need raw features).
    pub fn featurizer(&self) -> &PairFeaturizer {
        &self.featurizer
    }

    /// Trains the matcher on labeled pairs.
    pub fn train(&mut self, train_pairs: &[Pair]) {
        self.train_rows(
            &self.featurizer.evaluator().eval_pairs(train_pairs),
            &targets(train_pairs),
        );
    }

    /// Trains the matcher on the raw basic-metric rows of the training pairs
    /// and their targets (1.0 = match, see [`targets`]).
    pub fn train_rows(&mut self, rows: &[Vec<f64>], ys: &[f64]) {
        assert!(!rows.is_empty(), "cannot train a matcher on an empty split");
        let xs = self.featurizer.fit_rows(rows);
        match self.kind {
            MatcherKind::Logistic => {
                let mut model = LogisticRegression::new(self.featurizer.dim());
                model.train(&xs, ys, &self.config);
                self.logistic = Some(model);
            }
            MatcherKind::Mlp => {
                let hidden = [24, 12];
                let mut model = Mlp::new(self.featurizer.dim(), &hidden, self.config.seed);
                model.train(&xs, ys, &self.config);
                self.mlp = Some(model);
            }
        }
    }

    /// Predicts the equivalence probability of one pair.
    pub fn predict_pair(&self, pair: &Pair) -> f64 {
        let x = self.featurizer.features_one(pair);
        self.predict_features(&x)
    }

    /// Predicts from a pre-computed feature vector.
    pub fn predict_features(&self, x: &[f64]) -> f64 {
        match self.kind {
            MatcherKind::Logistic => self.logistic.as_ref().expect("matcher not trained").predict_proba(x),
            MatcherKind::Mlp => self.mlp.as_ref().expect("matcher not trained").predict_proba(x),
        }
    }

    /// Predicts probabilities for a slice of pairs.
    pub fn predict(&self, pairs: &[Pair]) -> Vec<f64> {
        self.predict_rows(&self.featurizer.evaluator().eval_pairs(pairs))
    }

    /// Predicts probabilities from raw basic-metric rows, evaluated by this
    /// matcher's evaluator; bit-identical to [`ErMatcher::predict_pair`] on
    /// the pairs the rows came from.
    pub fn predict_rows(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.featurizer
            .standardize(rows)
            .iter()
            .map(|x| self.predict_features(x))
            .collect()
    }

    /// Labels a workload: predicts every pair and wraps the results.
    pub fn label_workload(&self, name: &str, pairs: &[Pair]) -> LabeledWorkload {
        self.label_rows(name, pairs, &self.featurizer.evaluator().eval_pairs(pairs))
    }

    /// Labels a workload from its pairs' raw basic-metric rows (aligned with
    /// `pairs`).
    pub fn label_rows(&self, name: &str, pairs: &[Pair], rows: &[Vec<f64>]) -> LabeledWorkload {
        assert_eq!(pairs.len(), rows.len(), "one metric row per pair");
        LabeledWorkload::from_probabilities(name, pairs.to_vec(), &self.predict_rows(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{generate_benchmark, BenchmarkId};

    fn split_pairs(pairs: &[Pair], frac: f64) -> (Vec<Pair>, Vec<Pair>) {
        let n = (pairs.len() as f64 * frac) as usize;
        (pairs[..n].to_vec(), pairs[n..].to_vec())
    }

    #[test]
    fn logistic_matcher_beats_chance_on_ds() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 11);
        let pairs = ds.workload.pairs();
        let (train, test) = split_pairs(pairs, 0.5);
        let evaluator = MetricEvaluator::from_pairs(ds.workload.left_schema.clone(), &train);
        let mut matcher = ErMatcher::new(
            evaluator,
            MatcherKind::Logistic,
            TrainConfig {
                epochs: 40,
                ..Default::default()
            },
        );
        matcher.train(&train);
        let labeled = matcher.label_workload("DS-test", &test);
        let f1 = labeled.classifier_f1();
        assert!(f1 > 0.5, "matcher F1 too low: {f1}");
        // The matcher must make *some* mistakes — otherwise risk analysis has
        // nothing to rank (and the synthetic data would be unrealistically easy).
        assert!(labeled.mislabeled_count() > 0, "synthetic workload is too easy");
    }

    #[test]
    fn mlp_matcher_trains_and_predicts() {
        let ds = generate_benchmark(BenchmarkId::AbtBuy, 0.01, 3);
        let pairs = ds.workload.pairs();
        let (train, test) = split_pairs(pairs, 0.5);
        let evaluator = MetricEvaluator::from_pairs(ds.workload.left_schema.clone(), &train);
        let config = TrainConfig {
            epochs: 25,
            learning_rate: 0.01,
            ..Default::default()
        };
        let mut matcher = ErMatcher::new(evaluator, MatcherKind::Mlp, config);
        matcher.train(&train);
        let probs = matcher.predict(&test);
        assert_eq!(probs.len(), test.len());
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        let labeled = matcher.label_workload("AB-test", &test);
        assert!(labeled.classifier_accuracy() > 0.7);
    }

    #[test]
    fn row_predictions_equal_per_pair_predictions_bit_for_bit() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.015, 12);
        let pairs = ds.workload.pairs();
        let (train, test) = split_pairs(pairs, 0.5);
        for kind in [MatcherKind::Logistic, MatcherKind::Mlp] {
            let evaluator = MetricEvaluator::from_pairs(ds.workload.left_schema.clone(), &train);
            let config = TrainConfig {
                epochs: 5,
                ..Default::default()
            };
            let mut matcher = ErMatcher::new(evaluator.clone(), kind, config);
            matcher.train(&train);
            let per_pair: Vec<u64> = test.iter().map(|p| matcher.predict_pair(p).to_bits()).collect();
            let rows: Vec<u64> = matcher
                .predict_rows(&evaluator.eval_pairs(&test))
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(rows, per_pair, "{kind:?}");

            // Training from rows is the same training as from pairs.
            let mut from_rows = ErMatcher::new(evaluator.clone(), kind, config);
            from_rows.train_rows(&evaluator.eval_pairs(&train), &targets(&train));
            let again: Vec<u64> = test.iter().map(|p| from_rows.predict_pair(p).to_bits()).collect();
            assert_eq!(again, per_pair, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty split")]
    fn training_on_empty_split_panics() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.01, 1);
        let evaluator = MetricEvaluator::from_pairs(ds.workload.left_schema.clone(), ds.workload.pairs());
        let mut matcher = ErMatcher::new(evaluator, MatcherKind::Logistic, TrainConfig::default());
        matcher.train(&[]);
    }

    #[test]
    fn train_config_default_is_sane() {
        let c = TrainConfig::default();
        assert!(c.epochs > 0);
        assert!(c.learning_rate > 0.0);
        assert!(c.balance_classes);
    }
}
