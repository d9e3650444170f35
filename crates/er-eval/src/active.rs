//! Active learning for ER classifier training (Section 8 / Figure 14).
//!
//! The paper's final experiment uses risk analysis to *select training
//! instances*: starting from a small labeled seed, the classifier is
//! iteratively retrained after acquiring a batch of pairs chosen by a
//! selection strategy.  The compared strategies are `LeastConfidence`,
//! `Entropy` and `LearnRisk` (select the pairs with the highest risk).

use crate::pipeline::build_inputs_from_rows;
use er_base::stats::{clamp_prob, safe_ln};
use er_base::{Label, LabeledWorkload, Pair, Schema};
use er_classifier::{targets, ErMatcher, MatcherKind, TrainConfig};
use er_rulegen::OneSidedTreeConfig;
use er_similarity::MetricEvaluator;
use learnrisk_core::{train as train_risk, LearnRiskModel, RiskFeatureSet, RiskModelConfig, RiskTrainConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

/// Pair-selection strategy for active learning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Select the pairs whose classifier output is closest to 0.5.
    LeastConfidence,
    /// Select the pairs with the highest output entropy.
    Entropy,
    /// Select the pairs with the highest LearnRisk risk score.
    LearnRisk,
}

impl SelectionStrategy {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SelectionStrategy::LeastConfidence => "LeastConfidence",
            SelectionStrategy::Entropy => "Entropy",
            SelectionStrategy::LearnRisk => "LearnRisk",
        }
    }
}

/// Configuration of the active-learning experiment.
#[derive(Debug, Clone)]
pub struct ActiveLearningConfig {
    /// Size of the initial labeled seed (the paper uses 128).
    pub initial_labeled: usize,
    /// Batch size per acquisition round (the paper uses 64).
    pub batch_size: usize,
    /// Number of acquisition rounds.
    pub rounds: usize,
    /// Classifier architecture and training hyper-parameters.
    pub matcher: MatcherKind,
    /// Classifier training configuration.
    pub matcher_config: TrainConfig,
    /// Rule generation configuration for the LearnRisk strategy.
    pub rule_config: OneSidedTreeConfig,
    /// Risk-model training configuration for the LearnRisk strategy.
    pub risk_train_config: RiskTrainConfig,
    /// Random seed.
    pub seed: u64,
}

impl Default for ActiveLearningConfig {
    fn default() -> Self {
        Self {
            initial_labeled: 128,
            batch_size: 64,
            rounds: 9,
            matcher: MatcherKind::Logistic,
            matcher_config: TrainConfig {
                epochs: 30,
                ..Default::default()
            },
            rule_config: OneSidedTreeConfig::default(),
            risk_train_config: RiskTrainConfig {
                epochs: 60,
                ..Default::default()
            },
            seed: 29,
        }
    }
}

/// One measurement point of the active-learning curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActiveLearningPoint {
    /// Number of labeled training pairs at this point.
    pub labeled: usize,
    /// Classifier F1 on the held-out test pool.
    pub f1: f64,
}

/// The learning curve of one selection strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActiveLearningCurve {
    /// Strategy name.
    pub strategy: String,
    /// Measurement points, one per round (including the seed round).
    pub points: Vec<ActiveLearningPoint>,
}

impl ActiveLearningCurve {
    /// Final F1 reached at the end of the curve.
    pub fn final_f1(&self) -> f64 {
        self.points.last().map(|p| p.f1).unwrap_or(0.0)
    }

    /// Area under the learning curve (mean F1 across rounds) — a compact
    /// "label efficiency" summary.
    pub fn mean_f1(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.f1).sum::<f64>() / self.points.len() as f64
    }
}

fn entropy_score(p: f64) -> f64 {
    let p = clamp_prob(p);
    -(p * safe_ln(p) + (1.0 - p) * safe_ln(1.0 - p))
}

/// Runs the active-learning loop for one strategy on a labeled pool / test
/// split and returns its learning curve.
///
/// `pool` simulates the unlabeled pool (ground truth revealed on selection);
/// `test` is the held-out evaluation set.
pub fn run_active_learning(
    schema: Arc<Schema>,
    pool: &[Pair],
    test: &[Pair],
    strategy: SelectionStrategy,
    config: &ActiveLearningConfig,
) -> ActiveLearningCurve {
    assert!(pool.len() > config.initial_labeled, "pool must exceed the initial seed");
    let mut rng = er_base::rng::substream(config.seed, 0xA0);
    let mut labeled_idx: HashSet<usize> = {
        use rand::seq::SliceRandom;
        let mut all: Vec<usize> = (0..pool.len()).collect();
        all.shuffle(&mut rng);
        all.into_iter().take(config.initial_labeled).collect()
    };

    let mut points = Vec::with_capacity(config.rounds + 1);
    for round in 0..=config.rounds {
        let labeled: Vec<Pair> = labeled_idx.iter().map(|&i| pool[i].clone()).collect();
        // Every pair's row is evaluated once per round: the IDF tables, and
        // so the rows, change with the labeled set.
        let evaluator = MetricEvaluator::from_pairs(Arc::clone(&schema), &labeled);
        let labeled_rows = evaluator.eval_pairs(&labeled);
        let mut matcher = ErMatcher::new(evaluator.clone(), config.matcher, config.matcher_config);
        matcher.train_rows(&labeled_rows, &targets(&labeled));
        let test_labeled = matcher.label_rows("al-test", test, &evaluator.eval_pairs(test));
        points.push(ActiveLearningPoint {
            labeled: labeled.len(),
            f1: test_labeled.classifier_f1(),
        });

        if round == config.rounds {
            break;
        }

        // Score the remaining pool and select the next batch.
        let unlabeled: Vec<usize> = (0..pool.len()).filter(|i| !labeled_idx.contains(i)).collect();
        if unlabeled.is_empty() {
            break;
        }
        let unlabeled_pairs: Vec<Pair> = unlabeled.iter().map(|&i| pool[i].clone()).collect();
        let unlabeled_rows = evaluator.eval_pairs(&unlabeled_pairs);
        let outputs = matcher.predict_rows(&unlabeled_rows);
        let scores: Vec<f64> = match strategy {
            SelectionStrategy::LeastConfidence => outputs.iter().map(|&p| 0.5 - (p - 0.5).abs()).collect(),
            SelectionStrategy::Entropy => outputs.iter().map(|&p| entropy_score(p)).collect(),
            SelectionStrategy::LearnRisk => learnrisk_selection_scores(
                &matcher,
                &labeled,
                &labeled_rows,
                &unlabeled_pairs,
                &unlabeled_rows,
                &outputs,
                config,
            ),
        };
        let mut order: Vec<usize> = (0..unlabeled.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal));
        for &k in order.iter().take(config.batch_size) {
            labeled_idx.insert(unlabeled[k]);
        }
    }

    ActiveLearningCurve {
        strategy: strategy.name().to_owned(),
        points,
    }
}

/// Risk scores of the unlabeled pool under a LearnRisk model trained on the
/// currently labeled data (the classifier's own labels on the labeled set act
/// as risk-training signal). Each pair set comes with its basic-metric rows,
/// evaluated by the matcher's evaluator.
fn learnrisk_selection_scores(
    matcher: &ErMatcher,
    labeled: &[Pair],
    labeled_rows: &[Vec<f64>],
    unlabeled: &[Pair],
    unlabeled_rows: &[Vec<f64>],
    unlabeled_outputs: &[f64],
    config: &ActiveLearningConfig,
) -> Vec<f64> {
    // Generate risk features from the labeled data.
    let metrics = matcher.featurizer().evaluator().metrics().to_vec();
    let labels: Vec<Label> = labeled.iter().map(|p| p.truth).collect();
    let rules = er_rulegen::generate_rules(labeled_rows, &labels, config.rule_config);
    let feature_set = RiskFeatureSet::from_training(rules, metrics, labeled_rows, &labels);
    let mut model = LearnRiskModel::new(feature_set, RiskModelConfig::default());

    // Risk-train on the labeled data using the classifier's own decisions.
    let labeled_probs = matcher.predict_rows(labeled_rows);
    let labeled_workload = LabeledWorkload::from_probabilities("al-labeled", labeled.to_vec(), &labeled_probs);
    let risk_inputs = build_inputs_from_rows(&model.features, labeled_rows, &labeled_workload);
    train_risk(&mut model, &risk_inputs, &config.risk_train_config);

    // Score the unlabeled pool (risk labels unknown, set to 0 — unused).
    let unlabeled_workload = LabeledWorkload::from_probabilities("al-pool", unlabeled.to_vec(), unlabeled_outputs);
    let pool_inputs = build_inputs_from_rows(&model.features, unlabeled_rows, &unlabeled_workload);
    model.rank(&pool_inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{generate_benchmark, BenchmarkId};

    #[test]
    fn learning_curves_improve_with_more_labels() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 51);
        let pairs = ds.workload.pairs();
        let n_pool = pairs.len() / 2;
        let pool = &pairs[..n_pool];
        let test = &pairs[n_pool..];
        let config = ActiveLearningConfig {
            rounds: 3,
            matcher_config: TrainConfig {
                epochs: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        let curve = run_active_learning(
            ds.workload.left_schema.clone(),
            pool,
            test,
            SelectionStrategy::LeastConfidence,
            &config,
        );
        assert_eq!(curve.points.len(), 4);
        assert_eq!(curve.points[0].labeled, 128);
        assert_eq!(curve.points[3].labeled, 128 + 3 * 64);
        // The final classifier should be no worse than the 128-seed classifier
        // by a wide margin (allow small noise).
        assert!(curve.final_f1() >= curve.points[0].f1 - 0.05, "{:?}", curve.points);
        assert!(curve.mean_f1() > 0.0);
    }

    #[test]
    fn all_strategies_produce_curves() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.015, 52);
        let pairs = ds.workload.pairs();
        let n_pool = pairs.len() / 2;
        let pool = &pairs[..n_pool];
        let test = &pairs[n_pool..];
        let config = ActiveLearningConfig {
            rounds: 2,
            matcher_config: TrainConfig {
                epochs: 15,
                ..Default::default()
            },
            risk_train_config: RiskTrainConfig {
                epochs: 25,
                ..Default::default()
            },
            ..Default::default()
        };
        for strategy in [
            SelectionStrategy::LeastConfidence,
            SelectionStrategy::Entropy,
            SelectionStrategy::LearnRisk,
        ] {
            let curve = run_active_learning(ds.workload.left_schema.clone(), pool, test, strategy, &config);
            assert_eq!(curve.strategy, strategy.name());
            assert_eq!(curve.points.len(), 3);
            assert!(curve.points.iter().all(|p| (0.0..=1.0).contains(&p.f1)));
        }
    }

    #[test]
    #[should_panic(expected = "pool must exceed")]
    fn tiny_pool_panics() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.01, 53);
        let pairs = ds.workload.pairs();
        let config = ActiveLearningConfig {
            initial_labeled: 10_000,
            ..Default::default()
        };
        run_active_learning(
            ds.workload.left_schema.clone(),
            &pairs[..100],
            &pairs[100..200],
            SelectionStrategy::Entropy,
            &config,
        );
    }
}
