//! The end-to-end risk-analysis pipeline.
//!
//! One pipeline run reproduces a single cell of the paper's evaluation: given
//! a candidate-pair workload and a train/validation/test split, it
//!
//! 1. trains the ER classifier (DeepMatcher substitute) on the training split;
//! 2. labels the validation and test splits with the classifier;
//! 3. generates one-sided risk features from the training split;
//! 4. constructs and trains the LearnRisk model on the validation split;
//! 5. scores the test split with LearnRisk and every baseline;
//! 6. reports AUROC per method.
//!
//! The basic-metric rows of all three splits come from one
//! [`MetricEvaluator::eval_pairs`] call, so a record in several splits is
//! prepared once, and every stage reads those rows.  The returned evaluator
//! remembers them (see [`PipelineArtifacts::evaluator`]).  Steps 3–5 overlap: the
//! Uncertainty, TrustScore and StaticRisk baselines read nothing LearnRisk
//! produces, so they run on a second lane of an [`er_pool::WorkerPool`]
//! while rule generation and risk training run on the other; with one CPU
//! both run inline, in turn.  Each method's scores are the same either way,
//! and methods are reported in the same order.

use er_base::{auroc, Label, LabeledWorkload, Pair, SplitRatio, Workload};
use er_baselines::{
    baseline_scores, HoloCleanConfig, HoloCleanRisk, StaticRisk, StaticRiskConfig, TrustScore, TrustScoreConfig,
    UncertaintyScorer,
};
use er_classifier::{targets, BootstrapEnsemble, ErMatcher, MatcherKind, TrainConfig};
use er_pool::WorkerPool;
use er_rulegen::{OneSidedTreeConfig, RandomForest, TwoSidedTreeConfig};
use er_similarity::MetricEvaluator;
use learnrisk_core::{
    build_input_from_row, default_train_threads, evaluate_auroc, train_with_threads, LearnRiskModel, PairRiskInput,
    RiskFeatureSet, RiskModelConfig, RiskTrainConfig,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// All the knobs of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which classifier architecture plays the DeepMatcher role.
    pub matcher: MatcherKind,
    /// Classifier training hyper-parameters.
    pub matcher_config: TrainConfig,
    /// One-sided rule generation configuration.
    pub rule_config: OneSidedTreeConfig,
    /// Risk-model structure configuration.
    pub risk_config: RiskModelConfig,
    /// Risk-model training configuration.
    pub risk_train_config: RiskTrainConfig,
    /// Worker threads for risk-model training.  The factorized trainer is
    /// bit-deterministic across thread counts, so this only affects speed,
    /// never results.
    pub risk_train_threads: usize,
    /// Number of bootstrap-ensemble members for the Uncertainty baseline
    /// (the paper trains 20 models).
    pub ensemble_members: usize,
    /// Whether to also run the HoloClean comparison (Figure 11).
    pub run_holoclean: bool,
    /// Random seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            matcher: MatcherKind::Mlp,
            matcher_config: TrainConfig {
                epochs: 30,
                learning_rate: 0.01,
                ..Default::default()
            },
            rule_config: OneSidedTreeConfig::default(),
            risk_config: RiskModelConfig::default(),
            risk_train_config: RiskTrainConfig {
                epochs: 120,
                ..Default::default()
            },
            risk_train_threads: default_train_threads(),
            ensemble_members: 20,
            run_holoclean: false,
            seed: 17,
        }
    }
}

/// AUROC (and scores) of one risk method on the test split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method name as used in the paper's figures.
    pub method: String,
    /// AUROC of the risk ranking against the mislabeled/correct labels.
    pub auroc: f64,
    /// Raw risk scores (aligned with the test pairs).
    pub scores: Vec<f64>,
}

/// Result of one pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Dataset name.
    pub dataset: String,
    /// Split-ratio label (e.g. `"3:2:5"`).
    pub ratio: String,
    /// Classifier F1 on the test split.
    pub classifier_f1: f64,
    /// Number of test pairs.
    pub test_size: usize,
    /// Number of test pairs the classifier mislabeled.
    pub test_mislabeled: usize,
    /// Number of generated risk features (rules).
    pub rule_count: usize,
    /// Per-method results.
    pub methods: Vec<MethodResult>,
    /// Wall-clock seconds spent generating rules.
    pub rule_generation_secs: f64,
    /// Wall-clock seconds spent training the risk model.
    pub risk_training_secs: f64,
}

impl PipelineResult {
    /// AUROC of a method by name, if present.
    pub fn auroc_of(&self, method: &str) -> Option<f64> {
        self.methods.iter().find(|m| m.method == method).map(|m| m.auroc)
    }
}

/// The trained artifacts of a pipeline run, for callers that need to reuse the
/// classifier or risk model (e.g. the active-learning experiment).
pub struct PipelineArtifacts {
    /// The trained matcher.
    pub matcher: ErMatcher,
    /// Metric evaluator (raw basic metrics, shared by rule generation and
    /// risk-feature construction).  It remembers the rows the run evaluated
    /// for its train, validation and test pairs, so
    /// [`MetricEvaluator::eval_pairs`] (and [`crate::build_score_requests`])
    /// copies them for pairs built from the same record `Arc`s instead of
    /// evaluating those pairs again.
    pub evaluator: MetricEvaluator,
    /// The trained risk model.
    pub risk_model: LearnRiskModel,
    /// Risk inputs of the test pairs.
    pub test_inputs: Vec<PairRiskInput>,
}

/// Runs the full pipeline on explicit train / validation / test pair sets.
///
/// `schema` is the (left) schema shared by all three splits; it drives which
/// basic metrics are generated per attribute.
pub fn run_pipeline_on_splits(
    dataset: &str,
    ratio_label: &str,
    schema: std::sync::Arc<er_base::Schema>,
    train: &[Pair],
    valid: &[Pair],
    test: &[Pair],
    config: &PipelineConfig,
) -> (PipelineResult, PipelineArtifacts) {
    assert!(
        !train.is_empty() && !valid.is_empty() && !test.is_empty(),
        "all three splits must be non-empty"
    );
    assert_eq!(
        schema.len(),
        train[0].left.values.len(),
        "schema arity mismatch with training pairs"
    );
    assert_eq!(
        train[0].left.values.len(),
        test[0].left.values.len(),
        "train/test schema mismatch"
    );

    // --- basic-metric rows, evaluated once and shared by every stage --------
    // One call for all three splits, so a record in several is prepared once.
    let evaluator = MetricEvaluator::from_pairs(schema, train);
    let all_pairs = [train, valid, test].concat();
    let mut train_rows = evaluator.eval_pairs(&all_pairs);
    let mut valid_rows = train_rows.split_off(train.len());
    let test_rows = valid_rows.split_off(valid.len());
    let train_labels: Vec<Label> = train.iter().map(|p| p.truth).collect();
    let train_targets = targets(train);

    // --- classifier -------------------------------------------------------
    let mut matcher = ErMatcher::new(evaluator.clone(), config.matcher, config.matcher_config);
    matcher.train_rows(&train_rows, &train_targets);

    let valid_labeled = matcher.label_rows(&format!("{dataset}-valid"), valid, &valid_rows);
    let test_labeled = matcher.label_rows(&format!("{dataset}-test"), test, &test_rows);

    // --- shared feature representations ------------------------------------
    let train_features = matcher.featurizer().standardize(&train_rows);
    let test_features = matcher.featurizer().standardize(&test_rows);
    let train_is_match: Vec<bool> = train_labels.iter().map(|l| l.is_match()).collect();
    let test_outputs: Vec<f64> = test_labeled.pairs.iter().map(|p| p.decision.probability).collect();
    let test_says_match: Vec<bool> = test_labeled
        .pairs
        .iter()
        .map(|p| p.decision.predicted.is_match())
        .collect();
    let test_risk_labels: Vec<u8> = test_labeled.risk_labels();

    // --- Baseline -----------------------------------------------------------
    let scores = baseline_scores(&test_outputs);
    let mut methods = vec![MethodResult {
        method: "Baseline".into(),
        auroc: auroc(&scores, &test_risk_labels),
        scores,
    }];

    // The other baselines read nothing LearnRisk produces: with a second CPU
    // they run on a second lane while rules are generated and the risk model
    // trained, and their results are pushed in the usual order afterwards.
    let other_baselines = || {
        // --- Uncertainty ----------------------------------------------------
        let ensemble = BootstrapEnsemble::train(
            &train_features,
            &train_targets,
            config.ensemble_members,
            &TrainConfig {
                epochs: 20,
                ..config.matcher_config
            },
        );
        let uncertainty = UncertaintyScorer::new(&ensemble).scores(&test_features);

        // --- TrustScore -----------------------------------------------------
        let trust = TrustScore::fit(&train_features, &train_is_match, TrustScoreConfig::default());
        let trust = trust.scores(&test_features, &test_says_match);

        // --- StaticRisk -----------------------------------------------------
        let valid_outputs: Vec<f64> = valid_labeled.pairs.iter().map(|p| p.decision.probability).collect();
        let valid_is_match: Vec<bool> = valid_labeled.pairs.iter().map(|p| p.pair.truth.is_match()).collect();
        let static_risk = StaticRisk::fit(&valid_outputs, &valid_is_match, StaticRiskConfig::default());
        let static_risk = static_risk.scores(&test_outputs, &test_says_match);

        [
            ("Uncertainty", uncertainty),
            ("TrustScore", trust),
            ("StaticRisk", static_risk),
        ]
        .map(|(method, scores)| MethodResult {
            method: method.into(),
            auroc: auroc(&scores, &test_risk_labels),
            scores,
        })
    };

    // --- LearnRisk ----------------------------------------------------------
    let learn_risk = || {
        let rule_timer = Instant::now();
        let rules = er_rulegen::generate_rules(&train_rows, &train_labels, config.rule_config);
        let rule_generation_secs = rule_timer.elapsed().as_secs_f64();
        let feature_set =
            RiskFeatureSet::from_training(rules, evaluator.metrics().to_vec(), &train_rows, &train_labels);

        let risk_timer = Instant::now();
        let mut risk_model = LearnRiskModel::new(feature_set, config.risk_config);
        let valid_inputs = build_inputs_from_rows(&risk_model.features, &valid_rows, &valid_labeled);
        let test_inputs = build_inputs_from_rows(&risk_model.features, &test_rows, &test_labeled);
        train_with_threads(
            &mut risk_model,
            &valid_inputs,
            &config.risk_train_config,
            config.risk_train_threads,
        );
        let risk_training_secs = risk_timer.elapsed().as_secs_f64();
        (risk_model, test_inputs, rule_generation_secs, risk_training_secs)
    };

    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let (mut learned, mut baselines) = (None, None);
    WorkerPool::new(lanes)
        .scope(|scope| {
            scope.spawn(|| learned = Some(learn_risk()));
            scope.spawn(|| baselines = Some(other_baselines()));
        })
        .propagate();
    let (risk_model, test_inputs, rule_generation_secs, risk_training_secs) =
        learned.expect("a scope that did not panic ran every task");
    methods.extend(baselines.expect("a scope that did not panic ran every task"));
    let rule_count = risk_model.features.len();
    let scores = risk_model.rank(&test_inputs);
    methods.push(MethodResult {
        method: "LearnRisk".into(),
        auroc: evaluate_auroc(&risk_model, &test_inputs),
        scores,
    });

    // --- HoloClean (optional, Figure 11) ------------------------------------
    if config.run_holoclean {
        let forest = RandomForest::fit(
            &train_rows,
            &train_labels,
            &TwoSidedTreeConfig {
                max_depth: config.rule_config.max_depth.max(4),
                ..Default::default()
            },
        );
        let two_sided_rules = forest.rules(rule_count.max(10));
        let hc = HoloCleanRisk::new(two_sided_rules, HoloCleanConfig::default());
        let scores = hc.scores(&test_rows, &test_outputs, &test_says_match);
        methods.push(MethodResult {
            method: "HoloClean".into(),
            auroc: auroc(&scores, &test_risk_labels),
            scores,
        });
    }

    let result = PipelineResult {
        dataset: dataset.to_owned(),
        ratio: ratio_label.to_owned(),
        classifier_f1: test_labeled.classifier_f1(),
        test_size: test_labeled.len(),
        test_mislabeled: test_labeled.mislabeled_count(),
        rule_count,
        methods,
        rule_generation_secs,
        risk_training_secs,
    };
    let mut rows = train_rows;
    rows.extend(valid_rows);
    rows.extend(test_rows);
    let artifacts = PipelineArtifacts {
        matcher,
        evaluator: evaluator.with_remembered_rows(&all_pairs, rows),
        risk_model,
        test_inputs,
    };
    (result, artifacts)
}

/// Runs the full pipeline on a workload under a split ratio.
pub fn run_pipeline(
    workload: &Workload,
    ratio: SplitRatio,
    config: &PipelineConfig,
) -> (PipelineResult, PipelineArtifacts) {
    let mut rng = er_base::rng::substream(config.seed, 0x90);
    let split = workload.split_by_ratio(ratio, &mut rng);
    let train = workload.select(&split.train);
    let valid = workload.select(&split.valid);
    let test = workload.select(&split.test);
    run_pipeline_on_splits(
        &workload.name,
        &ratio.label(),
        std::sync::Arc::clone(&workload.left_schema),
        &train,
        &valid,
        &test,
        config,
    )
}

/// Builds risk inputs for every pair of a labeled workload.
pub fn build_inputs_from_labeled(
    evaluator: &MetricEvaluator,
    feature_set: &RiskFeatureSet,
    labeled: &LabeledWorkload,
) -> Vec<PairRiskInput> {
    let rows: Vec<Vec<f64>> = labeled
        .pairs
        .iter()
        .map(|lp| evaluator.eval_all(&lp.pair.left, &lp.pair.right))
        .collect();
    build_inputs_from_rows(feature_set, &rows, labeled)
}

/// Builds risk inputs for every pair of a labeled workload from the pairs'
/// basic-metric rows (aligned with `labeled.pairs`).
pub fn build_inputs_from_rows(
    feature_set: &RiskFeatureSet,
    rows: &[Vec<f64>],
    labeled: &LabeledWorkload,
) -> Vec<PairRiskInput> {
    assert_eq!(rows.len(), labeled.pairs.len(), "one metric row per labeled pair");
    rows.iter()
        .zip(&labeled.pairs)
        .map(|(row, lp)| build_input_from_row(feature_set, row, lp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{generate_benchmark, BenchmarkId};

    #[test]
    fn pipeline_produces_all_methods_and_sane_aurocs() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.025, 41);
        let config = PipelineConfig {
            matcher: MatcherKind::Logistic,
            matcher_config: TrainConfig {
                epochs: 25,
                ..Default::default()
            },
            risk_train_config: RiskTrainConfig {
                epochs: 60,
                ..Default::default()
            },
            ensemble_members: 8,
            run_holoclean: true,
            ..Default::default()
        };
        let (result, artifacts) = run_pipeline(&ds.workload, SplitRatio::new(3, 2, 5), &config);
        let names: Vec<&str> = result.methods.iter().map(|m| m.method.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Baseline",
                "Uncertainty",
                "TrustScore",
                "StaticRisk",
                "LearnRisk",
                "HoloClean"
            ]
        );
        assert!(result.test_mislabeled > 0, "need mislabeled pairs to rank");
        assert!(result.rule_count > 0, "no risk features generated");
        for m in &result.methods {
            assert_eq!(m.scores.len(), result.test_size);
            assert!((0.0..=1.0).contains(&m.auroc), "{} AUROC {}", m.method, m.auroc);
        }
        // LearnRisk should beat the naive baseline on this workload.
        let learn = result.auroc_of("LearnRisk").unwrap();
        let base = result.auroc_of("Baseline").unwrap();
        assert!(learn > 0.6, "LearnRisk AUROC too low: {learn}");
        assert!(
            learn >= base - 0.05,
            "LearnRisk ({learn}) should not lose badly to Baseline ({base})"
        );
        assert_eq!(artifacts.test_inputs.len(), result.test_size);
        assert!(result.rule_generation_secs >= 0.0 && result.risk_training_secs >= 0.0);
    }

    #[test]
    fn shared_rows_give_the_inputs_a_from_scratch_evaluation_gives() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 43);
        let config = PipelineConfig {
            matcher: MatcherKind::Logistic,
            matcher_config: TrainConfig {
                epochs: 10,
                ..Default::default()
            },
            risk_train_config: RiskTrainConfig {
                epochs: 10,
                ..Default::default()
            },
            ensemble_members: 2,
            ..Default::default()
        };
        let ratio = SplitRatio::new(3, 2, 5);
        let (_, artifacts) = run_pipeline(&ds.workload, ratio, &config);

        // The test split, labeled pair by pair and evaluated anew.
        let mut rng = er_base::rng::substream(config.seed, 0x90);
        let test = ds.workload.select(&ds.workload.split_by_ratio(ratio, &mut rng).test);
        let probs: Vec<f64> = test.iter().map(|p| artifacts.matcher.predict_pair(p)).collect();
        let labeled = LabeledWorkload::from_probabilities("test", test, &probs);
        let expected = build_inputs_from_labeled(&artifacts.evaluator, &artifacts.risk_model.features, &labeled);

        assert_eq!(artifacts.test_inputs.len(), expected.len());
        for (i, (got, want)) in artifacts.test_inputs.iter().zip(&expected).enumerate() {
            assert_eq!(got.rule_indices, want.rule_indices, "pair {i}");
            assert_eq!(
                got.classifier_output.to_bits(),
                want.classifier_output.to_bits(),
                "pair {i}"
            );
            assert_eq!(got.machine_says_match, want.machine_says_match, "pair {i}");
            assert_eq!(got.risk_label, want.risk_label, "pair {i}");
        }
    }
}
