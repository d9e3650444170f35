//! The risk training of perfbench's DS model, pinned bit for bit.
//!
//! DS (DBLP-Scholar) at scale 0.02 with seed 2020, split 3:2:5, a logistic
//! matcher trained for 25 epochs and the risk model trained for 80 on the
//! validation split: the set-up perfbench serves. The test rebuilds the
//! risk-training inputs the way the pipeline does and digests the bits of
//! every epoch's loss. A change to the trainer that moves any loss by one
//! bit, on one lane or on two, changes the digest.

use er_base::{Label, SplitRatio};
use er_classifier::{targets, ErMatcher, MatcherKind, TrainConfig};
use er_datasets::{generate_benchmark, BenchmarkId};
use er_rulegen::{generate_rules, OneSidedTreeConfig};
use er_similarity::MetricEvaluator;
use learnrisk_core::{
    build_input_from_row, train_with_threads, LearnRiskModel, PairRiskInput, RiskFeatureSet, RiskModelConfig,
    RiskTrainConfig,
};
use std::sync::Arc;

/// Seed of the DS workload, the split and the matcher.
const SEED: u64 = 2020;

/// FNV-1a over the little-endian bits of every loss, as the trainer computed
/// them before its gradient pass reused the forward pass's portfolios.
const LOSSES_DIGEST: u64 = 0xa000_a4c1_6198_ee74;

/// Epochs of the risk training.
const EPOCHS: usize = 80;

/// The risk model before training and its risk-training inputs (the
/// validation split as the matcher labels it).
fn ds_model_and_inputs() -> (LearnRiskModel, Vec<PairRiskInput>) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, SEED);
    let workload = &ds.workload;
    let split = workload.split_by_ratio(SplitRatio::new(3, 2, 5), &mut er_base::rng::substream(SEED, 0x90));
    let (train, valid) = (workload.select(&split.train), workload.select(&split.valid));
    let evaluator = MetricEvaluator::from_pairs(Arc::clone(&workload.left_schema), &train);
    let (train_rows, valid_rows) = (evaluator.eval_pairs(&train), evaluator.eval_pairs(&valid));

    let matcher_config = TrainConfig {
        epochs: 25,
        ..Default::default()
    };
    let mut matcher = ErMatcher::new(evaluator.clone(), MatcherKind::Logistic, matcher_config);
    matcher.train_rows(&train_rows, &targets(&train));
    let valid_labeled = matcher.label_rows("ds-valid", &valid, &valid_rows);

    let labels: Vec<Label> = train.iter().map(|p| p.truth).collect();
    let rules = generate_rules(&train_rows, &labels, OneSidedTreeConfig::default());
    let features = RiskFeatureSet::from_training(rules, evaluator.metrics().to_vec(), &train_rows, &labels);
    let model = LearnRiskModel::new(features, RiskModelConfig::default());
    let inputs = valid_rows
        .iter()
        .zip(&valid_labeled.pairs)
        .map(|(row, lp)| build_input_from_row(&model.features, row, lp))
        .collect();
    (model, inputs)
}

fn fnv1a(losses: &[f64]) -> u64 {
    losses
        .iter()
        .flat_map(|loss| loss.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn ds_training_losses_keep_their_bits() {
    let (prior, inputs) = ds_model_and_inputs();
    assert!(
        inputs.iter().any(|i| i.risk_label == 1),
        "DS must have mislabeled pairs to rank"
    );
    let config = RiskTrainConfig {
        epochs: EPOCHS,
        ..Default::default()
    };
    for threads in [1, 2] {
        let mut model = prior.clone();
        let report = train_with_threads(&mut model, &inputs, &config, threads);
        assert_eq!(report.losses.len(), EPOCHS);
        println!(
            "{threads} lane(s): {} inputs, losses digest {:#018x}",
            inputs.len(),
            fnv1a(&report.losses)
        );
        assert_eq!(fnv1a(&report.losses), LOSSES_DIGEST, "{threads} lane(s)");
    }
}
