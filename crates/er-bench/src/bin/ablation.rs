//! Ablation study of the design choices called out in `DESIGN.md`:
//!
//! 1. risk metric — VaR (paper) vs plain expectation vs CVaR;
//! 2. classifier-output influence feature — with vs without;
//! 3. learnable parameters — trained vs prior-only (fixed weights/variances);
//! 4. rule features — one-sided rules (paper) vs none (classifier output only).
//!
//! Prints LearnRisk AUROC for each variant on a DS-style workload.

use er_base::SplitRatio;
use er_datasets::{generate_benchmark, BenchmarkId};
use er_eval::{build_inputs_from_rows, PipelineConfig};
use er_similarity::MetricEvaluator;
use learnrisk_core::{
    evaluate_auroc, train as train_risk, LearnRiskModel, PairRiskInput, RiskFeatureSet, RiskMetric, RiskModelConfig,
    RiskTrainConfig,
};
use std::sync::Arc;

fn main() {
    let config = er_bench::config_from_args(0.05);
    let ds = generate_benchmark(BenchmarkId::DblpScholar, config.scale, config.seed);
    let workload = &ds.workload;
    let mut rng = er_base::rng::substream(config.seed, 0xE0);
    let split = workload.split_by_ratio(SplitRatio::new(3, 2, 5), &mut rng);
    let train = workload.select(&split.train);
    let valid = workload.select(&split.valid);
    let test = workload.select(&split.test);

    // Shared classifier and rule generation.
    let pipeline = PipelineConfig::default();
    let evaluator = MetricEvaluator::from_pairs(Arc::clone(&workload.left_schema), &train);
    let train_rows = evaluator.eval_pairs(&train);
    let valid_rows = evaluator.eval_pairs(&valid);
    let test_rows = evaluator.eval_pairs(&test);
    let mut matcher = er_classifier::ErMatcher::new(evaluator.clone(), pipeline.matcher, pipeline.matcher_config);
    matcher.train_rows(&train_rows, &er_classifier::targets(&train));
    let valid_labeled = matcher.label_rows("ablation-valid", &valid, &valid_rows);
    let test_labeled = matcher.label_rows("ablation-test", &test, &test_rows);

    let train_labels: Vec<er_base::Label> = train.iter().map(|p| p.truth).collect();
    let rules = er_rulegen::generate_rules(&train_rows, &train_labels, pipeline.rule_config);
    let feature_set = RiskFeatureSet::from_training(rules, evaluator.metrics().to_vec(), &train_rows, &train_labels);

    println!("Ablation study on {} (scale {}):", workload.name, config.scale);
    println!("  classifier F1 on test: {:.3}", test_labeled.classifier_f1());
    println!("  mislabeled test pairs: {}", test_labeled.mislabeled_count());
    println!("  generated rules: {}", feature_set.len());
    println!();
    println!("{:<44} {:>8}", "Variant", "AUROC");

    let variants: Vec<(&str, RiskModelConfig, bool, bool)> = vec![
        (
            "LearnRisk (VaR, trained, rules+output)",
            RiskModelConfig::default(),
            true,
            true,
        ),
        (
            "risk metric = expectation (no variance)",
            RiskModelConfig {
                metric: RiskMetric::Expectation,
                ..Default::default()
            },
            true,
            true,
        ),
        (
            "risk metric = CVaR",
            RiskModelConfig {
                metric: RiskMetric::ConditionalValueAtRisk,
                ..Default::default()
            },
            true,
            true,
        ),
        ("prior only (no risk training)", RiskModelConfig::default(), false, true),
        (
            "classifier output only (no rules)",
            RiskModelConfig::default(),
            true,
            false,
        ),
    ];

    for (name, risk_config, do_train, use_rules) in variants {
        let fs = if use_rules {
            feature_set.clone()
        } else {
            RiskFeatureSet {
                rules: vec![],
                metrics: vec![],
                expectations: vec![],
                support: vec![],
            }
        };
        let mut model = LearnRiskModel::new(fs, risk_config);
        let valid_inputs: Vec<PairRiskInput> = build_inputs_from_rows(&model.features, &valid_rows, &valid_labeled);
        let test_inputs: Vec<PairRiskInput> = build_inputs_from_rows(&model.features, &test_rows, &test_labeled);
        if do_train {
            train_risk(
                &mut model,
                &valid_inputs,
                &RiskTrainConfig {
                    epochs: 120,
                    ..Default::default()
                },
            );
        }
        let auroc = evaluate_auroc(&model, &test_inputs);
        println!("{name:<44} {auroc:>8.3}");
    }
}
