//! Criterion micro-benchmarks of the performance-sensitive building blocks:
//! similarity metrics, one-sided rule generation, risk-model training, risk
//! scoring and the `/score` wire codec.  These complement the figure binaries
//! (which regenerate the paper's result series) by tracking the runtime of
//! each stage.

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};
use er_base::{Label, SplitRatio};
use er_datasets::{generate_benchmark, BenchmarkId};
use er_eval::{build_inputs_from_labeled, build_score_requests, run_pipeline, PipelineConfig};
use er_rulegen::{generate_rules, OneSidedTreeConfig};
use er_serve::{decode_score_body, encode_score_response, ScoreRequest};
use er_similarity::MetricEvaluator;
use learnrisk_core::{train as train_risk, LearnRiskModel, RiskFeatureSet, RiskModelConfig, RiskTrainConfig};
use std::sync::Arc;

fn bench_metric_evaluation(c: &mut Criterion) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 7);
    let pairs = ds.workload.pairs();
    let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), pairs);
    c.bench_function("similarity/basic_metrics_per_pair", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let p = &pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(evaluator.eval_all(&p.left, &p.right))
        })
    });
}

fn bench_rule_generation(c: &mut Criterion) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.03, 8);
    let pairs = ds.workload.pairs();
    let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), pairs);
    let rows = evaluator.eval_pairs(pairs);
    let labels: Vec<Label> = pairs.iter().map(|p| p.truth).collect();
    let mut group = c.benchmark_group("rulegen/one_sided_tree");
    group.sample_size(10);
    for &n in &[200usize, 500, 1000] {
        let n = n.min(rows.len());
        group.bench_with_input(CriterionId::from_parameter(n), &n, |b, &n| {
            b.iter(|| std::hint::black_box(generate_rules(&rows[..n], &labels[..n], OneSidedTreeConfig::default())))
        });
    }
    group.finish();
}

fn bench_risk_training_and_scoring(c: &mut Criterion) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.03, 9);
    let workload = &ds.workload;
    let mut rng = er_base::rng::seeded(11);
    let split = workload.split_by_ratio(SplitRatio::new(3, 2, 5), &mut rng);
    let train = workload.select(&split.train);
    let valid = workload.select(&split.valid);
    let evaluator = MetricEvaluator::from_pairs(Arc::clone(&workload.left_schema), &train);
    let rows = evaluator.eval_pairs(&train);
    let labels: Vec<Label> = train.iter().map(|p| p.truth).collect();
    let rules = generate_rules(&rows, &labels, OneSidedTreeConfig::default());
    let feature_set = RiskFeatureSet::from_training(rules, evaluator.metrics().to_vec(), &rows, &labels);

    // Labeled validation data (synthetic classifier: mostly right).
    let probs: Vec<f64> = valid
        .iter()
        .map(|p| if p.truth.is_match() { 0.85 } else { 0.15 })
        .collect();
    let labeled = er_base::LabeledWorkload::from_probabilities("bench", valid.clone(), &probs);
    let model = LearnRiskModel::new(feature_set, RiskModelConfig::default());
    let inputs = build_inputs_from_labeled(&evaluator, &model.features, &labeled);

    let mut group = c.benchmark_group("learnrisk");
    group.sample_size(10);
    group.bench_function("risk_training_50_epochs", |b| {
        b.iter(|| {
            let mut m = model.clone();
            train_risk(
                &mut m,
                &inputs,
                &RiskTrainConfig {
                    epochs: 50,
                    ..Default::default()
                },
            );
            std::hint::black_box(m.rule_weights.len())
        })
    });
    group.bench_function("risk_scoring_per_1000_pairs", |b| {
        b.iter(|| {
            let scores: Vec<f64> = inputs.iter().cycle().take(1000).map(|i| model.risk_score(i)).collect();
            std::hint::black_box(scores)
        })
    });
    group.finish();
}

/// The tree reference `decode_score_body` replaced: a `serde::Value` tree,
/// then the derived `Deserialize`.
fn decode_via_tree(body: &str) -> Vec<ScoreRequest> {
    let value = serde::json::parse(body).expect("valid body");
    match value {
        serde::Value::Seq(_) => serde::from_value(&value).expect("requests"),
        _ => vec![serde::from_value(&value).expect("request")],
    }
}

/// `/score` bodies of the DS pool (the pairs perfbench replays): decoding a
/// 1-pair and a 32-pair array with the tree reference and with the pull
/// reader, and encoding 32 scores.
fn bench_serve_wire(c: &mut Criterion) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 1);
    let config = PipelineConfig {
        seed: 1,
        ..Default::default()
    };
    let (_, trained) = run_pipeline(&ds.workload, SplitRatio::new(3, 2, 5), &config);
    let pool = build_score_requests(&trained.evaluator, &trained.matcher, ds.workload.pairs());
    let mut group = c.benchmark_group("serve/wire");
    // One pair goes on the wire as a bare object, as zipf-direct sends it.
    for (pairs, body) in [
        (1, serde::json::to_string(&pool[0])),
        (32, serde::json::to_string(&pool[..32])),
    ] {
        group.bench_with_input(CriterionId::new("decode_tree", pairs), &body, |b, body| {
            b.iter(|| std::hint::black_box(decode_via_tree(body)))
        });
        group.bench_with_input(CriterionId::new("decode_reader", pairs), &body, |b, body| {
            b.iter(|| std::hint::black_box(decode_score_body(body)))
        });
    }
    let scores: Vec<f64> = pool.iter().take(32).map(|r| r.classifier_output.sqrt()).collect();
    group.bench_function("encode_32", |b| {
        b.iter(|| std::hint::black_box(encode_score_response(2, &scores)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_metric_evaluation,
    bench_rule_generation,
    bench_risk_training_and_scoring,
    bench_serve_wire
);
criterion_main!(benches);
