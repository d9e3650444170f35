//! Criterion micro-benchmarks of the performance-sensitive building blocks:
//! similarity metrics, one-sided rule generation, risk-model training, risk
//! scoring, the serving rule index and executor, the `/score` wire codec,
//! the serving metrics registry and perfbench's set-up stages.  These
//! complement the figure binaries (which regenerate the paper's result
//! series) by tracking the runtime of each stage.

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};
use er_base::{Label, SplitRatio};
use er_classifier::{MatcherKind, TrainConfig};
use er_datasets::{generate_benchmark, BenchmarkId};
use er_eval::{build_inputs_from_labeled, build_score_requests, run_pipeline, PipelineConfig};
use er_rulegen::{generate_rules, OneSidedTreeConfig};
use er_serve::metrics::KEPT_VERSIONS;
use er_serve::{
    decode_score_body, encode_score_response, parse_exposition, MetricsRegistry, ScoreRequest, ScoringEngine,
    ServeConfig, ShardedExecutor,
};
use er_similarity::MetricEvaluator;
use learnrisk_core::{train as train_risk, LearnRiskModel, RiskFeatureSet, RiskModelConfig, RiskTrainConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// The basic-metric rows of the whole DS pool (perfbench's workload: scale
/// 0.02, seed 2020) per iteration, so every sample covers the same pairs:
/// batched (each distinct record prepared once, rows over the pool's lanes)
/// and pair by pair.
fn bench_metric_evaluation(c: &mut Criterion) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 2020);
    let pairs = ds.workload.pairs();
    let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), pairs);
    let mut group = c.benchmark_group("similarity");
    group.sample_size(10);
    group.bench_function("eval_pairs_ds", |b| {
        b.iter(|| std::hint::black_box(evaluator.eval_pairs(pairs)))
    });
    group.bench_function("eval_all_ds", |b| {
        b.iter(|| {
            let rows: Vec<Vec<f64>> = pairs.iter().map(|p| evaluator.eval_all(&p.left, &p.right)).collect();
            std::hint::black_box(rows)
        })
    });
    group.finish();
}

/// The character kernels on two DS titles of one pair, both cut to 40, 64
/// (one full word of the bit-parallel kernels) and 100 characters.
fn bench_similarity_kernels(c: &mut Criterion) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 2020);
    let title = |r: &er_base::Record| r.values[0].as_str().unwrap_or_default().to_owned();
    let (a, b) = ds
        .workload
        .pairs()
        .iter()
        .map(|p| (title(&p.left), title(&p.right)))
        .find(|(a, b)| a != b && a.chars().count() >= 100 && b.chars().count() >= 100)
        .expect("a DS pair with two distinct titles of 100+ characters");
    let mut group = c.benchmark_group("similarity/kernel");
    for len in [40usize, 64, 100] {
        let cut = |s: &str| s.chars().take(len).collect::<String>();
        let pair = (cut(&a), cut(&b));
        group.bench_with_input(CriterionId::new("levenshtein", len), &pair, |bench, (a, b)| {
            bench.iter(|| std::hint::black_box(er_similarity::edit::levenshtein(a, b)))
        });
        group.bench_with_input(CriterionId::new("lcs", len), &pair, |bench, (a, b)| {
            bench.iter(|| std::hint::black_box(er_similarity::sequence::lcs_length(a, b)))
        });
        group.bench_with_input(CriterionId::new("jaro_winkler", len), &pair, |bench, (a, b)| {
            bench.iter(|| std::hint::black_box(er_similarity::edit::jaro_winkler(a, b)))
        });
    }
    group.finish();
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

/// Seed of perfbench's DS workload and of its training.
const PERFBENCH_SEED: u64 = 2020;

/// perfbench's pipeline configuration (DS at scale 0.02, logistic matcher).
fn perfbench_config() -> PipelineConfig {
    PipelineConfig {
        matcher: MatcherKind::Logistic,
        matcher_config: TrainConfig {
            epochs: 25,
            ..Default::default()
        },
        risk_train_config: RiskTrainConfig {
            epochs: 80,
            ..Default::default()
        },
        ensemble_members: 2,
        seed: PERFBENCH_SEED,
        ..Default::default()
    }
}

/// Serving perfbench's model (v1) over the request pool it re-scores.
///
/// `serve/index/match_ds`: one iteration finds the rules covering one pool
/// pair's row, cycling through the pool.
///
/// `serve/executor/score_cold/{len}`: cold-cache `len`-pair batches of the
/// pool through a 2-thread executor, as `rerank-after-reload` sends them;
/// `score_cold_inline` is the same batch on a 1-thread executor. To re-tune
/// the executor's chunk floor, set it to 1 and find the smallest batch at
/// which the 2-thread row is no slower than the inline one: half that batch
/// is the floor.
fn bench_serve_scoring(c: &mut Criterion) {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, PERFBENCH_SEED);
    let (_, trained) = run_pipeline(&ds.workload, SplitRatio::new(3, 2, 5), &perfbench_config());
    let pool = build_score_requests(&trained.evaluator, &trained.matcher, ds.workload.pairs());
    let engine = ScoringEngine::new(trained.risk_model);
    let index = engine.index();
    let mut scratch = index.scratch();
    let mut out = Vec::new();
    let mut rows = pool.iter().map(|r| r.metric_row.as_slice()).cycle();
    let mut group = c.benchmark_group("serve/index");
    group.bench_function("match_ds", |b| {
        b.iter(|| {
            let row = rows.next().expect("a non-empty pool");
            index.matching_rules_into(row, &mut scratch, &mut out);
            std::hint::black_box(out.len())
        })
    });
    group.finish();

    let mut group = c.benchmark_group("serve/executor");
    for (name, threads) in [("score_cold", 2), ("score_cold_inline", 1)] {
        let executor = ShardedExecutor::new(
            engine.clone(),
            ServeConfig::default().with_threads(threads).with_cache_capacity(0),
        );
        for len in [32usize, 64, 128, 256] {
            let batches: Vec<&[ScoreRequest]> = pool.chunks_exact(len).collect();
            let mut batches = batches.iter().cycle();
            group.bench_function(CriterionId::new(name, len), |b| {
                b.iter(|| std::hint::black_box(executor.score_batch(batches.next().expect("a pool of 256+ pairs"))))
            });
        }
    }
    group.finish();
}

/// A registry after `versions` artifact versions each scored one 32-pair
/// array and went through the retire path, as a server does on every
/// version change.
fn registry_after(versions: u64) -> MetricsRegistry {
    let metrics = MetricsRegistry::new();
    for version in 1..=versions {
        let label = version.to_string();
        let label = [("version", label.as_str())];
        metrics.responses.with(&[("route", "/reload"), ("status", "200")]).inc();
        metrics.responses.with(&[("route", "/score"), ("status", "200")]).inc();
        metrics.score_requests.with(&label).add(32);
        metrics.score_duration.with(&label).observe(2e-4);
        metrics.cache_misses.with(&label).add(32);
        metrics.cache_hits.with(&label).add(0);
        metrics.cache_hit_rate.with(&label).set(0.0);
        metrics.cache_entries.with(&label).set(32.0);
        metrics.retire_versions(version);
    }
    metrics
}

/// The metrics registry's record paths and its scrape.
///
/// `serve/metrics/record_lookup`: one `CounterVec::with` on
/// `route`/`status`, then `inc` (a lock, a `BTreeMap` lookup and label
/// `String`s), as every response but a `/score` 200 records.
///
/// `serve/metrics/record_resolved`: `inc` on a handle already held, as the
/// `/score` 200s and the `version` series record.
///
/// `serve/metrics/render/{versions}`: `GET /metrics`'s render of
/// [`registry_after`] that many versions.
fn bench_serve_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/metrics");
    let metrics = MetricsRegistry::new();
    group.bench_function("record_lookup", |b| {
        b.iter(|| {
            metrics
                .responses
                .with(&[("route", "/healthz"), ("status", "200")])
                .inc()
        })
    });
    let resolved = metrics.responses.with(&[("route", "/score"), ("status", "200")]);
    group.bench_function("record_resolved", |b| b.iter(|| resolved.inc()));
    for versions in [2u64, 800] {
        let metrics = registry_after(versions);
        let samples = parse_exposition(&metrics.render()).expect("the exposition parses");
        let labelled: HashSet<&str> = samples.iter().filter_map(|s| s.label("version")).collect();
        assert!(
            labelled.len() as u64 <= KEPT_VERSIONS + 1,
            "{versions} versions left {labelled:?} in the scrape"
        );
        group.bench_with_input(CriterionId::new("render", versions), &metrics, |b, metrics| {
            b.iter(|| std::hint::black_box(metrics.render()))
        });
    }
    group.finish();
}

/// perfbench's set-up stages, in-process at its configuration (DS at scale
/// 0.02, seed 2020, logistic matcher): generating the workload, the
/// pipeline run, and building the request pool from the trained matcher.
fn bench_setup(c: &mut Criterion) {
    let config = perfbench_config();
    let ratio = SplitRatio::new(3, 2, 5);
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, PERFBENCH_SEED);
    let (_, trained) = run_pipeline(&ds.workload, ratio, &config);
    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    group.bench_function("generate_ds", |b| {
        b.iter(|| std::hint::black_box(generate_benchmark(BenchmarkId::DblpScholar, 0.02, PERFBENCH_SEED)))
    });
    group.bench_function("run_pipeline", |b| {
        b.iter(|| std::hint::black_box(run_pipeline(&ds.workload, ratio, &config).0.rule_count))
    });
    group.bench_function("build_score_requests", |b| {
        b.iter(|| {
            std::hint::black_box(build_score_requests(
                &trained.evaluator,
                &trained.matcher,
                ds.workload.pairs(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_metric_evaluation,
    bench_similarity_kernels,
    bench_rule_generation,
    bench_risk_training_and_scoring,
    bench_serve_wire,
    bench_serve_scoring,
    bench_serve_metrics,
    bench_setup
);
criterion_main!(benches);
