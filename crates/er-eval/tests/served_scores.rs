//! Served scores against the offline path on trained models.
//!
//! `verify_round_trip` compares one engine against another, and both resolve
//! rule coverage through the same compiled index. This test instead checks
//! the served engine against the offline reference on every pair of every
//! benchmark pool: the index's fired rules equal the `Rule::covers` scan of
//! `build_input_from_row`, and the served score equals `risk_score` on that
//! input, bit for bit.

use er_base::{Decision, LabeledPair, SplitRatio};
use er_classifier::{MatcherKind, TrainConfig};
use er_datasets::{generate_benchmark, BenchmarkId};
use er_eval::{build_score_requests, round_trip_engine, run_pipeline, PipelineConfig};
use er_serve::ModelArtifact;
use learnrisk_core::{build_input_from_row, RiskTrainConfig};

/// Workload scale and seed of the serving benchmark's model.
const SCALE: f64 = 0.02;
const SEED: u64 = 2020;

/// The serving benchmark's pipeline configuration.
fn config() -> PipelineConfig {
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
        seed: SEED,
        ..Default::default()
    }
}

#[test]
fn served_scores_equal_the_offline_path_bit_for_bit_on_trained_models() {
    let config = config();
    for id in [
        BenchmarkId::DblpScholar,
        BenchmarkId::AbtBuy,
        BenchmarkId::AmazonGoogle,
        BenchmarkId::Songs,
    ] {
        let ds = generate_benchmark(id, SCALE, SEED);
        let pairs = ds.workload.pairs();
        let (_, trained) = run_pipeline(&ds.workload, SplitRatio::new(3, 2, 5), &config);
        let pool = build_score_requests(&trained.evaluator, &trained.matcher, pairs);
        let model = &trained.risk_model;
        let engine = round_trip_engine(model).expect("artifact round trip");
        let mut scratch = engine.scratch();
        let mut fired = 0usize;
        for (i, (request, pair)) in pool.iter().zip(pairs).enumerate() {
            let labeled = LabeledPair::new(pair.clone(), Decision::from_probability(request.classifier_output));
            let input = build_input_from_row(&model.features, &request.metric_row, &labeled);
            assert_eq!(
                engine.index().matching_rules(&request.metric_row),
                input.rule_indices,
                "{id:?} pair {i}: fired rules"
            );
            assert_eq!(input.machine_says_match, request.machine_says_match, "{id:?} pair {i}");
            let served = engine.score_request(request, &mut scratch);
            let offline = model.risk_score(&input);
            assert_eq!(
                served.to_bits(),
                offline.to_bits(),
                "{id:?} pair {i}: served {served}, offline {offline}"
            );
            fired += input.rule_indices.len();
        }
        assert!(
            !pool.is_empty() && fired > 0,
            "{id:?}: the pool must exercise the rules"
        );
    }
}

#[test]
fn the_serving_benchmarks_ds_model_is_pinned_and_repeats_bit_for_bit() {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, SCALE, SEED);
    let ratio = SplitRatio::new(3, 2, 5);
    let (first, trained) = run_pipeline(&ds.workload, ratio, &config());
    // v1, and v2: the benchmark's stand-in retrain, which nudges the rule
    // weights alternately up and down inside their feasible range.
    let mut retrained = trained.risk_model.clone();
    for (i, w) in retrained.rule_weights.iter_mut().enumerate() {
        *w = (*w * if i % 2 == 0 { 1.07 } else { 0.93 }).clamp(1e-3, 1e3);
    }
    assert_eq!(
        ModelArtifact::new(trained.risk_model).digest(),
        "162567c9f1cf3042",
        "v1"
    );
    assert_eq!(ModelArtifact::new(retrained).digest(), "bc3ff576efe48757", "v2");

    let (second, _) = run_pipeline(&ds.workload, ratio, &config());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(first.rule_count, second.rule_count);
    assert_eq!(first.classifier_f1.to_bits(), second.classifier_f1.to_bits());
    assert_eq!(first.methods.len(), second.methods.len());
    for (a, b) in first.methods.iter().zip(&second.methods) {
        assert_eq!(a.method, b.method);
        assert_eq!(bits(&a.scores), bits(&b.scores), "{} scores", a.method);
        assert_eq!(a.auroc.to_bits(), b.auroc.to_bits(), "{} AUROC", a.method);
    }
}
