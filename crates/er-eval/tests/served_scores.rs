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
use learnrisk_core::{build_input_from_row, RiskTrainConfig};

/// Workload scale and seed of the serving benchmark's model.
const SCALE: f64 = 0.02;
const SEED: u64 = 2020;

#[test]
fn served_scores_equal_the_offline_path_bit_for_bit_on_trained_models() {
    let config = PipelineConfig {
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
    };
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
