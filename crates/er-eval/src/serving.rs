//! The train → export → load → score round trip.
//!
//! Bridges the batch experiment pipeline to the `er-serve` online engine:
//! builds serving [`ScoreRequest`]s from pipeline outputs, exports the
//! trained risk model as a versioned artifact and stands a
//! [`ScoringEngine`] back up from it. The round trip is bit-exact — the
//! served scores equal the in-memory model's scores to the last `f64` bit —
//! and [`verify_round_trip`] asserts exactly that, so a deployment can
//! self-check an artifact before taking traffic.

use crate::pipeline::PipelineArtifacts;
use er_base::Pair;
use er_classifier::ErMatcher;
use er_serve::{ArtifactError, ModelArtifact, ScoreRequest, ScoringEngine};
use er_similarity::MetricEvaluator;
use learnrisk_core::LearnRiskModel;
use std::path::Path;

/// Builds serving requests for `pairs`: evaluates the basic-metric rows and
/// attaches the classifier's decision, exactly as an online feature service
/// would. Pair ids are the positions in `pairs`.
///
/// `evaluator` is the one `matcher` was built over (a pipeline's
/// [`PipelineArtifacts::evaluator`]): each row feeds both the request and
/// the classifier.  A pair the pipeline already evaluated (same record
/// `Arc`s) reuses the row it remembers; the rest are evaluated here.
pub fn build_score_requests(evaluator: &MetricEvaluator, matcher: &ErMatcher, pairs: &[Pair]) -> Vec<ScoreRequest> {
    let rows = evaluator.eval_pairs(pairs);
    let probs = matcher.predict_rows(&rows);
    rows.into_iter()
        .zip(probs)
        .enumerate()
        .map(|(i, (metric_row, p))| ScoreRequest {
            pair_id: i as u64,
            metric_row,
            classifier_output: p,
            machine_says_match: p >= 0.5,
        })
        .collect()
}

/// Exports the pipeline's trained risk model to `path`, loads it back and
/// compiles a serving engine from the *loaded* state — the full persistence
/// round trip a deployment performs.
pub fn export_and_load_engine(
    artifacts: &PipelineArtifacts,
    path: impl AsRef<Path>,
) -> Result<(ModelArtifact, ScoringEngine), ArtifactError> {
    let artifact = ModelArtifact::new(artifacts.risk_model.clone());
    artifact.save(&path)?;
    let loaded = ModelArtifact::load(&path)?;
    Ok((artifact, ScoringEngine::new(loaded.model)))
}

/// In-memory variant of the round trip (serialize → parse → compile) for
/// callers that do not want to touch the filesystem.
pub fn round_trip_engine(model: &LearnRiskModel) -> Result<ScoringEngine, ArtifactError> {
    let artifact = ModelArtifact::new(model.clone());
    let restored = ModelArtifact::from_json(&artifact.to_json())?;
    Ok(ScoringEngine::new(restored.model))
}

/// Checks that the engine (typically reloaded from an artifact) reproduces
/// the in-memory model's scores bit-exactly on `requests`. Returns the first
/// disagreement as `(request index, served score, reference score)`.
pub fn verify_round_trip(
    reference: &LearnRiskModel,
    engine: &ScoringEngine,
    requests: &[ScoreRequest],
) -> Result<(), (usize, f64, f64)> {
    let reference_engine = ScoringEngine::new(reference.clone());
    let mut ref_scratch = reference_engine.scratch();
    let mut scratch = engine.scratch();
    for (i, request) in requests.iter().enumerate() {
        let served = engine.score_request(request, &mut scratch);
        let expected = reference_engine.score_request(request, &mut ref_scratch);
        if served.to_bits() != expected.to_bits() {
            return Err((i, served, expected));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use er_base::SplitRatio;
    use er_classifier::{MatcherKind, TrainConfig};
    use er_datasets::{generate_benchmark, BenchmarkId};
    use learnrisk_core::RiskTrainConfig;

    fn small_artifacts() -> (crate::pipeline::PipelineResult, PipelineArtifacts, Vec<Pair>) {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 99);
        let config = PipelineConfig {
            matcher: MatcherKind::Logistic,
            matcher_config: TrainConfig {
                epochs: 15,
                ..Default::default()
            },
            risk_train_config: RiskTrainConfig {
                epochs: 30,
                ..Default::default()
            },
            ensemble_members: 3,
            ..Default::default()
        };
        let (result, artifacts) = run_pipeline(&ds.workload, SplitRatio::new(3, 2, 5), &config);
        let pairs = ds.workload.pairs().to_vec();
        (result, artifacts, pairs)
    }

    #[test]
    fn trained_model_round_trips_through_disk_bit_exactly() {
        let (_, artifacts, pairs) = small_artifacts();
        let pool = build_score_requests(&artifacts.evaluator, &artifacts.matcher, &pairs[..60.min(pairs.len())]);
        assert!(!pool.is_empty());

        let path = std::env::temp_dir().join("er-eval-serving-test").join("model.json");
        let (artifact, engine) = export_and_load_engine(&artifacts, &path).expect("export/load");
        assert_eq!(artifact.model.features.len(), artifacts.risk_model.features.len());
        verify_round_trip(&artifacts.risk_model, &engine, &pool).unwrap_or_else(|(i, served, expected)| {
            panic!("request {i} diverged after reload: served {served}, expected {expected}")
        });
        std::fs::remove_dir_all(path.parent().expect("has parent")).ok();
    }

    #[test]
    fn in_memory_round_trip_matches_too() {
        let (_, artifacts, pairs) = small_artifacts();
        let pool = build_score_requests(&artifacts.evaluator, &artifacts.matcher, &pairs[..40.min(pairs.len())]);
        let engine = round_trip_engine(&artifacts.risk_model).expect("round trip");
        assert!(verify_round_trip(&artifacts.risk_model, &engine, &pool).is_ok());
    }

    #[test]
    fn score_requests_equal_the_per_pair_reference_bit_for_bit() {
        let (_, artifacts, pairs) = small_artifacts();
        let pool = build_score_requests(&artifacts.evaluator, &artifacts.matcher, &pairs);
        assert_eq!(pool.len(), pairs.len());
        for (i, (request, pair)) in pool.iter().zip(&pairs).enumerate() {
            let row = artifacts.evaluator.eval_all(&pair.left, &pair.right);
            let p = artifacts.matcher.predict_pair(pair);
            assert_eq!(request.pair_id, i as u64);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&request.metric_row), bits(&row), "pair {i}");
            assert_eq!(request.classifier_output.to_bits(), p.to_bits(), "pair {i}");
            assert_eq!(request.machine_says_match, p >= 0.5, "pair {i}");
        }
    }

    #[test]
    fn requests_from_the_pipelines_rows_equal_a_fresh_evaluators_bit_for_bit() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 2020);
        let config = PipelineConfig {
            matcher: MatcherKind::Logistic,
            risk_train_config: RiskTrainConfig {
                epochs: 5,
                ..Default::default()
            },
            ensemble_members: 2,
            seed: 2020,
            ..Default::default()
        };
        let ratio = SplitRatio::new(3, 2, 5);
        let (_, artifacts) = run_pipeline(&ds.workload, ratio, &config);
        let mut rng = er_base::rng::substream(config.seed, 0x90);
        let train = ds.workload.select(&ds.workload.split_by_ratio(ratio, &mut rng).train);
        let fresh = MetricEvaluator::from_pairs(std::sync::Arc::clone(&ds.workload.left_schema), &train);

        // The whole workload (every pair remembered), and a part of it
        // rebuilt from copies of its records (none remembered).
        let pairs = ds.workload.pairs();
        let rebuilt: Vec<Pair> = pairs[..40]
            .iter()
            .map(|p| {
                let copy = |r: &std::sync::Arc<er_base::Record>| std::sync::Arc::new(er_base::Record::clone(r));
                Pair::new(p.id, copy(&p.left), copy(&p.right), p.truth)
            })
            .collect();
        for pairs in [pairs, &rebuilt[..]] {
            let got = build_score_requests(&artifacts.evaluator, &artifacts.matcher, pairs);
            let want = build_score_requests(&fresh, &artifacts.matcher, pairs);
            assert_eq!(got.len(), want.len());
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.metric_row), bits(&want.metric_row), "pair {i}");
                assert_eq!(
                    got.classifier_output.to_bits(),
                    want.classifier_output.to_bits(),
                    "pair {i}"
                );
                assert_eq!(
                    (got.pair_id, got.machine_says_match),
                    (want.pair_id, want.machine_says_match)
                );
            }
        }
    }
}
