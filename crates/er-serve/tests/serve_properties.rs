//! Cross-cutting properties of the serving subsystem:
//!
//! * **artifact round trip** — for random trained models, save → load →
//!   `score_batch` reproduces the in-memory model's scores bit-exactly;
//! * **determinism under sharding** — `score_batch` with 1 thread and N
//!   threads produces identical results on the same batch, cache on or off;
//! * **version gating** — a bumped format version is rejected with a clear
//!   error (public-API check; the unit suite covers the error variants);
//! * **hot-reload atomicity** — under concurrent scoring threads, every
//!   response scored through a [`ReloadableExecutor`] snapshot carries a
//!   version tag that is exactly the old or the new artifact version, with
//!   scores bit-identical to a fresh engine of that version (never a torn
//!   mix), and post-swap scores equal a fresh engine built from the new
//!   artifact.

use er_base::Label;
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{
    ModelArtifact, ReloadableExecutor, ReplayConfig, ScoreRequest, ScoringEngine, ServeConfig, ShardedExecutor,
    FORMAT_VERSION,
};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use proptest::prelude::*;
use rand::prelude::*;

/// Number of metric slots every generated rule set and request row uses.
const METRICS: usize = 4;

/// Builds a random *trained-looking* model: random rules plus learnable
/// parameters drawn from their feasible ranges (the same ranges the trainer
/// projects onto), so every generated model passes validation.
fn model_from(rule_specs: Vec<Vec<(usize, bool, f64)>>, seed: u64) -> LearnRiskModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let rules: Vec<Rule> = rule_specs
        .into_iter()
        .map(|conds| {
            let target = if rng.gen_bool(0.5) {
                Label::Equivalent
            } else {
                Label::Inequivalent
            };
            let conditions = conds
                .into_iter()
                .map(|(m, gt, t)| Condition::new(m, if gt { CmpOp::Gt } else { CmpOp::Le }, t))
                .collect();
            Rule::new(conditions, target, rng.gen_range(1usize..200), rng.gen_range(0.8..1.0))
        })
        .collect();
    let n = rules.len();
    let feature_set = RiskFeatureSet {
        rules,
        metrics: vec![],
        expectations: (0..n).map(|_| rng.gen_range(0.0..=1.0)).collect(),
        support: (0..n).map(|_| rng.gen_range(1usize..500)).collect(),
    };
    let mut model = LearnRiskModel::new(feature_set, RiskModelConfig::default());
    model.rule_weights = (0..n).map(|_| rng.gen_range(1e-3..10.0)).collect();
    model.rule_rsd = (0..n).map(|_| rng.gen_range(1e-3..2.0)).collect();
    model.influence.alpha = rng.gen_range(0.05..2.0);
    model.influence.beta = rng.gen_range(0.0..20.0);
    for rsd in model.output_rsd.iter_mut() {
        *rsd = rng.gen_range(1e-3..2.0);
    }
    model.validate().expect("generated model must be valid");
    model
}

fn arb_model() -> impl Strategy<Value = LearnRiskModel> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0usize..METRICS, 0u8..2, 0.0f64..1.0), 1..4),
            1..10,
        ),
        0.0f64..1.0,
    )
        .prop_map(|(specs, unit_seed)| {
            let specs = specs
                .into_iter()
                .map(|conds| conds.into_iter().map(|(m, op, t)| (m, op == 0, t)).collect())
                .collect();
            model_from(specs, (unit_seed * u32::MAX as f64) as u64)
        })
}

/// Generates a batch as draws from a consistent pool of pairs: equal
/// `pair_id`s always carry identical content (the [`ScoreRequest::pair_id`]
/// contract the cache relies on), while the small pool guarantees repeats.
/// Up to 400 draws, so most batches are long enough for the executor to
/// split them into several chunks instead of scoring them inline.
fn arb_requests() -> impl Strategy<Value = Vec<ScoreRequest>> {
    (
        proptest::collection::vec(
            (
                proptest::collection::vec(0.0f64..1.0, METRICS..METRICS + 1),
                0.0f64..1.0,
            ),
            1..12,
        ),
        proptest::collection::vec(0.0f64..1.0, 1..400),
    )
        .prop_map(|(pool, draws)| {
            let requests: Vec<ScoreRequest> = pool
                .into_iter()
                .enumerate()
                .map(|(i, (metric_row, p))| ScoreRequest {
                    pair_id: i as u64,
                    metric_row,
                    classifier_output: p,
                    machine_says_match: p >= 0.5,
                })
                .collect();
            draws
                .into_iter()
                .map(|u| requests[(u * requests.len() as f64) as usize % requests.len()].clone())
                .collect()
        })
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn artifact_round_trip_scores_bit_exactly(model in arb_model(), requests in arb_requests()) {
        let original = ScoringEngine::new(model.clone());
        let artifact = ModelArtifact::new(model.clone());
        let reloaded = ModelArtifact::from_json(&artifact.to_json())
            .expect("round trip must parse");
        let served = ScoringEngine::new(reloaded.model);
        prop_assert_eq!(bits(&served.score_batch(&requests)), bits(&original.score_batch(&requests)));
    }

    #[test]
    fn score_batch_is_deterministic_under_sharding(model in arb_model(), requests in arb_requests()) {
        let engine = ScoringEngine::new(model.clone());
        let single = ShardedExecutor::new(engine.clone(), ServeConfig::default().with_threads(1))
            .score_batch(&requests);
        for threads in [2usize, 5] {
            // Cache enabled...
            let multi = ShardedExecutor::new(engine.clone(), ServeConfig::default().with_threads(threads))
                .score_batch(&requests);
            prop_assert_eq!(bits(&multi), bits(&single));
            // ...and disabled: the cache must never change a score.
            let uncached = ShardedExecutor::new(
                engine.clone(),
                ServeConfig { threads, cache_capacity: 0, cache_shards: 1 },
            )
            .score_batch(&requests);
            prop_assert_eq!(bits(&uncached), bits(&single));
        }
    }

    #[test]
    fn replayed_streams_score_identically_across_thread_counts(model in arb_model()) {
        // The full serving path: Zipf stream + cache + threads vs a plain
        // sequential pass over the same stream.
        let engine = ScoringEngine::new(model.clone());
        let pool: Vec<ScoreRequest> = (0..30)
            .map(|i| {
                let x = (i as f64 * 0.37).fract();
                ScoreRequest {
                    pair_id: i,
                    metric_row: vec![x, 1.0 - x, (x * 3.0).fract(), (x * 7.0).fract()],
                    classifier_output: x,
                    machine_says_match: x >= 0.5,
                }
            })
            .collect();
        let stream = er_serve::zipf_stream(&pool, &ReplayConfig { requests: 400, zipf_exponent: 1.1, seed: 11 });
        let sequential = engine.score_batch(&stream);
        let sharded = ShardedExecutor::new(engine.clone(), ServeConfig::default().with_threads(4))
            .score_batch(&stream);
        prop_assert_eq!(bits(&sharded), bits(&sequential));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hot_reload_is_atomic_under_concurrent_scoring(
        old_model in arb_model(),
        new_model in arb_model(),
        requests in arb_requests(),
    ) {
        let old_expected = bits(&ScoringEngine::new(old_model.clone()).score_batch(&requests));
        let new_expected = bits(&ScoringEngine::new(new_model.clone()).score_batch(&requests));

        let handle = ReloadableExecutor::new(
            ScoringEngine::new(old_model.clone()),
            ServeConfig { threads: 1, cache_capacity: 64, cache_shards: 4 },
        );
        let artifact = ModelArtifact::new(new_model.clone());

        // Scorer threads hammer the handle while the main thread swaps the
        // artifact in; every observed (version, scores) pair must be wholly
        // attributable to one version's engine.
        let observations: Vec<(u64, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let requests = &requests;
                    let handle = &handle;
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        for _ in 0..40 {
                            let snapshot = handle.snapshot();
                            let scores = snapshot.executor().score_batch(requests);
                            seen.push((snapshot.version, bits(&scores)));
                        }
                        seen
                    })
                })
                .collect();
            let reloaded_to = handle.reload_artifact(artifact, &requests).expect("reload");
            assert_eq!(reloaded_to, 2);
            // One post-reload observation from this thread guarantees the
            // new version appears in the record even if the scorers were
            // scheduled entirely before the swap (single-CPU runners).
            let snapshot = handle.snapshot();
            let post_swap = (snapshot.version, bits(&snapshot.executor().score_batch(&requests)));
            let mut all: Vec<(u64, Vec<u64>)> =
                handles.into_iter().flat_map(|h| h.join().expect("scorer panicked")).collect();
            all.push(post_swap);
            all
        });

        let mut versions_seen = [false; 2];
        for (version, observed) in &observations {
            prop_assert!(
                *version == 1 || *version == 2,
                "impossible version tag {version}"
            );
            versions_seen[(*version - 1) as usize] = true;
            let expected = if *version == 1 { &old_expected } else { &new_expected };
            // Equality against exactly one version's engine is the
            // no-torn-batch property: a mixed-version batch cannot match.
            prop_assert_eq!(observed, expected);
        }
        // The swap happened while scorers ran, so the new version must have
        // been observed by the tail iterations at the latest.
        prop_assert!(versions_seen[1], "no scorer ever saw the new version");

        // Post-swap, a fresh snapshot is bit-identical to a fresh engine
        // built directly from the new artifact.
        let post = handle.snapshot();
        prop_assert_eq!(post.version, 2);
        prop_assert_eq!(bits(&post.executor().score_batch(&requests)), new_expected);
    }
}

#[test]
fn bumped_format_version_is_rejected_through_the_public_api() {
    let model = model_from(vec![vec![(0, true, 0.5)]], 7);
    let artifact = ModelArtifact::new(model);
    let json = artifact.to_json();
    let bumped = json.replace(
        &format!("\"format_version\": {FORMAT_VERSION}"),
        &format!("\"format_version\": {}", FORMAT_VERSION + 41),
    );
    assert_ne!(json, bumped, "the version field must exist in the payload");
    let err = ModelArtifact::from_json(&bumped).expect_err("must reject");
    let message = err.to_string();
    assert!(
        message.contains(&format!("{}", FORMAT_VERSION + 41)) && message.contains("not supported"),
        "unclear version error: {message}"
    );
}
