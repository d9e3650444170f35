//! Set-up: generate the DS workload, train LearnRisk on it, export the
//! served artifacts (v1 and a retrained v2) and build the request pool with
//! the scores every response must reproduce bit for bit.

use er_base::SplitRatio;
use er_classifier::{MatcherKind, TrainConfig};
use er_datasets::{generate_benchmark, BenchmarkId};
use er_eval::{build_score_requests, export_and_load_engine, run_pipeline, verify_round_trip, PipelineConfig};
use er_serve::{ModelArtifact, ScoreRequest, ScoringEngine};
use learnrisk_core::{LearnRiskModel, RiskTrainConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// DS workload scale: big enough that a re-rank round carries real scoring
/// work, small enough that training stays a small part of set-up.
pub const SCALE: f64 = 0.02;

/// Seed of the DS workload and of training. Fixed, so every run serves the
/// same model and the same pool and only the request stream follows the
/// run's seed: a model trained per seed changes rule counts and scoring cost
/// from run to run.
pub const TRAIN_SEED: u64 = 2020;

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    pub generate_s: f64,
    pub pipeline_s: f64,
    /// Reported by the pipeline itself (parts of `pipeline_s`).
    pub rulegen_s: f64,
    pub risk_train_s: f64,
    /// Export, reload and round-trip check of both artifacts.
    pub artifact_s: f64,
}

/// A trained model pair and the pool of requests it serves.
pub struct Model {
    pub pool: Vec<ScoreRequest>,
    /// `engines[0]` serves v1, `engines[1]` the retrained v2.
    pub engines: [ScoringEngine; 2],
    /// `expected[a][i]`: artifact `a`'s score of pool pair `i`.
    pub expected: [Vec<f64>; 2],
    pub artifacts: [PathBuf; 2],
    pub rule_count: usize,
    pub timings: Timings,
}

impl Model {
    /// Which artifact a backend answering with `model_version` serves: it
    /// boots at version 1 on v1 and every reload alternates the two.
    pub fn artifact_of(version: u64) -> usize {
        usize::from(version.is_multiple_of(2))
    }
}

/// The next labeling round's retrain, stood in for deterministically: rule
/// weights nudged alternately up and down inside their feasible range, so
/// every rule-covered pair scores differently under v2.
fn retrained(model: &LearnRiskModel) -> LearnRiskModel {
    let mut next = model.clone();
    for (i, w) in next.rule_weights.iter_mut().enumerate() {
        *w = (*w * if i % 2 == 0 { 1.07 } else { 0.93 }).clamp(1e-3, 1e3);
    }
    next
}

fn broken(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Trains on DS with `seed` and writes both artifacts into `dir`.
pub fn train(seed: u64, dir: &Path) -> io::Result<Model> {
    let mut timings = Timings::default();
    let t = Instant::now();
    let ds = generate_benchmark(BenchmarkId::DblpScholar, SCALE, seed);
    timings.generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
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
        seed,
        ..Default::default()
    };
    let (result, trained) = run_pipeline(&ds.workload, SplitRatio::new(3, 2, 5), &config);
    let pool = build_score_requests(&trained.evaluator, &trained.matcher, ds.workload.pairs());
    timings.pipeline_s = t.elapsed().as_secs_f64();
    timings.rulegen_s = result.rule_generation_secs;
    timings.risk_train_s = result.risk_training_secs;

    let t = Instant::now();
    std::fs::create_dir_all(dir)?;
    let v1_path = dir.join("model-v1.json");
    let v2_path = dir.join("model-v2.json");
    let (_, v1) = export_and_load_engine(&trained, &v1_path).map_err(|e| broken(format!("export v1: {e}")))?;
    verify_round_trip(&trained.risk_model, &v1, &pool)
        .map_err(|(i, got, want)| broken(format!("v1 round trip diverged on pair {i}: {got} vs {want}")))?;
    let v2_model = retrained(&trained.risk_model);
    v2_model
        .validate()
        .map_err(|e| broken(format!("retrained model invalid: {e}")))?;
    ModelArtifact::new(v2_model.clone())
        .save(&v2_path)
        .map_err(|e| broken(format!("export v2: {e}")))?;
    let v2 = ScoringEngine::new(
        ModelArtifact::load(&v2_path)
            .map_err(|e| broken(format!("load v2: {e}")))?
            .model,
    );
    verify_round_trip(&v2_model, &v2, &pool)
        .map_err(|(i, got, want)| broken(format!("v2 round trip diverged on pair {i}: {got} vs {want}")))?;
    let expected = [v1.score_batch(&pool), v2.score_batch(&pool)];
    if expected[0]
        .iter()
        .zip(&expected[1])
        .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        return Err(broken(
            "v2 scores every pair like v1; the per-version check would be vacuous".into(),
        ));
    }
    timings.artifact_s = t.elapsed().as_secs_f64();

    Ok(Model {
        pool,
        engines: [v1, v2],
        expected,
        artifacts: [v1_path, v2_path],
        rule_count: result.rule_count,
        timings,
    })
}
