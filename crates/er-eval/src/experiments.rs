//! Experiment runners reproducing the paper's tables and figures.
//!
//! Each function regenerates one table or figure of the evaluation section at
//! a configurable workload scale.  The `er-bench` crate wraps these runners in
//! binaries and Criterion benches; `EXPERIMENTS.md` records the measured
//! results next to the paper's.

use crate::active::{run_active_learning, ActiveLearningConfig, ActiveLearningCurve, SelectionStrategy};
use crate::ood::{project_workload, schemas_compatible};
use crate::pipeline::{run_pipeline, run_pipeline_on_splits, PipelineConfig, PipelineResult};
use er_base::{SplitRatio, Workload};
use er_classifier::TrainConfig;
use er_datasets::{generate_benchmark, table2, BenchmarkId, Table2Row};
use er_rulegen::OneSidedTreeConfig;
use learnrisk_core::RiskTrainConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Global experiment configuration: the workload scale and the seed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Scale factor applied to the paper's dataset sizes (1.0 = full size).
    pub scale: f64,
    /// Random seed shared by dataset generation and pipelines.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            scale: 0.05,
            seed: 2020,
        }
    }
}

impl ExperimentConfig {
    /// A configuration small enough for CI tests.
    pub fn tiny() -> Self {
        Self {
            scale: 0.02,
            seed: 2020,
        }
    }
}

fn default_pipeline(seed: u64) -> PipelineConfig {
    PipelineConfig {
        matcher_config: TrainConfig {
            epochs: 30,
            ..Default::default()
        },
        risk_train_config: RiskTrainConfig {
            epochs: 120,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// Reproduces Table 2: dataset statistics (paper vs generated).
pub fn run_table2(config: &ExperimentConfig) -> Vec<Table2Row> {
    table2(config.scale, config.seed)
}

// ---------------------------------------------------------------------------
// Figure 9 — comparative evaluation
// ---------------------------------------------------------------------------

/// Reproduces Figure 9: AUROC of every risk method on the four datasets at the
/// three split ratios.
pub fn run_fig9(config: &ExperimentConfig) -> Vec<PipelineResult> {
    let mut out = Vec::new();
    for id in BenchmarkId::paper_datasets() {
        let ds = generate_benchmark(id, config.scale, config.seed);
        for ratio in SplitRatio::paper_ratios() {
            let pipeline = default_pipeline(config.seed);
            let (result, _) = run_pipeline(&ds.workload, ratio, &pipeline);
            out.push(result);
        }
    }
    out
}

/// Figure 9 restricted to one dataset and one ratio (useful for quick checks
/// and Criterion benches).
pub fn run_fig9_cell(id: BenchmarkId, ratio: SplitRatio, config: &ExperimentConfig) -> PipelineResult {
    let ds = generate_benchmark(id, config.scale, config.seed);
    let pipeline = default_pipeline(config.seed);
    run_pipeline(&ds.workload, ratio, &pipeline).0
}

// ---------------------------------------------------------------------------
// Figure 10 — out-of-distribution evaluation
// ---------------------------------------------------------------------------

/// The two OOD workloads of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OodWorkload {
    /// Classifier trained on DBLP-ACM, risk-trained/tested on DBLP-Scholar.
    Da2Ds,
    /// Classifier trained on Abt-Buy, risk-trained/tested on Amazon-Google.
    Ab2Ag,
}

impl OodWorkload {
    /// Name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            OodWorkload::Da2Ds => "DA2DS",
            OodWorkload::Ab2Ag => "AB2AG",
        }
    }

    /// (classifier-training source, evaluation target) benchmark pair.
    pub fn datasets(self) -> (BenchmarkId, BenchmarkId) {
        match self {
            OodWorkload::Da2Ds => (BenchmarkId::DblpAcm, BenchmarkId::DblpScholar),
            OodWorkload::Ab2Ag => (BenchmarkId::AbtBuy, BenchmarkId::AmazonGoogle),
        }
    }
}

/// Reproduces Figure 10: the OOD evaluation on DA2DS and AB2AG.
pub fn run_fig10(config: &ExperimentConfig) -> Vec<PipelineResult> {
    [OodWorkload::Da2Ds, OodWorkload::Ab2Ag]
        .into_iter()
        .map(|w| run_fig10_workload(w, config))
        .collect()
}

/// Runs one OOD workload: the classifier trains on the source benchmark, the
/// risk model trains on the target's validation split, evaluation happens on
/// the target's test split.
pub fn run_fig10_workload(workload: OodWorkload, config: &ExperimentConfig) -> PipelineResult {
    let (source_id, target_id) = workload.datasets();
    let source = generate_benchmark(source_id, config.scale, config.seed);
    let target = generate_benchmark(target_id, config.scale, config.seed.wrapping_add(1));

    // Align the target onto the source schema when they differ (AB2AG).
    let target_workload: Workload = if schemas_compatible(&source.workload, &target.workload) {
        target.workload.clone()
    } else {
        project_workload(&target.workload, &source.workload.left_schema)
    };

    // Source: everything is classifier-training data.  Target: 40% risk
    // training (validation), 60% test — mirroring the paper's use of the
    // target's validation data for risk training.
    let mut rng = er_base::rng::substream(config.seed, 0xB0);
    let train = source.workload.pairs().to_vec();
    let target_split = target_workload.split_by_ratio(SplitRatio::new(0, 4, 6), &mut rng);
    let valid = target_workload.select(&target_split.valid);
    let test = target_workload.select(&target_split.test);

    let pipeline = default_pipeline(config.seed);
    let (result, _) = run_pipeline_on_splits(
        workload.name(),
        "OOD",
        Arc::clone(&source.workload.left_schema),
        &train,
        &valid,
        &test,
        &pipeline,
    );
    result
}

// ---------------------------------------------------------------------------
// Figure 11 — comparison with HoloClean
// ---------------------------------------------------------------------------

/// Reproduces Figure 11: LearnRisk vs the HoloClean adaptation on sampled
/// workloads (the paper samples 1000–2000 pairs and averages 5 subsets).
pub fn run_fig11(config: &ExperimentConfig, subsets: usize) -> Vec<PipelineResult> {
    let mut out = Vec::new();
    for id in BenchmarkId::paper_datasets() {
        let sample_size = if id == BenchmarkId::Songs { 2000 } else { 1000 };
        let mut aggregated: Option<PipelineResult> = None;
        for s in 0..subsets.max(1) {
            let ds = generate_benchmark(id, config.scale, config.seed.wrapping_add(s as u64));
            let workload = subsample_workload(&ds.workload, sample_size, config.seed.wrapping_add(s as u64));
            let pipeline = PipelineConfig {
                run_holoclean: true,
                ..default_pipeline(config.seed)
            };
            let (result, _) = run_pipeline(&workload, SplitRatio::new(3, 2, 5), &pipeline);
            aggregated = Some(match aggregated {
                None => result,
                Some(mut acc) => {
                    for (m_acc, m_new) in acc.methods.iter_mut().zip(&result.methods) {
                        m_acc.auroc += m_new.auroc;
                    }
                    acc.test_mislabeled += result.test_mislabeled;
                    acc
                }
            });
        }
        let mut final_result = aggregated.expect("at least one subset");
        for m in final_result.methods.iter_mut() {
            m.auroc /= subsets.max(1) as f64;
            m.scores.clear(); // averaged result keeps only the AUROC
        }
        out.push(final_result);
    }
    out
}

/// Randomly subsamples a workload to at most `size` pairs.
pub fn subsample_workload(workload: &Workload, size: usize, seed: u64) -> Workload {
    let mut rng = er_base::rng::substream(seed, 0xC0);
    let ids = workload.sample_ids(size, &mut rng);
    let pairs: Vec<er_base::Pair> = ids
        .iter()
        .enumerate()
        .map(|(k, id)| {
            let mut p = workload.pair(*id).clone();
            p.id = er_base::PairId(k as u32);
            p
        })
        .collect();
    Workload::new(
        workload.name.clone(),
        Arc::clone(&workload.left_schema),
        Arc::clone(&workload.right_schema),
        pairs,
    )
}

// ---------------------------------------------------------------------------
// Figure 12 — sensitivity to the size of risk-training data
// ---------------------------------------------------------------------------

/// One point of the Figure 12 sensitivity curves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// Dataset name.
    pub dataset: String,
    /// Selection mode (`"random"` or `"active"`).
    pub mode: String,
    /// Size of the risk-training data (pairs for active mode, percentage
    /// points of the workload for random mode).
    pub size: usize,
    /// LearnRisk AUROC on the fixed test split.
    pub auroc: f64,
}

/// Reproduces Figure 12: LearnRisk AUROC as a function of the risk-training
/// data size, with random and active (ambiguity-driven) selection, on DS and
/// AB.  The classifier split is fixed at 30% train / 50% test.
pub fn run_fig12(config: &ExperimentConfig) -> Vec<SensitivityPoint> {
    let mut out = Vec::new();
    for id in [BenchmarkId::DblpScholar, BenchmarkId::AbtBuy] {
        let ds = generate_benchmark(id, config.scale, config.seed);
        let workload = &ds.workload;
        let mut rng = er_base::rng::substream(config.seed, 0xD0);
        let split = workload.split_by_ratio(SplitRatio::new(3, 2, 5), &mut rng);
        let train = workload.select(&split.train);
        let test = workload.select(&split.test);
        let pool = workload.select(&split.valid); // candidate risk-training pool

        // Random sampling: 1%, 5%, 10%, 15%, 20% of the workload size.
        for &pct in &[1usize, 5, 10, 15, 20] {
            let k = ((workload.len() * pct) / 100).clamp(10, pool.len());
            let valid: Vec<er_base::Pair> = pool.iter().take(k).cloned().collect();
            let pipeline = default_pipeline(config.seed);
            let (result, _) = run_pipeline_on_splits(
                workload.name.as_str(),
                &format!("random-{pct}%"),
                Arc::clone(&workload.left_schema),
                &train,
                &valid,
                &test,
                &pipeline,
            );
            out.push(SensitivityPoint {
                dataset: workload.name.clone(),
                mode: "random".into(),
                size: pct,
                auroc: result.auroc_of("LearnRisk").unwrap_or(0.5),
            });
        }

        // Active selection: 100, 200, 300, 400 pairs with the highest ambiguity.
        let pipeline = default_pipeline(config.seed);
        // Train the classifier once to get ambiguity scores over the pool.
        let evaluator = er_similarity::MetricEvaluator::from_pairs(Arc::clone(&workload.left_schema), &train);
        let mut matcher = er_classifier::ErMatcher::new(evaluator, pipeline.matcher, pipeline.matcher_config);
        matcher.train(&train);
        let pool_probs = matcher.predict(&pool);
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| {
            let amb_a = 0.5 - (pool_probs[a] - 0.5).abs();
            let amb_b = 0.5 - (pool_probs[b] - 0.5).abs();
            amb_b.partial_cmp(&amb_a).unwrap_or(std::cmp::Ordering::Equal)
        });
        for &k in &[100usize, 200, 300, 400] {
            let take = k.min(pool.len());
            let valid: Vec<er_base::Pair> = order.iter().take(take).map(|&i| pool[i].clone()).collect();
            let (result, _) = run_pipeline_on_splits(
                workload.name.as_str(),
                &format!("active-{k}"),
                Arc::clone(&workload.left_schema),
                &train,
                &valid,
                &test,
                &pipeline,
            );
            out.push(SensitivityPoint {
                dataset: workload.name.clone(),
                mode: "active".into(),
                size: k,
                auroc: result.auroc_of("LearnRisk").unwrap_or(0.5),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 13 — scalability
// ---------------------------------------------------------------------------

/// One point of the Figure 13 scalability curves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalabilityPoint {
    /// Which stage is being measured (`"rule_generation"`, `"risk_training"`
    /// or `"risk_training[tN]"` for the optimization alone at N threads).
    pub stage: String,
    /// Number of training pairs.
    pub training_size: usize,
    /// Wall-clock runtime in seconds.
    pub runtime_secs: f64,
}

/// Classifier-output probabilities of a synthetic classifier with the given
/// `accuracy` over ground-truth labels: each pair is labeled correctly with
/// probability `accuracy` and carries confidence 0.8 (match) / 0.2 (unmatch).
///
/// Shared by the fig13 scalability experiment and `er-bench`'s training
/// workload builder, so both synthesize risk-training data (including actual
/// mislabeled pairs to rank) the same way.
pub fn synthetic_classifier_probs<R: Rng + ?Sized>(labels: &[er_base::Label], accuracy: f64, rng: &mut R) -> Vec<f64> {
    labels
        .iter()
        .map(|l| {
            let says_match = rng.gen_bool(accuracy) == l.is_match();
            if says_match {
                0.8
            } else {
                0.2
            }
        })
        .collect()
}

/// Reproduces Figure 13: runtime of rule generation and of risk-model
/// training as a function of the training-data size on DS-style workloads,
/// plus the optimization alone at each requested thread count.
pub fn run_fig13(config: &ExperimentConfig, sizes: &[usize], threads: &[usize]) -> Vec<ScalabilityPoint> {
    let mut out = Vec::new();
    let max_size = sizes.iter().copied().max().unwrap_or(2000);
    // Generate one large workload and take prefixes, so the curves measure the
    // same data distribution at increasing sizes.
    let scale = (max_size as f64 * 2.5) / BenchmarkId::DblpScholar.paper_size() as f64;
    let ds = generate_benchmark(BenchmarkId::DblpScholar, scale.max(0.02), config.seed);
    let workload = &ds.workload;
    let evaluator = er_similarity::MetricEvaluator::from_pairs(Arc::clone(&workload.left_schema), workload.pairs());
    let all_rows = evaluator.eval_pairs(workload.pairs());
    let all_labels: Vec<er_base::Label> = workload.pairs().iter().map(|p| p.truth).collect();

    for &size in sizes {
        let n = size.min(workload.len());
        // Rule generation runtime.
        let rows = &all_rows[..n];
        let labels = &all_labels[..n];
        let start = Instant::now();
        let rules = er_rulegen::generate_rules(rows, labels, OneSidedTreeConfig::default());
        out.push(ScalabilityPoint {
            stage: "rule_generation".into(),
            training_size: n,
            runtime_secs: start.elapsed().as_secs_f64(),
        });

        // Risk-training runtime (feature construction + optimization), using
        // a synthetic ~85%-accurate classifier over the same prefix so the
        // risk-training data contains mislabeled pairs to rank (a perfectly
        // aligned classifier would make training a no-op).
        let feature_set =
            learnrisk_core::RiskFeatureSet::from_training(rules, evaluator.metrics().to_vec(), rows, labels);
        let model = learnrisk_core::LearnRiskModel::new(feature_set, Default::default());
        let mut prob_rng = er_base::rng::substream(config.seed, 0xF13 ^ n as u64);
        let probs = synthetic_classifier_probs(labels, 0.85, &mut prob_rng);
        let labeled = er_base::LabeledWorkload::from_probabilities("fig13", workload.pairs()[..n].to_vec(), &probs);
        let train_config = RiskTrainConfig {
            epochs: 50,
            ..Default::default()
        };
        let start = Instant::now();
        let inputs = crate::pipeline::build_inputs_from_labeled(&evaluator, &model.features, &labeled);
        let input_secs = start.elapsed().as_secs_f64();
        let mut m = model.clone();
        let start = Instant::now();
        learnrisk_core::train_with_threads(&mut m, &inputs, &train_config, 1);
        let single_thread_secs = start.elapsed().as_secs_f64();
        out.push(ScalabilityPoint {
            stage: "risk_training".into(),
            training_size: n,
            runtime_secs: input_secs + single_thread_secs,
        });

        // Factorized-trainer thread scaling: optimization only (inputs are
        // prebuilt), one stage per requested thread count.  Training is
        // bit-deterministic across thread counts, so these stages measure
        // pure speedup — and the 1-thread stage reuses the headline run's
        // measurement instead of training a second time.
        for &t in threads {
            let runtime_secs = if t.max(1) == 1 {
                single_thread_secs
            } else {
                let mut m = model.clone();
                let start = Instant::now();
                learnrisk_core::train_with_threads(&mut m, &inputs, &train_config, t);
                start.elapsed().as_secs_f64()
            };
            out.push(ScalabilityPoint {
                stage: format!("risk_training[t{t}]"),
                training_size: n,
                runtime_secs,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 14 — active learning
// ---------------------------------------------------------------------------

/// Reproduces Figure 14: F1 learning curves of LeastConfidence, Entropy and
/// LearnRisk-driven active learning on a DS-style workload.
pub fn run_fig14(config: &ExperimentConfig, rounds: usize) -> Vec<ActiveLearningCurve> {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, config.scale, config.seed);
    let pairs = ds.workload.pairs();
    let n_pool = pairs.len() * 6 / 10;
    let pool = &pairs[..n_pool];
    let test = &pairs[n_pool..];
    let al_config = ActiveLearningConfig {
        rounds,
        seed: config.seed,
        ..Default::default()
    };
    [
        SelectionStrategy::LeastConfidence,
        SelectionStrategy::Entropy,
        SelectionStrategy::LearnRisk,
    ]
    .into_iter()
    .map(|s| run_active_learning(ds.workload.left_schema.clone(), pool, test, s, &al_config))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces_schema_shapes() {
        let rows = run_table2(&ExperimentConfig::tiny());
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(row.generated_attributes, row.paper_attributes);
        }
    }

    #[test]
    fn fig9_cell_runs_end_to_end() {
        let result = run_fig9_cell(
            BenchmarkId::AmazonGoogle,
            SplitRatio::new(3, 2, 5),
            &ExperimentConfig::tiny(),
        );
        assert_eq!(result.methods.len(), 5);
        assert!(result.auroc_of("LearnRisk").is_some());
        assert!(result.test_mislabeled > 0);
    }

    #[test]
    fn fig10_ood_workload_runs() {
        let result = run_fig10_workload(OodWorkload::Ab2Ag, &ExperimentConfig::tiny());
        assert_eq!(result.dataset, "AB2AG");
        assert!(result.auroc_of("LearnRisk").unwrap() > 0.5);
    }

    #[test]
    fn subsample_preserves_schema_and_caps_size() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 7);
        let sub = subsample_workload(&ds.workload, 100, 3);
        assert_eq!(sub.len(), 100);
        assert_eq!(sub.attribute_count(), 4);
        let huge = subsample_workload(&ds.workload, 10_000_000, 3);
        assert_eq!(huge.len(), ds.workload.len());
    }

    #[test]
    fn fig13_runtimes_are_measured() {
        let points = run_fig13(&ExperimentConfig::tiny(), &[200, 400], &[1, 2]);
        // Two sizes × (rule_generation + risk_training + two per-thread
        // training stages).
        assert_eq!(points.len(), 8);
        assert!(points.iter().all(|p| p.runtime_secs >= 0.0));
        assert!(points.iter().any(|p| p.stage == "rule_generation"));
        assert!(points.iter().any(|p| p.stage == "risk_training"));
        let training: Vec<_> = points
            .iter()
            .filter(|p| p.stage.starts_with("risk_training[t"))
            .collect();
        assert_eq!(training.len(), 4, "one training stage per size per thread count");
    }
}
