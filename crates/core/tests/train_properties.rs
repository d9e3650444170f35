//! Cross-cutting properties of the factorized risk trainer:
//!
//! * **factorization correctness** — for random models and risk-training
//!   inputs, the factorized epoch (`EpochScratch`) reproduces the per-pair
//!   reference `loss_and_gradient` within 1e-9 on the loss and on every
//!   gradient component;
//! * **thread determinism** — training with 1 thread and with N threads
//!   produces bit-identical loss curves and final parameters (the sharded
//!   gradient reduction runs in fixed chunk order);
//! * **layout invariance** — the SoA (`ComponentBlock`) trainer reproduces
//!   an AoS-layout replica of the factorized epoch *bit-exactly*: the
//!   structure-of-arrays refactor changes memory layout, never one bit of
//!   the learned parameters.

use er_base::rng::substream;
use er_base::stats::{clamp_prob, safe_ln, sigmoid};
use er_base::Label;
use er_rulegen::{CmpOp, Condition, Rule};
use learnrisk_core::var::{training_risk_gradients, training_risk_score};
use learnrisk_core::{
    aggregate, component_gradients, flatten_params, loss_and_gradient, sample_rank_pairs, train_with_threads,
    unflatten_params, EpochScratch, LearnRiskModel, PairRiskInput, RankPairSampler, RiskFeatureSet, RiskModelConfig,
    RiskTrainConfig, TrainReport,
};
use proptest::prelude::*;

/// Rule features every generated model carries.
const RULES: usize = 3;

/// A model over [`RULES`] toy rules with learnable parameters drawn from
/// their feasible ranges (the same ranges the trainer projects onto).
fn model_from(weights: Vec<f64>, rsds: Vec<f64>, alpha: f64, beta: f64) -> LearnRiskModel {
    let rules = vec![
        Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 50, 0.95),
        Rule::new(vec![Condition::new(1, CmpOp::Gt, 0.5)], Label::Equivalent, 40, 0.95),
        Rule::new(vec![Condition::new(0, CmpOp::Le, 0.2)], Label::Equivalent, 30, 0.9),
    ];
    let fs = RiskFeatureSet {
        rules,
        metrics: vec![],
        expectations: vec![0.05, 0.95, 0.8],
        support: vec![50, 40, 30],
    };
    let mut model = LearnRiskModel::new(
        fs,
        RiskModelConfig {
            output_buckets: 4,
            ..Default::default()
        },
    );
    model.rule_weights = weights;
    model.rule_rsd = rsds;
    model.influence.alpha = alpha;
    model.influence.beta = beta;
    model
}

/// Decodes `(rule bitmask, classifier output, flags)` rows into risk inputs.
fn inputs_from(rows: Vec<(usize, f64, u8, u8)>) -> Vec<PairRiskInput> {
    rows.into_iter()
        .map(|(mask, output, says, label)| PairRiskInput {
            rule_indices: (0..RULES as u32).filter(|i| mask & (1 << i) != 0).collect(),
            classifier_output: output,
            machine_says_match: says == 1,
            risk_label: label % 2,
        })
        .collect()
}

fn arb_case() -> impl Strategy<Value = (LearnRiskModel, Vec<PairRiskInput>)> {
    (
        proptest::collection::vec((0usize..(1 << RULES), 0.0f64..1.0, 0u8..2, 0u8..2), 8..120),
        proptest::collection::vec(1e-3f64..5.0, RULES..RULES + 1),
        proptest::collection::vec(1e-3f64..1.5, RULES..RULES + 1),
        (0.05f64..2.0, 0.0f64..10.0),
    )
        .prop_map(|(rows, weights, rsds, (alpha, beta))| (model_from(weights, rsds, alpha, beta), inputs_from(rows)))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Mirrors the trainer's private gradient-chunk size: the chunk grid is part
/// of the canonical reduction order, so the AoS replica must shard the same
/// way to be bit-comparable.
const GRAD_CHUNK: usize = 128;

/// Scatters `scale · ∂γ/∂θ` of one input into `grad` from AoS components —
/// a line-for-line replica of the trainer's scatter, reading per-slot
/// gradients through the AoS `component_gradients` reference.
fn aos_scatter(
    model: &LearnRiskModel,
    input: &PairRiskInput,
    comps: &[learnrisk_core::PortfolioComponent],
    agg: &learnrisk_core::PortfolioDistribution,
    z_theta: f64,
    scale: f64,
    grad: &mut [f64],
) {
    let (d_gamma_d_mean, d_gamma_d_std) = training_risk_gradients(input.machine_says_match, z_theta);
    let n = model.features.len();
    for (slot, &ri) in input.rule_indices.iter().enumerate() {
        let j = ri as usize;
        let g = component_gradients(comps, agg, slot);
        let d_w = d_gamma_d_mean * g.d_mean_d_weight + d_gamma_d_std * g.d_std_d_weight;
        grad[j] += scale * d_w;
        let mu_j = model.features.expectations[j];
        let d_rsd = d_gamma_d_std * g.d_std_d_component_std * mu_j;
        grad[n + j] += scale * d_rsd;
    }
    let g = component_gradients(comps, agg, comps.len() - 1);
    let p = input.classifier_output.clamp(0.0, 1.0);
    let d_weight = d_gamma_d_mean * g.d_mean_d_weight + d_gamma_d_std * g.d_std_d_weight;
    grad[2 * n] += scale * d_weight * model.influence.d_weight_d_alpha(p);
    grad[2 * n + 1] += scale * d_weight * model.influence.d_weight_d_beta();
    let bucket = model.output_bucket(p);
    grad[2 * n + 2 + bucket] += scale * d_gamma_d_std * g.d_std_d_component_std * p;
}

/// One factorized epoch in AoS layout: forward scores through `components` +
/// `aggregate`, the λ sweep, chunk-sharded gradient accumulation through the
/// AoS scatter, and the L1/L2 regularizer — the pre-SoA hot path, kept here
/// as the layout-invariance oracle.
fn aos_factorized_epoch(
    model: &LearnRiskModel,
    inputs: &[PairRiskInput],
    rank_pairs: &[(u32, u32)],
    config: &RiskTrainConfig,
    grad: &mut [f64],
) -> f64 {
    let z = model.z_theta();
    let mut scores = vec![0.0; inputs.len()];
    for (score, input) in scores.iter_mut().zip(inputs) {
        let agg = aggregate(&model.components(input));
        *score = training_risk_score(agg.mean, agg.std(), input.machine_says_match, z);
    }
    let n_pairs = rank_pairs.len().max(1) as f64;
    let mut lambdas = vec![0.0; inputs.len()];
    let mut loss = 0.0;
    for &(a, b) in rank_pairs {
        let (a, b) = (a as usize, b as usize);
        let p_ab = clamp_prob(sigmoid(scores[a] - scores[b]));
        let target = 0.5 * (1.0 + inputs[a].risk_label as f64 - inputs[b].risk_label as f64);
        loss += -(target * safe_ln(p_ab) + (1.0 - target) * safe_ln(1.0 - p_ab));
        let d = (p_ab - target) / n_pairs;
        lambdas[a] += d;
        lambdas[b] -= d;
    }
    let mut loss = loss / n_pairs;
    // λ-active chunks only, each accumulated into its own shard, shards
    // reduced in ascending chunk order — the trainer's canonical grid.
    grad.iter_mut().for_each(|g| *g = 0.0);
    let mut shards = Vec::new();
    for chunk in 0..inputs.len().div_ceil(GRAD_CHUNK) {
        let start = chunk * GRAD_CHUNK;
        let end = (start + GRAD_CHUNK).min(inputs.len());
        if lambdas[start..end].iter().all(|&l| l == 0.0) {
            continue;
        }
        let mut shard = vec![0.0; grad.len()];
        for i in start..end {
            if lambdas[i] == 0.0 {
                continue;
            }
            let comps = model.components(&inputs[i]);
            let agg = aggregate(&comps);
            aos_scatter(model, &inputs[i], &comps, &agg, z, lambdas[i], &mut shard);
        }
        shards.push(shard);
    }
    for shard in &shards {
        for (g, s) in grad.iter_mut().zip(shard) {
            *g += s;
        }
    }
    for (g, &w) in grad.iter_mut().zip(&model.rule_weights).take(model.features.len()) {
        loss += config.l1 * w.abs() + config.l2 * w * w;
        *g += config.l1 * w.signum() + 2.0 * config.l2 * w;
    }
    loss
}

/// The full trainer loop (same sampling stream, same Adam optimizer as
/// `train_with_threads`) over the AoS factorized epoch.
fn aos_train(model: &mut LearnRiskModel, inputs: &[PairRiskInput], config: &RiskTrainConfig) -> TrainReport {
    let mut report = TrainReport::default();
    if inputs.is_empty() {
        return report;
    }
    let mut rng = substream(config.seed, 0x71);
    let sampler = RankPairSampler::new(inputs);
    let mut params = flatten_params(model);
    let mut grad = vec![0.0; params.len()];
    let mut rank_pairs: Vec<(u32, u32)> = Vec::new();
    let mut m = vec![0.0; params.len()];
    let mut v = vec![0.0; params.len()];
    let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
    for epoch in 0..config.epochs {
        sampler.sample_into(config.max_rank_pairs, &mut rng, &mut rank_pairs);
        if rank_pairs.is_empty() {
            break;
        }
        report.rank_pair_counts.push(rank_pairs.len());
        let loss = aos_factorized_epoch(model, inputs, &rank_pairs, config, &mut grad);
        report.losses.push(loss);
        if config.use_adam {
            let t = (epoch + 1) as i32;
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            for i in 0..params.len() {
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                params[i] -= config.learning_rate * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
            }
        } else {
            for (p, g) in params.iter_mut().zip(&grad) {
                *p -= config.learning_rate * g;
            }
        }
        unflatten_params(model, &params);
        params = flatten_params(model);
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn factorized_epoch_matches_per_pair_reference(case in arb_case(), seed in 0u64..1000) {
        let (model, inputs) = &case;
        let mut rng = er_base::rng::seeded(seed);
        let rank_pairs = sample_rank_pairs(inputs, 400, &mut rng);
        if rank_pairs.is_empty() {
            // Degenerate label draw (all-correct or all-mislabeled): nothing
            // to rank, nothing to compare.
            return Ok(());
        }
        let config = RiskTrainConfig::default();
        let (loss_ref, grad_ref) = loss_and_gradient(model, inputs, &rank_pairs, &config);
        let mut scratch = EpochScratch::new();
        let mut grad = vec![0.0; model.param_count()];
        for threads in [1usize, 4] {
            let loss = scratch.factorized_loss_and_gradient(model, inputs, &rank_pairs, &config, threads, &mut grad);
            prop_assert!((loss - loss_ref).abs() < 1e-9, "threads {}: loss {} vs {}", threads, loss, loss_ref);
            for (idx, (f, r)) in grad.iter().zip(&grad_ref).enumerate() {
                prop_assert!((f - r).abs() < 1e-9, "threads {}, param {}: {} vs {}", threads, idx, f, r);
            }
        }
    }

    #[test]
    fn soa_training_reproduces_the_aos_factorized_trainer_bitwise(case in arb_case(), threads in 1usize..5) {
        // The tentpole guarantee of the SoA refactor: switching the portfolio
        // layout from AoS to ComponentBlock changes *nothing* about what the
        // trainer learns — losses and final parameters are bit-identical to
        // the AoS factorized epoch, at every thread count.
        let (model, inputs) = &case;
        let config = RiskTrainConfig {
            epochs: 6,
            max_rank_pairs: 300,
            ..Default::default()
        };
        let mut aos_model = model.clone();
        let aos_report = aos_train(&mut aos_model, inputs, &config);
        let mut soa_model = model.clone();
        let soa_report = train_with_threads(&mut soa_model, inputs, &config, threads);
        prop_assert_eq!(bits(&aos_report.losses), bits(&soa_report.losses));
        prop_assert_eq!(bits(&flatten_params(&aos_model)), bits(&flatten_params(&soa_model)));
        prop_assert_eq!(aos_report.rank_pair_counts, soa_report.rank_pair_counts);
    }

    #[test]
    fn training_is_bit_deterministic_across_thread_counts(case in arb_case(), threads in 2usize..8) {
        let (model, inputs) = &case;
        let config = RiskTrainConfig {
            epochs: 8,
            max_rank_pairs: 300,
            ..Default::default()
        };
        let mut single = model.clone();
        let single_report = train_with_threads(&mut single, inputs, &config, 1);
        let mut multi = model.clone();
        let multi_report = train_with_threads(&mut multi, inputs, &config, threads);
        prop_assert_eq!(bits(&single_report.losses), bits(&multi_report.losses));
        prop_assert_eq!(bits(&flatten_params(&single)), bits(&flatten_params(&multi)));
        prop_assert_eq!(single_report.rank_pair_counts, multi_report.rank_pair_counts);
    }
}
