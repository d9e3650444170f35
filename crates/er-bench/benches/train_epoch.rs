//! Criterion micro-benchmarks of the factorized training epoch's inner
//! loops — the forward-score pass and the gradient pass separately, plus the
//! λ sweep, the whole epoch and the per-pair reference epoch — so a
//! regression in either pass shows in its own row, and
//! `per_pair_reference_epoch` ÷ `factorized_epoch` is the factorization's
//! single-thread speedup.  The passes run on the SoA (`ComponentBlock`) hot
//! path; `benches/aggregation.rs` isolates the underlying portfolio kernels
//! against the AoS reference.

use criterion::{criterion_group, criterion_main, Criterion};
use er_eval::ExperimentConfig;
use learnrisk_core::{
    loss_and_gradient, sample_rank_pairs, ComponentBlock, EpochScratch, GradientBlock, LearnRiskModel, PairRiskInput,
    RiskTrainConfig,
};

/// DS-style risk-training setup shared by every bench (and with
/// `benches/aggregation.rs`, via [`er_bench::train_workload`]): a trained-shape
/// model plus inputs from a synthetic ~80%-accurate classifier, so mislabeled
/// pairs exist and the rank-pair list is non-trivial.
fn setup() -> (LearnRiskModel, Vec<PairRiskInput>, Vec<(u32, u32)>) {
    let workload = er_bench::train_workload(&ExperimentConfig { scale: 0.03, seed: 9 }, 0.8);
    let rank_pairs = sample_rank_pairs(&workload.inputs, 4000, &mut er_base::rng::seeded(10));
    assert!(!rank_pairs.is_empty(), "bench workload must yield rank pairs");
    (workload.model, workload.inputs, rank_pairs)
}

fn bench_train_epoch(c: &mut Criterion) {
    let (model, inputs, rank_pairs) = setup();
    let config = RiskTrainConfig::default();
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(10);

    group.bench_function("forward_pass", |b| {
        let mut scratch = EpochScratch::new();
        b.iter(|| {
            scratch.forward_pass(&model, &inputs, 1);
            criterion::black_box(scratch.scores().len())
        })
    });

    group.bench_function("lambda_pass", |b| {
        let mut scratch = EpochScratch::new();
        scratch.forward_pass(&model, &inputs, 1);
        b.iter(|| criterion::black_box(scratch.lambda_pass(&inputs, &rank_pairs)))
    });

    group.bench_function("gradient_pass", |b| {
        let mut scratch = EpochScratch::new();
        scratch.forward_pass(&model, &inputs, 1);
        scratch.lambda_pass(&inputs, &rank_pairs);
        let mut grad = vec![0.0; model.param_count()];
        b.iter(|| {
            scratch.gradient_pass(&model, &inputs, 1, &mut grad);
            criterion::black_box(grad[0])
        })
    });

    group.bench_function("factorized_epoch", |b| {
        let mut scratch = EpochScratch::new();
        let mut grad = vec![0.0; model.param_count()];
        b.iter(|| {
            criterion::black_box(scratch.factorized_loss_and_gradient(
                &model,
                &inputs,
                &rank_pairs,
                &config,
                1,
                &mut grad,
            ))
        })
    });

    group.bench_function("per_pair_reference_epoch", |b| {
        b.iter(|| criterion::black_box(loss_and_gradient(&model, &inputs, &rank_pairs, &config)))
    });

    // The per-input portfolio math of the gradient pass in isolation (SoA
    // fill + fused aggregate + bulk gradient terms) — the kernel the SoA
    // refactor rebuilt, over the same inputs as the full passes above.
    group.bench_function("portfolio_math_per_input", |b| {
        let mut block = ComponentBlock::new();
        let mut terms = GradientBlock::new();
        b.iter(|| {
            let mut acc = 0.0;
            for input in &inputs {
                model.components_into_block(input, &mut block);
                let agg = block.aggregate();
                block.component_gradients_into(&agg, &mut terms);
                acc += agg.mean + terms.d_std_d_weight.iter().sum::<f64>();
            }
            criterion::black_box(acc)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_train_epoch);
criterion_main!(benches);
