//! `train_bench` — factorized vs per-pair risk-training benchmark.
//!
//! Builds a DS-style risk-training workload (rules generated from the data, a
//! synthetic ~80%-accurate classifier so mislabeled pairs exist to rank),
//! then times one optimization epoch two ways across input sizes:
//!
//! * **baseline** — the per-pair reference `loss_and_gradient`, which
//!   evaluates the model four times per ranking pair (the pre-factorization
//!   hot path);
//! * **factorized** — `EpochScratch::factorized_loss_and_gradient`, one
//!   forward + one gradient evaluation per input, at each `--threads` count.
//!
//! Every timed pair is also cross-checked: the factorized gradient must match
//! the baseline within 1e-9 or the benchmark aborts.  Results are printed as
//! a table and written as machine-readable JSON (default
//! `out/train_bench.json`, override with `TRAIN_BENCH_JSON`; rank-pair budget
//! via `TRAIN_BENCH_PAIRS`, timing repetitions via `TRAIN_BENCH_REPS`)
//! that `bench_diff` gates against `out/baseline/train_bench.json`.
//!
//! Usage: `cargo run -p er-bench --release --bin train_bench [scale] [--threads 1,2,4]`

use er_bench::gate::{Ratio, Series};
use learnrisk_core::{loss_and_gradient, sample_rank_pairs, EpochScratch, EpochSpan, RiskTrainConfig};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// One factorized-epoch timing at a thread count, with the epoch's
/// per-stage span attribution (forward / λ sweep / gradient), so the
/// trajectory shows *where* epoch time goes, not just its total.
#[derive(Debug, Serialize)]
struct ThreadTiming {
    threads: usize,
    epoch_secs: f64,
    /// Per-pair baseline epoch time divided by this epoch time.
    speedup_vs_baseline: f64,
    /// Seconds of the timed epoch spent in the parallel forward pass.
    forward_secs: f64,
    /// Seconds in the O(rank_pairs) scalar λ sweep.
    lambda_secs: f64,
    /// Seconds in the parallel gradient accumulation.
    gradient_secs: f64,
}

/// Timings of one input size.
#[derive(Debug, Serialize)]
struct TrainBenchPoint {
    inputs: usize,
    rank_pairs: usize,
    baseline_epoch_secs: f64,
    /// Factorized single-thread speedup over the per-pair baseline — the
    /// algorithmic win, independent of core count (gated by `bench_diff`).
    single_thread_speedup: Ratio,
    /// Largest |factorized − baseline| over all gradient components.
    max_abs_gradient_diff: f64,
    factorized: Vec<ThreadTiming>,
}

/// Machine-readable result of one `train_bench` invocation (the
/// `BENCH_*.json` perf-trajectory format, alongside `fig13.json`).
#[derive(Debug, Serialize)]
struct TrainBenchSummary {
    scale: f64,
    seed: u64,
    /// CPUs available to the benchmarking process — lets perf-trajectory
    /// consumers tell single-CPU container runs apart from real multicore
    /// results.
    available_parallelism: usize,
    rule_count: usize,
    max_rank_pairs: usize,
    timing_reps: usize,
    /// Keyed `inputs=N`.
    points: Series<TrainBenchPoint>,
}

/// Best-of-`reps` wall-clock seconds of `f`.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args = er_bench::parse_args(0.02);
    let max_rank_pairs = er_bench::env_usize("TRAIN_BENCH_PAIRS", 8_000);
    let reps = er_bench::env_usize("TRAIN_BENCH_REPS", 5);
    let json_path = PathBuf::from(std::env::var("TRAIN_BENCH_JSON").unwrap_or_else(|_| "out/train_bench.json".into()));

    // --- workload ----------------------------------------------------------
    println!(
        "train_bench: DS at scale {} (threads {:?}, {max_rank_pairs} rank pairs, best of {reps})",
        args.config.scale, args.threads
    );
    let workload = er_bench::train_workload(&args.config, 0.8);
    let (model, inputs) = (&workload.model, &workload.inputs);
    let rule_count = workload.rule_count();
    println!(
        "train_bench: {} rules, {} risk-training inputs ({} mislabeled)",
        rule_count,
        inputs.len(),
        workload.mislabeled
    );

    // Input-size ladder, clipped to the available inputs (rank_pairs ≫ inputs
    // is the regime the factorization targets).
    let mut sizes: Vec<usize> = [250usize, 500, 1000, 2000, 4000]
        .into_iter()
        .filter(|&s| s < inputs.len())
        .collect();
    sizes.push(inputs.len());

    // Thread ladder: always measure 1 thread (the speedup base), then each
    // distinct requested count once, in request order.
    let mut thread_counts = vec![1usize];
    for &t in &args.threads {
        if t > 1 && !thread_counts.contains(&t) {
            thread_counts.push(t);
        }
    }

    let config = RiskTrainConfig {
        max_rank_pairs,
        ..Default::default()
    };
    let mut scratch = EpochScratch::new();
    let mut grad = vec![0.0; model.param_count()];
    let mut points = Series(Vec::new());

    println!();
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>10} {:>12}",
        "Inputs", "Pairs", "Baseline (ms)", "Factor. (ms)", "Threads", "Speedup"
    );
    for &n in &sizes {
        let prefix = &inputs[..n];
        let mut rng = er_base::rng::substream(args.config.seed, 0xBE ^ n as u64);
        let rank_pairs = sample_rank_pairs(prefix, max_rank_pairs, &mut rng);
        if rank_pairs.is_empty() {
            eprintln!("warning: no rank pairs at {n} inputs; skipping");
            continue;
        }

        // Correctness gate: the factorized epoch must reproduce the per-pair
        // reference gradient before its timings mean anything.
        let (loss_ref, grad_ref) = loss_and_gradient(model, prefix, &rank_pairs, &config);
        let loss_fac = scratch.factorized_loss_and_gradient(model, prefix, &rank_pairs, &config, 1, &mut grad);
        let max_abs_gradient_diff = grad
            .iter()
            .zip(&grad_ref)
            .map(|(f, r)| (f - r).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_abs_gradient_diff < 1e-9 && (loss_fac - loss_ref).abs() < 1e-9,
            "factorized epoch diverged at {n} inputs: grad diff {max_abs_gradient_diff:.3e}, \
             loss {loss_fac} vs {loss_ref}"
        );

        let baseline_epoch_secs = time_best(reps, || {
            std::hint::black_box(loss_and_gradient(model, prefix, &rank_pairs, &config));
        });
        let mut factorized = Vec::new();
        for &threads in &thread_counts {
            // Best-of-reps per stage too: attribution comes from the same
            // timed-epoch runs the total is measured on, so the stage split
            // explains the reported epoch time rather than a separate run.
            let mut span = EpochSpan::default();
            let mut best_span = EpochSpan::default();
            let mut epoch_secs = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let start = Instant::now();
                std::hint::black_box(scratch.factorized_loss_and_gradient_timed(
                    model,
                    prefix,
                    &rank_pairs,
                    &config,
                    threads,
                    &mut grad,
                    &mut span,
                ));
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed < epoch_secs {
                    epoch_secs = elapsed;
                    best_span = span.clone();
                }
            }
            let speedup = baseline_epoch_secs / epoch_secs.max(1e-12);
            println!(
                "{:>8} {:>10} {:>14.3} {:>14.3} {:>10} {:>11.1}x  (fwd {:.0}% λ {:.0}% grad {:.0}%)",
                n,
                rank_pairs.len(),
                baseline_epoch_secs * 1e3,
                epoch_secs * 1e3,
                threads,
                speedup,
                100.0 * best_span.forward_secs / epoch_secs.max(1e-12),
                100.0 * best_span.lambda_secs / epoch_secs.max(1e-12),
                100.0 * best_span.gradient_secs / epoch_secs.max(1e-12),
            );
            factorized.push(ThreadTiming {
                threads,
                epoch_secs,
                speedup_vs_baseline: speedup,
                forward_secs: best_span.forward_secs,
                lambda_secs: best_span.lambda_secs,
                gradient_secs: best_span.gradient_secs,
            });
        }
        let single_thread_speedup = factorized
            .iter()
            .find(|t| t.threads == 1)
            .map_or(0.0, |t| t.speedup_vs_baseline);
        let point = TrainBenchPoint {
            inputs: n,
            rank_pairs: rank_pairs.len(),
            baseline_epoch_secs,
            single_thread_speedup: Ratio(single_thread_speedup),
            max_abs_gradient_diff,
            factorized,
        };
        points.0.push((format!("inputs={n}"), point));
    }

    // --- summary ----------------------------------------------------------
    let cores = er_bench::available_parallelism();
    if let Some((_, best)) = points
        .0
        .iter()
        .max_by(|(_, a), (_, b)| a.single_thread_speedup.0.total_cmp(&b.single_thread_speedup.0))
    {
        println!();
        println!(
            "train_bench: best single-thread factorization speedup {:.1}x at {} inputs × {} rank pairs",
            best.single_thread_speedup.0, best.inputs, best.rank_pairs
        );
    }
    if cores == 1 {
        println!(
            "train_bench: note — only 1 CPU is available to this process; \
             thread counts above 1 time-slice a single core and cannot show a further speedup here"
        );
    }

    let summary = TrainBenchSummary {
        scale: args.config.scale,
        seed: args.config.seed,
        available_parallelism: cores,
        rule_count,
        max_rank_pairs,
        timing_reps: reps,
        points,
    };
    if let Some(parent) = json_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&json_path, serde::json::to_string_pretty(&summary)).expect("write train_bench JSON");
    println!("train_bench: wrote {}", json_path.display());
}
