//! Regenerates Figure 13 (scalability of rule generation and risk training),
//! extended with the `er-serve` engine's batched-scoring throughput per
//! `--threads` entry so offline and serving scalability land in one table.
//!
//! Besides the rendered table, the run is written as machine-readable JSON
//! (default `out/fig13.json`, override with `FIG13_JSON`) in the same
//! perf-trajectory format as `train_bench`, with points keyed
//! `stage@size` so `bench_diff` can gate them against the committed baseline.
use er_bench::gate::{Field, Runtime, Series, Throughput};
use er_eval::{render_scalability, run_fig13, ScalabilityPoint};
use serde::Serialize;
use std::path::Path;

/// One scalability point. Only the per-thread stages are gated —
/// `risk_training[tN]` by runtime, `engine_scoring[tN]` by throughput; the
/// headline `rule_generation` / `risk_training` stages are single
/// measurements of multi-second phases whose drift the per-thread stages
/// already cover.
#[derive(Debug, Serialize)]
struct Fig13Point {
    stage: String,
    training_size: usize,
    runtime_secs: Field<Runtime, f64>,
    throughput_pairs_per_sec: Field<Throughput, Option<f64>>,
}

impl From<&ScalabilityPoint> for Fig13Point {
    fn from(p: &ScalabilityPoint) -> Self {
        let runtime_secs = if p.stage.starts_with("risk_training[") {
            Field::Gated(Runtime(p.runtime_secs))
        } else {
            Field::Info(p.runtime_secs)
        };
        let throughput_pairs_per_sec = match p.throughput_pairs_per_sec {
            Some(t) if p.stage.starts_with("engine_scoring[") => Field::Gated(Throughput(t)),
            other => Field::Info(other),
        };
        Self {
            stage: p.stage.clone(),
            training_size: p.training_size,
            runtime_secs,
            throughput_pairs_per_sec,
        }
    }
}

/// Machine-readable result of one `fig13` invocation.
#[derive(Debug, Serialize)]
struct Fig13Summary {
    scale: f64,
    seed: u64,
    available_parallelism: usize,
    threads: Vec<usize>,
    sizes: Vec<usize>,
    /// Keyed `stage@size`, e.g. `risk_training[t2]@500`.
    points: Series<Fig13Point>,
}

fn main() {
    let args = er_bench::parse_args(0.05);
    let sizes = [500, 1000, 2000, 3000, 4000, 6000];
    let points = run_fig13(&args.config, &sizes, &args.threads);
    println!("{}", render_scalability(&points));

    let summary = Fig13Summary {
        scale: args.config.scale,
        seed: args.config.seed,
        available_parallelism: er_bench::available_parallelism(),
        threads: args.threads.clone(),
        sizes: sizes.to_vec(),
        points: points
            .iter()
            .map(|p| (format!("{}@{}", p.stage, p.training_size), p.into()))
            .collect(),
    };
    let path = std::env::var("FIG13_JSON").unwrap_or_else(|_| "out/fig13.json".into());
    if let Some(parent) = Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&path, serde::json::to_string_pretty(&summary)).expect("write fig13 JSON");
    println!("fig13: wrote {path}");
}
