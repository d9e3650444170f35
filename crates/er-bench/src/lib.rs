//! # er-bench
//!
//! Benchmark harness of the reproduction: one binary per table/figure of the
//! paper (printing the same rows/series the paper reports), the
//! `train_bench` training benchmark, the `bench_diff` gate over their JSON,
//! and Criterion benches for the performance-sensitive building blocks.
//! The serving stack is attested by workspace tests and timed by
//! `perfbench`.
//!
//! Binaries (run with
//! `cargo run -p er-bench --release --bin <name> [scale] [--threads 1,2,4]`):
//!
//! | Binary       | Reproduces |
//! |--------------|------------|
//! | `table2`     | Table 2 — dataset statistics |
//! | `fig9`       | Figure 9 — comparative AUROC on DS/AB/AG/SG × 3 ratios |
//! | `fig10`      | Figure 10 — out-of-distribution evaluation (DA2DS, AB2AG) |
//! | `fig11`      | Figure 11 — LearnRisk vs HoloClean |
//! | `fig12`      | Figure 12 — sensitivity to risk-training data size |
//! | `fig13`      | Figure 13 — scalability (rule generation / risk training / engine scoring) |
//! | `fig14`      | Figure 14 — active learning |
//! | `ablation`   | Design-choice ablations called out in DESIGN.md |
//! | `train_bench`| Factorized vs per-pair risk-training epoch benchmark |
//!
//! All binaries share one argument parser ([`parse_args`]): an optional
//! positional workload scale plus `--threads a,b,c` for the binaries that
//! exercise a multi-threaded path (`fig13`, `train_bench`),
//! and the [`env_usize`] helper for their environment overrides.

#![warn(missing_docs)]

pub mod diff;
pub mod gate;

use er_eval::ExperimentConfig;

/// Parsed command-line arguments shared by every benchmark binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Workload scale and seed (the seed is fixed at 2020 for
    /// reproducibility).
    pub config: ExperimentConfig,
    /// Thread counts for the multi-threaded binaries, from `--threads`;
    /// defaults to [`default_thread_counts`].
    pub threads: Vec<usize>,
}

/// Parses the process arguments: `[scale] [--threads a,b,c]`.
///
/// Keeps the harness's warn-don't-die behavior: an unparsable scale or
/// thread list falls back to its default with a warning on stderr, so a typo
/// cannot silently run a long experiment at the wrong configuration.
pub fn parse_args(default_scale: f64) -> BenchArgs {
    parse_args_from(std::env::args().skip(1), default_scale)
}

/// [`parse_args`] over an explicit argument list (testable form).
pub fn parse_args_from(args: impl IntoIterator<Item = String>, default_scale: f64) -> BenchArgs {
    let mut scale = default_scale;
    let mut scale_seen = false;
    let mut threads = default_thread_counts();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if let Some(list) = arg
            .strip_prefix("--threads=")
            .map(str::to_owned)
            .or_else(|| (arg == "--threads").then(|| iter.next().unwrap_or_default()))
        {
            match parse_thread_list(&list) {
                Some(parsed) => threads = parsed,
                None => {
                    eprintln!("warning: could not parse --threads value {list:?}; using default {threads:?}");
                }
            }
        } else if !scale_seen {
            scale_seen = true;
            match arg.trim().parse::<f64>() {
                Ok(parsed) => scale = parsed,
                Err(_) => {
                    eprintln!("warning: could not parse scale argument {arg:?}; using default {default_scale}");
                }
            }
        } else {
            eprintln!("warning: ignoring unrecognized argument {arg:?}");
        }
    }
    BenchArgs {
        config: ExperimentConfig { scale, seed: 2020 },
        threads,
    }
}

/// Backwards-compatible helper: parses only the workload scale from the
/// process arguments (see [`parse_args`]).
pub fn config_from_args(default_scale: f64) -> ExperimentConfig {
    parse_args(default_scale).config
}

/// Default thread counts for the multi-threaded binaries: powers of two up to
/// the machine's parallelism, always including at least 1 and 2 so the
/// single- vs multi-threaded comparison is always reported.
pub fn default_thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut counts = vec![1usize];
    let mut t = 2;
    while t <= max && counts.len() < 4 {
        counts.push(t);
        t *= 2;
    }
    if counts.len() == 1 {
        counts.push(2);
    }
    counts
}

/// CPUs available to this process (1 when undeterminable) — the value the
/// `*_bench` binaries embed in their JSON so perf-trajectory consumers can
/// tell single-CPU container runs apart from real multicore results.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a `usize` environment variable, keeping the harness's
/// warn-don't-die behavior: unset uses the default silently, an unparsable
/// value warns on stderr and uses the default.  Shared by the `*_bench`
/// binaries' request/size overrides.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("warning: could not parse {name}={raw:?}; using default {default}");
                default
            }
        },
    }
}

/// A DS-style risk-training workload shared by `train_bench` and the
/// `train_epoch` Criterion bench: rules generated from the data, risk inputs
/// labeled by a synthetic classifier, so both time the identical setup.
pub struct TrainWorkload {
    /// Untrained model over the generated rule features.
    pub model: learnrisk_core::LearnRiskModel,
    /// Risk-training inputs for every workload pair.
    pub inputs: Vec<learnrisk_core::PairRiskInput>,
    /// Number of mislabeled pairs (risk positives) among the inputs.
    pub mislabeled: usize,
}

impl TrainWorkload {
    /// Number of generated rule features.
    pub fn rule_count(&self) -> usize {
        self.model.features.len()
    }
}

/// Builds a [`TrainWorkload`]: generates DS at `config.scale`, derives rules
/// and the risk feature set from the data, then labels every pair with a
/// synthetic classifier of the given `accuracy` (confidence 0.8 / 0.2) so
/// mislabeled pairs exist and the rank-pair list is non-trivial.
pub fn train_workload(config: &ExperimentConfig, accuracy: f64) -> TrainWorkload {
    let ds = er_datasets::generate_benchmark(er_datasets::BenchmarkId::DblpScholar, config.scale, config.seed);
    let workload = &ds.workload;
    let evaluator =
        er_similarity::MetricEvaluator::from_pairs(std::sync::Arc::clone(&workload.left_schema), workload.pairs());
    let rows = evaluator.eval_pairs(workload.pairs());
    let labels: Vec<er_base::Label> = workload.pairs().iter().map(|p| p.truth).collect();
    let rules = er_rulegen::generate_rules(&rows, &labels, er_rulegen::OneSidedTreeConfig::default());
    let feature_set =
        learnrisk_core::RiskFeatureSet::from_training(rules, evaluator.metrics().to_vec(), &rows, &labels);
    let model = learnrisk_core::LearnRiskModel::new(feature_set, Default::default());
    let mut prob_rng = er_base::rng::substream(config.seed, 0x7B);
    let probs = er_eval::synthetic_classifier_probs(&labels, accuracy, &mut prob_rng);
    let labeled = er_base::LabeledWorkload::from_probabilities("train-workload", workload.pairs().to_vec(), &probs);
    let inputs = er_eval::build_inputs_from_rows(&model.features, &rows, &labeled);
    TrainWorkload {
        model,
        inputs,
        mislabeled: labeled.mislabeled_count(),
    }
}

fn parse_thread_list(list: &str) -> Option<Vec<usize>> {
    let parsed: Option<Vec<usize>> = list
        .split(',')
        .map(|part| part.trim().parse::<usize>().ok().filter(|&t| t > 0))
        .collect();
    parsed.filter(|v| !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> BenchArgs {
        parse_args_from(list.iter().map(|s| s.to_string()), 0.03)
    }

    #[test]
    fn default_scale_is_used_without_args() {
        let a = args(&[]);
        assert_eq!(a.config.scale, 0.03);
        assert_eq!(a.config.seed, 2020);
        assert!(a.threads.len() >= 2, "always at least two thread counts");
        assert_eq!(a.threads[0], 1);
    }

    #[test]
    fn positional_scale_is_parsed() {
        assert_eq!(args(&["0.1"]).config.scale, 0.1);
    }

    #[test]
    fn bad_scale_falls_back_with_default() {
        assert_eq!(args(&["zoom"]).config.scale, 0.03);
    }

    #[test]
    fn threads_flag_both_spellings() {
        assert_eq!(args(&["--threads", "1,2,8"]).threads, vec![1, 2, 8]);
        assert_eq!(args(&["--threads=4"]).threads, vec![4]);
        assert_eq!(args(&["0.2", "--threads", "2, 3"]).threads, vec![2, 3]);
    }

    #[test]
    fn bad_threads_fall_back_to_defaults() {
        let defaults = default_thread_counts();
        assert_eq!(args(&["--threads", "fast"]).threads, defaults);
        assert_eq!(args(&["--threads", "0"]).threads, defaults);
        assert_eq!(args(&["--threads", ""]).threads, defaults);
        assert_eq!(args(&["--threads"]).threads, defaults);
    }

    #[test]
    fn extra_positionals_are_ignored_not_fatal() {
        let a = args(&["0.5", "unexpected"]);
        assert_eq!(a.config.scale, 0.5);
    }
}
