//! # er-bench
//!
//! Benchmark harness of the reproduction: one binary per table/figure of the
//! paper (printing the same rows/series the paper reports) and Criterion
//! benches for the performance-sensitive building blocks. The serving stack
//! is attested by workspace tests and timed by `perfbench`.
//!
//! Binaries (run with `cargo run -p er-bench --release --bin <name> [scale]`,
//! and `fig13` also with `[--threads 1,2,4]`):
//!
//! | Binary       | Reproduces |
//! |--------------|------------|
//! | `table2`     | Table 2 — dataset statistics |
//! | `fig9`       | Figure 9 — comparative AUROC on DS/AB/AG/SG × 3 ratios |
//! | `fig10`      | Figure 10 — out-of-distribution evaluation (DA2DS, AB2AG) |
//! | `fig11`      | Figure 11 — LearnRisk vs HoloClean |
//! | `fig12`      | Figure 12 — sensitivity to risk-training data size |
//! | `fig13`      | Figure 13 — scalability (rule generation / risk training per thread count) |
//! | `fig14`      | Figure 14 — active learning |
//! | `ablation`   | Design-choice ablations called out in DESIGN.md |
//!
//! All binaries share one argument parser: an optional positional workload
//! scale ([`config_from_args`]), plus `--threads a,b,c` for `fig13`, the
//! binary that exercises a multi-threaded path ([`parse_args`]). A bad
//! argument, or a `--threads` given to a binary that would ignore it, prints
//! the usage and exits 2.

#![warn(missing_docs)]

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
/// An unparsable scale, an unparsable `--threads` value or an extra argument
/// is named on stderr with the usage line, and the process exits 2, so a typo
/// cannot silently run a long experiment at the wrong configuration.
pub fn parse_args(default_scale: f64) -> BenchArgs {
    parse_process_args(default_scale, Threads::Taken)
}

/// Parses the process arguments of a binary that takes only `[scale]`, as
/// [`parse_args`] does; `--threads` is refused, since it would be ignored.
pub fn config_from_args(default_scale: f64) -> ExperimentConfig {
    parse_process_args(default_scale, Threads::Refused).config
}

/// Whether a binary takes `--threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// `[scale] [--threads a,b,c]` ([`parse_args`]).
    Taken,
    /// `[scale]` only ([`config_from_args`]).
    Refused,
}

fn parse_process_args(default_scale: f64, threads: Threads) -> BenchArgs {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_args_from(args, default_scale, threads).unwrap_or_else(|err| {
        let usage = match threads {
            Threads::Taken => "[scale] [--threads a,b,c]",
            Threads::Refused => "[scale]",
        };
        eprintln!("{err}\nusage: {bin} {usage}");
        std::process::exit(2)
    })
}

/// [`parse_args`] (`Threads::Taken`) or [`config_from_args`]
/// (`Threads::Refused`) over an explicit argument list (testable form): the
/// error names the argument that was refused.
pub fn parse_args_from(
    args: impl IntoIterator<Item = String>,
    default_scale: f64,
    takes: Threads,
) -> Result<BenchArgs, String> {
    let mut scale = None;
    let mut threads = default_thread_counts();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if takes == Threads::Refused && (arg == "--threads" || arg.starts_with("--threads=")) {
            return Err(format!("unexpected argument {arg:?}: this binary takes no --threads"));
        }
        if let Some(list) = arg
            .strip_prefix("--threads=")
            .map(str::to_owned)
            .or_else(|| (arg == "--threads").then(|| iter.next().unwrap_or_default()))
        {
            threads = parse_thread_list(&list).ok_or_else(|| format!("bad --threads value {list:?}"))?;
        } else if scale.is_none() {
            scale = Some(arg.trim().parse::<f64>().map_err(|_| format!("bad scale {arg:?}"))?);
        } else {
            return Err(format!("unexpected argument {arg:?}"));
        }
    }
    Ok(BenchArgs {
        config: ExperimentConfig {
            scale: scale.unwrap_or(default_scale),
            seed: 2020,
        },
        threads,
    })
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

/// A DS-style risk-training workload shared by the `train_epoch` and
/// `aggregation` Criterion benches: rules generated from the data, risk
/// inputs labeled by a synthetic classifier, so both time the identical setup.
pub struct TrainWorkload {
    /// Untrained model over the generated rule features.
    pub model: learnrisk_core::LearnRiskModel,
    /// Risk-training inputs for every workload pair.
    pub inputs: Vec<learnrisk_core::PairRiskInput>,
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
    TrainWorkload { model, inputs }
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

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        parse_args_from(list.iter().map(|s| s.to_string()), 0.03, Threads::Taken)
    }

    fn scale_only(list: &[&str]) -> Result<BenchArgs, String> {
        parse_args_from(list.iter().map(|s| s.to_string()), 0.03, Threads::Refused)
    }

    #[test]
    fn a_scale_only_binary_takes_its_scale_and_refuses_threads() {
        assert_eq!(scale_only(&[]).unwrap().config.scale, 0.03);
        assert_eq!(scale_only(&["0.1"]).unwrap().config.scale, 0.1);
        for list in [&["--threads", "1,2"][..], &["0.1", "--threads=4"], &["--threads"]] {
            let err = scale_only(list).unwrap_err();
            assert!(err.ends_with("this binary takes no --threads"), "{list:?}: {err}");
        }
        assert_eq!(scale_only(&["zoom"]).unwrap_err(), r#"bad scale "zoom""#);
    }

    #[test]
    fn default_scale_is_used_without_args() {
        let a = args(&[]).unwrap();
        assert_eq!(a.config.scale, 0.03);
        assert_eq!(a.config.seed, 2020);
        assert!(a.threads.len() >= 2, "always at least two thread counts");
        assert_eq!(a.threads[0], 1);
    }

    #[test]
    fn positional_scale_is_parsed() {
        assert_eq!(args(&["0.1"]).unwrap().config.scale, 0.1);
    }

    #[test]
    fn bad_scale_is_rejected() {
        assert_eq!(args(&["zoom"]).unwrap_err(), r#"bad scale "zoom""#);
    }

    #[test]
    fn threads_flag_both_spellings() {
        assert_eq!(args(&["--threads", "1,2,8"]).unwrap().threads, vec![1, 2, 8]);
        assert_eq!(args(&["--threads=4"]).unwrap().threads, vec![4]);
        assert_eq!(args(&["0.2", "--threads", "2, 3"]).unwrap().threads, vec![2, 3]);
    }

    #[test]
    fn bad_threads_are_rejected() {
        for list in [
            &["--threads", "fast"][..],
            &["--threads", "0"],
            &["--threads", ""],
            &["--threads"],
        ] {
            let err = args(list).unwrap_err();
            assert!(err.starts_with("bad --threads value"), "{list:?}: {err}");
        }
    }

    #[test]
    fn extra_positionals_are_rejected() {
        assert_eq!(
            args(&["0.5", "unexpected"]).unwrap_err(),
            r#"unexpected argument "unexpected""#
        );
    }
}
