//! `bench_diff` — the CI perf-regression and attestation gate.
//!
//! Walks every gated leaf of the committed baseline under `out/baseline/`
//! and judges it against the current `out/train_bench.json` (+
//! `out/fig13.json` when either side has it) as written by
//! `scripts/kick-tires.sh`, then prints and writes the report.
//! See [`er_bench::gate`] for the leaf encoding and the rules.
//!
//! Usage:
//!
//! ```text
//! bench_diff [--baseline-dir out/baseline] [--current-dir out]
//!            [--report out/bench-diff.txt]
//!            [--write-baseline] [--refresh-if-improved] [--dry-run]
//! ```
//!
//! `--write-baseline` copies the current files over the baseline instead of
//! diffing (run it after a PR that intentionally moves performance or adds
//! a gate, then commit the result).
//!
//! `--refresh-if-improved` is the self-tightening mode used by the
//! `baseline-refresh` workflow: when the gate passes with at least one leaf
//! improved beyond tolerance, it rewrites the baseline with *only those*
//! leaves adopted — every other value, and the hardware stamp, stays as it
//! was. With `--dry-run` it reports the same decision without touching any
//! file; grep the output for `baseline-refresh:` to read the verdict.
//!
//! Exit codes: 0 = pass, 1 = perf regression, 2 = setup error (missing or
//! malformed input files), 3 = an attestation failed (wins over 1).

use er_bench::diff::{diff_all, parse};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark files: name, report prefix, and whether a run must have it
/// (`fig13` only runs in the smoke and full tiers, not on its own).
const FILES: [(&str, &str, bool); 2] = [("train_bench.json", "train", true), ("fig13.json", "fig13", false)];

struct Args {
    baseline_dir: PathBuf,
    current_dir: PathBuf,
    report_path: PathBuf,
    write_baseline: bool,
    refresh_if_improved: bool,
    dry_run: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline_dir: PathBuf::from("out/baseline"),
        current_dir: PathBuf::from("out"),
        report_path: PathBuf::from("out/bench-diff.txt"),
        write_baseline: false,
        refresh_if_improved: false,
        dry_run: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--baseline-dir" => args.baseline_dir = value_of("--baseline-dir")?,
            "--current-dir" => args.current_dir = value_of("--current-dir")?,
            "--report" => args.report_path = value_of("--report")?,
            "--write-baseline" => args.write_baseline = true,
            "--refresh-if-improved" => args.refresh_if_improved = true,
            "--dry-run" => args.dry_run = true,
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    if args.write_baseline && args.refresh_if_improved {
        return Err("--write-baseline and --refresh-if-improved are mutually exclusive".into());
    }
    Ok(args)
}

/// Reads and parses one benchmark file — `None` when it does not exist
/// (an error if the file is `required`), an error for any other failure (a
/// permission problem must not silently disarm a gate).
fn load(dir: &Path, file: &str, required: bool) -> Result<Option<Value>, String> {
    let path = dir.join(file);
    match std::fs::read_to_string(&path) {
        Ok(text) => parse(&path.display().to_string(), &text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && !required => Ok(None),
        Err(e) => Err(format!(
            "cannot read {}: {e} (run scripts/kick-tires.sh to produce current results, \
             or bench_diff --write-baseline to seed the baseline)",
            path.display()
        )),
    }
}

fn write_baseline(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.baseline_dir).map_err(|e| format!("create {}: {e}", args.baseline_dir.display()))?;
    for (file, _, required) in FILES {
        let from = args.current_dir.join(file);
        let to = args.baseline_dir.join(file);
        if !required && !from.exists() {
            // A kick-tires-only refresh keeps whatever is already committed.
            println!("bench_diff: {} not present, baseline kept as-is", from.display());
            continue;
        }
        std::fs::copy(&from, &to).map_err(|e| format!("copy {} -> {}: {e}", from.display(), to.display()))?;
        println!("bench_diff: refreshed {}", to.display());
    }
    println!(
        "bench_diff: baseline refreshed — commit {} to adopt it",
        args.baseline_dir.display()
    );
    Ok(())
}

fn run() -> Result<u8, String> {
    let args = parse_args()?;
    if args.write_baseline {
        write_baseline(&args)?;
        return Ok(0);
    }
    let mut loaded = Vec::new();
    for (file, prefix, required) in FILES {
        let baseline = load(&args.baseline_dir, file, required)?;
        loaded.push((file, prefix, baseline, load(&args.current_dir, file, required)?));
    }
    let files: Vec<_> = loaded.iter().map(|(_, p, b, c)| (*p, b.as_ref(), c.as_ref())).collect();
    let report = diff_all(&files)?;
    let rendered = format!(
        "bench_diff: {} vs baseline {}\n\n{report}",
        args.current_dir.display(),
        args.baseline_dir.display()
    );
    print!("{rendered}");
    if let Some(parent) = args.report_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&args.report_path, &rendered).map_err(|e| format!("write {}: {e}", args.report_path.display()))?;
    println!("bench_diff: wrote {}", args.report_path.display());

    if args.refresh_if_improved {
        // The self-tightening decision, in grep-able form for the
        // baseline-refresh workflow: refresh only when the gate passes AND a
        // leaf moved beyond tolerance — and then adopt only those leaves.
        let improvements = report.improvements().len();
        if report.exit_code() != 0 {
            println!("bench_diff: baseline-refresh: BLOCKED (the gate failed — fix before refreshing)");
        } else if improvements == 0 {
            println!("bench_diff: baseline-refresh: NOT NEEDED (no improvement beyond tolerance)");
        } else if args.dry_run {
            println!("bench_diff: baseline-refresh: DRY RUN — would adopt {improvements} improved leaves");
        } else {
            println!("bench_diff: baseline-refresh: REFRESHING ({improvements} improved leaves adopted)");
            for (file, _, baseline, current) in &loaded {
                let (Some(baseline), Some(current)) = (baseline, current) else {
                    continue;
                };
                let refreshed = er_bench::gate::refresh(baseline, current);
                if refreshed != *baseline {
                    let to = args.baseline_dir.join(file);
                    std::fs::write(&to, serde::json::to_string_pretty(&refreshed))
                        .map_err(|e| format!("write {}: {e}", to.display()))?;
                    println!("bench_diff: refreshed {}", to.display());
                }
            }
        }
    }
    Ok(report.exit_code())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("bench_diff: {message}");
            ExitCode::from(2)
        }
    }
}
