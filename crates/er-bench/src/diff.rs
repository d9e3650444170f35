//! Perf-trajectory regression detection: walks every gated leaf (see
//! [`crate::gate`]) of a committed baseline (`out/baseline/*.json`) and
//! judges it against the current `train_bench.json` and `fig13.json`.
//!
//! The walk is generic — nothing here names a metric. Every leaf the baseline
//! gates is judged, so a leaf the current run lost fails and schema drift
//! cannot disarm a gate; a leaf only the current run has is noted as a
//! baseline-refresh candidate. The `bench_diff` binary wraps this module.

use crate::gate::{judge, leaves, same_hardware, Kind, Status, Verdict};
use serde::{json, Value};
use std::fmt;

/// One judged leaf.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Dotted path, prefixed by the file (`train.`, `fig13.`).
    pub name: String,
    /// The leaf's kind.
    pub kind: Kind,
    /// Baseline and current values and their classification.
    pub verdict: Verdict,
}

impl MetricDiff {
    fn failed(&self) -> bool {
        self.verdict.status == Status::Failed
    }
}

/// The full diff of one baseline/current pair of file sets.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Every gated leaf of the baseline, in document order.
    pub metrics: Vec<MetricDiff>,
    /// Context notes (hardware mismatches, leaves not yet in the baseline).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Attestations that are false, missing or not a bool.
    pub fn failed_attestations(&self) -> Vec<&MetricDiff> {
        self.metrics
            .iter()
            .filter(|m| m.kind == Kind::Attest && m.failed())
            .collect()
    }

    /// Numeric leaves that regressed beyond tolerance, vanished, or are
    /// non-finite.
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.metrics
            .iter()
            .filter(|m| m.kind != Kind::Attest && m.failed())
            .collect()
    }

    /// Leaves that improved beyond tolerance (baseline-refresh candidates).
    pub fn improvements(&self) -> Vec<&MetricDiff> {
        self.metrics
            .iter()
            .filter(|m| m.verdict.status == Status::Improved)
            .collect()
    }

    /// `bench_diff`'s exit code: 3 when an attestation failed (this wins
    /// over a regression), 1 on a perf regression, 0 on pass.
    pub fn exit_code(&self) -> u8 {
        if !self.failed_attestations().is_empty() {
            3
        } else if !self.regressions().is_empty() {
            1
        } else {
            0
        }
    }
}

fn show(kind: Kind, value: Option<f64>) -> String {
    match value {
        None => "missing".into(),
        Some(v) if kind == Kind::Attest => (v == 1.0).to_string(),
        Some(v) => format!("{v:.4}"),
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        writeln!(
            f,
            "{:<width$} {:<14} {:>14} {:>14} {:>9}  Status",
            "Gated leaf", "Kind", "Baseline", "Current", "Change"
        )?;
        for m in &self.metrics {
            let v = &m.verdict;
            let status = match &v.status {
                Status::Ok => "ok".to_string(),
                Status::Improved => "IMPROVED".to_string(),
                Status::Failed if m.kind == Kind::Attest => "FAILED".to_string(),
                Status::Failed => "REGRESSED".to_string(),
                Status::Skipped(reason) => format!("skipped ({reason})"),
            };
            writeln!(
                f,
                "{:<width$} {:<14} {:>14} {:>14} {:>+8.1}%  {status}",
                m.name,
                m.kind.key(),
                show(m.kind, Some(v.baseline)),
                show(m.kind, v.current),
                v.change * 100.0,
            )?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        let (attestations, regressions) = (self.failed_attestations().len(), self.regressions().len());
        let improvements = self.improvements().len();
        writeln!(
            f,
            "summary: {} gated leaves, {attestations} attestations failed, {regressions} regressed, \
             {improvements} improved",
            self.metrics.len()
        )?;
        if attestations > 0 {
            writeln!(f, "ATTESTATION GATE: FAIL — a correctness claim no longer holds")?;
        }
        if regressions > 0 {
            writeln!(
                f,
                "PERF GATE: FAIL — investigate or (if intended) refresh out/baseline/"
            )?;
        } else if attestations == 0 {
            writeln!(f, "PERF GATE: PASS")?;
            if improvements > 0 {
                writeln!(
                    f,
                    "hint: improvements beyond tolerance — consider refreshing the baseline \
                     (`cargo run -p er-bench --release --bin bench_diff -- --refresh-if-improved`)"
                )?;
            }
        }
        Ok(())
    }
}

/// Parses one benchmark file, labelling a syntax error with `label`.
pub fn parse(label: &str, text: &str) -> Result<Value, String> {
    json::parse(text).map_err(|e| format!("{label}: {e}"))
}

/// Diffs benchmark files given as `(prefix, baseline, current)`, where
/// `None` means the file is absent on that side. A baseline file the current
/// run lost fails every leaf it gates; a current file the baseline lacks
/// only notes a refresh. A comparison that judged nothing is an error, never
/// a vacuous pass.
pub fn diff_all(files: &[(&str, Option<&Value>, Option<&Value>)]) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    for &(prefix, baseline, current) in files {
        let Some(baseline) = baseline else {
            if current.is_some() {
                report.notes.push(format!(
                    "{prefix}: absent from the baseline, not compared — refresh out/baseline/"
                ));
            }
            continue;
        };
        let same_hw = current.is_some_and(|c| same_hardware(baseline, c));
        if current.is_some() && !same_hw {
            report.notes.push(format!(
                "{prefix}: available_parallelism differs from the baseline; absolute leaves skipped, \
                 ratios gated at the loosened tolerance"
            ));
        }
        let (mut base_leaves, mut current_leaves) = (Vec::new(), Vec::new());
        leaves(baseline, prefix, &mut base_leaves);
        if let Some(current) = current {
            leaves(current, prefix, &mut current_leaves);
        }
        for leaf in &base_leaves {
            let matching = current_leaves
                .iter()
                .find(|c| c.name == leaf.name && c.kind == leaf.kind)
                .map(|c| c.value);
            report.metrics.push(MetricDiff {
                name: leaf.name.clone(),
                kind: leaf.kind,
                verdict: judge(leaf.kind, leaf.value, matching, same_hw),
            });
        }
        for leaf in &current_leaves {
            if !base_leaves.iter().any(|b| b.name == leaf.name) {
                report.notes.push(format!(
                    "{}: not in the baseline, not compared — refresh out/baseline/",
                    leaf.name
                ));
            }
        }
    }
    if report.metrics.is_empty() {
        return Err(format!(
            "no gated leaves found — benchmark JSON schema drifted? notes: {}",
            report.notes.join("; ")
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::refresh;

    fn value(text: &str) -> Value {
        parse("test", text).expect("test JSON parses")
    }

    /// A one-file diff of `baseline` against `current`.
    fn run(baseline: &str, current: &str) -> DiffReport {
        diff_all(&[("t", Some(&value(baseline)), Some(&value(current)))]).expect("comparable")
    }

    fn status(report: &DiffReport, name: &str) -> Status {
        let row = report.metrics.iter().find(|m| m.name == name);
        row.unwrap_or_else(|| panic!("{name} not in\n{report}"))
            .verdict
            .status
            .clone()
    }

    #[test]
    fn the_noise_floor_boundary_is_exclusive() {
        // A runtime *at* the floor is signal: doubling from exactly 10ms fails.
        let report = run(
            r#"{"available_parallelism": 1, "r": {"runtime_s": 0.01}}"#,
            r#"{"available_parallelism": 1, "r": {"runtime_s": 0.02}}"#,
        );
        assert_eq!(status(&report, "t.r"), Status::Failed, "{report}");
        assert_eq!(report.exit_code(), 1);
        // Strictly under the floor on both sides: scheduler jitter, skipped.
        let report = run(
            r#"{"available_parallelism": 1, "r": {"runtime_s": 0.009}}"#,
            r#"{"available_parallelism": 1, "r": {"runtime_s": 0.00999}}"#,
        );
        assert!(matches!(status(&report, "t.r"), Status::Skipped(_)), "{report}");
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn ratio_within_the_loosened_cross_hardware_tolerance_passes() {
        // -33%: beyond the 25% same-hardware tolerance, within the 50% one.
        let base = r#"{"available_parallelism": 1, "s": {"ratio": 15.0}}"#;
        let cross = run(base, r#"{"available_parallelism": 4, "s": {"ratio": 10.0}}"#);
        assert_eq!(status(&cross, "t.s"), Status::Ok, "{cross}");
        assert!(cross.notes.iter().any(|n| n.contains("available_parallelism")));
        let same = run(base, r#"{"available_parallelism": 1, "s": {"ratio": 10.0}}"#);
        assert_eq!(status(&same, "t.s"), Status::Failed, "{same}");
        // A halving still fails across hardware.
        let halved = run(base, r#"{"available_parallelism": 4, "s": {"ratio": 7.0}}"#);
        assert_eq!(status(&halved, "t.s"), Status::Failed, "{halved}");
    }

    #[test]
    fn absolute_leaves_are_skipped_across_hardware_but_listed() {
        let report = run(
            r#"{"available_parallelism": 1, "rps": {"abs_throughput": 1000.0}}"#,
            r#"{"available_parallelism": 4, "rps": {"abs_throughput": 10.0}}"#,
        );
        assert!(matches!(status(&report, "t.rps"), Status::Skipped(_)), "{report}");
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn non_finite_values_fail() {
        let base = r#"{"available_parallelism": 1, "rps": {"abs_throughput": 1000.0}, "s": {"ratio": 2.0}}"#;
        let report = run(
            base,
            r#"{"available_parallelism": 4, "rps": {"abs_throughput": NaN}, "s": {"ratio": Infinity}}"#,
        );
        // Even across hardware, where the absolute leaf would be skipped.
        assert_eq!(status(&report, "t.rps"), Status::Failed, "{report}");
        assert_eq!(status(&report, "t.s"), Status::Failed, "{report}");
    }

    #[test]
    fn an_empty_metric_set_is_an_error() {
        // A plain bool is not a gated leaf.
        let bare = value(r#"{"available_parallelism": 1, "ok": true}"#);
        let err = diff_all(&[("t", Some(&bare), Some(&bare))]).unwrap_err();
        assert!(err.contains("no gated leaves"), "{err}");
        let err = diff_all(&[("t", None, None)]).unwrap_err();
        assert!(err.contains("no gated leaves"), "{err}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        let err = parse("baseline train_bench.json", "{").unwrap_err();
        assert!(err.contains("train_bench"), "{err}");
    }

    #[test]
    fn a_vanished_file_fails_every_leaf_it_gated() {
        let fig13 = value(r#"{"points": {"a@1": {"r": {"runtime_s": 0.5}}}}"#);
        let report = diff_all(&[("fig13", Some(&fig13), None)]).expect("comparable");
        assert_eq!(report.regressions().len(), 1, "{report}");
        assert_eq!(report.exit_code(), 1);
        // The reverse (a baseline recorded before the file existed) notes.
        let other = value(r#"{"a": {"attest": true}}"#);
        let report = diff_all(&[("t", Some(&other), Some(&other)), ("fig13", None, Some(&fig13))]).expect("comparable");
        assert_eq!(report.exit_code(), 0);
        assert!(
            report.notes.iter().any(|n| n.contains("absent from the baseline")),
            "{report}"
        );
    }

    #[test]
    fn a_failed_attestation_wins_over_a_regression() {
        let base = r#"{"available_parallelism": 1, "ok": {"attest": true}, "rps": {"abs_throughput": 100.0}}"#;
        let report = run(
            base,
            r#"{"available_parallelism": 1, "ok": {"attest": false}, "rps": {"abs_throughput": 10.0}}"#,
        );
        assert_eq!((report.failed_attestations().len(), report.regressions().len()), (1, 1));
        assert_eq!(report.exit_code(), 3);
        assert!(report.to_string().contains("ATTESTATION GATE: FAIL"), "{report}");
        // An attestation that is not a bool, or gone, fails too.
        for current in [r#"{"ok": {"attest": 1}}"#, r#"{"ok": true}"#, "{}"] {
            assert_eq!(run(base, current).exit_code(), 3, "{current}");
        }
    }

    #[test]
    fn a_leaf_only_the_current_run_has_is_a_note() {
        let report = run(
            r#"{"s": {"ratio": 1.0}}"#,
            r#"{"s": {"ratio": 1.0}, "new": {"threads=4": {"rps": {"abs_throughput": 9.0}}}}"#,
        );
        assert_eq!(report.exit_code(), 0);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.starts_with("t.new[threads=4].rps: not in the baseline")),
            "{report}"
        );
    }

    #[test]
    fn refresh_adopts_only_the_leaves_that_improved() {
        // a improved beyond tolerance, b slipped within it: b's floor holds,
        // and so does every plain field.
        let baseline = value(r#"{"available_parallelism": 1, "n": 5, "a": {"ratio": 100.0}, "b": {"ratio": 100.0}}"#);
        let current = value(r#"{"available_parallelism": 1, "n": 6, "a": {"ratio": 140.0}, "b": {"ratio": 80.0}}"#);
        let report = diff_all(&[("t", Some(&baseline), Some(&current))]).expect("comparable");
        assert_eq!((report.exit_code(), report.improvements().len()), (0, 1), "{report}");
        assert_eq!(
            refresh(&baseline, &current),
            value(r#"{"available_parallelism": 1, "n": 5, "a": {"ratio": 140.0}, "b": {"ratio": 100.0}}"#)
        );
        // Across hardware a ratio is adopted only beyond the loosened
        // tolerance, and the baseline's hardware stamp is kept.
        let cross = value(r#"{"available_parallelism": 2, "n": 5, "a": {"ratio": 160.0}, "b": {"ratio": 140.0}}"#);
        assert_eq!(
            refresh(&baseline, &cross),
            value(r#"{"available_parallelism": 1, "n": 5, "a": {"ratio": 160.0}, "b": {"ratio": 100.0}}"#)
        );
    }
}
