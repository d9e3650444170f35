//! Plain-text reporting of experiment results.
//!
//! The benchmark binaries print these tables so that the rows/series the paper
//! reports can be regenerated and compared at a glance (and pasted into
//! `EXPERIMENTS.md`).

use crate::active::ActiveLearningCurve;
use crate::experiments::{ScalabilityPoint, SensitivityPoint};
use crate::pipeline::PipelineResult;
use er_datasets::Table2Row;
use std::fmt::Write as _;

/// Renders the Table 2 reproduction.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 2 — dataset statistics (paper vs generated)");
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>12} {:>8}   {:>12} {:>12} {:>8}",
        "Dataset", "paper size", "paper match", "attrs", "gen size", "gen match", "attrs"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:>12} {:>12} {:>8}   {:>12} {:>12} {:>8}",
            r.dataset,
            r.paper_size,
            r.paper_matches,
            r.paper_attributes,
            r.generated_size,
            r.generated_matches,
            r.generated_attributes
        );
    }
    s
}

/// Renders a block of pipeline results (Figure 9 / 10 / 11 style): one row per
/// dataset×ratio, one column per risk method.
pub fn render_auroc_table(title: &str, results: &[PipelineResult]) -> String {
    let mut methods: Vec<String> = Vec::new();
    for r in results {
        for m in &r.methods {
            if !methods.contains(&m.method) {
                methods.push(m.method.clone());
            }
        }
    }
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "{:<10} {:<8} {:>6} {:>6}", "Dataset", "Ratio", "F1", "#mis");
    for m in &methods {
        let _ = write!(s, " {m:>12}");
    }
    let _ = writeln!(s);
    for r in results {
        let _ = write!(
            s,
            "{:<10} {:<8} {:>6.3} {:>6}",
            r.dataset, r.ratio, r.classifier_f1, r.test_mislabeled
        );
        for m in &methods {
            match r.auroc_of(m) {
                Some(a) => {
                    let _ = write!(s, " {a:>12.3}");
                }
                None => {
                    let _ = write!(s, " {:>12}", "-");
                }
            }
        }
        let _ = writeln!(s);
    }
    s
}

/// Renders the Figure 12 sensitivity points.
pub fn render_sensitivity(points: &[SensitivityPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 12 — LearnRisk AUROC vs risk-training data size");
    let _ = writeln!(s, "{:<10} {:<8} {:>8} {:>8}", "Dataset", "Mode", "Size", "AUROC");
    for p in points {
        let _ = writeln!(s, "{:<10} {:<8} {:>8} {:>8.3}", p.dataset, p.mode, p.size, p.auroc);
    }
    s
}

/// Renders the Figure 13 scalability points.
pub fn render_scalability(points: &[ScalabilityPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 13 — runtime vs training-data size");
    let _ = writeln!(s, "{:<20} {:>10} {:>12}", "Stage", "Size", "Runtime (s)");
    for p in points {
        let _ = writeln!(s, "{:<20} {:>10} {:>12.3}", p.stage, p.training_size, p.runtime_secs);
    }
    s
}

/// Renders the Figure 14 active-learning curves.
pub fn render_active_learning(curves: &[ActiveLearningCurve]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 14 — active learning: F1 vs number of labeled pairs");
    for c in curves {
        let _ = write!(s, "{:<16}", c.strategy);
        for p in &c.points {
            let _ = write!(s, " {}:{:.3}", p.labeled, p.f1);
        }
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::ActiveLearningPoint;
    use crate::pipeline::MethodResult;

    fn result(dataset: &str, auroc: f64) -> PipelineResult {
        PipelineResult {
            dataset: dataset.into(),
            ratio: "3:2:5".into(),
            classifier_f1: 0.8,
            test_size: 100,
            test_mislabeled: 12,
            rule_count: 30,
            methods: vec![
                MethodResult {
                    method: "Baseline".into(),
                    auroc: 0.7,
                    scores: vec![],
                },
                MethodResult {
                    method: "LearnRisk".into(),
                    auroc,
                    scores: vec![],
                },
            ],
            rule_generation_secs: 0.1,
            risk_training_secs: 0.2,
        }
    }

    #[test]
    fn auroc_table_contains_all_methods_and_rows() {
        let table = render_auroc_table("Figure 9", &[result("DS", 0.97), result("AB", 0.95)]);
        assert!(table.contains("Figure 9"));
        assert!(table.contains("Baseline"));
        assert!(table.contains("LearnRisk"));
        assert!(table.contains("DS"));
        assert!(table.contains("AB"));
        assert!(table.contains("0.970"));
    }

    #[test]
    fn table2_rendering_includes_each_dataset() {
        let rows = vec![Table2Row {
            dataset: "DS".into(),
            paper_size: 41416,
            paper_matches: 5073,
            paper_attributes: 4,
            generated_size: 800,
            generated_matches: 96,
            generated_attributes: 4,
        }];
        let text = render_table2(&rows);
        assert!(text.contains("41416"));
        assert!(text.contains("DS"));
    }

    #[test]
    fn sensitivity_and_scalability_render() {
        let sens = render_sensitivity(&[SensitivityPoint {
            dataset: "DS".into(),
            mode: "random".into(),
            size: 5,
            auroc: 0.96,
        }]);
        assert!(sens.contains("random"));
        let scal = render_scalability(&[
            ScalabilityPoint {
                stage: "rule_generation".into(),
                training_size: 2000,
                runtime_secs: 1.5,
            },
            ScalabilityPoint {
                stage: "risk_training[t2]".into(),
                training_size: 2000,
                runtime_secs: 0.004,
            },
        ]);
        assert!(scal.contains("rule_generation"));
        assert!(scal.contains("2000"));
        assert!(scal.contains("risk_training[t2]"));
        assert!(scal.contains("0.004"));
    }

    #[test]
    fn active_learning_rendering() {
        let curves = vec![ActiveLearningCurve {
            strategy: "LearnRisk".into(),
            points: vec![
                ActiveLearningPoint { labeled: 128, f1: 0.5 },
                ActiveLearningPoint { labeled: 192, f1: 0.6 },
            ],
        }];
        let text = render_active_learning(&curves);
        assert!(text.contains("LearnRisk"));
        assert!(text.contains("128:0.500"));
    }
}
