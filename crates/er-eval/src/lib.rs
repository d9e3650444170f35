//! # er-eval
//!
//! Experiment pipelines that reproduce the paper's evaluation end to end.
//!
//! * [`pipeline`] — one pipeline run: classifier → risk features → risk model
//!   → AUROC of every risk method on the test split.
//! * [`ood`] — out-of-distribution workload construction (Figure 10).
//! * [`active`] — active learning with risk-driven instance selection
//!   (Figure 14).
//! * [`experiments`] — per-figure experiment runners (Table 2, Figures 9–14).
//! * [`serving`] — the train → export → load → score round trip onto the
//!   `er-serve` online engine.
//! * [`report`] — plain-text rendering of the results.

#![warn(missing_docs)]

pub mod active;
pub mod experiments;
pub mod ood;
pub mod pipeline;
pub mod report;
pub mod serving;

pub use active::{run_active_learning, ActiveLearningConfig, ActiveLearningCurve, SelectionStrategy};
pub use experiments::{
    run_fig10, run_fig10_workload, run_fig11, run_fig12, run_fig13, run_fig14, run_fig9, run_fig9_cell, run_table2,
    synthetic_classifier_probs, ExperimentConfig, OodWorkload, ScalabilityPoint, SensitivityPoint,
};
pub use ood::{project_workload, schemas_compatible};
pub use pipeline::{
    build_inputs_from_labeled, build_inputs_from_rows, run_pipeline, run_pipeline_on_splits, MethodResult,
    PipelineArtifacts, PipelineConfig, PipelineResult,
};
pub use report::{render_active_learning, render_auroc_table, render_scalability, render_sensitivity, render_table2};
pub use serving::{
    build_score_requests, export_and_load_engine, requests_from_rows, round_trip_engine, verify_round_trip,
};
