//! # learnrisk-repro
//!
//! A from-scratch Rust reproduction of *"Towards Interpretable and Learnable
//! Risk Analysis for Entity Resolution"* (SIGMOD 2020).
//!
//! This façade crate re-exports the workspace crates so that downstream users
//! can depend on a single crate:
//!
//! * [`base`] (`er-base`) — records, pairs, workloads, ROC/AUROC metrics.
//! * [`similarity`] (`er-similarity`) — similarity and difference metrics.
//! * [`datasets`] (`er-datasets`) — synthetic benchmark generators + blocking.
//! * [`classifier`] (`er-classifier`) — the DeepMatcher-substitute matchers.
//! * [`rulegen`] (`er-rulegen`) — one-sided decision-tree rule generation.
//! * [`core`] (`learnrisk-core`) — the LearnRisk risk model itself.
//! * [`pool`] (`er-pool`) — the persistent work-stealing worker pool the
//!   scoring executor and the trainer share.
//! * [`baselines`] (`er-baselines`) — Baseline, Uncertainty, TrustScore,
//!   StaticRisk and the HoloClean adaptation.
//! * [`eval`] (`er-eval`) — end-to-end experiment pipelines for every table
//!   and figure of the paper.
//! * [`serve`] (`er-serve`) — the online serving layer: versioned model
//!   artifacts, the compiled rule index, the sharded scoring executor, the
//!   HTTP/1.1 front-end with micro-batching and backpressure, versioned
//!   artifact hot-reload and the Zipf traffic generator.
//!
//! See the `examples/` directory for runnable end-to-end walkthroughs and
//! `EXPERIMENTS.md` for the measured reproduction results.

#![warn(missing_docs)]

pub use er_base as base;
pub use er_baselines as baselines;
pub use er_classifier as classifier;
pub use er_datasets as datasets;
pub use er_eval as eval;
pub use er_pool as pool;
pub use er_rulegen as rulegen;
pub use er_serve as serve;
pub use er_similarity as similarity;
pub use learnrisk_core as core;
