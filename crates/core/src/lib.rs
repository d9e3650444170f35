//! # learnrisk-core
//!
//! The paper's primary contribution: an interpretable and learnable risk model
//! for entity resolution (LearnRisk).
//!
//! * [`feature`] — risk features (one-sided rules + classifier output), prior
//!   expectation estimation and the per-pair feature inputs.
//! * [`distribution`] — normal / truncated-normal equivalence-probability
//!   distributions.
//! * [`portfolio`] — the investment-portfolio aggregation of feature
//!   distributions (Eq. 2–3), in two bit-identical layouts: the AoS
//!   reference path and the SoA [`portfolio::ComponentBlock`] hot path,
//!   whose fused chunk-order reduction autovectorizes.
//! * [`influence`] — the classifier-output influence function (Eq. 11).
//! * [`var`] — Value-at-Risk / CVaR risk metrics (Eq. 8–10).
//! * [`model`] — the [`model::LearnRiskModel`] with its learnable parameters
//!   and interpretation output.
//! * [`mod@train`] — pairwise learning-to-rank training with analytic gradients
//!   (Eq. 13–17), plus L1/L2 regularization.  The trainer's hot path is
//!   *lambda-factorized*: one forward and one gradient model evaluation per
//!   input per epoch (instead of four per ranking pair), parallelized with a
//!   bit-deterministic sharded reduction ([`train::EpochScratch`]). On one
//!   lane a warm epoch allocates nothing once the scratch has scored as many
//!   inputs as the epoch touches; two lanes add the worker pool's per-task
//!   boxes (`tests/epoch_allocations.rs` pins both).

#![warn(missing_docs)]

pub mod distribution;
pub mod feature;
pub mod influence;
pub mod model;
pub mod portfolio;
pub mod train;
pub mod var;

pub use distribution::{Normal, TruncatedNormal};
pub use feature::{build_input_from_row, build_inputs, metric_rows, rule_coverage, PairRiskInput, RiskFeatureSet};
pub use influence::InfluenceFunction;
pub use model::{FeatureContribution, LearnRiskModel, RiskModelConfig};
pub use portfolio::{
    aggregate, component_gradients, try_aggregate, ComponentBlock, ComponentGradients, GradientBlock,
    PortfolioComponent, PortfolioDistribution, PortfolioError,
};
pub use train::{
    default_train_threads, evaluate_auroc, flatten_params, loss_and_gradient, sample_rank_pairs, train,
    train_with_threads, unflatten_params, EpochScratch, RankPairSampler, RiskTrainConfig, TrainReport,
};
pub use var::{pair_risk, RiskMetric};
