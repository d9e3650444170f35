//! Portfolio aggregation of risk-feature distributions (Eq. 2–3 of the paper).
//!
//! Each labeled pair is a *portfolio* whose component *stocks* are its risk
//! features.  The pair's equivalence-probability distribution is the weighted
//! aggregate of the feature distributions:
//!
//! ```text
//! μ_i  = Σ_j x_ij w_j μ_j   /  Σ_j x_ij w_j
//! σ_i² = Σ_j x_ij w_j² σ_j² / (Σ_j x_ij w_j)²
//! ```
//!
//! The division by the total active weight keeps μ a convex combination of the
//! feature expectations (and hence a valid probability); the paper's Eq. 2–3
//! assume the weights of the active features are already normalized — this
//! module performs that normalization explicitly.
//!
//! # Layouts and the canonical reduction order
//!
//! Aggregation is evaluated once per pair per forward/gradient pass, which
//! makes it the dominant per-input cost in both training and serving.  Two
//! layouts implement the *identical* arithmetic:
//!
//! * **AoS** — [`aggregate`] / [`component_gradients`] over
//!   `&[PortfolioComponent]`: the reference path, kept for interpretation
//!   output and as the bit-compared oracle in the property tests;
//! * **SoA** — [`ComponentBlock`]: weights, means and standard deviations in
//!   three separate contiguous `f64` slabs, reduced in one fused pass the
//!   compiler can autovectorize (contiguous lane-wide loads instead of
//!   strided struct gathers).
//!
//! Both reduce in the same canonical *chunk order*: [`LANES`] independent
//! lane accumulators over chunks of [`LANES`] components, the lanes combined
//! pairwise in a fixed tree, then the tail components folded in index order.
//! Because every accumulator chain performs the same operations in the same
//! order in both layouts, SoA results are bit-identical to AoS results — the
//! property suite in `crates/core/tests/portfolio_properties.rs` asserts
//! exactly that.

use serde::{Deserialize, Serialize};

/// Lane width of the canonical chunked reduction.  Four `f64` lanes fill a
/// 256-bit vector register (and two 128-bit ones on baseline x86-64), which
/// is what lets the compiler turn the lane loop into SIMD adds without any
/// nightly intrinsics.
pub const LANES: usize = 4;

// The pairwise lane-combination tree below requires a power-of-two width.
const _: () = assert!(LANES.is_power_of_two());

/// Combines the lane accumulators in a fixed pairwise tree (adjacent pairs,
/// then pairs of pairs) — the canonical order both layouts share.  Deriving
/// the tree from [`LANES`] (instead of spelling out four lanes) means
/// retuning the lane width for a wider ISA cannot silently drop lanes.
#[inline]
fn combine_lanes(lanes: [f64; LANES]) -> f64 {
    let mut vals = lanes;
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            vals[i] = vals[2 * i] + vals[2 * i + 1];
        }
    }
    vals[0]
}

/// One active feature of a pair's portfolio: its weight and distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PortfolioComponent {
    /// Feature weight `w_j > 0`.
    pub weight: f64,
    /// Feature expectation `μ_j ∈ [0, 1]`.
    pub mean: f64,
    /// Feature standard deviation `σ_j ≥ 0`.
    pub std: f64,
}

/// The aggregated distribution of a pair plus the intermediate sums needed for
/// analytic gradients during training.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PortfolioDistribution {
    /// Aggregated expectation μ_i.
    pub mean: f64,
    /// Aggregated variance σ_i².
    pub variance: f64,
    /// Sum of active weights `s = Σ x_ij w_j`.
    pub weight_sum: f64,
}

impl PortfolioDistribution {
    /// Aggregated standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// Why a portfolio could not be aggregated.
///
/// The panicking [`aggregate`] paths are fine for trusted in-process data,
/// but the serving engine scores externally supplied artifacts and requests,
/// where a malformed portfolio must degrade to a request error instead of
/// killing a worker thread — that path uses [`try_aggregate`] /
/// [`ComponentBlock::try_aggregate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PortfolioError {
    /// The portfolio has no components.
    Empty,
    /// The total active weight is not `> 0` (zero, negative, or NaN).
    NonPositiveWeight {
        /// The offending total weight.
        weight_sum: f64,
    },
}

impl std::fmt::Display for PortfolioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortfolioError::Empty => write!(f, "a portfolio needs at least one component"),
            PortfolioError::NonPositiveWeight { weight_sum } => {
                write!(f, "total portfolio weight must be positive, got {weight_sum}")
            }
        }
    }
}

impl std::error::Error for PortfolioError {}

/// Canonical chunk-order sum of `f(component)` over an AoS slice: [`LANES`]
/// lane accumulators over full chunks, lanes combined in a fixed pairwise
/// tree, tail folded in index order.  The SoA kernels perform the identical
/// chains, which is what makes the two layouts bit-comparable.
#[inline]
fn chunked_sum(components: &[PortfolioComponent], f: impl Fn(&PortfolioComponent) -> f64) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut chunks = components.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, c) in lanes.iter_mut().zip(chunk) {
            *lane += f(c);
        }
    }
    let mut total = combine_lanes(lanes);
    for c in chunks.remainder() {
        total += f(c);
    }
    total
}

/// Builds the aggregate from the three canonical sums.
#[inline]
fn distribution_from_sums(weight_sum: f64, weighted_mean_sum: f64, weighted_var_sum: f64) -> PortfolioDistribution {
    PortfolioDistribution {
        mean: weighted_mean_sum / weight_sum,
        variance: weighted_var_sum / (weight_sum * weight_sum),
        weight_sum,
    }
}

/// Aggregates the component distributions of a pair (AoS reference path).
///
/// # Panics
/// Panics when `components` is empty or the total weight is not positive.
/// [`try_aggregate`] is the non-panicking form.
#[inline]
pub fn aggregate(components: &[PortfolioComponent]) -> PortfolioDistribution {
    match try_aggregate(components) {
        Ok(distribution) => distribution,
        Err(PortfolioError::Empty) => panic!("a portfolio needs at least one component"),
        Err(PortfolioError::NonPositiveWeight { .. }) => panic!("total portfolio weight must be positive"),
    }
}

/// Fallible [`aggregate`]: an empty portfolio or a non-positive total weight
/// becomes a [`PortfolioError`] instead of a panic.
#[inline]
pub fn try_aggregate(components: &[PortfolioComponent]) -> Result<PortfolioDistribution, PortfolioError> {
    if components.is_empty() {
        return Err(PortfolioError::Empty);
    }
    let weight_sum = chunked_sum(components, |c| c.weight);
    // NaN compares Greater to nothing, so a poisoned sum also lands here.
    if weight_sum.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(PortfolioError::NonPositiveWeight { weight_sum });
    }
    let weighted_mean_sum = chunked_sum(components, |c| c.weight * c.mean);
    let weighted_var_sum = chunked_sum(components, |c| c.weight * c.weight * c.std * c.std);
    Ok(distribution_from_sums(weight_sum, weighted_mean_sum, weighted_var_sum))
}

/// Gradients of the aggregated `(μ_i, σ_i)` with respect to one component's
/// weight, mean and standard deviation.  Used by the risk-model trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentGradients {
    /// ∂μ_i / ∂w_j
    pub d_mean_d_weight: f64,
    /// ∂σ_i / ∂w_j
    pub d_std_d_weight: f64,
    /// ∂σ_i / ∂σ_j
    pub d_std_d_component_std: f64,
    /// ∂μ_i / ∂μ_j
    pub d_mean_d_component_mean: f64,
}

/// The per-portfolio constants of the canonical gradient formulas: the
/// divisions of the textbook forms are hoisted into three reciprocals
/// computed once per aggregate, leaving the per-component terms
/// multiply-only (≈5 divisions per component in the pre-SoA formulas, the
/// dominant cost of the gradient pass).  Both layouts derive the identical
/// constants from the identical aggregate, so hoisting preserves the
/// AoS-vs-SoA bit-exactness guarantee.
#[derive(Debug, Clone, Copy)]
struct GradientConstants {
    inv_s: f64,
    inv_ss: f64,
    inv_two_sigma: f64,
}

impl GradientConstants {
    #[inline]
    fn of(aggregate: &PortfolioDistribution) -> Self {
        let inv_s = 1.0 / aggregate.weight_sum;
        Self {
            inv_s,
            inv_ss: inv_s * inv_s,
            inv_two_sigma: 1.0 / (2.0 * aggregate.std().max(1e-9)),
        }
    }
}

/// The gradient formulas, shared verbatim by the AoS and SoA paths so the
/// two layouts produce bit-identical derivatives.
#[inline]
fn gradients_for(
    weight: f64,
    mean: f64,
    std: f64,
    aggregate: &PortfolioDistribution,
    k: GradientConstants,
) -> ComponentGradients {
    let s = aggregate.weight_sum;
    // μ_i = Σ w μ / s  ⇒  ∂μ_i/∂w_j = (μ_j - μ_i) / s.
    let d_mean_d_weight = (mean - aggregate.mean) * k.inv_s;
    // σ_i² = A / s² with A = Σ w² σ² ⇒
    // ∂σ_i²/∂w_j = 2 w_j σ_j² / s² − 2 A / s³ = 2 (w_j σ_j² − s σ_i²) / s²,
    // and ∂σ_i/∂w_j = ∂σ_i²/∂w_j / (2 σ_i).
    let d_std_d_weight = 2.0 * (weight * std * std - s * aggregate.variance) * k.inv_ss * k.inv_two_sigma;
    // ∂σ_i²/∂σ_j = 2 w_j² σ_j / s²  ⇒  ∂σ_i/∂σ_j = ∂σ_i²/∂σ_j / (2 σ_i).
    let d_std_d_component_std = 2.0 * weight * weight * std * k.inv_ss * k.inv_two_sigma;
    // ∂μ_i/∂μ_j = w_j / s.
    let d_mean_d_component_mean = weight * k.inv_s;
    ComponentGradients {
        d_mean_d_weight,
        d_std_d_weight,
        d_std_d_component_std,
        d_mean_d_component_mean,
    }
}

/// Computes the gradients of the aggregate with respect to component `j`
/// (AoS reference path).
#[inline]
pub fn component_gradients(
    components: &[PortfolioComponent],
    aggregate: &PortfolioDistribution,
    j: usize,
) -> ComponentGradients {
    let c = components[j];
    gradients_for(c.weight, c.mean, c.std, aggregate, GradientConstants::of(aggregate))
}

/// A portfolio in structure-of-arrays layout: weights, means and standard
/// deviations in three separate contiguous `f64` slabs.
///
/// This is the hot-path form of a component list: the trainer's forward and
/// gradient passes and the serving engine fill a reusable block per pair and
/// aggregate it with [`ComponentBlock::aggregate`], whose fused chunked
/// reduction the compiler autovectorizes.  All arithmetic is bit-identical
/// to the AoS reference ([`aggregate`] / [`component_gradients`]); see the
/// module docs for the canonical reduction order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentBlock {
    weights: Vec<f64>,
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl ComponentBlock {
    /// Creates an empty block; the slabs grow on first fill and are reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a block with pre-allocated slab capacity.
    pub fn with_capacity(components: usize) -> Self {
        Self {
            weights: Vec::with_capacity(components),
            means: Vec::with_capacity(components),
            stds: Vec::with_capacity(components),
        }
    }

    /// Removes every component, keeping the slab allocations.
    pub fn clear(&mut self) {
        self.weights.clear();
        self.means.clear();
        self.stds.clear();
    }

    /// Reserves slab capacity for at least `additional` more components.
    pub fn reserve(&mut self, additional: usize) {
        self.weights.reserve(additional);
        self.means.reserve(additional);
        self.stds.reserve(additional);
    }

    /// Appends one component.
    #[inline]
    pub fn push(&mut self, weight: f64, mean: f64, std: f64) {
        self.weights.push(weight);
        self.means.push(mean);
        self.stds.push(std);
    }

    /// Number of components in the block.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the block holds no components.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight slab.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The expectation slab.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The standard-deviation slab.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Component `j` in AoS form (for interpretation and tests; the hot paths
    /// read the slabs directly).
    pub fn component(&self, j: usize) -> PortfolioComponent {
        PortfolioComponent {
            weight: self.weights[j],
            mean: self.means[j],
            std: self.stds[j],
        }
    }

    /// Refills the block from an AoS component list (cleared first).
    pub fn copy_from(&mut self, components: &[PortfolioComponent]) {
        self.clear();
        self.reserve(components.len());
        for c in components {
            self.push(c.weight, c.mean, c.std);
        }
    }

    /// The canonical chunked sums: `(Σ w, Σ w μ, Σ w² σ²)` in one fused pass
    /// over the three slabs.  Each accumulator chain is identical to the AoS
    /// [`chunked_sum`] chain for the corresponding quantity, so the fusion
    /// changes memory traffic but not one bit of the result.
    #[inline]
    fn fused_sums(&self) -> (f64, f64, f64) {
        let mut weight_lanes = [0.0f64; LANES];
        let mut mean_lanes = [0.0f64; LANES];
        let mut var_lanes = [0.0f64; LANES];
        let mut weight_chunks = self.weights.chunks_exact(LANES);
        let mut mean_chunks = self.means.chunks_exact(LANES);
        let mut std_chunks = self.stds.chunks_exact(LANES);
        for ((w4, m4), s4) in (&mut weight_chunks).zip(&mut mean_chunks).zip(&mut std_chunks) {
            for lane in 0..LANES {
                let w = w4[lane];
                weight_lanes[lane] += w;
                mean_lanes[lane] += w * m4[lane];
                var_lanes[lane] += w * w * s4[lane] * s4[lane];
            }
        }
        let mut weight_sum = combine_lanes(weight_lanes);
        let mut weighted_mean_sum = combine_lanes(mean_lanes);
        let mut weighted_var_sum = combine_lanes(var_lanes);
        for ((&w, &m), &s) in weight_chunks
            .remainder()
            .iter()
            .zip(mean_chunks.remainder())
            .zip(std_chunks.remainder())
        {
            weight_sum += w;
            weighted_mean_sum += w * m;
            weighted_var_sum += w * w * s * s;
        }
        (weight_sum, weighted_mean_sum, weighted_var_sum)
    }

    /// Aggregates the block (SoA fast path, bit-identical to [`aggregate`]).
    ///
    /// # Panics
    /// Panics when the block is empty or the total weight is not positive;
    /// [`ComponentBlock::try_aggregate`] is the non-panicking form.
    #[inline]
    pub fn aggregate(&self) -> PortfolioDistribution {
        match self.try_aggregate() {
            Ok(distribution) => distribution,
            Err(PortfolioError::Empty) => panic!("a portfolio needs at least one component"),
            Err(PortfolioError::NonPositiveWeight { .. }) => panic!("total portfolio weight must be positive"),
        }
    }

    /// Fallible [`ComponentBlock::aggregate`]: an empty block or non-positive
    /// total weight becomes a [`PortfolioError`] instead of a panic.  The
    /// serving request path uses this so a malformed artifact or request
    /// degrades to an error response.
    #[inline]
    pub fn try_aggregate(&self) -> Result<PortfolioDistribution, PortfolioError> {
        if self.is_empty() {
            return Err(PortfolioError::Empty);
        }
        let (weight_sum, weighted_mean_sum, weighted_var_sum) = self.fused_sums();
        // NaN compares Greater to nothing, so a poisoned sum also lands here.
        if weight_sum.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(PortfolioError::NonPositiveWeight { weight_sum });
        }
        Ok(distribution_from_sums(weight_sum, weighted_mean_sum, weighted_var_sum))
    }

    /// Gradients of the aggregate with respect to component `j` — the same
    /// scalar formulas as the AoS [`component_gradients`], reading the slabs.
    #[inline]
    pub fn component_gradients(&self, aggregate: &PortfolioDistribution, j: usize) -> ComponentGradients {
        gradients_for(
            self.weights[j],
            self.means[j],
            self.stds[j],
            aggregate,
            GradientConstants::of(aggregate),
        )
    }

    /// Computes the gradient terms of *every* component in one elementwise
    /// pass into `out` (cleared and resized first).  Each element applies the
    /// exact per-component formulas of [`component_gradients`] — including
    /// the hoisted per-portfolio reciprocals, so the loop body is
    /// multiply-only — making the bulk pass bit-identical to `len()` scalar
    /// calls while letting the compiler vectorize the slab arithmetic; the
    /// trainer's gradient pass consumes the terms from here.
    pub fn component_gradients_into(&self, aggregate: &PortfolioDistribution, out: &mut GradientBlock) {
        let n = self.len();
        out.resize(n);
        let k = GradientConstants::of(aggregate);
        let (mean_i, var_i, s) = (aggregate.mean, aggregate.variance, aggregate.weight_sum);
        // Explicit equal-length subslices let the compiler drop the bounds
        // checks and vectorize the multiply-only loop body.
        let (weights, means, stds) = (&self.weights[..n], &self.means[..n], &self.stds[..n]);
        let d_mean_d_weight = &mut out.d_mean_d_weight[..n];
        let d_std_d_weight = &mut out.d_std_d_weight[..n];
        let d_std_d_component_std = &mut out.d_std_d_component_std[..n];
        let d_mean_d_component_mean = &mut out.d_mean_d_component_mean[..n];
        for j in 0..n {
            let (w, m, sd) = (weights[j], means[j], stds[j]);
            d_mean_d_weight[j] = (m - mean_i) * k.inv_s;
            d_std_d_weight[j] = 2.0 * (w * sd * sd - s * var_i) * k.inv_ss * k.inv_two_sigma;
            d_std_d_component_std[j] = 2.0 * w * w * sd * k.inv_ss * k.inv_two_sigma;
            d_mean_d_component_mean[j] = w * k.inv_s;
        }
    }
}

/// Per-component gradient terms of a whole portfolio in SoA layout — the
/// output of [`ComponentBlock::component_gradients_into`], one slab per
/// [`ComponentGradients`] field.
#[derive(Debug, Clone, Default)]
pub struct GradientBlock {
    /// ∂μ_i / ∂w_j per component.
    pub d_mean_d_weight: Vec<f64>,
    /// ∂σ_i / ∂w_j per component.
    pub d_std_d_weight: Vec<f64>,
    /// ∂σ_i / ∂σ_j per component.
    pub d_std_d_component_std: Vec<f64>,
    /// ∂μ_i / ∂μ_j per component.
    pub d_mean_d_component_mean: Vec<f64>,
}

impl GradientBlock {
    /// Creates an empty block; the slabs grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of components the block currently holds terms for.
    pub fn len(&self) -> usize {
        self.d_mean_d_weight.len()
    }

    /// Whether the block holds no terms.
    pub fn is_empty(&self) -> bool {
        self.d_mean_d_weight.is_empty()
    }

    /// The terms of component `j` in scalar form.
    pub fn gradients(&self, j: usize) -> ComponentGradients {
        ComponentGradients {
            d_mean_d_weight: self.d_mean_d_weight[j],
            d_std_d_weight: self.d_std_d_weight[j],
            d_std_d_component_std: self.d_std_d_component_std[j],
            d_mean_d_component_mean: self.d_mean_d_component_mean[j],
        }
    }

    fn resize(&mut self, n: usize) {
        for slab in [
            &mut self.d_mean_d_weight,
            &mut self.d_std_d_weight,
            &mut self.d_std_d_component_std,
            &mut self.d_mean_d_component_mean,
        ] {
            // The caller overwrites every element, so same-size reuse (the
            // common case across a gradient pass) must not pay a zero-fill.
            if slab.len() != n {
                slab.resize(n, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Vec<PortfolioComponent> {
        vec![
            PortfolioComponent {
                weight: 1.0,
                mean: 0.9,
                std: 0.05,
            },
            PortfolioComponent {
                weight: 2.0,
                mean: 0.1,
                std: 0.20,
            },
            PortfolioComponent {
                weight: 0.5,
                mean: 0.5,
                std: 0.10,
            },
        ]
    }

    fn block_of(components: &[PortfolioComponent]) -> ComponentBlock {
        let mut block = ComponentBlock::new();
        block.copy_from(components);
        block
    }

    #[test]
    fn aggregate_is_a_weighted_average() {
        let agg = aggregate(&example());
        let expected_mean = (1.0 * 0.9 + 2.0 * 0.1 + 0.5 * 0.5) / 3.5;
        assert!((agg.mean - expected_mean).abs() < 1e-12);
        let expected_var = (1.0 * 0.0025 + 4.0 * 0.04 + 0.25 * 0.01) / (3.5 * 3.5);
        assert!((agg.variance - expected_var).abs() < 1e-12);
        assert!((agg.weight_sum - 3.5).abs() < 1e-12);
        assert!((agg.std() - expected_var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn aggregate_mean_stays_in_unit_interval() {
        let agg = aggregate(&example());
        assert!((0.0..=1.0).contains(&agg.mean));
        // Single component: aggregate equals the component.
        let single = aggregate(&[PortfolioComponent {
            weight: 3.0,
            mean: 0.7,
            std: 0.2,
        }]);
        assert!((single.mean - 0.7).abs() < 1e-12);
        assert!((single.std() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn higher_weight_pulls_mean_toward_component() {
        let mut comps = example();
        let before = aggregate(&comps).mean;
        comps[0].weight = 10.0; // component with mean 0.9
        let after = aggregate(&comps).mean;
        assert!(after > before);
    }

    #[test]
    fn soa_aggregate_is_bit_identical_to_aos() {
        // Lengths straddling the lane width exercise the full-chunk loop, the
        // fixed lane-combination tree and the tail fold.
        for n in 1..=3 * LANES + 1 {
            let comps: Vec<PortfolioComponent> = (0..n)
                .map(|i| PortfolioComponent {
                    weight: 0.3 + 0.7 * i as f64,
                    mean: (i as f64 * 0.37).fract(),
                    std: (i as f64 * 0.11).fract() * 0.5,
                })
                .collect();
            let aos = aggregate(&comps);
            let soa = block_of(&comps).aggregate();
            assert_eq!(aos.mean.to_bits(), soa.mean.to_bits(), "n = {n}");
            assert_eq!(aos.variance.to_bits(), soa.variance.to_bits(), "n = {n}");
            assert_eq!(aos.weight_sum.to_bits(), soa.weight_sum.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn soa_gradients_are_bit_identical_to_aos() {
        let comps: Vec<PortfolioComponent> = (0..11)
            .map(|i| PortfolioComponent {
                weight: 0.1 + i as f64,
                mean: (i as f64 * 0.29).fract(),
                std: 0.05 + (i as f64 * 0.13).fract() * 0.3,
            })
            .collect();
        let agg = aggregate(&comps);
        let block = block_of(&comps);
        let mut bulk = GradientBlock::new();
        block.component_gradients_into(&agg, &mut bulk);
        assert_eq!(bulk.len(), comps.len());
        for j in 0..comps.len() {
            let aos = component_gradients(&comps, &agg, j);
            let soa = block.component_gradients(&agg, j);
            assert_eq!(aos, soa, "scalar SoA gradients diverged at j = {j}");
            assert_eq!(aos, bulk.gradients(j), "bulk SoA gradients diverged at j = {j}");
        }
    }

    #[test]
    fn block_reuse_is_stateless() {
        let mut block = ComponentBlock::with_capacity(8);
        block.copy_from(&example());
        let first = block.aggregate();
        block.copy_from(&example());
        let again = block.aggregate();
        assert_eq!(first.mean.to_bits(), again.mean.to_bits());
        assert_eq!(block.len(), 3);
        assert_eq!(block.component(1).weight, 2.0);
        block.clear();
        assert!(block.is_empty());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let comps = example();
        let agg = aggregate(&comps);
        let eps = 1e-6;
        for j in 0..comps.len() {
            let grads = component_gradients(&comps, &agg, j);
            // Weight perturbation.
            let mut plus = comps.clone();
            plus[j].weight += eps;
            let mut minus = comps.clone();
            minus[j].weight -= eps;
            let num_mean = (aggregate(&plus).mean - aggregate(&minus).mean) / (2.0 * eps);
            let num_std = (aggregate(&plus).std() - aggregate(&minus).std()) / (2.0 * eps);
            assert!((num_mean - grads.d_mean_d_weight).abs() < 1e-5, "j={j}");
            assert!((num_std - grads.d_std_d_weight).abs() < 1e-5, "j={j}");
            // Component std perturbation.
            let mut plus = comps.clone();
            plus[j].std += eps;
            let mut minus = comps.clone();
            minus[j].std -= eps;
            let num = (aggregate(&plus).std() - aggregate(&minus).std()) / (2.0 * eps);
            assert!((num - grads.d_std_d_component_std).abs() < 1e-5, "j={j}");
            // Component mean perturbation.
            let mut plus = comps.clone();
            plus[j].mean += eps;
            let mut minus = comps.clone();
            minus[j].mean -= eps;
            let num = (aggregate(&plus).mean - aggregate(&minus).mean) / (2.0 * eps);
            assert!((num - grads.d_mean_d_component_mean).abs() < 1e-5, "j={j}");
        }
    }

    #[test]
    fn try_aggregate_reports_empty_and_non_positive_portfolios() {
        assert_eq!(try_aggregate(&[]), Err(PortfolioError::Empty));
        assert_eq!(ComponentBlock::new().try_aggregate(), Err(PortfolioError::Empty));
        let zero = [PortfolioComponent {
            weight: 0.0,
            mean: 0.5,
            std: 0.1,
        }];
        assert!(matches!(
            try_aggregate(&zero),
            Err(PortfolioError::NonPositiveWeight { weight_sum }) if weight_sum == 0.0
        ));
        assert!(matches!(
            block_of(&zero).try_aggregate(),
            Err(PortfolioError::NonPositiveWeight { weight_sum }) if weight_sum == 0.0
        ));
        // NaN weights poison the sum: also a non-positive-weight error.
        let nan = [PortfolioComponent {
            weight: f64::NAN,
            mean: 0.5,
            std: 0.1,
        }];
        assert!(matches!(
            try_aggregate(&nan),
            Err(PortfolioError::NonPositiveWeight { .. })
        ));
        // Error messages stay descriptive for request-level reporting.
        assert!(PortfolioError::Empty.to_string().contains("at least one component"));
        assert!(PortfolioError::NonPositiveWeight { weight_sum: -1.0 }
            .to_string()
            .contains("positive"));
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_portfolio_panics() {
        aggregate(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_portfolio_panics() {
        aggregate(&[PortfolioComponent {
            weight: 0.0,
            mean: 0.5,
            std: 0.1,
        }]);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_block_panics() {
        ComponentBlock::new().aggregate();
    }
}
