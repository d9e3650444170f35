//! The LearnRisk model: learnable parameters, risk scoring and interpretation.

use crate::distribution::{Normal, TruncatedNormal};
use crate::feature::{PairRiskInput, RiskFeatureSet};
use crate::influence::InfluenceFunction;
use crate::portfolio::{aggregate, ComponentBlock, PortfolioComponent, PortfolioDistribution, PortfolioError};
use crate::var::{pair_risk, training_risk_score, RiskMetric};
use er_base::stats::std_normal_quantile;
use serde::{Deserialize, Serialize};

/// Static configuration of a LearnRisk model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RiskModelConfig {
    /// VaR confidence level θ (the paper uses 0.9).
    pub theta: f64,
    /// Risk metric (VaR in the paper; CVaR / expectation available for
    /// ablations).
    pub metric: RiskMetric,
    /// Number of classifier-output buckets, each with its own learnable RSD.
    pub output_buckets: usize,
    /// Initial Relative Standard Deviation of rule features.
    pub initial_rule_rsd: f64,
    /// Initial RSD of the classifier-output feature buckets.
    pub initial_output_rsd: f64,
    /// Initial weight of every rule feature.
    pub initial_rule_weight: f64,
}

impl Default for RiskModelConfig {
    fn default() -> Self {
        Self {
            theta: 0.9,
            metric: RiskMetric::ValueAtRisk,
            output_buckets: 10,
            initial_rule_rsd: 0.3,
            initial_output_rsd: 0.3,
            initial_rule_weight: 1.0,
        }
    }
}

/// Contribution of one feature to a pair's risk, for interpretation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureContribution {
    /// Human-readable description of the feature.
    pub description: String,
    /// Weight of the feature in the pair's portfolio.
    pub weight: f64,
    /// Expectation of the feature distribution.
    pub expectation: f64,
    /// Standard deviation of the feature distribution.
    pub std: f64,
}

/// The learnable risk model (Sections 4.2, 6 of the paper).
///
/// Parameters:
/// * one weight `w_j` per rule feature (learnable),
/// * one RSD per rule feature, giving `σ_j = RSD_j · μ_j` (learnable),
/// * the influence-function shape `(α, β)` of the classifier-output feature
///   (learnable),
/// * one RSD per classifier-output bucket (learnable),
/// * the rule expectations `μ_j`, treated as prior knowledge from the
///   classifier-training data (fixed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnRiskModel {
    /// The rule feature set with prior expectations.
    pub features: RiskFeatureSet,
    /// Learnable weight of each rule feature.
    pub rule_weights: Vec<f64>,
    /// Learnable RSD of each rule feature.
    pub rule_rsd: Vec<f64>,
    /// Learnable influence function of the classifier-output feature.
    pub influence: InfluenceFunction,
    /// Learnable RSD of each classifier-output bucket.
    pub output_rsd: Vec<f64>,
    /// Static configuration.
    pub config: RiskModelConfig,
}

impl LearnRiskModel {
    /// Creates a model with initial parameters from a feature set.
    pub fn new(features: RiskFeatureSet, config: RiskModelConfig) -> Self {
        let n = features.len();
        Self {
            rule_weights: vec![config.initial_rule_weight; n],
            rule_rsd: vec![config.initial_rule_rsd; n],
            influence: InfluenceFunction::default(),
            output_rsd: vec![config.initial_output_rsd; config.output_buckets.max(1)],
            features,
            config,
        }
    }

    /// The z-score of the VaR confidence level, used by the differentiable
    /// training score.
    pub fn z_theta(&self) -> f64 {
        std_normal_quantile(self.config.theta)
    }

    /// Bucket index of a classifier output.
    pub fn output_bucket(&self, output: f64) -> usize {
        let k = self.output_rsd.len();
        ((output.clamp(0.0, 1.0) * k as f64) as usize).min(k - 1)
    }

    /// Builds the portfolio components of a pair: its rule features plus the
    /// classifier-output feature.
    pub fn components(&self, input: &PairRiskInput) -> Vec<PortfolioComponent> {
        let mut comps = Vec::with_capacity(input.rule_indices.len() + 1);
        self.components_into(input, &mut comps);
        comps
    }

    /// The `(weight, mean, std)` of rule feature `j`'s portfolio component —
    /// the single source of the clamping rules, shared by both layout fill
    /// paths so their bit-identity cannot drift apart.
    #[inline]
    fn rule_component(&self, j: usize) -> (f64, f64, f64) {
        let mu = self.features.expectations[j];
        (self.rule_weights[j].max(1e-6), mu, (self.rule_rsd[j] * mu).max(0.0))
    }

    /// The `(weight, mean, std)` of the classifier-output component for the
    /// already-clamped output `p`: expectation is the output itself, weight
    /// comes from the influence function, std from the bucket RSD.
    #[inline]
    fn classifier_component(&self, p: f64) -> (f64, f64, f64) {
        let bucket = self.output_bucket(p);
        (
            self.influence.weight(p).max(1e-6),
            p,
            (self.output_rsd[bucket] * p).max(0.0),
        )
    }

    /// [`Self::components`] into a caller-owned buffer (cleared first), so
    /// per-pair scoring on the serving hot path allocates nothing once the
    /// buffer has warmed up.
    pub fn components_into(&self, input: &PairRiskInput, comps: &mut Vec<PortfolioComponent>) {
        comps.clear();
        comps.reserve(input.rule_indices.len() + 1);
        for &ri in &input.rule_indices {
            let (weight, mean, std) = self.rule_component(ri as usize);
            comps.push(PortfolioComponent { weight, mean, std });
        }
        let (weight, mean, std) = self.classifier_component(input.classifier_output.clamp(0.0, 1.0));
        comps.push(PortfolioComponent { weight, mean, std });
    }

    /// [`Self::components_into`] in structure-of-arrays layout: fills a
    /// reusable [`ComponentBlock`] (cleared first) with the identical
    /// components in the identical order (both paths call the same
    /// component constructors), so [`ComponentBlock::aggregate`] over it is
    /// bit-identical to [`aggregate`] over [`Self::components_into`]'s
    /// output.  This is what the training and serving hot paths call per
    /// pair.
    pub fn components_into_block(&self, input: &PairRiskInput, block: &mut ComponentBlock) {
        block.clear();
        block.reserve(input.rule_indices.len() + 1);
        for &ri in &input.rule_indices {
            let (weight, mean, std) = self.rule_component(ri as usize);
            block.push(weight, mean, std);
        }
        let (weight, mean, std) = self.classifier_component(input.classifier_output.clamp(0.0, 1.0));
        block.push(weight, mean, std);
    }

    /// The aggregated equivalence-probability distribution of a pair.
    pub fn pair_distribution(&self, input: &PairRiskInput) -> PortfolioDistribution {
        aggregate(&self.components(input))
    }

    /// The truncated-normal form of the pair distribution (for reporting).
    pub fn pair_truncated(&self, input: &PairRiskInput) -> TruncatedNormal {
        let d = self.pair_distribution(input);
        TruncatedNormal::unit(Normal::new(d.mean, d.std()))
    }

    /// Risk score of a pair under the configured metric (VaR by default).
    pub fn risk_score(&self, input: &PairRiskInput) -> f64 {
        let mut block = ComponentBlock::with_capacity(input.rule_indices.len() + 1);
        self.risk_score_with(input, &mut block)
    }

    /// [`Self::risk_score`] reusing a caller-owned SoA component block — the
    /// allocation-free form the serving engine calls per request. The
    /// arithmetic is bit-identical to the AoS reference path (same component
    /// order, same canonical chunked aggregation), so the two produce
    /// bit-equal scores.
    pub fn risk_score_with(&self, input: &PairRiskInput, block: &mut ComponentBlock) -> f64 {
        self.components_into_block(input, block);
        let d = block.aggregate();
        pair_risk(
            self.config.metric,
            d.mean,
            d.std(),
            input.machine_says_match,
            self.config.theta,
        )
    }

    /// Fallible [`Self::risk_score_with`]: a degenerate portfolio (no
    /// components, non-positive total weight — e.g. from a hand-corrupted
    /// artifact) becomes a [`PortfolioError`] instead of a panic, so a
    /// serving worker can turn it into a request error.
    pub fn try_risk_score_with(
        &self,
        input: &PairRiskInput,
        block: &mut ComponentBlock,
    ) -> Result<f64, PortfolioError> {
        self.components_into_block(input, block);
        let d = block.try_aggregate()?;
        Ok(pair_risk(
            self.config.metric,
            d.mean,
            d.std(),
            input.machine_says_match,
            self.config.theta,
        ))
    }

    /// The differentiable *training-time* risk score γ of a pair (the
    /// untruncated VaR surrogate of Eq. 13 the trainer optimizes), reusing a
    /// caller-owned SoA component block so batch forward passes allocate
    /// nothing after warm-up.
    pub fn training_score_with(&self, input: &PairRiskInput, block: &mut ComponentBlock) -> f64 {
        self.training_score_with_z(input, self.z_theta(), block).0
    }

    /// [`Self::training_score_with`] with a precomputed `z_theta`, also
    /// returning the aggregate of the portfolio it leaves in `block` — the
    /// per-input form of the trainer's forward pass, which hoists the
    /// quantile computation out of the loop and keeps the portfolio for the
    /// gradient pass.
    pub fn training_score_with_z(
        &self,
        input: &PairRiskInput,
        z_theta: f64,
        block: &mut ComponentBlock,
    ) -> (f64, PortfolioDistribution) {
        self.components_into_block(input, block);
        let d = block.aggregate();
        (
            training_risk_score(d.mean, d.std(), input.machine_says_match, z_theta),
            d,
        )
    }

    /// Risk scores for a batch of pairs.
    pub fn rank(&self, inputs: &[PairRiskInput]) -> Vec<f64> {
        inputs.iter().map(|i| self.risk_score(i)).collect()
    }

    /// Interpretable explanation of a pair's risk: each active feature with
    /// its weight, expectation and standard deviation (the "Feature
    /// Description" panel of Figure 3). The triples come from the same
    /// component constructors scoring uses, clamps included, so aggregating
    /// them reproduces [`Self::risk_score`] exactly.
    pub fn explain(&self, input: &PairRiskInput) -> Vec<FeatureContribution> {
        let mut out = Vec::with_capacity(input.rule_indices.len() + 1);
        for &ri in &input.rule_indices {
            let j = ri as usize;
            let (weight, expectation, std) = self.rule_component(j);
            out.push(FeatureContribution {
                description: self.features.describe(j),
                weight,
                expectation,
                std,
            });
        }
        let p = input.classifier_output.clamp(0.0, 1.0);
        let (weight, expectation, std) = self.classifier_component(p);
        out.push(FeatureContribution {
            description: format!("classifier_output = {p:.3}"),
            weight,
            expectation,
            std,
        });
        out
    }

    /// Total number of learnable parameters.
    pub fn param_count(&self) -> usize {
        // rule weights + rule RSDs + α + β + bucket RSDs
        2 * self.features.len() + 2 + self.output_rsd.len()
    }

    /// Checks the structural invariants a trained model must satisfy before it
    /// can be served: parameter vectors aligned with the feature set, a
    /// non-degenerate influence function and a usable VaR confidence level.
    ///
    /// Serving loads models from external artifacts, so a corrupt or
    /// hand-edited file must be rejected with a description of what is wrong
    /// rather than panicking (or silently mis-scoring) at request time.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.features.len();
        for (what, len) in [
            ("rule_weights", self.rule_weights.len()),
            ("rule_rsd", self.rule_rsd.len()),
            ("feature expectations", self.features.expectations.len()),
            ("feature support", self.features.support.len()),
        ] {
            if len != n {
                return Err(format!("{what} has {len} entries but the model has {n} rule features"));
            }
        }
        let buckets = self.config.output_buckets.max(1);
        if self.output_rsd.len() != buckets {
            return Err(format!(
                "output_rsd has {} entries but the config declares {buckets} buckets",
                self.output_rsd.len()
            ));
        }
        for (what, values) in [
            ("rule_weights", &self.rule_weights),
            ("rule_rsd", &self.rule_rsd),
            ("feature expectations", &self.features.expectations),
            ("output_rsd", &self.output_rsd),
        ] {
            if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
                return Err(format!("{what} contains a non-finite value {bad}"));
            }
        }
        for (ri, rule) in self.features.rules.iter().enumerate() {
            if let Some(cond) = rule.conditions.iter().find(|c| !c.threshold.is_finite()) {
                // A NaN threshold never matches offline (`v <= NaN` is false)
                // but would confuse the serving engine's sorted threshold
                // index, so reject it outright.
                return Err(format!(
                    "rule {ri} has a non-finite condition threshold {} on metric {}",
                    cond.threshold, cond.metric_index
                ));
            }
        }
        if !(self.influence.alpha.is_finite() && self.influence.alpha > 0.0) {
            return Err(format!(
                "influence alpha must be positive, got {}",
                self.influence.alpha
            ));
        }
        if !self.influence.beta.is_finite() {
            return Err(format!("influence beta must be finite, got {}", self.influence.beta));
        }
        if !(self.config.theta > 0.0 && self.config.theta < 1.0) {
            return Err(format!("theta must lie in (0, 1), got {}", self.config.theta));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::Label;
    use er_rulegen::{CmpOp, Condition, Rule};

    fn feature_set() -> RiskFeatureSet {
        // Rule 0: strong inequivalence evidence (μ ≈ 0.02);
        // Rule 1: strong equivalence evidence (μ ≈ 0.97).
        let rules = vec![
            Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 50, 0.98),
            Rule::new(vec![Condition::new(1, CmpOp::Gt, 0.5)], Label::Equivalent, 40, 0.97),
        ];
        let metrics = vec![
            er_similarity::AttrMetric {
                attr_index: 3,
                attr_name: "year".into(),
                kind: er_similarity::MetricKind::NumericNotEqual,
            },
            er_similarity::AttrMetric {
                attr_index: 0,
                attr_name: "title".into(),
                kind: er_similarity::MetricKind::Jaccard,
            },
        ];
        RiskFeatureSet {
            rules,
            metrics,
            expectations: vec![0.02, 0.97],
            support: vec![50, 40],
        }
    }

    fn input(rules: Vec<u32>, output: f64, says_match: bool) -> PairRiskInput {
        PairRiskInput {
            rule_indices: rules,
            classifier_output: output,
            machine_says_match: says_match,
            risk_label: 0,
        }
    }

    #[test]
    fn explanation_aggregates_to_the_served_score_bit_for_bit() {
        let mut model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        // Values training can leave behind and scoring clamps: a negative
        // RSD (std clamps to 0) and a zero weight (clamps to 1e-6).
        model.rule_rsd[0] = -0.4;
        model.rule_weights[1] = 0.0;
        for inp in [
            input(vec![0, 1], 0.8, true),
            input(vec![0], 0.3, false),
            input(vec![1], 0.55, true),
        ] {
            let components: Vec<PortfolioComponent> = model
                .explain(&inp)
                .iter()
                .map(|f| PortfolioComponent {
                    weight: f.weight,
                    mean: f.expectation,
                    std: f.std,
                })
                .collect();
            let d = aggregate(&components);
            let served = pair_risk(
                model.config.metric,
                d.mean,
                d.std(),
                inp.machine_says_match,
                model.config.theta,
            );
            assert_eq!(served.to_bits(), model.risk_score(&inp).to_bits(), "{inp:?}");
            let trained = training_risk_score(d.mean, d.std(), inp.machine_says_match, model.z_theta());
            let mut block = ComponentBlock::default();
            assert_eq!(
                trained.to_bits(),
                model.training_score_with(&inp, &mut block).to_bits(),
                "{inp:?}"
            );
        }
    }

    #[test]
    fn contradicting_rule_raises_risk() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        // Machine says match with 0.9 confidence, but rule 0 (inequivalence
        // evidence) fires: risk must exceed the same pair without the rule.
        let with_rule = model.risk_score(&input(vec![0], 0.9, true));
        let without_rule = model.risk_score(&input(vec![], 0.9, true));
        assert!(with_rule > without_rule, "{with_rule} vs {without_rule}");
        // Symmetrically for an unmatch-labeled pair and equivalence evidence.
        let with_rule_u = model.risk_score(&input(vec![1], 0.1, false));
        let without_rule_u = model.risk_score(&input(vec![], 0.1, false));
        assert!(with_rule_u > without_rule_u);
    }

    #[test]
    fn agreeing_rule_lowers_risk() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        let agree = model.risk_score(&input(vec![0], 0.1, false));
        let ambiguous = model.risk_score(&input(vec![], 0.5, false));
        assert!(agree < ambiguous);
    }

    #[test]
    fn distribution_and_scores_are_bounded() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        for inp in [
            input(vec![], 0.0, false),
            input(vec![0, 1], 0.5, true),
            input(vec![1], 1.0, true),
        ] {
            let d = model.pair_distribution(&inp);
            assert!((0.0..=1.0).contains(&d.mean));
            assert!(d.variance >= 0.0);
            let score = model.risk_score(&inp);
            assert!((0.0..=1.0).contains(&score), "score {score}");
            let t = model.pair_truncated(&inp);
            assert!(t.quantile(0.9) <= 1.0);
        }
    }

    #[test]
    fn output_bucketing_covers_the_range() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        assert_eq!(model.output_bucket(0.0), 0);
        assert_eq!(model.output_bucket(1.0), model.output_rsd.len() - 1);
        assert_eq!(model.output_bucket(0.55), 5);
        assert_eq!(model.output_bucket(-3.0), 0);
        assert_eq!(model.output_bucket(7.0), model.output_rsd.len() - 1);
    }

    #[test]
    fn explanation_lists_every_active_feature() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        let expl = model.explain(&input(vec![0, 1], 0.8, true));
        assert_eq!(expl.len(), 3);
        assert!(expl[2].description.contains("classifier_output"));
        assert!(expl.iter().all(|c| c.weight > 0.0));
        assert!((expl[0].expectation - 0.02).abs() < 1e-12);
    }

    #[test]
    fn param_count_is_consistent() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        assert_eq!(model.param_count(), 2 * 2 + 2 + 10);
        assert!(model.z_theta() > 1.2 && model.z_theta() < 1.3);
    }

    #[test]
    fn buffered_scoring_is_bit_identical_to_plain_scoring() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        let mut block = ComponentBlock::new();
        for inp in [
            input(vec![], 0.0, false),
            input(vec![0], 0.9, true),
            input(vec![0, 1], 0.5, true),
            input(vec![1], 1.0, false),
        ] {
            let plain = model.risk_score(&inp);
            let buffered = model.risk_score_with(&inp, &mut block);
            assert_eq!(plain.to_bits(), buffered.to_bits());
            // Reuse across calls must not leak state.
            let again = model.risk_score_with(&inp, &mut block);
            assert_eq!(plain.to_bits(), again.to_bits());
            // The fallible path computes the identical score.
            let fallible = model.try_risk_score_with(&inp, &mut block).expect("valid portfolio");
            assert_eq!(plain.to_bits(), fallible.to_bits());
        }
    }

    #[test]
    fn soa_block_matches_aos_components() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        let mut block = ComponentBlock::new();
        for inp in [
            input(vec![], 0.3, false),
            input(vec![0], 0.9, true),
            input(vec![0, 1], 0.5, true),
        ] {
            let comps = model.components(&inp);
            model.components_into_block(&inp, &mut block);
            assert_eq!(block.len(), comps.len());
            for (j, c) in comps.iter().enumerate() {
                assert_eq!(block.component(j), *c, "component {j}");
            }
            let aos = aggregate(&comps);
            let soa = block.aggregate();
            assert_eq!(aos.mean.to_bits(), soa.mean.to_bits());
            assert_eq!(aos.variance.to_bits(), soa.variance.to_bits());
        }
    }

    #[test]
    fn training_score_is_stable_across_buffer_reuse() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        let z = model.z_theta();
        let mut block = ComponentBlock::new();
        for inp in [
            input(vec![], 0.0, false),
            input(vec![0], 0.9, true),
            input(vec![0, 1], 0.5, true),
            input(vec![1], 1.0, false),
        ] {
            let fresh = model.training_score_with(&inp, &mut ComponentBlock::new());
            let buffered = model.training_score_with(&inp, &mut block);
            let (hoisted, _) = model.training_score_with_z(&inp, z, &mut block);
            assert_eq!(fresh.to_bits(), buffered.to_bits());
            assert_eq!(fresh.to_bits(), hoisted.to_bits());
            assert!(fresh.is_finite());
        }
    }

    #[test]
    fn validate_accepts_fresh_models_and_flags_corruption() {
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        assert_eq!(model.validate(), Ok(()));

        let mut truncated = model.clone();
        truncated.rule_weights.pop();
        assert!(truncated.validate().unwrap_err().contains("rule_weights"));

        let mut nan = model.clone();
        nan.rule_rsd[0] = f64::NAN;
        assert!(nan.validate().unwrap_err().contains("non-finite"));

        let mut bad_buckets = model.clone();
        bad_buckets.output_rsd.pop();
        assert!(bad_buckets.validate().unwrap_err().contains("buckets"));

        let mut bad_threshold = model.clone();
        bad_threshold.features.rules[0].conditions[0].threshold = f64::NAN;
        assert!(bad_threshold.validate().unwrap_err().contains("threshold"));

        let mut bad_expectation = model.clone();
        bad_expectation.features.expectations[1] = f64::INFINITY;
        assert!(bad_expectation.validate().unwrap_err().contains("expectations"));

        let mut bad_theta = model;
        bad_theta.config.theta = 1.5;
        assert!(bad_theta.validate().unwrap_err().contains("theta"));
    }

    #[test]
    fn rank_orders_obviously_risky_pairs_above_safe_ones() {
        // Even before training, the prior model must rank a pair whose rule
        // evidence contradicts the machine label, and a pair with an ambiguous
        // classifier output, above a pair where everything agrees.
        let model = LearnRiskModel::new(feature_set(), RiskModelConfig::default());
        let inputs = vec![
            input(vec![0], 0.95, true), // match label contradicted by a rule: risky
            input(vec![1], 0.95, true), // everything agrees: safe
            input(vec![], 0.52, true),  // ambiguous output: risky
        ];
        let scores = model.rank(&inputs);
        assert!(scores[0] > scores[1], "{scores:?}");
        assert!(scores[2] > scores[1], "{scores:?}");
    }
}
