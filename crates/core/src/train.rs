//! Risk-model training: pairwise learning-to-rank with analytic gradients
//! (Section 6.2 of the paper).
//!
//! The trainer tunes the rule weights, the rule RSDs, the influence-function
//! shape `(α, β)` and the classifier-output bucket RSDs so that mislabeled
//! pairs are ranked above correctly labeled ones.  The loss is the pairwise
//! cross entropy of Eq. 13–15; the paper optimizes it with gradient descent on
//! TensorFlow — here the gradients are derived analytically (portfolio
//! aggregation → differentiable VaR score → RankNet-style loss) and verified
//! against finite differences in the test suite.
//!
//! # The factorized hot path
//!
//! The naive epoch evaluates the model four times per ranking pair (twice for
//! the loss, twice for the gradient), making it O(rank_pairs × features) with
//! a component-vector allocation per evaluation.  Because the pairwise loss
//! is a function of per-input scores only, its gradient *factorizes*:
//!
//! ```text
//! ∂L/∂θ = Σ_i λ_i · ∂γ_i/∂θ,   λ_i = Σ_{(a,b): a=i} d_ab − Σ_{(a,b): b=i} d_ab,
//! d_ab = (p_ab − target_ab) / |pairs|
//! ```
//!
//! so one epoch needs exactly one forward evaluation per *input*, (at most)
//! one gradient evaluation per input, and an O(rank_pairs) scalar sweep.
//! The forward pass keeps each scored input's portfolio and its aggregate,
//! and the gradient pass reads them: a portfolio is built and aggregated
//! once per epoch, not once per pass.  [`EpochScratch`] implements the three
//! passes with reusable buffers — on one lane an epoch allocates only the
//! portfolios of inputs beyond the most any earlier epoch touched, and two
//! lanes add the worker pool's per-task boxes (14 per epoch) — and
//! parallelizes
//! the forward and gradient passes over a persistent [`er_pool::WorkerPool`]
//! living in the scratch, so worker threads are spawned once per training
//! run (not once per epoch pass, as the earlier `std::thread::scope`
//! implementation did).  The
//! gradient is accumulated into fixed-size per-chunk shards that are reduced
//! in chunk order, so training is bit-identical for every thread count.
//!
//! Per-input portfolios are built in structure-of-arrays
//! [`ComponentBlock`]s and aggregated through the canonical chunked SoA
//! kernel (see [`crate::portfolio`]), which is bit-identical to the AoS
//! reference layout — so the factorization *and* the layout change are both
//! verified against [`loss_and_gradient`], which deliberately stays on the
//! AoS path.
//!
//! [`loss_and_gradient`] keeps the per-pair reference implementation; tests
//! verify the factorized epoch against it.

use crate::feature::PairRiskInput;
use crate::model::LearnRiskModel;
use crate::portfolio::{
    aggregate, component_gradients, ComponentBlock, ComponentGradients, GradientBlock, PortfolioComponent,
    PortfolioDistribution,
};
use crate::var::{training_risk_gradients, training_risk_score};
use er_base::rng::substream;
use er_base::stats::{clamp_prob, safe_ln, sigmoid};
use er_pool::WorkerPool;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of risk-model training.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RiskTrainConfig {
    /// Number of optimization epochs (the paper uses 1000).
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L1 regularization on rule weights.
    pub l1: f64,
    /// L2 regularization on rule weights.
    pub l2: f64,
    /// Maximum number of ranking pairs sampled per epoch.
    pub max_rank_pairs: usize,
    /// Whether to use Adam (otherwise plain gradient descent, as in Eq. 16-17).
    pub use_adam: bool,
    /// Random seed for pair sampling.
    pub seed: u64,
}

impl Default for RiskTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 0.02,
            l1: 1e-4,
            l2: 1e-3,
            max_rank_pairs: 4000,
            use_adam: true,
            seed: 23,
        }
    }
}

/// Flat parameter vector layout:
/// `[rule_weights | rule_rsd | alpha | beta | output_rsd]`.
pub fn flatten_params(model: &LearnRiskModel) -> Vec<f64> {
    let mut out = Vec::with_capacity(model.param_count());
    flatten_params_into(model, &mut out);
    out
}

/// [`flatten_params`] into a caller-owned buffer (cleared first), so the
/// per-epoch projection round trip allocates nothing once `out` has held
/// the parameters.
pub fn flatten_params_into(model: &LearnRiskModel, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(model.param_count());
    out.extend_from_slice(&model.rule_weights);
    out.extend_from_slice(&model.rule_rsd);
    out.push(model.influence.alpha);
    out.push(model.influence.beta);
    out.extend_from_slice(&model.output_rsd);
}

/// Writes a flat parameter vector back into the model, projecting every
/// parameter onto its feasible range.
pub fn unflatten_params(model: &mut LearnRiskModel, params: &[f64]) {
    let n = model.features.len();
    let k = model.output_rsd.len();
    assert_eq!(params.len(), 2 * n + 2 + k);
    for (w, &p) in model.rule_weights.iter_mut().zip(&params[..n]) {
        *w = p.clamp(1e-3, 1e3);
    }
    for (r, &p) in model.rule_rsd.iter_mut().zip(&params[n..2 * n]) {
        *r = p.clamp(1e-3, 2.0);
    }
    model.influence.alpha = params[2 * n].clamp(0.05, 2.0);
    model.influence.beta = params[2 * n + 1].clamp(0.0, 100.0);
    for (r, &p) in model.output_rsd.iter_mut().zip(&params[2 * n + 2..]) {
        *r = p.clamp(1e-3, 2.0);
    }
}

/// Scatters `scale · ∂γ/∂θ` of one input into the flat gradient vector,
/// reading each portfolio slot's [`ComponentGradients`] from `term`.
///
/// Shared by the per-pair AoS reference path ([`loss_and_gradient`], where
/// `term` computes per-slot gradients on the fly) and the factorized SoA
/// epoch ([`EpochScratch::gradient_pass`], where `term` reads the bulk
/// [`GradientBlock`]).  The gradient values of the two sources are
/// bit-identical (see `portfolio`), so both paths compute the same per-input
/// derivative with the same operation order.
fn scatter_score_gradient(
    model: &LearnRiskModel,
    input: &PairRiskInput,
    n_components: usize,
    z_theta: f64,
    scale: f64,
    grad: &mut [f64],
    term: impl Fn(usize) -> ComponentGradients,
) {
    let (d_gamma_d_mean, d_gamma_d_std) = training_risk_gradients(input.machine_says_match, z_theta);
    let n = model.features.len();

    // Rule-feature components come first, in the order of `rule_indices`.
    for (slot, &ri) in input.rule_indices.iter().enumerate() {
        let j = ri as usize;
        let g = term(slot);
        // ∂γ/∂w_j
        let d_w = d_gamma_d_mean * g.d_mean_d_weight + d_gamma_d_std * g.d_std_d_weight;
        grad[j] += scale * d_w;
        // σ_j = RSD_j · μ_j  ⇒  ∂γ/∂RSD_j = ∂γ/∂σ_j · μ_j.
        let mu_j = model.features.expectations[j];
        let d_rsd = d_gamma_d_std * g.d_std_d_component_std * mu_j;
        grad[n + j] += scale * d_rsd;
    }

    // Classifier-output component is last.
    let g = term(n_components - 1);
    let p = input.classifier_output.clamp(0.0, 1.0);
    let d_weight = d_gamma_d_mean * g.d_mean_d_weight + d_gamma_d_std * g.d_std_d_weight;
    // α and β act through the influence weight.
    grad[2 * n] += scale * d_weight * model.influence.d_weight_d_alpha(p);
    grad[2 * n + 1] += scale * d_weight * model.influence.d_weight_d_beta();
    // Bucket RSD: σ_cls = RSD_bucket · p.
    let bucket = model.output_bucket(p);
    grad[2 * n + 2 + bucket] += scale * d_gamma_d_std * g.d_std_d_component_std * p;
}

/// The differentiable training risk score γ of one pair, plus its gradient
/// with respect to the flat parameter vector (accumulated into `grad` scaled
/// by `scale`), reusing a caller-owned AoS component buffer — the per-pair
/// *reference* implementation the factorized SoA epoch is verified against.
fn score_with_gradient(
    model: &LearnRiskModel,
    input: &PairRiskInput,
    scale: f64,
    grad: &mut [f64],
    comps: &mut Vec<PortfolioComponent>,
) -> f64 {
    model.components_into(input, comps);
    let agg = aggregate(comps);
    let z = model.z_theta();
    let score = training_risk_score(agg.mean, agg.std(), input.machine_says_match, z);
    if scale != 0.0 {
        scatter_score_gradient(model, input, comps.len(), z, scale, grad, |slot| {
            component_gradients(comps, &agg, slot)
        });
    }
    score
}

/// Adds the L1/L2 penalty on the rule weights to `loss` and `grad` (the paper
/// regularizes the learnable weights to counter overfitting).
fn regularize(model: &LearnRiskModel, config: &RiskTrainConfig, loss: &mut f64, grad: &mut [f64]) {
    let n = model.features.len();
    for (g, &w) in grad.iter_mut().zip(&model.rule_weights).take(n) {
        *loss += config.l1 * w.abs() + config.l2 * w * w;
        *g += config.l1 * w.signum() + 2.0 * config.l2 * w;
    }
}

/// Computes the pairwise ranking loss and its gradient over an explicit list
/// of ordered index pairs `(a, b)` — the per-pair *reference* path, which
/// evaluates the model four times per pair.
///
/// Exposed (rather than private to the trainer) so that tests can verify the
/// analytic gradient against finite differences and the factorized epoch
/// ([`EpochScratch`]) against this implementation; the `train_epoch`
/// bench times it as `per_pair_reference_epoch`.
pub fn loss_and_gradient(
    model: &LearnRiskModel,
    inputs: &[PairRiskInput],
    rank_pairs: &[(u32, u32)],
    config: &RiskTrainConfig,
) -> (f64, Vec<f64>) {
    let dim = model.param_count();
    let mut grad = vec![0.0; dim];
    let mut loss = 0.0;
    let mut comps = Vec::new();
    let n_pairs = rank_pairs.len().max(1) as f64;

    for &(a, b) in rank_pairs {
        let ia = &inputs[a as usize];
        let ib = &inputs[b as usize];
        // Scores without gradient first to get the loss weight.
        let gamma_a = score_with_gradient(model, ia, 0.0, &mut grad, &mut comps);
        let gamma_b = score_with_gradient(model, ib, 0.0, &mut grad, &mut comps);
        let p_ab = clamp_prob(sigmoid(gamma_a - gamma_b));
        let target = 0.5 * (1.0 + ia.risk_label as f64 - ib.risk_label as f64);
        loss += -(target * safe_ln(p_ab) + (1.0 - target) * safe_ln(1.0 - p_ab));
        // dL/dγ_a = p_ab - target; dL/dγ_b = -(p_ab - target).
        let d = (p_ab - target) / n_pairs;
        score_with_gradient(model, ia, d, &mut grad, &mut comps);
        score_with_gradient(model, ib, -d, &mut grad, &mut comps);
    }
    loss /= n_pairs;
    regularize(model, config, &mut loss, &mut grad);
    (loss, grad)
}

/// Inputs per gradient-accumulation chunk.  The chunk grid is a function of
/// the input count only — never of the thread count — and chunk shards are
/// reduced in chunk order, which is what makes training bit-identical across
/// thread counts.
const GRAD_CHUNK: usize = 128;

/// Minimum forward-pass inputs per worker before another lane is engaged;
/// below this the fan-out overhead exceeds the scoring work.
const MIN_FORWARD_INPUTS_PER_WORKER: usize = 512;

/// How many pool lanes to actually use for `work_items` units of work.
fn effective_workers(threads: usize, work_items: usize, min_per_worker: usize) -> usize {
    threads.max(1).min(work_items.div_ceil(min_per_worker.max(1))).max(1)
}

/// The scratch's persistent worker pool, (re)built only when a pass first
/// needs more lanes than the current pool carries — across the epochs of one
/// training run this spawns threads at most a handful of times (a high-water
/// mark), where the previous scoped-thread implementation respawned every
/// epoch pass.
fn ensure_pool(slot: &mut Option<WorkerPool>, lanes: usize) -> &WorkerPool {
    if slot.as_ref().is_none_or(|pool| pool.lanes() < lanes) {
        *slot = Some(WorkerPool::new(lanes));
    }
    match slot {
        Some(pool) => pool,
        None => unreachable!("the pool was just installed"),
    }
}

/// Reusable buffers of the factorized training epoch (see the module docs):
/// per-input forward scores, per-input λ coefficients, the forward pass's
/// portfolios, per-chunk gradient shards and per-worker gradient scratch.
/// Construct once, reuse across epochs (and across models of the same
/// feature set); after the first epoch no pass allocates (in the sampled
/// regime, once the active set has reached its largest size).
///
/// The forward pass builds each active input's portfolio in a
/// [`ComponentBlock`] of its own, reduces it through the canonical chunked
/// SoA kernel and keeps both; the gradient pass reads that block and
/// aggregate instead of building them again under the same parameters.  The
/// arithmetic is bit-identical to the AoS reference path, and (as before)
/// bit-identical across thread counts thanks to the fixed chunk-order shard
/// reduction.
#[derive(Default)]
pub struct EpochScratch {
    /// Forward score γ_i per input.
    scores: Vec<f64>,
    /// λ_i per input (see the module docs).
    lambdas: Vec<f64>,
    /// One flat gradient shard per λ-active fixed-size input chunk.
    chunk_grads: Vec<Vec<f64>>,
    /// One SoA gradient-term block per worker thread (gradient pass only).
    worker_terms: Vec<GradientBlock>,
    /// Distinct input indices referenced by the epoch's rank pairs, in first-
    /// appearance order.
    active: Vec<u32>,
    /// Gradient-chunk indices containing a non-zero λ, ascending.
    active_chunks: Vec<usize>,
    /// Per-input membership flags backing `active`.
    touched: Vec<bool>,
    /// Forward scores of the active inputs, aligned with `active`.
    active_scores: Vec<f64>,
    /// The last forward pass's portfolios, aligned with `active` (only the
    /// first `active.len()` are current; the rest keep their capacity).
    portfolios: Vec<Portfolio>,
    /// Per input, its position in `active` (current for active inputs only).
    active_slot: Vec<u32>,
    /// Persistent worker pool for the forward and gradient fan-outs; built
    /// lazily at the first multi-lane pass and reused across epochs.
    pool: Option<WorkerPool>,
}

impl EpochScratch {
    /// Creates empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward scores of the last forward pass, aligned with its inputs.
    /// After [`EpochScratch::factorized_loss_and_gradient`], inputs that no
    /// rank pair referenced hold 0.0 (they were not scored).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    fn ensure_worker_terms(&mut self, workers: usize) {
        while self.worker_terms.len() < workers {
            self.worker_terms.push(GradientBlock::new());
        }
    }

    /// Step 1: computes each input's training score γ_i exactly once —
    /// O(inputs), not O(rank_pairs) — in parallel over at most `threads`
    /// scoped workers, and keeps each input's portfolio and aggregate for
    /// the gradient pass.  Each score lands in its own slot, so the result
    /// does not depend on the thread count.
    pub fn forward_pass(&mut self, model: &LearnRiskModel, inputs: &[PairRiskInput], threads: usize) {
        self.active.clear();
        self.active.extend(0..inputs.len() as u32);
        self.forward_pass_active(model, inputs, threads);
    }

    /// Collects the distinct input indices referenced by `rank_pairs` into
    /// `active` (first-appearance order, so the list is independent of the
    /// thread count).
    fn mark_active(&mut self, n_inputs: usize, rank_pairs: &[(u32, u32)]) {
        self.touched.clear();
        self.touched.resize(n_inputs, false);
        self.active.clear();
        for &(a, b) in rank_pairs {
            for i in [a, b] {
                let flag = &mut self.touched[i as usize];
                if !*flag {
                    *flag = true;
                    self.active.push(i);
                }
            }
        }
    }

    /// Forward scoring of the input indices currently in `active` (all of
    /// them for [`EpochScratch::forward_pass`], the pair-referenced subset
    /// from `mark_active` on the factorized path).  In the sampled regime —
    /// many inputs, a capped pair budget — only O(min(2·rank_pairs, inputs))
    /// model evaluations run instead of O(inputs).  Scores of untouched
    /// inputs are left at 0.0; the λ sweep never reads them.
    fn forward_pass_active(&mut self, model: &LearnRiskModel, inputs: &[PairRiskInput], threads: usize) {
        let n_active = self.active.len();
        self.scores.clear();
        self.scores.resize(inputs.len(), 0.0);
        self.active_scores.clear();
        self.active_scores.resize(n_active, 0.0);
        if self.portfolios.len() < n_active {
            self.portfolios.resize_with(n_active, Portfolio::default);
        }
        let workers = effective_workers(threads, n_active, MIN_FORWARD_INPUTS_PER_WORKER);
        let z = model.z_theta();
        let active = &self.active;
        let portfolios = &mut self.portfolios[..n_active];
        if workers <= 1 {
            for ((&i, slot), portfolio) in active.iter().zip(&mut self.active_scores).zip(portfolios) {
                *slot = portfolio.fill(model, &inputs[i as usize], z);
            }
        } else {
            let per = n_active.div_ceil(workers);
            let pool = ensure_pool(&mut self.pool, workers);
            pool.scope(|scope| {
                for ((index_chunk, score_chunk), portfolio_chunk) in active
                    .chunks(per)
                    .zip(self.active_scores.chunks_mut(per))
                    .zip(portfolios.chunks_mut(per))
                {
                    scope.spawn(move || {
                        for ((&i, slot), portfolio) in index_chunk.iter().zip(score_chunk).zip(portfolio_chunk) {
                            *slot = portfolio.fill(model, &inputs[i as usize], z);
                        }
                    });
                }
            })
            .propagate();
        }
        // Scatter back to the per-input slots the λ sweep indexes by, and
        // record where the gradient pass finds each input's portfolio.
        self.active_slot.resize(inputs.len(), 0);
        for (slot, (&i, &score)) in active.iter().zip(&self.active_scores).enumerate() {
            self.scores[i as usize] = score;
            self.active_slot[i as usize] = slot as u32;
        }
    }

    /// Step 2: sweeps the rank-pair list once, accumulating each input's λ
    /// coefficient and the epoch loss (unregularized).  O(rank_pairs) scalar
    /// work — no model evaluation.  Requires a preceding
    /// [`EpochScratch::forward_pass`] over the same inputs.
    pub fn lambda_pass(&mut self, inputs: &[PairRiskInput], rank_pairs: &[(u32, u32)]) -> f64 {
        assert_eq!(
            self.scores.len(),
            inputs.len(),
            "forward_pass must run on the same inputs first"
        );
        self.lambdas.clear();
        self.lambdas.resize(inputs.len(), 0.0);
        let n_pairs = rank_pairs.len().max(1) as f64;
        let mut loss = 0.0;
        for &(a, b) in rank_pairs {
            let (a, b) = (a as usize, b as usize);
            let p_ab = clamp_prob(sigmoid(self.scores[a] - self.scores[b]));
            let target = 0.5 * (1.0 + inputs[a].risk_label as f64 - inputs[b].risk_label as f64);
            // A 0/1 target weights one log term only.  `p_ab` is clamped
            // inside (0, 1), so the other term is 0 · (a finite log) = ±0,
            // and adding it would not change one bit of the loss.
            let log_likelihood = if target == 1.0 {
                safe_ln(p_ab)
            } else if target == 0.0 {
                safe_ln(1.0 - p_ab)
            } else {
                target * safe_ln(p_ab) + (1.0 - target) * safe_ln(1.0 - p_ab)
            };
            loss -= log_likelihood;
            // dL/dγ_a = p_ab - target; dL/dγ_b = -(p_ab - target).
            let d = (p_ab - target) / n_pairs;
            self.lambdas[a] += d;
            self.lambdas[b] -= d;
        }
        loss / n_pairs
    }

    /// Step 3: one gradient evaluation per input with a non-zero λ, reading
    /// the portfolio and aggregate the forward pass kept for it, in
    /// parallel over fixed-size input chunks.  Only chunks containing a
    /// non-zero λ get a shard (so the pass is O(λ-active inputs) plus one
    /// scalar sweep of λ, not O(inputs)); each shard accumulates its chunk's
    /// inputs in index order, and the shards are reduced into `grad` in
    /// ascending chunk order on the calling thread — the chunk grid depends
    /// only on the input count, so the result is bit-identical for every
    /// thread count.  Requires a preceding [`EpochScratch::lambda_pass`],
    /// after a forward pass of the same model over the same inputs.
    pub fn gradient_pass(
        &mut self,
        model: &LearnRiskModel,
        inputs: &[PairRiskInput],
        threads: usize,
        grad: &mut [f64],
    ) {
        let dim = model.param_count();
        assert_eq!(grad.len(), dim, "gradient buffer must match the parameter count");
        assert_eq!(
            self.lambdas.len(),
            inputs.len(),
            "lambda_pass must run on the same inputs first"
        );
        // Chunks with at least one non-zero λ, in ascending order.
        let n_chunks = inputs.len().div_ceil(GRAD_CHUNK);
        self.active_chunks.clear();
        for c in 0..n_chunks {
            let start = c * GRAD_CHUNK;
            let end = (start + GRAD_CHUNK).min(inputs.len());
            if self.lambdas[start..end].iter().any(|&l| l != 0.0) {
                self.active_chunks.push(c);
            }
        }
        grad.fill(0.0);
        let n_active = self.active_chunks.len();
        if n_active == 0 {
            return;
        }
        while self.chunk_grads.len() < n_active {
            self.chunk_grads.push(Vec::new());
        }
        for shard in &mut self.chunk_grads[..n_active] {
            shard.clear();
            shard.resize(dim, 0.0);
        }
        let workers = effective_workers(threads, n_active, 1);
        self.ensure_worker_terms(workers);
        let forward = Forward {
            z_theta: model.z_theta(),
            lambdas: &self.lambdas,
            active_slot: &self.active_slot,
            portfolios: &self.portfolios,
        };
        let active_chunks = &self.active_chunks;
        let shards = &mut self.chunk_grads[..n_active];
        if workers <= 1 {
            let terms = &mut self.worker_terms[0];
            for (shard, &c) in shards.iter_mut().zip(active_chunks) {
                forward.gradient_chunk(model, inputs, c, terms, shard);
            }
        } else {
            let per = n_active.div_ceil(workers);
            let pool = ensure_pool(&mut self.pool, workers);
            let forward = &forward;
            pool.scope(|scope| {
                for ((shard_slice, chunk_ids), terms) in shards
                    .chunks_mut(per)
                    .zip(active_chunks.chunks(per))
                    .zip(self.worker_terms.iter_mut())
                {
                    scope.spawn(move || {
                        for (shard, &c) in shard_slice.iter_mut().zip(chunk_ids) {
                            forward.gradient_chunk(model, inputs, c, terms, shard);
                        }
                    });
                }
            })
            .propagate();
        }
        // Reduce the shards in fixed (ascending) chunk order.
        for shard in self.chunk_grads[..n_active].iter() {
            for (g, s) in grad.iter_mut().zip(shard) {
                *g += s;
            }
        }
    }

    /// One factorized epoch: forward pass + λ sweep + gradient pass +
    /// regularization.  Drop-in replacement for [`loss_and_gradient`] (the
    /// gradient lands in `grad`, the regularized loss is returned) that is
    /// O(inputs + rank_pairs) instead of O(rank_pairs × features). On one
    /// lane it allocates nothing once the scratch has scored as many inputs
    /// as the rank pairs touch; on more, the worker pool boxes each task.
    pub fn factorized_loss_and_gradient(
        &mut self,
        model: &LearnRiskModel,
        inputs: &[PairRiskInput],
        rank_pairs: &[(u32, u32)],
        config: &RiskTrainConfig,
        threads: usize,
        grad: &mut [f64],
    ) -> f64 {
        // Forward-score only the inputs the pairs reference: in the sampled
        // regime (inputs ≫ max_rank_pairs) scoring every input would make
        // the epoch O(inputs) even when only a fraction participates.
        self.mark_active(inputs.len(), rank_pairs);
        self.forward_pass_active(model, inputs, threads);
        let mut loss = self.lambda_pass(inputs, rank_pairs);
        self.gradient_pass(model, inputs, threads, grad);
        regularize(model, config, &mut loss, grad);
        loss
    }
}

/// One input's portfolio as the forward pass built it: its SoA components
/// and their aggregate.
#[derive(Default)]
struct Portfolio {
    block: ComponentBlock,
    aggregate: PortfolioDistribution,
}

impl Portfolio {
    /// Builds and aggregates `input`'s portfolio under `model`, keeps both,
    /// and returns its training score.
    fn fill(&mut self, model: &LearnRiskModel, input: &PairRiskInput, z_theta: f64) -> f64 {
        let (score, aggregate) = model.training_score_with_z(input, z_theta, &mut self.block);
        self.aggregate = aggregate;
        score
    }
}

/// What the gradient pass reads from the forward pass and the λ sweep.
struct Forward<'a> {
    z_theta: f64,
    lambdas: &'a [f64],
    active_slot: &'a [u32],
    portfolios: &'a [Portfolio],
}

impl Forward<'_> {
    /// Gradient accumulation of one fixed-size input chunk into its shard:
    /// per λ-active input, compute every component's gradient terms of its
    /// forward-pass portfolio in one bulk elementwise pass, then scatter
    /// them into the shard.  A non-zero λ means a rank pair referenced the
    /// input, so the forward pass scored it.
    fn gradient_chunk(
        &self,
        model: &LearnRiskModel,
        inputs: &[PairRiskInput],
        chunk_index: usize,
        terms: &mut GradientBlock,
        shard: &mut [f64],
    ) {
        let start = chunk_index * GRAD_CHUNK;
        let end = (start + GRAD_CHUNK).min(inputs.len());
        let chunk = inputs[start..end]
            .iter()
            .zip(&self.lambdas[start..end])
            .zip(&self.active_slot[start..end]);
        for ((input, &lambda), &slot) in chunk {
            if lambda == 0.0 {
                continue;
            }
            let portfolio = &self.portfolios[slot as usize];
            portfolio.block.component_gradients_into(&portfolio.aggregate, terms);
            scatter_score_gradient(
                model,
                input,
                portfolio.block.len(),
                self.z_theta,
                lambda,
                shard,
                |slot| terms.gradients(slot),
            );
        }
    }
}

/// Whether the positive × negative cartesian product should be enumerated
/// exhaustively (it fits the pair budget) — overflow-safe, so absurdly large
/// input sets fall back to sampling instead of wrapping around.
fn enumerate_exhaustively(positives: usize, negatives: usize, max_pairs: usize) -> bool {
    positives.checked_mul(negatives).is_some_and(|total| total <= max_pairs)
}

/// Reusable rank-pair sampler: splits the inputs into mislabeled (positive)
/// and correct (negative) index sets once, then samples each epoch's pair
/// list into a caller-owned buffer without re-scanning the inputs.
pub struct RankPairSampler {
    positives: Vec<u32>,
    negatives: Vec<u32>,
}

impl RankPairSampler {
    /// Indexes the inputs by risk label.
    pub fn new(inputs: &[PairRiskInput]) -> Self {
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            if input.risk_label == 1 {
                positives.push(i as u32);
            } else {
                negatives.push(i as u32);
            }
        }
        Self { positives, negatives }
    }

    /// Whether no informative ordering exists (one of the label sets is
    /// empty).
    pub fn is_degenerate(&self) -> bool {
        self.positives.is_empty() || self.negatives.is_empty()
    }

    /// Builds the ranking pairs of one epoch into `out` (cleared first):
    /// every mislabeled training pair is matched with sampled
    /// correctly-labeled pairs (the informative orderings for the target of
    /// Eq. 14), capped at `max_pairs`.
    ///
    /// When the full cartesian product fits the cap it is enumerated in index
    /// order with an exact reservation and no shuffle — pair order does not
    /// affect the trainer, so shuffling the full product was pure overhead.
    /// The product is computed with `checked_mul`, falling back to the
    /// sampling branch on overflow.
    pub fn sample_into<R: Rng + ?Sized>(&self, max_pairs: usize, rng: &mut R, out: &mut Vec<(u32, u32)>) {
        out.clear();
        if self.is_degenerate() {
            return;
        }
        if enumerate_exhaustively(self.positives.len(), self.negatives.len(), max_pairs) {
            out.reserve(self.positives.len() * self.negatives.len());
            for &p in &self.positives {
                for &n in &self.negatives {
                    out.push((p, n));
                }
            }
        } else {
            out.reserve(max_pairs);
            for _ in 0..max_pairs {
                let p = self.positives[rng.gen_range(0..self.positives.len())];
                let n = self.negatives[rng.gen_range(0..self.negatives.len())];
                out.push((p, n));
            }
            out.shuffle(rng);
        }
    }
}

/// Builds the ranking pairs of one epoch (see [`RankPairSampler::sample_into`],
/// which the trainer uses to avoid the per-epoch allocation).
pub fn sample_rank_pairs<R: Rng + ?Sized>(inputs: &[PairRiskInput], max_pairs: usize, rng: &mut R) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    RankPairSampler::new(inputs).sample_into(max_pairs, rng, &mut out);
    out
}

/// Training history for diagnostics and the scalability experiments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Loss after each epoch.
    pub losses: Vec<f64>,
    /// Number of ranking pairs sampled in each epoch (aligned with `losses`),
    /// so sampling variance across epochs is reportable.
    pub rank_pair_counts: Vec<usize>,
}

/// Worker threads [`train`] uses by default: every CPU available to the
/// process.  Training is bit-identical for every thread count (see
/// [`EpochScratch`]), so the default only affects speed, never results.
pub fn default_train_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Trains the risk model on risk-training data (the validation split of the
/// classifier, as in Section 4.3), using [`default_train_threads`] workers.
pub fn train(model: &mut LearnRiskModel, inputs: &[PairRiskInput], config: &RiskTrainConfig) -> TrainReport {
    train_with_threads(model, inputs, config, default_train_threads())
}

/// [`train`] with an explicit worker-thread count.  The factorized epoch is
/// deterministic across thread counts: for the same model, inputs and config,
/// every `threads` value produces bit-identical losses and parameters.
pub fn train_with_threads(
    model: &mut LearnRiskModel,
    inputs: &[PairRiskInput],
    config: &RiskTrainConfig,
    threads: usize,
) -> TrainReport {
    let mut report = TrainReport::default();
    if inputs.is_empty() {
        return report;
    }
    let mut rng = substream(config.seed, 0x71);
    let sampler = RankPairSampler::new(inputs);
    let mut params = flatten_params(model);
    let mut grad = vec![0.0; params.len()];
    let mut rank_pairs: Vec<(u32, u32)> = Vec::new();
    let mut scratch = EpochScratch::new();
    // Adam state.
    let mut m = vec![0.0; params.len()];
    let mut v = vec![0.0; params.len()];
    let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);

    for epoch in 0..config.epochs {
        sampler.sample_into(config.max_rank_pairs, &mut rng, &mut rank_pairs);
        if rank_pairs.is_empty() {
            // Nothing to rank (no mislabeled pairs in the risk-training data):
            // the model keeps its prior parameters.
            break;
        }
        report.rank_pair_counts.push(rank_pairs.len());
        let loss = scratch.factorized_loss_and_gradient(model, inputs, &rank_pairs, config, threads, &mut grad);
        report.losses.push(loss);

        if config.use_adam {
            let t = (epoch + 1) as i32;
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            for i in 0..params.len() {
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                params[i] -= config.learning_rate * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
            }
        } else {
            for (p, g) in params.iter_mut().zip(&grad) {
                *p -= config.learning_rate * g;
            }
        }
        unflatten_params(model, &params);
        // Re-read the projected parameters so optimizer state stays consistent.
        flatten_params_into(model, &mut params);
    }
    report
}

/// Convenience: AUROC of the model's risk ranking against the risk labels of
/// the inputs.
pub fn evaluate_auroc(model: &LearnRiskModel, inputs: &[PairRiskInput]) -> f64 {
    let scores = model.rank(inputs);
    let labels: Vec<u8> = inputs.iter().map(|i| i.risk_label).collect();
    er_base::auroc(&scores, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::RiskFeatureSet;
    use crate::model::RiskModelConfig;
    use er_base::rng::seeded;
    use er_base::Label;
    use er_rulegen::{CmpOp, Condition, Rule};

    fn toy_model() -> LearnRiskModel {
        let rules = vec![
            Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 50, 0.95),
            Rule::new(vec![Condition::new(1, CmpOp::Gt, 0.5)], Label::Equivalent, 40, 0.95),
        ];
        let fs = RiskFeatureSet {
            rules,
            metrics: vec![],
            expectations: vec![0.05, 0.95],
            support: vec![50, 40],
        };
        LearnRiskModel::new(
            fs,
            RiskModelConfig {
                output_buckets: 4,
                ..Default::default()
            },
        )
    }

    /// Synthetic risk-training data: the classifier output is mostly right;
    /// rule 0 fires on some pairs the classifier wrongly labels as matches and
    /// rule 1 fires on pairs wrongly labeled as unmatches.
    fn toy_inputs(n: usize, seed: u64) -> Vec<PairRiskInput> {
        let mut rng = seeded(seed);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let truth_match = rng.gen_bool(0.4);
            // Classifier: 80% accurate, more confident when right.
            let correct = rng.gen_bool(0.8);
            let says_match = if correct { truth_match } else { !truth_match };
            let output: f64 = if says_match {
                rng.gen_range(0.55..0.99)
            } else {
                rng.gen_range(0.01..0.45)
            };
            // Rules: the inequivalence rule fires for most true non-matches,
            // the equivalence rule for most true matches (plus some noise).
            let mut rules = Vec::new();
            if !truth_match && rng.gen_bool(0.7) {
                rules.push(0u32);
            }
            if truth_match && rng.gen_bool(0.7) {
                rules.push(1u32);
            }
            if rng.gen_bool(0.05) {
                rules.push(if rng.gen_bool(0.5) { 0 } else { 1 });
            }
            out.push(PairRiskInput {
                rule_indices: rules,
                classifier_output: output,
                machine_says_match: says_match,
                risk_label: u8::from(says_match != truth_match),
            });
        }
        out
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let model = toy_model();
        let inputs = toy_inputs(40, 3);
        let mut rng = seeded(4);
        let rank_pairs = sample_rank_pairs(&inputs, 200, &mut rng);
        assert!(!rank_pairs.is_empty());
        let config = RiskTrainConfig {
            l1: 1e-3,
            l2: 1e-3,
            ..Default::default()
        };
        let (_, grad) = loss_and_gradient(&model, &inputs, &rank_pairs, &config);

        let params = flatten_params(&model);
        let eps = 1e-6;
        for idx in 0..params.len() {
            let mut plus = model.clone();
            let mut p_plus = params.clone();
            p_plus[idx] += eps;
            unflatten_params(&mut plus, &p_plus);
            let mut minus = model.clone();
            let mut p_minus = params.clone();
            p_minus[idx] -= eps;
            unflatten_params(&mut minus, &p_minus);
            let (l_plus, _) = loss_and_gradient(&plus, &inputs, &rank_pairs, &config);
            let (l_minus, _) = loss_and_gradient(&minus, &inputs, &rank_pairs, &config);
            let numeric = (l_plus - l_minus) / (2.0 * eps);
            assert!(
                (numeric - grad[idx]).abs() < 1e-4,
                "param {idx}: numeric {numeric} vs analytic {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn factorized_epoch_matches_the_per_pair_reference() {
        let model = toy_model();
        let inputs = toy_inputs(120, 13);
        let mut rng = seeded(14);
        let rank_pairs = sample_rank_pairs(&inputs, 600, &mut rng);
        assert!(!rank_pairs.is_empty());
        let config = RiskTrainConfig::default();
        let (loss_ref, grad_ref) = loss_and_gradient(&model, &inputs, &rank_pairs, &config);

        let mut scratch = EpochScratch::new();
        let mut grad = vec![0.0; model.param_count()];
        for threads in [1usize, 3] {
            let loss = scratch.factorized_loss_and_gradient(&model, &inputs, &rank_pairs, &config, threads, &mut grad);
            assert!(
                (loss - loss_ref).abs() < 1e-9,
                "threads {threads}: loss {loss} vs reference {loss_ref}"
            );
            for (idx, (f, r)) in grad.iter().zip(&grad_ref).enumerate() {
                assert!(
                    (f - r).abs() < 1e-9,
                    "threads {threads}, param {idx}: factorized {f} vs reference {r}"
                );
            }
        }
    }

    #[test]
    fn factorized_epoch_matches_reference_when_most_inputs_are_inactive() {
        // A tiny pair budget over many inputs: the active-input optimization
        // must only score what the pairs reference and still agree with the
        // per-pair path.
        let model = toy_model();
        let inputs = toy_inputs(2000, 17);
        let mut rng = seeded(18);
        let rank_pairs = sample_rank_pairs(&inputs, 40, &mut rng);
        assert!(!rank_pairs.is_empty() && rank_pairs.len() <= 40);
        let config = RiskTrainConfig::default();
        let (loss_ref, grad_ref) = loss_and_gradient(&model, &inputs, &rank_pairs, &config);
        let mut scratch = EpochScratch::new();
        let mut grad = vec![0.0; model.param_count()];
        for threads in [1usize, 4] {
            let loss = scratch.factorized_loss_and_gradient(&model, &inputs, &rank_pairs, &config, threads, &mut grad);
            assert!((loss - loss_ref).abs() < 1e-9);
            for (f, r) in grad.iter().zip(&grad_ref) {
                assert!((f - r).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn thread_counts_produce_bit_identical_training() {
        let inputs = toy_inputs(300, 21);
        let config = RiskTrainConfig {
            epochs: 40,
            learning_rate: 0.05,
            ..Default::default()
        };
        let mut baseline = toy_model();
        let baseline_report = train_with_threads(&mut baseline, &inputs, &config, 1);
        assert!(!baseline_report.losses.is_empty());
        for threads in [2usize, 4, 7] {
            let mut model = toy_model();
            let report = train_with_threads(&mut model, &inputs, &config, threads);
            let loss_bits: Vec<u64> = report.losses.iter().map(|l| l.to_bits()).collect();
            let base_bits: Vec<u64> = baseline_report.losses.iter().map(|l| l.to_bits()).collect();
            assert_eq!(loss_bits, base_bits, "losses diverged at {threads} threads");
            let param_bits: Vec<u64> = flatten_params(&model).iter().map(|p| p.to_bits()).collect();
            let base_param_bits: Vec<u64> = flatten_params(&baseline).iter().map(|p| p.to_bits()).collect();
            assert_eq!(param_bits, base_param_bits, "parameters diverged at {threads} threads");
        }
    }

    /// The pre-factorization trainer, re-implemented on the per-pair
    /// reference epoch: same sampling stream, same optimizer.  Guards the
    /// acceptance criterion that factorizing the epoch does not change what
    /// the trainer learns.
    fn reference_train(model: &mut LearnRiskModel, inputs: &[PairRiskInput], config: &RiskTrainConfig) -> TrainReport {
        let mut report = TrainReport::default();
        let mut rng = substream(config.seed, 0x71);
        let sampler = RankPairSampler::new(inputs);
        let mut params = flatten_params(model);
        let mut rank_pairs = Vec::new();
        let mut m = vec![0.0; params.len()];
        let mut v = vec![0.0; params.len()];
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        for epoch in 0..config.epochs {
            sampler.sample_into(config.max_rank_pairs, &mut rng, &mut rank_pairs);
            if rank_pairs.is_empty() {
                break;
            }
            let (loss, grad) = loss_and_gradient(model, inputs, &rank_pairs, config);
            report.losses.push(loss);
            if config.use_adam {
                let t = (epoch + 1) as i32;
                let bc1 = 1.0 - beta1.powi(t);
                let bc2 = 1.0 - beta2.powi(t);
                for i in 0..params.len() {
                    m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                    params[i] -= config.learning_rate * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
                }
            } else {
                for (p, g) in params.iter_mut().zip(&grad) {
                    *p -= config.learning_rate * g;
                }
            }
            unflatten_params(model, &params);
            params = flatten_params(model);
        }
        report
    }

    #[test]
    fn factorized_training_matches_the_reference_trainer() {
        let inputs = toy_inputs(300, 5);
        let test_inputs = toy_inputs(300, 6);
        let config = RiskTrainConfig {
            epochs: 120,
            learning_rate: 0.05,
            ..Default::default()
        };
        let mut reference = toy_model();
        let reference_report = reference_train(&mut reference, &inputs, &config);
        let mut factorized = toy_model();
        let factorized_report = train(&mut factorized, &inputs, &config);
        assert_eq!(reference_report.losses.len(), factorized_report.losses.len());
        for (epoch, (r, f)) in reference_report
            .losses
            .iter()
            .zip(&factorized_report.losses)
            .enumerate()
        {
            assert!(
                (r - f).abs() < 1e-7,
                "epoch {epoch}: reference loss {r} vs factorized {f}"
            );
        }
        let auroc_ref = evaluate_auroc(&reference, &test_inputs);
        let auroc_fac = evaluate_auroc(&factorized, &test_inputs);
        assert!(
            (auroc_ref - auroc_fac).abs() < 1e-6,
            "AUROC diverged: reference {auroc_ref} vs factorized {auroc_fac}"
        );
    }

    #[test]
    fn training_reduces_loss_and_improves_auroc() {
        let mut model = toy_model();
        let train_inputs = toy_inputs(300, 5);
        let test_inputs = toy_inputs(300, 6);
        let before = evaluate_auroc(&model, &test_inputs);
        let config = RiskTrainConfig {
            epochs: 120,
            learning_rate: 0.05,
            ..Default::default()
        };
        let report = train(&mut model, &train_inputs, &config);
        assert!(!report.losses.is_empty());
        let first = report.losses.first().unwrap();
        let last = report.losses.last().unwrap();
        assert!(last < first, "loss should decrease: {first} -> {last}");
        let after = evaluate_auroc(&model, &test_inputs);
        assert!(after >= before - 0.02, "AUROC should not degrade: {before} -> {after}");
        assert!(after > 0.6, "trained AUROC too low: {after}");
    }

    #[test]
    fn report_records_per_epoch_pair_counts() {
        let mut model = toy_model();
        let inputs = toy_inputs(200, 31);
        let config = RiskTrainConfig {
            epochs: 30,
            ..Default::default()
        };
        let report = train(&mut model, &inputs, &config);
        assert_eq!(report.rank_pair_counts.len(), report.losses.len());
        assert!(!report.losses.is_empty());
        assert!(report.rank_pair_counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn exhaustive_enumeration_guards_against_overflow() {
        assert!(enumerate_exhaustively(3, 4, 12));
        assert!(!enumerate_exhaustively(3, 5, 12));
        // A product that overflows usize must fall back to sampling, not wrap.
        assert!(!enumerate_exhaustively(usize::MAX, 2, usize::MAX));
        assert!(!enumerate_exhaustively(usize::MAX / 2, 3, usize::MAX));
    }

    #[test]
    fn projection_keeps_parameters_feasible() {
        let mut model = toy_model();
        let mut params = flatten_params(&model);
        params.iter_mut().for_each(|p| *p = -5.0);
        unflatten_params(&mut model, &params);
        assert!(model.rule_weights.iter().all(|&w| w >= 1e-3));
        assert!(model.rule_rsd.iter().all(|&r| r >= 1e-3));
        assert!(model.influence.alpha >= 0.05);
        assert!(model.influence.beta >= 0.0);
        assert!(model.output_rsd.iter().all(|&r| r >= 1e-3));
    }

    #[test]
    fn sampling_handles_degenerate_label_sets() {
        let mut rng = seeded(7);
        let all_correct: Vec<PairRiskInput> = toy_inputs(20, 8)
            .into_iter()
            .map(|mut i| {
                i.risk_label = 0;
                i
            })
            .collect();
        assert!(sample_rank_pairs(&all_correct, 100, &mut rng).is_empty());
        // Training on data without any mislabeled pair is a no-op.
        let mut model = toy_model();
        let report = train(&mut model, &all_correct, &RiskTrainConfig::default());
        assert!(report.losses.is_empty());
        // Empty inputs likewise.
        let report = train(&mut model, &[], &RiskTrainConfig::default());
        assert!(report.losses.is_empty());
    }

    #[test]
    fn sampling_caps_the_number_of_pairs() {
        let inputs = toy_inputs(200, 9);
        let mut rng = seeded(10);
        let pairs = sample_rank_pairs(&inputs, 500, &mut rng);
        assert!(pairs.len() <= 500);
        assert!(!pairs.is_empty());
        // Each sampled ordering is (mislabeled, correct).
        for &(a, b) in &pairs {
            assert_eq!(inputs[a as usize].risk_label, 1);
            assert_eq!(inputs[b as usize].risk_label, 0);
        }
    }

    #[test]
    fn exhaustive_sampling_emits_the_full_product_without_rng() {
        let inputs = toy_inputs(40, 15);
        let sampler = RankPairSampler::new(&inputs);
        assert!(!sampler.is_degenerate());
        let mut rng = seeded(16);
        let mut pairs = Vec::new();
        sampler.sample_into(usize::MAX, &mut rng, &mut pairs);
        let positives = inputs.iter().filter(|i| i.risk_label == 1).count();
        let negatives = inputs.len() - positives;
        assert_eq!(pairs.len(), positives * negatives);
        // Exhaustive enumeration is deterministic: a second pass (any RNG
        // state) produces the identical list.
        let mut again = Vec::new();
        sampler.sample_into(usize::MAX, &mut seeded(99), &mut again);
        assert_eq!(pairs, again);
    }

    #[test]
    fn plain_gradient_descent_also_trains() {
        let mut model = toy_model();
        let inputs = toy_inputs(200, 11);
        let config = RiskTrainConfig {
            epochs: 80,
            learning_rate: 0.05,
            use_adam: false,
            ..Default::default()
        };
        let report = train(&mut model, &inputs, &config);
        assert!(report.losses.last().unwrap() <= report.losses.first().unwrap());
    }

    #[test]
    fn learned_weights_upweight_informative_rules() {
        let mut model = toy_model();
        let inputs = toy_inputs(400, 12);
        train(
            &mut model,
            &inputs,
            &RiskTrainConfig {
                epochs: 150,
                learning_rate: 0.05,
                ..Default::default()
            },
        );
        // After training, the AUROC on the training data itself should be high.
        let auroc = evaluate_auroc(&model, &inputs);
        assert!(auroc > 0.7, "training-data AUROC {auroc}");
    }
}
