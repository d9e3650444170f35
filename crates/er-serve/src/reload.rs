//! Versioned artifact hot-reload: roll out a retrained model without
//! draining traffic.
//!
//! A [`ReloadableExecutor`] owns the serving state behind an
//! `RwLock<Arc<VersionedExecutor>>`. Request paths take a cheap
//! [`ReloadableExecutor::snapshot`] (one `Arc` clone under a read lock) and
//! score an entire response through that snapshot, so every response is
//! attributable to *exactly one* artifact version — a batch can never mix
//! scores from two models. [`ReloadableExecutor::reload_artifact`] runs the
//! full promotion pipeline before anything becomes visible to traffic:
//!
//! 1. **validate** — the candidate model must pass
//!    [`learnrisk_core::LearnRiskModel::validate`] (artifacts loaded from disk have already
//!    been validated by [`ModelArtifact::load`]; in-memory candidates are
//!    validated here);
//! 2. **verify round trip** — the candidate is re-serialized, re-parsed and
//!    re-compiled, and both engines must score bit-identically on a probe
//!    set [`synthesize_probes`] derives from the candidate's own rule set
//!    (threshold-adjacent rows, so the check never passes vacuously), plus
//!    any caller-supplied traffic sample;
//! 3. **atomic swap** — a *fresh* [`ShardedExecutor`] (new engine, new
//!    score cache — cached scores of the old model must never answer for the
//!    new one, but the same persistent worker pool: reloads never respawn
//!    threads) replaces the current `Arc` under the write lock, tagged with
//!    the next version number.
//!
//! A failed reload leaves the serving state untouched: traffic keeps scoring
//! through the old version and the error is reported to the operator. Every
//! outcome is counted ([`ReloadableExecutor::reload_stats`]); the server
//! copies the counts into `er_serve_reloads_total` when `/metrics` is
//! scraped.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::engine::{ScoreRequest, ScoringEngine};
use crate::executor::{ServeConfig, ShardedExecutor};
use crate::fault::{FaultKind, FaultPlan};
use crate::trace::{SpanSet, Stage};
use er_pool::WorkerPool;
use er_rulegen::CmpOp;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Why a candidate artifact was refused promotion. The serving state is
/// untouched on any of these — the old version keeps taking traffic.
#[derive(Debug)]
pub enum ReloadError {
    /// The candidate could not be read, parsed or validated.
    Artifact(ArtifactError),
    /// The candidate failed the persistence round trip: the engine compiled
    /// from the re-serialized artifact diverged from the engine compiled from
    /// the candidate itself.
    RoundTrip {
        /// Index of the first diverging probe request.
        probe_index: usize,
        /// Score from the candidate engine.
        candidate: f64,
        /// Score from the re-serialized/re-parsed engine.
        round_tripped: f64,
    },
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::Artifact(e) => write!(f, "reload refused: {e}"),
            ReloadError::RoundTrip {
                probe_index,
                candidate,
                round_tripped,
            } => write!(
                f,
                "reload refused: candidate artifact is not persistence-stable \
                 (probe {probe_index} scored {candidate} before and {round_tripped} after a \
                 serialize/parse round trip)"
            ),
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Artifact(e) => Some(e),
            ReloadError::RoundTrip { .. } => None,
        }
    }
}

impl From<ArtifactError> for ReloadError {
    fn from(e: ArtifactError) -> Self {
        ReloadError::Artifact(e)
    }
}

/// One immutable serving generation: an executor plus the version tag every
/// score computed through it carries.
pub struct VersionedExecutor {
    /// Monotonically increasing artifact version (1 is the boot engine;
    /// every successful reload increments it).
    pub version: u64,
    /// Provenance of the model behind this version (the artifact's
    /// `producer` field, or `"boot"` for the engine the process started on).
    pub producer: String,
    /// Content digest of the trained model this generation serves
    /// ([`crate::artifact::model_digest`]): equal parameters ⇒ equal digest,
    /// independent of producer tag or file path. The gateway uses it to
    /// attest which artifact each backend is actually running.
    pub digest: String,
    executor: ShardedExecutor,
}

impl fmt::Debug for VersionedExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionedExecutor")
            .field("version", &self.version)
            .field("producer", &self.producer)
            .finish_non_exhaustive()
    }
}

impl VersionedExecutor {
    /// The executor serving this generation.
    pub fn executor(&self) -> &ShardedExecutor {
        &self.executor
    }

    /// The engine behind this generation's executor.
    pub fn engine(&self) -> &ScoringEngine {
        self.executor.engine()
    }
}

/// Reload outcome counters of a [`ReloadableExecutor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReloadStats {
    /// Candidates promoted to serving.
    pub applied: u64,
    /// Candidates refused; the old version kept serving.
    pub refused: u64,
}

/// The hot-reloadable serving state: see the [module docs](self).
///
/// # Examples
///
/// ```
/// use er_base::Label;
/// use er_rulegen::{CmpOp, Condition, Rule};
/// use er_serve::{ReloadableExecutor, ScoringEngine, ServeConfig};
/// use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
///
/// let feature_set = RiskFeatureSet {
///     rules: vec![Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 10, 0.9)],
///     metrics: vec![],
///     expectations: vec![0.1],
///     support: vec![10],
/// };
/// let model = LearnRiskModel::new(feature_set, RiskModelConfig::default());
/// let executor = ReloadableExecutor::new(ScoringEngine::new(model), ServeConfig::default().with_threads(1));
///
/// // Boots at version 1; every successful reload increments it.
/// assert_eq!(executor.version(), 1);
///
/// // Batches score through one pinned generation, so every score in a
/// // batch is attributable to exactly one version even mid-reload.
/// let generation = executor.snapshot();
/// assert_eq!(generation.version, 1);
/// assert_eq!(generation.producer, "boot");
/// ```
pub struct ReloadableExecutor {
    current: RwLock<Arc<VersionedExecutor>>,
    /// Serializes reloads so two concurrent promotions cannot race the
    /// version counter (scoring traffic only takes the read lock).
    reload_lock: Mutex<()>,
    config: ServeConfig,
    /// One persistent set of scoring lanes shared by every generation:
    /// a reload swaps the engine and the cache, never the threads.
    pool: Arc<WorkerPool>,
    applied: AtomicU64,
    refused: AtomicU64,
}

impl ReloadableExecutor {
    /// Boots serving state at version 1 from an in-memory engine.
    pub fn new(engine: ScoringEngine, config: ServeConfig) -> Self {
        Self::boot(engine, "boot".to_string(), config)
    }

    /// Boots serving state at version 1 from a loaded artifact.
    pub fn from_artifact(artifact: ModelArtifact, config: ServeConfig) -> Result<Self, ReloadError> {
        artifact.model.validate().map_err(ArtifactError::InvalidModel)?;
        Ok(Self::boot(
            ScoringEngine::new(artifact.model),
            artifact.producer,
            config,
        ))
    }

    fn boot(engine: ScoringEngine, producer: String, config: ServeConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.threads.max(1)));
        Self {
            current: RwLock::new(Arc::new(VersionedExecutor {
                version: 1,
                producer,
                digest: crate::artifact::model_digest(engine.model()),
                executor: ShardedExecutor::with_pool(engine, config, Arc::clone(&pool)),
            })),
            reload_lock: Mutex::new(()),
            config,
            pool,
            applied: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        }
    }

    /// How many reloads were applied and refused since construction.
    pub fn reload_stats(&self) -> ReloadStats {
        ReloadStats {
            applied: self.applied.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
        }
    }

    /// The executor configuration every generation is built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The current serving generation. The returned `Arc` stays valid (and
    /// keeps scoring consistently) across concurrent reloads — score a whole
    /// response through one snapshot and its `version` tag is exact.
    pub fn snapshot(&self) -> Arc<VersionedExecutor> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current artifact version.
    pub fn version(&self) -> u64 {
        self.current.read().unwrap_or_else(|e| e.into_inner()).version
    }

    /// Promotes a candidate artifact: validate → verify the persistence
    /// round trip → atomically swap in a fresh executor. Returns the new
    /// version.
    ///
    /// The round trip is always verified on [`synthesize_probes`] — rows
    /// built to the candidate's own metric-row length, so the check can
    /// never pass vacuously — and *additionally* on any caller-supplied
    /// `probes` (e.g. sampled live traffic). On error the current version
    /// keeps serving, untouched.
    pub fn reload_artifact(&self, artifact: ModelArtifact, probes: &[ScoreRequest]) -> Result<u64, ReloadError> {
        self.promote(artifact, probes, None, None)
    }

    /// The promotion pipeline behind [`Self::reload_artifact`], behind
    /// `fault`'s `reload_validate_fail` point. Given `spans`, it records the
    /// `validate → probe → swap` stages that ran, even when a later stage
    /// refuses the candidate. Every outcome is counted in
    /// [`Self::reload_stats`].
    fn promote(
        &self,
        artifact: ModelArtifact,
        probes: &[ScoreRequest],
        fault: Option<&FaultPlan>,
        mut spans: Option<&mut SpanSet>,
    ) -> Result<u64, ReloadError> {
        let mut stage = |s: Stage, start: Instant| {
            if let Some(spans) = spans.as_mut() {
                spans.record(s, start, Instant::now());
            }
        };
        let result = 'promote: {
            let start = Instant::now();
            let validated = if fault.is_some_and(|p| p.fires(FaultKind::ReloadValidateFail)) {
                Err(ArtifactError::InvalidModel(format!(
                    "injected {}",
                    FaultKind::ReloadValidateFail
                )))
            } else {
                artifact.model.validate().map_err(ArtifactError::InvalidModel)
            };
            stage(Stage::Validate, start);
            if let Err(e) = validated {
                break 'promote Err(e.into());
            }
            let start = Instant::now();
            let candidate = ScoringEngine::new(artifact.model.clone());
            let synthesized = synthesize_probes(&candidate);
            let verified = verify_candidate_round_trip(&artifact, &candidate, &synthesized).and_then(|()| {
                if probes.is_empty() {
                    Ok(())
                } else {
                    verify_candidate_round_trip(&artifact, &candidate, probes)
                }
            });
            stage(Stage::Probe, start);
            if let Err(e) = verified {
                break 'promote Err(e);
            }
            let start = Instant::now();
            let _guard = self.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
            let next_version = self.version() + 1;
            // A fresh executor: the score cache is keyed on pair id only, so
            // entries computed by the old model must not survive the swap.
            // The worker pool carries over — reloads never respawn threads.
            let next = Arc::new(VersionedExecutor {
                version: next_version,
                producer: artifact.producer,
                digest: crate::artifact::model_digest(&artifact.model),
                executor: ShardedExecutor::with_pool(candidate, self.config, Arc::clone(&self.pool)),
            });
            let replaced = std::mem::replace(&mut *self.current.write().unwrap_or_else(|e| e.into_inner()), next);
            // The write guard is gone with the statement: the replaced
            // generation (its engine and cache shards, once no snapshot
            // holds it) drops here, while every loop's `snapshot()` can read.
            drop(replaced);
            stage(Stage::Swap, start);
            Ok(next_version)
        };
        let outcome = if result.is_ok() { &self.applied } else { &self.refused };
        outcome.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// [`Self::reload_artifact`] from a file path (the operator-facing form
    /// the HTTP `POST /reload` endpoint calls).
    pub fn reload_from_path(&self, path: impl AsRef<Path>, probes: &[ScoreRequest]) -> Result<u64, ReloadError> {
        self.reload_from_path_spanned(path.as_ref(), probes, None, None)
    }

    /// [`Self::reload_from_path`] behind `fault`'s `artifact_read_torn` and
    /// `reload_validate_fail` points that, given `spans`, records the full
    /// `load → validate → probe → swap` stage timeline, so a traced
    /// `POST /reload` can attribute promotion latency the same way `/score`
    /// traces attribute request latency. `None` records nothing.
    pub(crate) fn reload_from_path_spanned(
        &self,
        path: &Path,
        probes: &[ScoreRequest],
        fault: Option<&FaultPlan>,
        mut spans: Option<&mut SpanSet>,
    ) -> Result<u64, ReloadError> {
        let start = Instant::now();
        let loaded = load_artifact(path, fault);
        if let Some(spans) = spans.as_mut() {
            spans.record(Stage::Load, start, Instant::now());
        }
        match loaded {
            Ok(artifact) => self.promote(artifact, probes, fault, spans),
            Err(e) => {
                self.refused.fetch_add(1, Ordering::Relaxed);
                Err(e.into())
            }
        }
    }
}

/// [`ModelArtifact::load`] behind the `artifact_read_torn` fault point:
/// when the plan fires, the loader sees the file as a concurrent writer
/// would mid-write — truncated half-way — and must refuse it exactly like
/// any other malformed artifact, leaving the old version serving.
fn load_artifact(path: &Path, fault: Option<&FaultPlan>) -> Result<ModelArtifact, ArtifactError> {
    if fault.is_some_and(|p| p.fires(FaultKind::ArtifactReadTorn)) {
        let text = std::fs::read_to_string(path).map_err(ArtifactError::Io)?;
        let mut cut = text.len() / 2;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        return ModelArtifact::from_json(&text[..cut]);
    }
    ModelArtifact::load(path)
}

impl fmt::Debug for ReloadableExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReloadableExecutor")
            .field("version", &self.version())
            .field("config", &self.config)
            .finish()
    }
}

/// Proves the candidate artifact is persistence-stable: serialize → parse →
/// compile must reproduce the candidate engine's probe scores bit-exactly.
/// This is the same attestation `er_eval::verify_round_trip` performs
/// offline, run at promotion time so a serialization bug can never reach
/// traffic.
fn verify_candidate_round_trip(
    artifact: &ModelArtifact,
    candidate: &ScoringEngine,
    probes: &[ScoreRequest],
) -> Result<(), ReloadError> {
    let reparsed = ModelArtifact::from_json(&artifact.to_json())?;
    let round_tripped = ScoringEngine::new(reparsed.model);
    let mut candidate_scratch = candidate.scratch();
    let mut round_scratch = round_tripped.scratch();
    for (probe_index, probe) in probes.iter().enumerate() {
        // A caller-supplied probe the rule set cannot score (e.g. a traffic
        // sample whose row is shorter than the new model requires) is not a
        // candidate defect — skip it. Vacuous passes are impossible because
        // the promotion path always verifies the synthesized probe set,
        // whose rows are built to the candidate's own required length.
        let (Ok(a), Ok(b)) = (
            candidate.try_score_request(probe, &mut candidate_scratch),
            round_tripped.try_score_request(probe, &mut round_scratch),
        ) else {
            continue;
        };
        if a.to_bits() != b.to_bits() {
            return Err(ReloadError::RoundTrip {
                probe_index,
                candidate: a,
                round_tripped: b,
            });
        }
    }
    Ok(())
}

/// Derives a deterministic probe set from an engine's own rule set: for
/// every rule condition, rows that sit just on either side of its threshold
/// (where a round-trip perturbation of the threshold would flip rule
/// coverage and therefore the score), crossed with classifier outputs on
/// both sides of the decision boundary.
pub fn synthesize_probes(engine: &ScoringEngine) -> Vec<ScoreRequest> {
    let row_len = engine.required_row_len();
    let rules = &engine.model().features.rules;
    let mut probes = Vec::new();
    let mut pair_id = 0u64;
    let mut push = |metric_row: Vec<f64>, probes: &mut Vec<ScoreRequest>| {
        for classifier_output in [0.08, 0.93] {
            probes.push(ScoreRequest {
                pair_id,
                metric_row: metric_row.clone(),
                classifier_output,
                machine_says_match: classifier_output >= 0.5,
            });
            pair_id += 1;
        }
    };
    for rule in rules {
        // A row satisfying every condition of the rule (fires it), and one
        // nudged across the first condition's threshold (does not).
        let mut firing = vec![0.5f64; row_len];
        for c in &rule.conditions {
            firing[c.metric_index] = match c.op {
                CmpOp::Gt => c.threshold + 1e-9,
                CmpOp::Le => c.threshold,
            };
        }
        let mut missing = firing.clone();
        if let Some(c) = rule.conditions.first() {
            missing[c.metric_index] = match c.op {
                CmpOp::Gt => c.threshold,
                CmpOp::Le => c.threshold + 1e-9,
            };
        }
        push(firing, &mut probes);
        push(missing, &mut probes);
    }
    // A few quasi-random rows for coverage away from the thresholds.
    for i in 0..8u64 {
        let row: Vec<f64> = (0..row_len)
            .map(|j| ((i as f64) * 0.618_033_988_749_895 + (j as f64) * 0.37).fract())
            .collect();
        push(row, &mut probes);
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::Label;
    use er_rulegen::{Condition, Rule};
    use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};

    fn model(weight0: f64) -> LearnRiskModel {
        let rules = vec![
            Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 20, 0.97),
            Rule::new(vec![Condition::new(1, CmpOp::Le, 0.3)], Label::Equivalent, 15, 0.93),
        ];
        let fs = RiskFeatureSet {
            rules,
            metrics: vec![],
            expectations: vec![0.05, 0.92],
            support: vec![20, 15],
        };
        let mut m = LearnRiskModel::new(fs, RiskModelConfig::default());
        m.rule_weights = vec![weight0, 0.7];
        m
    }

    fn request(pair_id: u64, x: f64) -> ScoreRequest {
        ScoreRequest {
            pair_id,
            metric_row: vec![x, 1.0 - x],
            classifier_output: x,
            machine_says_match: x >= 0.5,
        }
    }

    #[test]
    fn reload_swaps_version_and_scores_atomically() {
        let handle = ReloadableExecutor::new(ScoringEngine::new(model(1.3)), ServeConfig::default().with_threads(1));
        assert_eq!(handle.version(), 1);
        let requests: Vec<ScoreRequest> = (0..10).map(|i| request(i, i as f64 / 10.0)).collect();
        let before = handle.snapshot();
        let old_scores = before.executor().score_batch(&requests);

        let new_version = handle
            .reload_artifact(ModelArtifact::new(model(2.6)), &requests)
            .expect("reload");
        assert_eq!(new_version, 2);
        assert_eq!(handle.version(), 2);

        // The pre-reload snapshot still scores through the old model…
        let old_again = before.executor().score_batch(&requests);
        assert_eq!(
            old_scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            old_again.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        // …while a fresh snapshot matches a fresh engine built from the new
        // artifact, bit for bit.
        let expected = ScoringEngine::new(model(2.6)).score_batch(&requests);
        let served = handle.snapshot().executor().score_batch(&requests);
        assert_eq!(
            served.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reload_invalidates_the_score_cache() {
        // Same pair id, different model: a stale cached score answering for
        // the new version would be a correctness bug, not a perf feature.
        let config = ServeConfig {
            threads: 1,
            cache_capacity: 64,
        };
        let handle = ReloadableExecutor::new(ScoringEngine::new(model(1.3)), config);
        let req = request(7, 0.8);
        let old = handle.snapshot().executor().score_batch(std::slice::from_ref(&req))[0];
        handle
            .reload_artifact(ModelArtifact::new(model(2.6)), &[])
            .expect("reload");
        let new = handle.snapshot().executor().score_batch(std::slice::from_ref(&req))[0];
        let expected = ScoringEngine::new(model(2.6)).score_batch(std::slice::from_ref(&req))[0];
        assert_eq!(new.to_bits(), expected.to_bits());
        assert_ne!(old.to_bits(), new.to_bits(), "weight change must move this score");
    }

    #[test]
    fn invalid_candidates_are_refused_and_serving_is_untouched() {
        let handle = ReloadableExecutor::new(ScoringEngine::new(model(1.3)), ServeConfig::default().with_threads(1));
        let mut bad = ModelArtifact::new(model(2.6));
        bad.model.rule_weights.pop();
        let err = handle.reload_artifact(bad, &[]).expect_err("must refuse");
        assert!(
            matches!(err, ReloadError::Artifact(ArtifactError::InvalidModel(_))),
            "{err}"
        );
        assert!(err.to_string().contains("reload refused"));
        assert_eq!(handle.version(), 1, "failed reload must not advance the version");
    }

    #[test]
    fn synthesized_probes_cover_every_rule() {
        let engine = ScoringEngine::new(model(1.3));
        let probes = synthesize_probes(&engine);
        assert!(!probes.is_empty());
        let mut scratch = engine.scratch();
        let mut fired = vec![false; engine.index().rule_count()];
        for probe in &probes {
            assert_eq!(probe.metric_row.len(), engine.index().required_row_len());
            engine.try_score_request(probe, &mut scratch).expect("probe scores");
            for &r in engine.index().matching_rules(&probe.metric_row).iter() {
                fired[r as usize] = true;
            }
        }
        assert!(
            fired.iter().all(|&f| f),
            "every rule must fire on some probe: {fired:?}"
        );
    }

    #[test]
    fn reload_outcomes_are_counted_by_the_executor() {
        let handle = ReloadableExecutor::new(ScoringEngine::new(model(1.3)), ServeConfig::default().with_threads(1));
        assert_eq!(handle.reload_stats(), ReloadStats::default());
        handle
            .reload_artifact(ModelArtifact::new(model(2.6)), &[])
            .expect("reload");
        let mut bad = ModelArtifact::new(model(2.6));
        bad.model.rule_weights.pop();
        handle.reload_artifact(bad, &[]).expect_err("must refuse");
        assert_eq!(handle.reload_stats().applied, 1);
        assert_eq!(handle.reload_stats().refused, 1);
        assert_eq!(handle.version(), 2, "the version tracks the applied reload");
        // An artifact that cannot be read is a refusal too.
        handle
            .reload_from_path(std::env::temp_dir().join("er-serve-no-such-artifact.json"), &[])
            .expect_err("missing file refused");
        assert_eq!(handle.reload_stats(), ReloadStats { applied: 1, refused: 2 });
    }

    #[test]
    fn torn_artifact_reads_are_refused_and_the_old_version_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("er-serve-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("candidate.json");
        ModelArtifact::new(model(2.6)).save(&path).expect("save");

        let handle = ReloadableExecutor::new(ScoringEngine::new(model(1.3)), ServeConfig::default().with_threads(1));
        let plan = FaultPlan::parse("artifact_read_torn@0").expect("spec");
        let reload = || handle.reload_from_path_spanned(&path, &[], Some(&plan), None);

        // First reload sees the half-written file and must refuse it.
        let err = reload().expect_err("torn read refused");
        assert!(
            matches!(err, ReloadError::Artifact(ArtifactError::Malformed(_))),
            "{err}"
        );
        assert_eq!(handle.version(), 1, "old version keeps serving through the torn read");
        assert_eq!(plan.fired(FaultKind::ArtifactReadTorn), 1);

        // The fault fired once; the retry reads the intact file and applies.
        let version = reload().expect("clean retry applies");
        assert_eq!(version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_validate_failures_refuse_the_reload() {
        let handle = ReloadableExecutor::new(ScoringEngine::new(model(1.3)), ServeConfig::default().with_threads(1));
        let plan = FaultPlan::parse("reload_validate_fail@0").expect("spec");
        let err = handle
            .promote(ModelArtifact::new(model(2.6)), &[], Some(&plan), None)
            .expect_err("injected validate failure");
        assert!(err.to_string().contains("reload_validate_fail"), "{err}");
        assert_eq!(handle.version(), 1);
        // The point fires at occurrence 0 only: the next attempt applies.
        handle
            .promote(ModelArtifact::new(model(2.6)), &[], Some(&plan), None)
            .expect("fault exhausted");
        assert_eq!(handle.version(), 2);
    }

    #[test]
    fn from_artifact_boots_with_the_artifact_producer() {
        let artifact = ModelArtifact::new(model(1.3));
        let producer = artifact.producer.clone();
        let handle = ReloadableExecutor::from_artifact(artifact, ServeConfig::default().with_threads(1)).expect("boot");
        let snap = handle.snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.producer, producer);
    }
}
