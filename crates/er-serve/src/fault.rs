//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] names the exact failure a test or benchmark wants to see
//! and the exact moment it should happen, so the hardening around panics,
//! torn artifact writes, and stalls can be *proven* rather than assumed.
//! Each named [`FaultKind`] is a fault point compiled into the stack
//! (executor workers, the batcher, the reload path, the response writer);
//! production code asks the plan [`FaultPlan::check`] at that point and the
//! plan answers "fire now" based on how many times the point has been
//! reached.
//!
//! Plans are built three ways:
//!
//! * programmatically ([`FaultPlan::parse`]) by tests,
//! * from the `ER_FAULT_PLAN` environment variable
//!   ([`FaultPlan::from_env`]) for operator-driven game days,
//! * not at all — the default. An absent plan is a `None` check on the hot
//!   path and an empty plan short-circuits before touching any atomics, so
//!   the harness costs nothing when unused.
//!
//! The spec grammar is a `;`-separated list of rules:
//!
//! ```text
//! seed=42; shard_worker_panic@2,7; score_stall@3:250ms; batcher_panic~0.01
//! ```
//!
//! `point@i,j,k` fires at exact 0-based occurrence indices, `point~p` fires
//! each occurrence with probability `p` (deterministic given `seed`), and a
//! trailing `:Nms` attaches a stall duration to stall-style points.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The named fault points compiled into the serving stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The reload path reads a torn (truncated mid-write) artifact file.
    ArtifactReadTorn,
    /// Artifact validation fails during a reload even though the file is
    /// well-formed, exercising the refusal path.
    ReloadValidateFail,
    /// A shard-executor worker thread panics mid-batch.
    ShardWorkerPanic,
    /// The batcher thread panics while holding a popped batch of jobs.
    BatcherPanic,
    /// Scoring of one micro-batch stalls for the rule's `:Nms` duration.
    ScoreStall,
    /// The response write back to a client stalls for `:Nms` before the
    /// bytes go out, simulating a slow consumer.
    ClientWriteStall,
}

/// Every fault point, in wire-name order — handy for iteration in tests
/// and attestation reports.
pub const FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::ArtifactReadTorn,
    FaultKind::ReloadValidateFail,
    FaultKind::ShardWorkerPanic,
    FaultKind::BatcherPanic,
    FaultKind::ScoreStall,
    FaultKind::ClientWriteStall,
];

impl FaultKind {
    /// The snake_case wire name used in plan specs and attestations.
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::ArtifactReadTorn => "artifact_read_torn",
            FaultKind::ReloadValidateFail => "reload_validate_fail",
            FaultKind::ShardWorkerPanic => "shard_worker_panic",
            FaultKind::BatcherPanic => "batcher_panic",
            FaultKind::ScoreStall => "score_stall",
            FaultKind::ClientWriteStall => "client_write_stall",
        }
    }

    /// Parse a wire name back into a kind.
    pub fn parse(name: &str) -> Option<FaultKind> {
        FAULT_KINDS.iter().copied().find(|k| k.name() == name)
    }

    const fn slot(self) -> usize {
        match self {
            FaultKind::ArtifactReadTorn => 0,
            FaultKind::ReloadValidateFail => 1,
            FaultKind::ShardWorkerPanic => 2,
            FaultKind::BatcherPanic => 3,
            FaultKind::ScoreStall => 4,
            FaultKind::ClientWriteStall => 5,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A malformed fault-plan spec, with the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    fragment: String,
    reason: &'static str,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec {:?}: {}", self.fragment, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

/// One injection rule: fire `kind` at exact occurrence indices and/or with
/// a per-occurrence probability, optionally carrying a stall duration.
#[derive(Clone, Debug)]
struct FaultRule {
    kind: FaultKind,
    at: Vec<u64>,
    rate: f64,
    stall_ms: u64,
}

/// A deterministic schedule of injected faults.
///
/// Thread through the stack as `Option<Arc<FaultPlan>>`; `None` (the
/// default everywhere) means the fault points vanish into a branch. The
/// plan keeps per-point occurrence and fired counters so benchmarks can
/// attest that the number of observed failures matches the number injected.
///
/// # Examples
///
/// ```
/// use er_serve::{FaultKind, FaultPlan};
///
/// # fn main() -> Result<(), er_serve::FaultSpecError> {
/// let plan = FaultPlan::parse("seed=7; shard_worker_panic@0,2")?;
/// // Occurrences 0 and 2 fire; occurrence 1 passes through clean.
/// assert!(plan.fires(FaultKind::ShardWorkerPanic));
/// assert!(!plan.fires(FaultKind::ShardWorkerPanic));
/// assert!(plan.fires(FaultKind::ShardWorkerPanic));
/// // The counters benchmarks reconcile against observed failures:
/// assert_eq!(plan.occurrences(FaultKind::ShardWorkerPanic), 3);
/// assert_eq!(plan.fired(FaultKind::ShardWorkerPanic), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    occurrences: [AtomicU64; 6],
    fired: [AtomicU64; 6],
}

impl FaultPlan {
    /// Parse a plan from the spec grammar described at the module level.
    ///
    /// An empty (or all-whitespace) spec yields an empty plan, which is
    /// also what [`FaultPlan::default`] gives you.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for raw in spec.split(';') {
            let frag = raw.trim();
            if frag.is_empty() {
                continue;
            }
            if let Some(seed) = frag.strip_prefix("seed=") {
                plan.seed = seed.trim().parse().map_err(|_| FaultSpecError {
                    fragment: frag.to_string(),
                    reason: "seed must be a u64",
                })?;
                continue;
            }
            plan.rules.push(parse_rule(frag)?);
        }
        Ok(plan)
    }

    /// Build a plan from the `ER_FAULT_PLAN` environment variable.
    ///
    /// Returns `None` when the variable is unset or empty. A malformed
    /// spec is reported on stderr and treated as absent rather than
    /// panicking a production boot path.
    pub fn from_env() -> Option<Arc<FaultPlan>> {
        let spec = std::env::var("ER_FAULT_PLAN").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) if plan.is_empty() => None,
            Ok(plan) => Some(Arc::new(plan)),
            Err(err) => {
                eprintln!("ER_FAULT_PLAN ignored: {err}");
                None
            }
        }
    }

    /// True when the plan has no rules; every [`check`](Self::check) is a
    /// single branch.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The seed driving probabilistic rules.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Record one occurrence of `kind` and decide whether a fault fires
    /// now.
    ///
    /// Returns the rule's stall duration in milliseconds when it fires
    /// (`0` for non-stall points). Call exactly once per pass through the
    /// fault point: the occurrence index advances on every call.
    pub fn check(&self, kind: FaultKind) -> Option<u64> {
        if self.rules.is_empty() {
            return None;
        }
        let idx = self.occurrences[kind.slot()].fetch_add(1, Ordering::Relaxed);
        let mut hit = None;
        for rule in self.rules.iter().filter(|r| r.kind == kind) {
            let exact = rule.at.contains(&idx);
            let sampled = rule.rate > 0.0 && unit_sample(self.seed, kind, idx) < rule.rate;
            if exact || sampled {
                hit = Some(rule.stall_ms);
            }
        }
        if hit.is_some() {
            self.fired[kind.slot()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Convenience for panic-style points: did `kind` fire this occurrence?
    pub fn fires(&self, kind: FaultKind) -> bool {
        self.check(kind).is_some()
    }

    /// How many times the `kind` fault point has been reached.
    pub fn occurrences(&self, kind: FaultKind) -> u64 {
        self.occurrences[kind.slot()].load(Ordering::Relaxed)
    }

    /// How many times `kind` actually fired — the injected-fault count the
    /// chaos attestations reconcile against observed panics and refusals.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.fired[kind.slot()].load(Ordering::Relaxed)
    }
}

fn parse_rule(frag: &str) -> Result<FaultRule, FaultSpecError> {
    let err = |reason| FaultSpecError {
        fragment: frag.to_string(),
        reason,
    };
    // Split off an optional trailing `:Nms` stall duration first.
    let (head, stall_ms) = match frag.rsplit_once(':') {
        Some((head, tail)) => {
            let ms = tail
                .trim()
                .strip_suffix("ms")
                .ok_or_else(|| err("stall duration must end in `ms`"))?
                .parse()
                .map_err(|_| err("stall duration must be `<u64>ms`"))?;
            (head.trim(), ms)
        }
        None => (frag, 0),
    };
    let (name, at, rate) = if let Some((name, indices)) = head.split_once('@') {
        let mut at = Vec::new();
        for part in indices.split(',') {
            at.push(
                part.trim()
                    .parse()
                    .map_err(|_| err("occurrence indices must be u64s"))?,
            );
        }
        (name.trim(), at, 0.0)
    } else if let Some((name, rate)) = head.split_once('~') {
        let rate: f64 = rate.trim().parse().map_err(|_| err("rate must be a float in (0, 1]"))?;
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(err("rate must be a float in (0, 1]"));
        }
        (name.trim(), Vec::new(), rate)
    } else {
        return Err(err("rule needs `@indices` or `~rate`"));
    };
    let kind = FaultKind::parse(name).ok_or_else(|| err("unknown fault point"))?;
    Ok(FaultRule {
        kind,
        at,
        rate,
        stall_ms,
    })
}

/// SplitMix64-derived uniform sample in `[0, 1)` for probabilistic rules —
/// deterministic in `(seed, kind, occurrence index)`.
fn unit_sample(seed: u64, kind: FaultKind, idx: u64) -> f64 {
    let mut z = seed
        .wrapping_add((kind.slot() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(idx.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_and_counts_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for kind in FAULT_KINDS {
            assert_eq!(plan.check(kind), None);
            assert_eq!(plan.occurrences(kind), 0, "empty plan must not touch counters");
            assert_eq!(plan.fired(kind), 0);
        }
        let parsed = FaultPlan::parse("  ;; ").expect("blank spec");
        assert!(parsed.is_empty());
    }

    #[test]
    fn exact_indices_fire_exactly_once_each() {
        let plan = FaultPlan::parse("shard_worker_panic@1,3").expect("spec");
        let fired: Vec<bool> = (0..5).map(|_| plan.fires(FaultKind::ShardWorkerPanic)).collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
        assert_eq!(plan.occurrences(FaultKind::ShardWorkerPanic), 5);
        assert_eq!(plan.fired(FaultKind::ShardWorkerPanic), 2);
        // Other points are untouched.
        assert_eq!(plan.occurrences(FaultKind::BatcherPanic), 0);
    }

    #[test]
    fn stall_rules_carry_their_duration() {
        let plan = FaultPlan::parse("score_stall@0,2:250ms; client_write_stall@1:40ms").expect("spec");
        assert_eq!(plan.check(FaultKind::ScoreStall), Some(250));
        assert_eq!(plan.check(FaultKind::ScoreStall), None);
        assert_eq!(plan.check(FaultKind::ScoreStall), Some(250));
        assert_eq!(plan.check(FaultKind::ClientWriteStall), None);
        assert_eq!(plan.check(FaultKind::ClientWriteStall), Some(40));
    }

    #[test]
    fn probabilistic_rules_are_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("seed={seed}; batcher_panic~0.3")).expect("spec");
            (0..64).map(|_| plan.fires(FaultKind::BatcherPanic)).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds must diverge");
        let fires = run(7).iter().filter(|f| **f).count();
        assert!(
            fires > 0 && fires < 64,
            "rate 0.3 over 64 draws fires sometimes, not always"
        );
    }

    #[test]
    fn wire_names_round_trip() {
        for kind in FAULT_KINDS {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_fragment() {
        for bad in [
            "shard_worker_panic",
            "shard_worker_panic@x",
            "unknown_point@1",
            "batcher_panic~1.5",
            "batcher_panic~0",
            "score_stall@1:fast",
            "score_stall@1:10s",
            "seed=minus-one",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.to_string().contains("bad fault spec"), "{err}");
        }
    }

    #[test]
    fn from_env_ignores_malformed_specs() {
        // from_env reads the process environment; exercise the parse +
        // emptiness contract it layers on top instead of mutating env in a
        // multi-threaded test runner.
        assert!(FaultPlan::parse("").expect("empty").is_empty());
        assert!(FaultPlan::parse("seed=9").expect("seed only").is_empty());
    }
}
