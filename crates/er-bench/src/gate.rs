//! Self-describing bench gates: the leaf encoding the `*_bench` writers use
//! to mark a gated field, and the rules `bench_diff` applies to it.
//!
//! A gated leaf serializes as a one-key object named by its [`Kind`] —
//! `{"attest": true}`, `{"ratio": 1.44}`, `{"abs_throughput": 6206.3}`,
//! `{"runtime_s": 0.0117}` — and the kind alone fixes the direction and the
//! rule. A writer gates a field by giving it one of the leaf types below
//! ([`Attest`], [`Ratio`], [`Throughput`], [`Runtime`]); [`leaves`] finds
//! every such leaf in a JSON tree, so adding a gate touches the writer and
//! nothing else.
//!
//! Rules (see [`judge`]):
//!
//! * `attest` must be `true` in the current run, on any hardware.
//! * `ratio` (higher is better) is a machine-local ratio of two back-to-back
//!   measurements, compared on any hardware at [`TOLERANCE`], loosened to
//!   [`CROSS_HARDWARE_TOLERANCE`] when `available_parallelism` differs.
//! * `abs_throughput` (higher is better) and `runtime_s` (lower is better)
//!   are compared only when `available_parallelism` matches; runtimes under
//!   [`RUNTIME_FLOOR_S`] in *both* runs are scheduler jitter and skipped.
//! * A leaf that vanished from the current run, or a non-finite value, fails.

use serde::{Serialize, Value};

/// Relative worsening beyond which a compared leaf regresses (and
/// improvement beyond which it is a baseline-refresh candidate).
pub const TOLERANCE: f64 = 0.25;
/// [`TOLERANCE`] for `ratio` leaves across hardware: a speedup's magnitude
/// still shifts with cache sizes and ALU latencies, so the gate only catches
/// halvings, the signature of a broken hot path.
pub const CROSS_HARDWARE_TOLERANCE: f64 = 0.50;
/// Runtimes below this in both runs are skipped as scheduler jitter.
pub const RUNTIME_FLOOR_S: f64 = 0.01;

/// What a gated leaf measures; its JSON key is [`Kind::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A correctness claim that must hold in every run.
    Attest,
    /// A machine-local ratio, higher is better.
    Ratio,
    /// An absolute throughput, higher is better.
    AbsThroughput,
    /// An absolute stage runtime in seconds, lower is better.
    RuntimeS,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Attest, Kind::Ratio, Kind::AbsThroughput, Kind::RuntimeS];

    /// The leaf's one JSON key.
    pub fn key(self) -> &'static str {
        match self {
            Kind::Attest => "attest",
            Kind::Ratio => "ratio",
            Kind::AbsThroughput => "abs_throughput",
            Kind::RuntimeS => "runtime_s",
        }
    }

    /// The kind whose [`Kind::key`] is `key`.
    pub fn from_key(key: &str) -> Option<Kind> {
        Self::ALL.into_iter().find(|kind| kind.key() == key)
    }

    /// The noise floor and its label, for the kinds that have one.
    fn noise_floor(self) -> Option<(f64, &'static str)> {
        (self == Kind::RuntimeS).then_some((RUNTIME_FLOOR_S, "10ms"))
    }
}

macro_rules! leaf {
    ($(#[$doc:meta])* $name:ident($ty:ty) = $kind:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $name(pub $ty);

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                Value::Map(vec![(Kind::$kind.key().to_string(), self.0.to_value())])
            }
        }
    };
}

leaf!(
    /// A gated correctness claim (`{"attest": true}`).
    Attest(bool) = Attest
);
leaf!(
    /// A gated machine-local ratio (`{"ratio": 1.44}`).
    Ratio(f64) = Ratio
);
leaf!(
    /// A gated absolute throughput (`{"abs_throughput": 6206.3}`).
    Throughput(f64) = AbsThroughput
);
leaf!(
    /// A gated absolute stage runtime in seconds (`{"runtime_s": 0.0117}`).
    Runtime(f64) = RuntimeS
);

/// A field gated in some records and informational in others — e.g. a
/// `fig13` point's `runtime_secs`, gated only for risk-training stages.
#[derive(Debug)]
pub enum Field<G, P> {
    /// Serialized as the gated leaf `G`.
    Gated(G),
    /// Serialized as the plain value `P`.
    Info(P),
}

impl<G: Serialize, P: Serialize> Serialize for Field<G, P> {
    fn to_value(&self) -> Value {
        match self {
            Field::Gated(g) => g.to_value(),
            Field::Info(p) => p.to_value(),
        }
    }
}

/// A series written as a map keyed by a stable label (`inputs=500`,
/// `risk_training[t2]@500`), so each entry's gated leaves keep one path
/// whatever the entry's position or the series' length.
#[derive(Debug)]
pub struct Series<T>(pub Vec<(String, T)>);

impl<T> FromIterator<(String, T)> for Series<T> {
    fn from_iter<I: IntoIterator<Item = (String, T)>>(iter: I) -> Self {
        Series(iter.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for Series<T> {
    fn to_value(&self) -> Value {
        Value::Map(self.0.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

/// One gated leaf found in a JSON tree.
#[derive(Debug)]
pub struct Leaf<'v> {
    /// Dotted path, e.g. `train.points[inputs=500].single_thread_speedup`.
    pub name: String,
    /// The leaf's kind.
    pub kind: Kind,
    /// The leaf's payload (a bool for `attest`, a number otherwise).
    pub value: &'v Value,
}

/// The kind and payload of `v` if it is a gated leaf: a one-key map whose
/// key names a [`Kind`].
fn as_leaf(v: &Value) -> Option<(Kind, &Value)> {
    match v.as_map()? {
        [(key, payload)] => Some((Kind::from_key(key)?, payload)),
        _ => None,
    }
}

/// Series keys (`inputs=500`) render bracketed, every other key dotted.
fn child_path(path: &str, key: &str) -> String {
    if key.contains('=') {
        format!("{path}[{key}]")
    } else {
        format!("{path}.{key}")
    }
}

/// Appends every gated leaf under `v` to `out`, in document order, naming
/// each by its path from `path`.
pub fn leaves<'v>(v: &'v Value, path: &str, out: &mut Vec<Leaf<'v>>) {
    if let Some((kind, value)) = as_leaf(v) {
        out.push(Leaf {
            name: path.to_string(),
            kind,
            value,
        });
    } else if let Some(entries) = v.as_map() {
        for (key, child) in entries {
            leaves(child, &child_path(path, key), out);
        }
    } else if let Some(items) = v.as_seq() {
        for (i, item) in items.iter().enumerate() {
            leaves(item, &format!("{path}[{i}]"), out);
        }
    }
}

/// Whether both runs report the same `available_parallelism` — absolute
/// leaves are only comparable when they do.
pub fn same_hardware(baseline: &Value, current: &Value) -> bool {
    let stamp = |v: &Value| v.get("available_parallelism").and_then(num);
    matches!((stamp(baseline), stamp(current)), (Some(b), Some(c)) if b == c)
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// Classification of one leaf's baseline → current movement.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Within tolerance (or, for `attest`, true).
    Ok,
    /// Better than baseline beyond tolerance — a baseline-refresh candidate.
    Improved,
    /// Worse beyond tolerance, missing, non-finite, or a false attestation.
    Failed,
    /// Not compared, with the reason.
    Skipped(String),
}

/// One leaf's judgement.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Baseline value (`attest`: 1 for true, 0 otherwise).
    pub baseline: f64,
    /// Current value; `None` when the leaf is missing or not a number/bool.
    pub current: Option<f64>,
    /// Relative change in the better direction: positive = improvement.
    pub change: f64,
    /// Classification.
    pub status: Status,
}

/// Judges one leaf of `kind` by the rules in the [module docs](self).
/// `current` is `None` when the current run lacks the leaf.
pub fn judge(kind: Kind, baseline: &Value, current: Option<&Value>, same_hardware: bool) -> Verdict {
    let verdict = |baseline, current, change, status| Verdict {
        baseline,
        current,
        change,
        status,
    };
    if kind == Kind::Attest {
        let flag = |v: &Value| f64::from(u8::from(*v == Value::Bool(true)));
        let current = current.filter(|v| matches!(v, Value::Bool(_))).map(flag);
        return match current {
            Some(c) if c == 1.0 => verdict(flag(baseline), Some(c), 0.0, Status::Ok),
            _ => verdict(flag(baseline), current, -1.0, Status::Failed),
        };
    }
    let b = num(baseline).unwrap_or(f64::NAN);
    let Some(c) = current.and_then(num) else {
        return verdict(b, None, -1.0, Status::Failed);
    };
    if !b.is_finite() || !c.is_finite() {
        // A non-finite measurement means the benchmark itself is broken.
        return verdict(b, Some(c), -1.0, Status::Failed);
    }
    let skipped = |reason: String| verdict(b, Some(c), 0.0, Status::Skipped(reason));
    if kind != Kind::Ratio && !same_hardware {
        return skipped("available_parallelism differs".into());
    }
    if let Some((floor, label)) = kind.noise_floor() {
        if b < floor && c < floor {
            return skipped(format!("below {label} noise floor"));
        }
    }
    if b == 0.0 {
        return skipped("baseline is zero".into());
    }
    let change = match kind {
        Kind::Ratio | Kind::AbsThroughput => (c - b) / b,
        _ => (b - c) / b,
    };
    let tolerance = if same_hardware {
        TOLERANCE
    } else {
        CROSS_HARDWARE_TOLERANCE
    };
    let status = if change < -tolerance {
        Status::Failed
    } else if change > tolerance {
        Status::Improved
    } else {
        Status::Ok
    };
    verdict(b, Some(c), change, status)
}

/// The baseline tree with every gated leaf that improved beyond tolerance
/// replaced by its current value. Every other gated leaf, every plain field
/// and the hardware stamp keep their baseline values, so a refresh can only
/// tighten the gate — a within-tolerance slip elsewhere in the same run is
/// never baked in as the new floor.
pub fn refresh(baseline: &Value, current: &Value) -> Value {
    let mut refreshed = baseline.clone();
    adopt_improved(&mut refreshed, current, same_hardware(baseline, current));
    refreshed
}

fn adopt_improved(base: &mut Value, current: &Value, same_hw: bool) {
    if let Some((kind, value)) = as_leaf(base) {
        let adopted = as_leaf(current).filter(|(k, _)| *k == kind).map(|(_, v)| v);
        if judge(kind, value, adopted, same_hw).status == Status::Improved {
            *base = current.clone();
        }
        return;
    }
    match base {
        Value::Map(entries) => {
            for (key, child) in entries {
                if let Some(current_child) = current.get(key) {
                    adopt_improved(child, current_child, same_hw);
                }
            }
        }
        Value::Seq(items) => {
            for (child, current_child) in items.iter_mut().zip(current.as_seq().unwrap_or(&[])) {
                adopt_improved(child, current_child, same_hw);
            }
        }
        _ => {}
    }
}
