//! The committed baseline (`out/baseline/*.json`) is the gate's own fixture:
//! every leaf it gates must fail the diff when deleted, when an attestation
//! turns false, or when a number moves the wrong way by 3× the tolerance.

use er_bench::diff::{diff_all, parse, DiffReport};
use er_bench::gate::{leaves, Kind, Status, TOLERANCE};
use serde::Value;

const FILES: [(&str, &str); 2] = [
    ("train", include_str!("../../../out/baseline/train_bench.json")),
    ("fig13", include_str!("../../../out/baseline/fig13.json")),
];

fn baseline() -> Vec<Value> {
    FILES
        .iter()
        .map(|(prefix, text)| parse(prefix, text).expect("committed baseline parses"))
        .collect()
}

fn diff(baseline: &[Value], current: &[Value]) -> DiffReport {
    let files: Vec<_> = FILES
        .iter()
        .zip(baseline.iter().zip(current))
        .map(|((prefix, _), (b, c))| (*prefix, Some(b), Some(c)))
        .collect();
    diff_all(&files).expect("the baseline gates leaves")
}

fn status(report: &DiffReport, name: &str) -> Status {
    let row = report.metrics.iter().find(|m| m.name == name);
    row.unwrap_or_else(|| panic!("{name} missing from the report"))
        .verdict
        .status
        .clone()
}

type Edit<'a> = &'a mut dyn FnMut(&mut Vec<(String, Value)>, usize);

/// Hands the map holding the `target`-th gated leaf (in [`leaves`] order)
/// and the leaf's index in that map to `edit`.
fn edit_leaf(v: &mut Value, target: &mut usize, edit: Edit<'_>) -> bool {
    let entries = match v {
        Value::Map(entries) => entries,
        Value::Seq(items) => return items.iter_mut().any(|item| edit_leaf(item, target, edit)),
        _ => return false,
    };
    for i in 0..entries.len() {
        if matches!(entries[i].1.as_map(), Some([(key, _)]) if Kind::from_key(key).is_some()) {
            if *target == 0 {
                edit(entries, i);
                return true;
            }
            *target -= 1;
        } else if edit_leaf(&mut entries[i].1, target, edit) {
            return true;
        }
    }
    false
}

fn set(v: &mut Value, key: &str, to: Value) {
    if let Value::Map(entries) = v {
        if let Some(entry) = entries.iter_mut().find(|(k, _)| k == key) {
            entry.1 = to;
        }
    }
}

#[test]
fn every_gated_leaf_of_the_committed_baseline_fails_when_broken() {
    let base = baseline();
    let clean = diff(&base, &base);
    assert_eq!(clean.exit_code(), 0, "{clean}");
    for (f, (prefix, _)) in FILES.iter().enumerate() {
        let mut gated = Vec::new();
        leaves(&base[f], prefix, &mut gated);
        assert!(!gated.is_empty(), "{prefix} gates nothing");
        for (i, leaf) in gated.iter().enumerate() {
            let broken = |edit: Edit<'_>, other_hardware: bool| {
                let mut current = base.clone();
                assert!(edit_leaf(&mut current[f], &mut i.clone(), edit), "{}", leaf.name);
                if other_hardware {
                    set(&mut current[f], "available_parallelism", Value::UInt(64));
                }
                let report = diff(&base, &current);
                (status(&report, &leaf.name), report.exit_code())
            };
            let failing_exit = if leaf.kind == Kind::Attest { 3 } else { 1 };
            let deleted = broken(
                &mut |entries, j| {
                    entries.remove(j);
                },
                false,
            );
            assert_eq!(deleted, (Status::Failed, failing_exit), "deleting {}", leaf.name);
            let key = leaf.kind.key().to_string();
            if leaf.kind == Kind::Attest {
                let falsified = broken(
                    &mut |e, j| e[j].1 = Value::Map(vec![(key.clone(), Value::Bool(false))]),
                    false,
                );
                assert_eq!(falsified, (Status::Failed, 3), "falsifying {}", leaf.name);
                continue;
            }
            let b = match leaf.value {
                Value::Float(x) => *x,
                Value::UInt(u) => *u as f64,
                other => panic!("{} is not a number: {other:?}", leaf.name),
            };
            let worse = match leaf.kind {
                Kind::Ratio | Kind::AbsThroughput => b * (1.0 - 3.0 * TOLERANCE),
                _ => b * (1.0 + 3.0 * TOLERANCE),
            };
            let mut moved = |e: &mut Vec<(String, Value)>, j: usize| {
                e[j].1 = Value::Map(vec![(key.clone(), Value::Float(worse))]);
            };
            match broken(&mut moved, false) {
                (Status::Skipped(reason), 0) => assert!(reason.contains("noise floor"), "{}: {reason}", leaf.name),
                judged => assert_eq!(judged, (Status::Failed, 1), "moving {} to {worse}", leaf.name),
            }
            if leaf.kind == Kind::Ratio {
                assert_eq!(
                    broken(&mut moved, true),
                    (Status::Failed, 1),
                    "moving {} across hardware",
                    leaf.name
                );
            }
        }
    }
}
