//! The compiled rule index: per-metric violation bitsets.
//!
//! Offline, rule matching tests every condition of every rule against the
//! pair's basic-metric row (`O(total conditions)` per pair). Online that scan
//! is the hot path, so at engine load time the rule set is compiled into one
//! table of rule bitsets per *metric* that carries conditions, in the manner
//! of QuickScorer's bit-vector tree traversal (Lucchese et al., SIGIR 2015)
//! applied to one-sided rules.
//!
//! **Cut positions.** A metric's `cuts` are its distinct condition
//! thresholds in ascending order, `Gt` and `Le` together (`-0.0` and `0.0`
//! are one cut). For a value `v`, its position is
//! `p = cuts.partition_point(|t| t < v)`, in `0..=cuts.len()`. A `Gt t`
//! condition holds iff `rank(t) < p` and a `Le t` condition holds iff
//! `rank(t) >= p`, so `p` alone decides every condition on the metric.
//!
//! **Masks.** For each position the index stores one mask of
//! `words = ceil(rules / 64)` little-endian `u64` words: bit `r` is set iff
//! rule `r` has a condition on this metric that position leaves
//! unsatisfied. One more row follows for NaN, where no condition holds (as
//! in `Rule::covers`); a NaN threshold (which a validated model never
//! carries) is unsatisfied at every position. All masks live in one flat
//! `Vec<u64>`: metric `m`'s rows `0..=cuts.len()` and its NaN row sit
//! back to back from its offset, `words` words each.
//!
//! **Matching** ORs one row per active metric into the violated set,
//! complements it, masks off the bits past the last rule and emits the set
//! bits word by word, lowest first. That is ascending rule order — the order
//! the offline linear scan produces — so there is nothing to sort and the
//! downstream floating-point aggregation stays bit-identical. Rules without
//! conditions are never violated and fire on every row.
//!
//! **Memory.** A metric with `c` conditions has at most `c` cuts and so at
//! most `c + 2` rows; the masks take at most
//! `(conditions + 2 · active metrics) × words × 8` bytes (about 9 KB for a
//! 166-rule, 18-metric model).

use er_rulegen::{CmpOp, Rule};
use std::fmt;

/// A metric row too short for the rule set — the request-level error the
/// fallible matching path reports instead of panicking, so a malformed
/// request cannot kill a serving worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLengthError {
    /// Entries in the offending row.
    pub row_len: usize,
    /// Smallest row length the rule set can match against.
    pub required: usize,
}

impl fmt::Display for RowLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "metric row has {} entries but the rule set references metric index {}",
            self.row_len,
            // The fields are public, so guard the degenerate required == 0
            // (an error type whose Display can panic defeats its purpose).
            self.required.saturating_sub(1)
        )
    }
}

impl std::error::Error for RowLengthError {}

/// One metric's cut list and where its mask rows start (see the module docs).
#[derive(Debug, Clone)]
struct MetricMasks {
    /// Index into the metric row.
    metric: usize,
    /// Distinct non-NaN thresholds, ascending.
    cuts: Vec<f64>,
    /// Offset in [`CompiledRuleIndex::masks`] of position 0's row.
    offset: usize,
}

/// The rule set of a risk model, pre-compiled for per-request matching.
#[derive(Debug, Clone)]
pub struct CompiledRuleIndex {
    rule_count: usize,
    /// Words per mask: `ceil(rule_count / 64)`.
    words: usize,
    /// The bits of the last word that stand for rules.
    last_word: u64,
    /// One past the largest metric index any condition references.
    required_row_len: usize,
    /// The metrics that carry at least one condition.
    metrics: Vec<MetricMasks>,
    /// Every metric's violation masks, back to back.
    masks: Vec<u64>,
}

/// Reusable per-worker scratch state for [`CompiledRuleIndex::matching_rules_into`].
///
/// Keeping the violated-rule accumulator outside the index lets many threads
/// match against the same shared index without synchronization or
/// per-request allocation.
#[derive(Debug, Clone)]
pub struct MatchScratch {
    /// Rules with at least one unsatisfied condition, one bit per rule.
    violated: Vec<u64>,
}

impl CompiledRuleIndex {
    /// Compiles a rule set.
    pub fn compile(rules: &[Rule]) -> Self {
        assert!(
            u32::try_from(rules.len()).is_ok(),
            "rule sets beyond u32::MAX rules are not supported"
        );
        let words = rules.len().div_ceil(64);
        let required_row_len = rules
            .iter()
            .flat_map(|r| r.conditions.iter())
            .map(|c| c.metric_index + 1)
            .max()
            .unwrap_or(0);
        let mut by_metric: Vec<Vec<(CmpOp, f64, usize)>> = vec![Vec::new(); required_row_len];
        for (ri, rule) in rules.iter().enumerate() {
            for cond in &rule.conditions {
                by_metric[cond.metric_index].push((cond.op, cond.threshold, ri));
            }
        }
        let mut metrics = Vec::new();
        let mut masks = Vec::new();
        for (metric, conditions) in by_metric.into_iter().enumerate() {
            if conditions.is_empty() {
                continue;
            }
            let mut cuts: Vec<f64> = conditions.iter().map(|c| c.1).filter(|t| !t.is_nan()).collect();
            cuts.sort_by(f64::total_cmp);
            cuts.dedup_by(|a, b| a == b);
            let offset = masks.len();
            // Positions 0..=cuts.len(), then the NaN row.
            let positions = cuts.len() + 1;
            masks.resize(offset + (positions + 1) * words, 0);
            for (op, threshold, rule) in conditions {
                let violated_at = if threshold.is_nan() {
                    0..positions
                } else {
                    let rank = cuts.partition_point(|&t| t < threshold);
                    match op {
                        CmpOp::Gt => 0..rank + 1,
                        CmpOp::Le => rank + 1..positions,
                    }
                };
                for p in violated_at.chain([positions]) {
                    masks[offset + p * words + rule / 64] |= 1 << (rule % 64);
                }
            }
            metrics.push(MetricMasks { metric, cuts, offset });
        }
        Self {
            rule_count: rules.len(),
            words,
            last_word: u64::MAX >> (words * 64 - rules.len()),
            required_row_len,
            metrics,
            masks,
        }
    }

    /// Number of rules in the index.
    pub fn rule_count(&self) -> usize {
        self.rule_count
    }

    /// Smallest metric-row length the index can match against.
    pub fn required_row_len(&self) -> usize {
        self.required_row_len
    }

    /// Creates scratch state sized for this index.
    pub fn scratch(&self) -> MatchScratch {
        MatchScratch {
            violated: vec![0; self.words],
        }
    }

    /// Collects the indices of the rules covering `row` into `out`, in
    /// ascending rule order (matching the offline linear scan).
    ///
    /// # Panics
    /// Panics if `row` is shorter than [`Self::required_row_len`] or `scratch`
    /// was sized for a different index.  [`Self::try_matching_rules_into`] is
    /// the non-panicking form the serving request path uses.
    pub fn matching_rules_into(&self, row: &[f64], scratch: &mut MatchScratch, out: &mut Vec<u32>) {
        self.try_matching_rules_into(row, scratch, out)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Self::matching_rules_into`]: a row shorter than
    /// [`Self::required_row_len`] becomes a [`RowLengthError`] instead of a
    /// panic (`out` is left cleared).  A `scratch` sized for a different
    /// index is still a programming error and panics.
    pub fn try_matching_rules_into(
        &self,
        row: &[f64],
        scratch: &mut MatchScratch,
        out: &mut Vec<u32>,
    ) -> Result<(), RowLengthError> {
        out.clear();
        if row.len() < self.required_row_len {
            return Err(RowLengthError {
                row_len: row.len(),
                required: self.required_row_len,
            });
        }
        let words = self.words;
        let violated = &mut scratch.violated[..];
        assert_eq!(violated.len(), words, "scratch/index mismatch");
        violated.fill(0);
        for mm in &self.metrics {
            let v = row[mm.metric];
            let position = if v.is_nan() {
                mm.cuts.len() + 1
            } else {
                mm.cuts.partition_point(|&t| t < v)
            };
            let start = mm.offset + position * words;
            for (acc, &mask) in violated.iter_mut().zip(&self.masks[start..start + words]) {
                *acc |= mask;
            }
        }
        for (w, &acc) in violated.iter().enumerate() {
            let mut fired = if w + 1 == words { !acc & self.last_word } else { !acc };
            while fired != 0 {
                out.push((w * 64) as u32 + fired.trailing_zeros());
                fired &= fired - 1;
            }
        }
        Ok(())
    }

    /// Convenience wrapper allocating fresh scratch and output.
    pub fn matching_rules(&self, row: &[f64]) -> Vec<u32> {
        let mut scratch = self.scratch();
        let mut out = Vec::new();
        self.matching_rules_into(row, &mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::Label;
    use er_rulegen::Condition;
    use proptest::prelude::*;

    fn linear_scan(rules: &[Rule], row: &[f64]) -> Vec<u32> {
        rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.covers(row))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn rule(conds: Vec<(usize, CmpOp, f64)>) -> Rule {
        Rule::new(
            conds.into_iter().map(|(m, op, t)| Condition::new(m, op, t)).collect(),
            Label::Equivalent,
            10,
            0.9,
        )
    }

    #[test]
    fn single_condition_rules_match_like_the_scan() {
        let rules = vec![
            rule(vec![(0, CmpOp::Gt, 0.5)]),
            rule(vec![(0, CmpOp::Le, 0.5)]),
            rule(vec![(1, CmpOp::Gt, 0.2)]),
        ];
        let index = CompiledRuleIndex::compile(&rules);
        for row in [[0.6, 0.1], [0.5, 0.3], [0.0, 0.0], [1.0, 1.0]] {
            assert_eq!(index.matching_rules(&row), linear_scan(&rules, &row), "row {row:?}");
        }
        assert_eq!(index.rule_count(), 3);
        assert_eq!(index.required_row_len(), 2);
    }

    #[test]
    fn conjunctions_require_every_condition() {
        let rules = vec![rule(vec![
            (0, CmpOp::Gt, 0.5),
            (1, CmpOp::Le, 0.2),
            (2, CmpOp::Gt, 0.9),
        ])];
        let index = CompiledRuleIndex::compile(&rules);
        assert_eq!(index.matching_rules(&[0.6, 0.1, 0.95]), vec![0]);
        assert!(index.matching_rules(&[0.6, 0.1, 0.9]).is_empty());
        assert!(index.matching_rules(&[0.6, 0.3, 0.95]).is_empty());
        assert!(index.matching_rules(&[0.5, 0.1, 0.95]).is_empty());
    }

    #[test]
    fn repeated_metric_conditions_count_separately() {
        // A tree path can split the same metric twice (a range constraint).
        let rules = vec![rule(vec![(0, CmpOp::Gt, 0.2), (0, CmpOp::Le, 0.8)])];
        let index = CompiledRuleIndex::compile(&rules);
        assert_eq!(index.matching_rules(&[0.5]), vec![0]);
        assert!(index.matching_rules(&[0.1]).is_empty());
        assert!(index.matching_rules(&[0.9]).is_empty());
    }

    #[test]
    fn nan_thresholds_never_hold() {
        // A validated model carries none, but `compile` takes any rule set.
        let rules = vec![
            rule(vec![(0, CmpOp::Gt, f64::NAN)]),
            rule(vec![(0, CmpOp::Le, f64::NAN)]),
            rule(vec![(0, CmpOp::Le, 0.5), (1, CmpOp::Gt, f64::NAN)]),
            rule(vec![(0, CmpOp::Le, 0.5)]),
        ];
        let index = CompiledRuleIndex::compile(&rules);
        for row in [
            [0.2, 0.2],
            [0.9, f64::NAN],
            [f64::NAN, 0.0],
            [f64::INFINITY, f64::NEG_INFINITY],
        ] {
            assert_eq!(index.matching_rules(&row), linear_scan(&rules, &row), "row {row:?}");
        }
        assert_eq!(index.matching_rules(&[0.2, 0.2]), vec![3]);
    }

    #[test]
    fn empty_rule_sets_and_condition_free_rules() {
        let index = CompiledRuleIndex::compile(&[]);
        assert!(index.matching_rules(&[]).is_empty());
        let rules = vec![rule(vec![]), rule(vec![(0, CmpOp::Gt, 0.5)])];
        let index = CompiledRuleIndex::compile(&rules);
        assert_eq!(index.matching_rules(&[0.0]), vec![0]);
        assert_eq!(index.matching_rules(&[0.9]), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "metric row has")]
    fn short_rows_panic_with_context() {
        let index = CompiledRuleIndex::compile(&[rule(vec![(3, CmpOp::Gt, 0.5)])]);
        index.matching_rules(&[0.1, 0.2]);
    }

    #[test]
    fn short_rows_degrade_to_an_error_on_the_fallible_path() {
        let index = CompiledRuleIndex::compile(&[rule(vec![(3, CmpOp::Gt, 0.5)])]);
        let mut scratch = index.scratch();
        let mut out = vec![7u32];
        let err = index
            .try_matching_rules_into(&[0.1, 0.2], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            RowLengthError {
                row_len: 2,
                required: 4
            }
        );
        assert!(err.to_string().contains("metric row has 2 entries"));
        assert!(out.is_empty(), "failed matches must not leave stale rules behind");
        // The fields are public: the degenerate required == 0 must format
        // (not underflow) — an error Display that panics defeats its purpose.
        let degenerate = RowLengthError {
            row_len: 0,
            required: 0,
        };
        assert!(degenerate.to_string().contains("metric row has 0 entries"));
        // The scratch stays usable for well-formed rows afterwards.
        index
            .try_matching_rules_into(&[0.0, 0.0, 0.0, 0.9], &mut scratch, &mut out)
            .expect("long enough row");
        assert_eq!(out, vec![0]);
    }

    /// Strategy producing random rule sets over `metrics` metric slots.
    fn arb_rules(metrics: usize, count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Rule>> {
        proptest::collection::vec(
            proptest::collection::vec(
                (0usize..metrics, 0u8..2, 0.0f64..1.0).prop_map(|(m, op, t)| {
                    let op = if op == 0 { CmpOp::Gt } else { CmpOp::Le };
                    (m, op, t)
                }),
                0..4,
            )
            .prop_map(rule),
            count,
        )
    }

    /// Values a row entry can take besides the rules' own thresholds.
    const SPECIAL_VALUES: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];

    /// Strategy producing a rule set over 3 metric slots and rows over it,
    /// where every threshold comes from a small per-case pool (signed zeros
    /// and infinities included) and every row entry is one of those
    /// thresholds or one of [`SPECIAL_VALUES`] — the exact ties a `0.0..1.0`
    /// draw never produces. With 3 metrics and up to 5 conditions per rule,
    /// metrics repeat within and across rules.
    fn arb_tied_rules_and_rows() -> impl Strategy<Value = (Vec<Rule>, Vec<Vec<f64>>)> {
        let pool = proptest::collection::vec(
            (0u8..8, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => 0.5,
                3 => 1.0,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                _ => x,
            }),
            1..6,
        );
        let rules = proptest::collection::vec(proptest::collection::vec((0usize..3, 0u8..2, 0usize..64), 0..5), 1..16);
        let rows = proptest::collection::vec(proptest::collection::vec(0usize..64, 3..4), 1..8);
        (pool, rules, rows).prop_map(|(pool, rules, rows)| {
            let rules = rules
                .into_iter()
                .map(|conds| {
                    rule(
                        conds
                            .into_iter()
                            .map(|(m, op, t)| {
                                let op = if op == 0 { CmpOp::Gt } else { CmpOp::Le };
                                (m, op, pool[t % pool.len()])
                            })
                            .collect(),
                    )
                })
                .collect();
            let rows = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|i| {
                            let i = i % (pool.len() + SPECIAL_VALUES.len());
                            pool.get(i).copied().unwrap_or_else(|| SPECIAL_VALUES[i - pool.len()])
                        })
                        .collect()
                })
                .collect();
            (rules, rows)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn index_agrees_with_covers_at_exact_thresholds_and_special_values(
            case in arb_tied_rules_and_rows(),
        ) {
            let (rules, rows) = &case;
            let index = CompiledRuleIndex::compile(rules);
            let mut scratch = index.scratch();
            let mut out = Vec::new();
            for row in rows {
                index.matching_rules_into(row, &mut scratch, &mut out);
                prop_assert_eq!(&out, &linear_scan(rules, row));
            }
        }

        #[test]
        fn index_agrees_with_linear_scan(
            rules in arb_rules(5, 1..12),
            rows in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 5..6), 1..8),
        ) {
            let index = CompiledRuleIndex::compile(&rules);
            let mut scratch = index.scratch();
            let mut out = Vec::new();
            for row in &rows {
                index.matching_rules_into(row, &mut scratch, &mut out);
                prop_assert_eq!(&out, &linear_scan(&rules, row));
            }
        }

        #[test]
        fn wide_rule_sets_match_across_mask_words_within_the_memory_bound(
            rules in arb_rules(6, 60..200),
            rows in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 6..7), 1..8),
        ) {
            let index = CompiledRuleIndex::compile(&rules);
            let conditions: usize = rules.iter().map(|r| r.conditions.len()).sum();
            prop_assert!(index.masks.len() <= (conditions + 2 * index.metrics.len()) * index.words);
            let mut scratch = index.scratch();
            let mut out = Vec::new();
            for row in &rows {
                index.matching_rules_into(row, &mut scratch, &mut out);
                prop_assert_eq!(&out, &linear_scan(&rules, row));
            }
        }

        #[test]
        fn scratch_reuse_is_stateless(
            rules in arb_rules(4, 1..12),
            row in proptest::collection::vec(0.0f64..1.0, 4..5),
        ) {
            let index = CompiledRuleIndex::compile(&rules);
            let mut scratch = index.scratch();
            let mut first = Vec::new();
            index.matching_rules_into(&row, &mut scratch, &mut first);
            let mut second = Vec::new();
            index.matching_rules_into(&row, &mut scratch, &mut second);
            prop_assert_eq!(first, second);
        }
    }
}
