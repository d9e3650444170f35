//! Token blocking: the standard candidate-generation step of ER pipelines.
//!
//! The paper applies "the blocking technique" to filter pairs deemed unlikely
//! to match before risk analysis.  We implement classic token blocking: two
//! records become candidates when they share at least one (non-stopword) token
//! in any blocking-key attribute.  Oversized blocks are pruned, as is standard,
//! to avoid quadratic blow-up on frequent tokens.

use er_base::Table;
use er_similarity::tokenize::tokens;
use std::collections::HashMap;

/// Maximum number of records a single blocking key may contain before it is
/// discarded as non-discriminating.
pub const MAX_BLOCK_SIZE: usize = 60;

/// Minimum token length considered as a blocking key.
pub const MIN_TOKEN_LEN: usize = 3;

/// Builds the blocking index: token → record indices.
fn blocking_index(table: &Table, attrs: &[usize]) -> HashMap<String, Vec<u32>> {
    let mut index: HashMap<String, Vec<u32>> = HashMap::new();
    for (i, record) in table.records().iter().enumerate() {
        for &a in attrs {
            if let Some(s) = record.values[a].as_str() {
                for tok in tokens(s) {
                    if tok.len() >= MIN_TOKEN_LEN {
                        index.entry(tok).or_default().push(i as u32);
                    }
                }
            }
        }
    }
    index
}

/// Returns candidate pairs `(left_index, right_index)` of records sharing a
/// blocking token.  For deduplication workloads (`dedup = true`, both tables
/// being the same), only pairs with `left < right` are returned.
pub fn token_blocking_pairs(left: &Table, right: &Table, attrs: &[usize], dedup: bool) -> Vec<(u32, u32)> {
    let left_index = blocking_index(left, attrs);
    let right_index = blocking_index(right, attrs);

    let mut out: Vec<(u32, u32)> = Vec::new();
    for (tok, ls) in &left_index {
        if ls.len() > MAX_BLOCK_SIZE {
            continue;
        }
        if let Some(rs) = right_index.get(tok) {
            if rs.len() > MAX_BLOCK_SIZE {
                continue;
            }
            for &l in ls {
                out.extend(rs.iter().filter(|&&r| !dedup || r > l).map(|&r| (l, r)));
            }
        }
    }
    // HashMap iteration order is unspecified; sorting makes candidate
    // generation (and everything downstream of it) deterministic, and brings
    // a pair emitted through several shared tokens together for `dedup`.
    out.sort_unstable();
    out.dedup();
    out
}

/// Reduction ratio of blocking relative to the full cross product.
pub fn reduction_ratio(candidates: usize, left_size: usize, right_size: usize, dedup: bool) -> f64 {
    let total = if dedup {
        left_size.saturating_mul(left_size.saturating_sub(1)) / 2
    } else {
        left_size.saturating_mul(right_size)
    };
    if total == 0 {
        return 0.0;
    }
    1.0 - candidates as f64 / total as f64
}

/// Pair-completeness of blocking: the fraction of true matches retained.
///
/// `is_match(l, r)` must report whether a left/right index pair is equivalent.
pub fn pair_completeness<F>(candidates: &[(u32, u32)], all_matches: &[(u32, u32)], mut is_candidate: F) -> f64
where
    F: FnMut(&(u32, u32)) -> bool,
{
    let _ = candidates;
    if all_matches.is_empty() {
        return 1.0;
    }
    let kept = all_matches.iter().filter(|m| is_candidate(m)).count();
    kept as f64 / all_matches.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::{AttrDef, AttrType, AttrValue, Schema};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The straightforward body: each new pair is recorded in a `HashSet` as
    /// it is emitted, and the output is sorted at the end.
    fn reference_blocking_pairs(left: &Table, right: &Table, attrs: &[usize], dedup: bool) -> Vec<(u32, u32)> {
        let left_index = blocking_index(left, attrs);
        let right_index = blocking_index(right, attrs);
        let mut out: Vec<(u32, u32)> = Vec::new();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for (tok, ls) in &left_index {
            if ls.len() > MAX_BLOCK_SIZE {
                continue;
            }
            if let Some(rs) = right_index.get(tok) {
                if rs.len() > MAX_BLOCK_SIZE {
                    continue;
                }
                for &l in ls {
                    for &r in rs {
                        if dedup && r <= l {
                            continue;
                        }
                        if seen.insert((l, r)) {
                            out.push((l, r));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn table(names: &[&str]) -> Table {
        let schema = Schema::new(vec![AttrDef::new("name", AttrType::Text)]);
        let mut t = Table::new("t", schema);
        for n in names {
            t.push(vec![AttrValue::from(*n)]);
        }
        t
    }

    #[test]
    fn shared_tokens_become_candidates() {
        let left = table(&["apple ipod nano", "sony walkman player"]);
        let right = table(&["apple ipod shuffle", "canon eos camera"]);
        let pairs = token_blocking_pairs(&left, &right, &[0], false);
        assert!(pairs.contains(&(0, 0)), "ipod pair should be a candidate");
        assert!(!pairs.contains(&(1, 1)), "unrelated records should not be candidates");
    }

    #[test]
    fn dedup_blocking_orders_pairs() {
        let t = table(&["blue moon song", "blue sky song", "red rose tune"]);
        let pairs = token_blocking_pairs(&t, &t, &[0], true);
        for &(l, r) in &pairs {
            assert!(l < r);
        }
        assert!(pairs.contains(&(0, 1)));
    }

    #[test]
    fn short_tokens_are_ignored() {
        let left = table(&["ab cd", "xy zw"]);
        let right = table(&["ab thing", "zw other"]);
        let pairs = token_blocking_pairs(&left, &right, &[0], false);
        assert!(pairs.is_empty(), "2-character tokens must not create blocks: {pairs:?}");
    }

    #[test]
    fn oversized_blocks_are_pruned() {
        // 100 left and right records all sharing the token "common".
        let names: Vec<String> = (0..100).map(|i| format!("common item{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let left = table(&refs);
        let right = table(&refs);
        let pairs = token_blocking_pairs(&left, &right, &[0], false);
        // "common" exceeds MAX_BLOCK_SIZE so only the unique "itemN" tokens pair up.
        assert_eq!(pairs.len(), 100);
    }

    /// Words of a random table: a few short ones blocking ignores, and a
    /// frequent one that overflows `MAX_BLOCK_SIZE` in the larger tables.
    const WORDS: [&str; 10] = [
        "ab", "x", "common", "sony", "apple", "ipod", "nano", "tune", "blue", "rose",
    ];

    /// A two-attribute table; a `None` value is stored as a number, which
    /// blocking skips.  Three names in four hold "common", so its block
    /// overflows in tables of more than about 80 records.
    fn random_table(rows: &[(Vec<usize>, Option<Vec<usize>>)]) -> Table {
        let schema = Schema::new(vec![
            AttrDef::new("name", AttrType::Text),
            AttrDef::new("brand", AttrType::Text),
        ]);
        let spell = |picks: &[usize]| picks.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" ");
        let mut t = Table::new("t", schema);
        for (name, brand) in rows {
            let brand = brand
                .as_deref()
                .map_or(AttrValue::Num(1.0), |b| AttrValue::from(spell(b).as_str()));
            t.push(vec![AttrValue::from(spell(name).as_str()), brand]);
        }
        t
    }

    fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Option<Vec<usize>>)>> {
        let words = || proptest::collection::vec(0usize..WORDS.len(), 0..4);
        let name = (0usize..4, words()).prop_map(|(k, mut w)| {
            if k > 0 {
                w.push(2);
            }
            w
        });
        let brand = (0usize..4, words()).prop_map(|(k, w)| (k > 0).then_some(w));
        proptest::collection::vec((name, brand), 0..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocking_equals_the_hash_set_reference(left in rows(), right in rows()) {
            let (left, right) = (random_table(&left), random_table(&right));
            for attrs in [&[0usize][..], &[0, 1]] {
                prop_assert_eq!(
                    token_blocking_pairs(&left, &right, attrs, false),
                    reference_blocking_pairs(&left, &right, attrs, false)
                );
                prop_assert_eq!(
                    token_blocking_pairs(&left, &left, attrs, true),
                    reference_blocking_pairs(&left, &left, attrs, true)
                );
            }
        }
    }

    #[test]
    fn reduction_ratio_and_completeness() {
        assert!((reduction_ratio(100, 100, 100, false) - 0.99).abs() < 1e-12);
        assert!((reduction_ratio(0, 0, 0, false)).abs() < 1e-12);
        assert!((reduction_ratio(10, 10, 0, true) - (1.0 - 10.0 / 45.0)).abs() < 1e-12);

        let candidates = vec![(0u32, 0u32), (1, 1)];
        let matches = vec![(0u32, 0u32), (2, 2)];
        let set: HashSet<_> = candidates.iter().copied().collect();
        let pc = pair_completeness(&candidates, &matches, |m| set.contains(m));
        assert!((pc - 0.5).abs() < 1e-12);
        assert_eq!(pair_completeness(&candidates, &[], |_| true), 1.0);
    }
}
