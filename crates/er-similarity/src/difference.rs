//! Difference metrics (Section 5.1 and Figure 5 of the paper).
//!
//! Similarity metrics focus on the *common* part of two values; difference
//! metrics directly capture what *differs*, which the paper finds more
//! effective for reasoning about inequivalence.  We implement the full
//! taxonomy of Figure 5:
//!
//! * **Entity name** — `non-substring`, `non-prefix`, `non-suffix` and their
//!   first-letter-abbreviation variants.
//! * **Entity set** — `diff-cardinality`, `distinct-entity`.
//! * **Text description** — `diff-key-token`.
//! * **Numeric** — absolute and relative difference, inequality indicator.
//!
//! All metrics return a number where *larger means more different*; indicator
//! metrics return `0.0` or `1.0`.

use crate::kernel::Kernels;
use crate::prepared::{Prepared, DISTINCT, ENTITIES, TOKENS};
use crate::token_sim::{merge_sorted, IdfTable};
use crate::tokenize::{entities, is_specific_token, normalize};

/// Indicator that neither normalized value is a substring of the other.
///
/// A value of `1.0` strongly suggests the two entity names denote different
/// entities.
pub fn non_substring(a: &str, b: &str) -> f64 {
    neither(&normalize(a), &normalize(b), Contained::Substring)
}

/// Indicator that neither value is a prefix of the other.
pub fn non_prefix(a: &str, b: &str) -> f64 {
    neither(&normalize(a), &normalize(b), Contained::Prefix)
}

/// Indicator that neither value is a suffix of the other.
pub fn non_suffix(a: &str, b: &str) -> f64 {
    neither(&normalize(a), &normalize(b), Contained::Suffix)
}

/// How one value may sit inside another.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Contained {
    Substring,
    Prefix,
    Suffix,
}

impl Contained {
    /// Whether `part` sits inside `whole` this way.
    fn within(self, part: &str, whole: &str) -> bool {
        match self {
            Contained::Substring => whole.contains(part),
            Contained::Prefix => whole.starts_with(part),
            Contained::Suffix => whole.ends_with(part),
        }
    }

    /// Whether either value sits inside the other this way.
    fn either_way(self, x: &str, y: &str) -> bool {
        self.within(x, y) || self.within(y, x)
    }
}

/// `1.0` when neither normalized value sits inside the other as `how` says;
/// `0.0` when one does.  A missing value carries no difference evidence.
pub(crate) fn neither(na: &str, nb: &str, how: Contained) -> f64 {
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if how.either_way(na, nb) {
        0.0
    } else {
        1.0
    }
}

/// Abbreviation-aware variant of [`non_substring`]: compares each value's
/// first-letter abbreviation against the other value's abbreviation *and*
/// against the other raw value, so `"VLDB"` matches
/// `"Very Large Data Bases"`.
pub fn abbr_non_substring(a: &str, b: &str) -> f64 {
    abbr_neither(&Prepared::of(a, TOKENS), &Prepared::of(b, TOKENS), Contained::Substring)
}

/// Abbreviation-aware variant of [`non_prefix`].
pub fn abbr_non_prefix(a: &str, b: &str) -> f64 {
    abbr_neither(&Prepared::of(a, TOKENS), &Prepared::of(b, TOKENS), Contained::Prefix)
}

/// Abbreviation-aware variant of [`non_suffix`].
pub fn abbr_non_suffix(a: &str, b: &str) -> f64 {
    abbr_neither(&Prepared::of(a, TOKENS), &Prepared::of(b, TOKENS), Contained::Suffix)
}

/// `0.0` when either value's abbreviation sits inside (as `how` says) or
/// around the other's abbreviation or the other's normalized text with spaces
/// removed; `1.0` otherwise.
pub(crate) fn abbr_neither(a: &Prepared, b: &Prepared, how: Contained) -> f64 {
    if a.norm.is_empty() || b.norm.is_empty() {
        return 0.0;
    }
    // A non-empty normalized text has tokens, so both abbreviations are
    // non-empty too.
    let compact = |p: &Prepared| p.norm.replace(' ', "");
    let initials = |p: &Prepared| -> String { p.tokens().filter_map(|t| t.chars().next()).collect() };
    let (na, nb) = (compact(a), compact(b));
    let (aa, ab) = (initials(a), initials(b));
    if how.either_way(&aa, &ab) || how.either_way(&aa, &nb) || how.either_way(&ab, &na) {
        0.0
    } else {
        1.0
    }
}

/// Indicator that two entity sets have different cardinalities
/// (`diff-cardinality` in the paper).
pub fn diff_cardinality(a: &str, b: &str) -> f64 {
    cardinality_differs(entities(a).len(), entities(b).len())
}

/// [`diff_cardinality`] from the two entity counts.
pub(crate) fn cardinality_differs(len_a: usize, len_b: usize) -> f64 {
    if len_a == 0 || len_b == 0 || len_a == len_b {
        0.0
    } else {
        1.0
    }
}

/// Number of *distinct entities*: entity names occurring in exactly one of the
/// two sets (`distinct-entity` in the paper).
///
/// Entity names are matched approximately (Jaro–Winkler ≥ 0.9 or containment)
/// so that `"H Kriegel"` and `"Hans-Peter Kriegel"` do not count as distinct.
pub fn distinct_entity(a: &str, b: &str) -> f64 {
    distinct_entities(
        &Prepared::of(a, ENTITIES),
        &Prepared::of(b, ENTITIES),
        &mut Kernels::default(),
    )
}

/// [`distinct_entity`] over prepared entity names.
pub(crate) fn distinct_entities(a: &Prepared, b: &Prepared, kernels: &mut Kernels) -> f64 {
    if a.entity_count() == 0 || b.entity_count() == 0 {
        return 0.0;
    }
    let mut unmatched = |xs: &Prepared, ys: &Prepared| {
        xs.entities()
            .filter(|&x| !ys.entities().any(|y| entity_names_match(x, y, kernels)))
            .count()
    };
    (unmatched(a, b) + unmatched(b, a)) as f64
}

/// Approximate entity-name equality used by [`distinct_entity`]; each name
/// comes with its characters.
fn entity_names_match((a, a_chars): (&str, &[char]), (b, b_chars): (&str, &[char]), kernels: &mut Kernels) -> bool {
    if a == b || a.contains(b) || b.contains(a) {
        return true;
    }
    // Compare surnames (last token) plus fuzzy whole-name match.
    let la = a.split(' ').next_back().unwrap_or(a);
    let lb = b.split(' ').next_back().unwrap_or(b);
    if la == lb {
        return true;
    }
    kernels.jaro_winkler(a_chars, b_chars) >= 0.9
}

/// Number of *key* (discriminating) tokens contained in exactly one of the two
/// text values (`diff-key-token` in the paper).
///
/// A token is a key token when it is rare in the corpus (per the [`IdfTable`])
/// or intrinsically specific (contains digits / long).
pub fn diff_key_token(a: &str, b: &str, idf: &IdfTable, max_df_ratio: f64) -> f64 {
    one_sided_tokens(&Prepared::of(a, DISTINCT), &Prepared::of(b, DISTINCT), |t| {
        idf.is_key_token(t, max_df_ratio)
    })
}

/// Variant of [`diff_key_token`] without corpus statistics: only intrinsically
/// specific tokens count.
pub fn diff_specific_token(a: &str, b: &str) -> f64 {
    one_sided_tokens(
        &Prepared::of(a, DISTINCT),
        &Prepared::of(b, DISTINCT),
        is_specific_token,
    )
}

/// Number of distinct tokens held by one side only that pass `counts`; 0
/// when either value has no tokens.
pub(crate) fn one_sided_tokens(a: &Prepared, b: &Prepared, counts: impl Fn(&str) -> bool) -> f64 {
    if a.token_count() == 0 || b.token_count() == 0 {
        return 0.0;
    }
    let mut one_sided = 0usize;
    merge_sorted(a.distinct_tokens(), b.distinct_tokens(), |t, shared| {
        if !shared && counts(t) {
            one_sided += 1;
        }
    });
    one_sided as f64
}

/// Absolute numeric difference; 0 when either value is missing.
pub fn numeric_abs_diff(a: Option<f64>, b: Option<f64>) -> f64 {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs(),
        _ => 0.0,
    }
}

/// Relative numeric difference `|a-b| / max(|a|, |b|)`; 0 when either value is
/// missing or both are zero.
pub fn numeric_rel_diff(a: Option<f64>, b: Option<f64>) -> f64 {
    match (a, b) {
        (Some(x), Some(y)) => {
            let denom = x.abs().max(y.abs());
            if denom == 0.0 {
                0.0
            } else {
                (x - y).abs() / denom
            }
        }
        _ => 0.0,
    }
}

/// Indicator that two numeric values differ (the paper's running-example rule
/// `r1[Year] != r2[Year] -> inequivalent`).
pub fn numeric_not_equal(a: Option<f64>, b: Option<f64>) -> f64 {
    match (a, b) {
        (Some(x), Some(y)) => {
            if (x - y).abs() < 1e-9 {
                0.0
            } else {
                1.0
            }
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokens as tok;

    #[test]
    fn non_substring_detects_unrelated_names() {
        assert_eq!(non_substring("SIGMOD Conference", "SIGMOD"), 0.0);
        assert_eq!(non_substring("SIGMOD", "VLDB"), 1.0);
        // Missing values give no evidence.
        assert_eq!(non_substring("", "VLDB"), 0.0);
    }

    #[test]
    fn non_prefix_and_suffix() {
        assert_eq!(non_prefix("inter", "international"), 0.0);
        assert_eq!(non_prefix("national", "international"), 1.0);
        assert_eq!(non_suffix("national", "international"), 0.0);
        assert_eq!(non_suffix("inter", "international"), 1.0);
        assert_eq!(non_prefix("", ""), 0.0);
    }

    #[test]
    fn abbreviation_variants_accept_acronyms() {
        assert_eq!(abbr_non_substring("VLDB", "Very Large Data Bases"), 0.0);
        assert_eq!(abbr_non_prefix("VLDB", "Very Large Data Bases"), 0.0);
        assert_eq!(abbr_non_suffix("VLDB", "Very Large Data Bases"), 0.0);
        assert_eq!(abbr_non_substring("ICDE", "Very Large Data Bases"), 1.0);
        assert_eq!(abbr_non_substring("", "x"), 0.0);
    }

    #[test]
    fn abbr_matches_two_abbreviations() {
        // Both sides abbreviate to similar acronyms.
        assert_eq!(
            abbr_non_substring(
                "Intl Conf on Data Engineering",
                "International Conference on Data Engineering"
            ),
            0.0
        );
    }

    #[test]
    fn diff_cardinality_counts_set_sizes() {
        assert_eq!(diff_cardinality("A Smith, B Jones", "A Smith, B Jones"), 0.0);
        assert_eq!(diff_cardinality("A Smith, B Jones, C Wu", "A Smith, B Jones"), 1.0);
        assert_eq!(diff_cardinality("", "A Smith"), 0.0);
    }

    #[test]
    fn paper_example_distinct_entity() {
        // Example 1 of the paper: "R Schneider" appears in only one list.
        let s1 = "T Brinkhoff, H Kriegel, R Schneider, B Seeger";
        let s2 = "T Brinkhoff, H Kriegel, B Seeger";
        assert!((distinct_entity(s1, s2) - 1.0).abs() < 1e-12);
        assert_eq!(distinct_entity(s1, s1), 0.0);
    }

    #[test]
    fn distinct_entity_tolerates_name_variants() {
        let full = "Hans Peter Kriegel, Bernhard Seeger";
        let abbrev = "H Kriegel, B Seeger";
        // Surname matching keeps these equivalent: zero distinct entities.
        assert_eq!(distinct_entity(full, abbrev), 0.0);
        let different = "Hans Peter Kriegel, Michael Stonebraker";
        assert!(distinct_entity(full, different) >= 2.0);
    }

    #[test]
    fn diff_key_token_uses_idf() {
        let mut idf = IdfTable::new();
        for _ in 0..20 {
            idf.add_document(&tok("apple ipod nano"));
        }
        idf.add_document(&tok("apple ipod nano red edition"));
        idf.add_document(&tok("apple ipod nano blue edition"));
        // "red"/"blue" are rare -> key tokens that differ.
        let d = diff_key_token(
            "apple ipod nano red edition",
            "apple ipod nano blue edition",
            &idf,
            0.25,
        );
        assert!((d - 2.0).abs() < 1e-12);
        // Same values -> no difference.
        assert_eq!(diff_key_token("apple ipod nano", "apple ipod nano", &idf, 0.25), 0.0);
        assert_eq!(diff_key_token("", "apple", &idf, 0.25), 0.0);
    }

    #[test]
    fn diff_specific_token_counts_model_numbers() {
        assert!((diff_specific_token("canon eos 450d camera", "canon eos 500d camera") - 2.0).abs() < 1e-12);
        assert_eq!(diff_specific_token("canon camera", "canon camera"), 0.0);
    }

    #[test]
    fn numeric_differences() {
        assert_eq!(numeric_abs_diff(Some(1999.0), Some(2001.0)), 2.0);
        assert_eq!(numeric_abs_diff(None, Some(2001.0)), 0.0);
        assert!((numeric_rel_diff(Some(100.0), Some(150.0)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(numeric_rel_diff(Some(0.0), Some(0.0)), 0.0);
        assert_eq!(numeric_not_equal(Some(1999.0), Some(1999.0)), 0.0);
        assert_eq!(numeric_not_equal(Some(1999.0), Some(2000.0)), 1.0);
        assert_eq!(numeric_not_equal(None, Some(2000.0)), 0.0);
    }
}
