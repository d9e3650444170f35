//! Character-level edit similarity metrics.
//!
//! Thin wrappers over the shared kernels: bit-parallel Levenshtein and the
//! Jaro window match.

use crate::kernel::{chars, Kernels};

/// Levenshtein edit distance between two strings (character-level).
///
/// Myers/Hyyrö bit vectors, `O(⌈m/64⌉·n)` word operations for a shorter
/// string of `m` characters and a longer one of `n`.
pub fn levenshtein(a: &str, b: &str) -> usize {
    Kernels::default().levenshtein(&chars(a), &chars(b))
}

/// Normalized Levenshtein similarity in `[0, 1]`:
/// `1 - distance / max(|a|, |b|)`.  Two empty strings are fully similar.
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    edit_similarity_chars(&chars(a), &chars(b), &mut Kernels::default())
}

/// [`edit_similarity`] over characters.
pub(crate) fn edit_similarity_chars(a: &[char], b: &[char], kernels: &mut Kernels) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - kernels.levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    Kernels::default().jaro(&chars(a), &chars(b))
}

/// Jaro–Winkler similarity with the standard prefix scale of 0.1 and a prefix
/// cap of 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    Kernels::default().jaro_winkler(&chars(a), &chars(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basic() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        for (a, b) in [("database", "databse"), ("sigmod", "vldb"), ("", "x")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn edit_similarity_range() {
        assert!((edit_similarity("abc", "abc") - 1.0).abs() < 1e-12);
        assert!((edit_similarity("", "") - 1.0).abs() < 1e-12);
        assert!(edit_similarity("abc", "xyz").abs() < 1e-12);
        let s = edit_similarity("entity resolution", "entity resolutoin");
        assert!(s > 0.85 && s < 1.0);
    }

    #[test]
    fn jaro_reference_values() {
        // Classic reference pairs from the record-linkage literature.
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-5);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-5);
        assert!((jaro("", "") - 1.0).abs() < 1e-12);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.961111).abs() < 1e-5);
        assert!(jaro_winkler("prefixed", "prefixes") > jaro("prefixed", "prefixes"));
        // No common prefix: no boost.
        assert!((jaro_winkler("abc", "xbc") - jaro("abc", "xbc")).abs() < 1e-12);
    }

    #[test]
    fn jaro_winkler_bounded() {
        for (a, b) in [("a", "a"), ("abcd", "abce"), ("abcdefgh", "abcdefgh"), ("x", "y")] {
            let v = jaro_winkler(a, b);
            assert!((0.0..=1.0).contains(&v), "{a} vs {b} -> {v}");
        }
    }
}
