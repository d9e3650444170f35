//! Sequence similarity metrics: longest common subsequence and substring.
//!
//! Thin wrappers over the shared kernels: bit-parallel LCS and the
//! longest-common-run dynamic program.

use crate::kernel::{self, chars, Kernels};

/// Length of the longest common subsequence of two strings (character level).
pub fn lcs_length(a: &str, b: &str) -> usize {
    Kernels::default().lcs_length(&chars(a), &chars(b))
}

/// Normalized LCS similarity in `[0, 1]`: `lcs / max(|a|, |b|)`.
///
/// This is the `LCS` comparison used in the paper's example rules (Figure 6).
pub fn lcs_similarity(a: &str, b: &str) -> f64 {
    lcs_similarity_chars(&chars(a), &chars(b), &mut Kernels::default())
}

/// [`lcs_similarity`] over characters.
pub(crate) fn lcs_similarity_chars(a: &[char], b: &[char], kernels: &mut Kernels) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    kernels.lcs_length(a, b) as f64 / max_len as f64
}

/// Length of the longest common contiguous substring (character level).
pub fn longest_common_substring(a: &str, b: &str) -> usize {
    kernel::longest_common_substring(&chars(a), &chars(b))
}

/// Normalized longest-common-substring similarity in `[0, 1]`, relative to the
/// shorter string.  A value of 1 means one value is fully contained in the
/// other.
pub fn substring_similarity(a: &str, b: &str) -> f64 {
    substring_similarity_chars(&chars(a), &chars(b))
}

/// [`substring_similarity`] over characters.
pub(crate) fn substring_similarity_chars(a: &[char], b: &[char]) -> f64 {
    let min_len = a.len().min(b.len());
    if min_len == 0 {
        return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
    }
    kernel::longest_common_substring(a, b) as f64 / min_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcs_length_basic() {
        assert_eq!(lcs_length("abcde", "ace"), 3);
        assert_eq!(lcs_length("abc", "abc"), 3);
        assert_eq!(lcs_length("abc", "def"), 0);
        assert_eq!(lcs_length("", "abc"), 0);
    }

    #[test]
    fn lcs_similarity_range() {
        assert!((lcs_similarity("", "") - 1.0).abs() < 1e-12);
        assert!((lcs_similarity("abcd", "abcd") - 1.0).abs() < 1e-12);
        assert!((lcs_similarity("abcde", "ace") - 0.6).abs() < 1e-12);
        let near = lcs_similarity("spatial join processing", "spatial join procesing");
        assert!(near > 0.9);
    }

    #[test]
    fn lcs_is_symmetric() {
        for (a, b) in [("database", "databse"), ("query optimizer", "optimizer"), ("x", "")] {
            assert_eq!(lcs_length(a, b), lcs_length(b, a));
        }
    }

    #[test]
    fn longest_common_substring_basic() {
        assert_eq!(longest_common_substring("abcdef", "zcdefy"), 4);
        assert_eq!(longest_common_substring("abc", "abc"), 3);
        assert_eq!(longest_common_substring("abc", "xyz"), 0);
        assert_eq!(longest_common_substring("", "x"), 0);
    }

    #[test]
    fn substring_similarity_containment() {
        assert!((substring_similarity("ipod nano", "apple ipod nano 4gb") - 1.0).abs() < 1e-12);
        assert!((substring_similarity("", "") - 1.0).abs() < 1e-12);
        assert_eq!(substring_similarity("", "x"), 0.0);
        assert!(substring_similarity("canon", "nikon") < 0.5);
    }
}
