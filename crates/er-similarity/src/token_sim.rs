//! Token- and set-based similarity metrics.
//!
//! Set metrics merge two sorted, distinct token sequences; cosine metrics walk
//! sorted `(token, weight)` lists, in the order a `BTreeMap` would; Monge–Elkan
//! runs the Jaro–Winkler kernel over token characters.  The public functions
//! sort their token slices and call the same kernels the metric evaluator
//! calls on prepared values.

use crate::kernel::Kernels;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Walks two sorted, distinct token sequences in merged order, calling
/// `visit` once per distinct token with whether both sequences hold it.
pub(crate) fn merge_sorted<'a>(
    a: impl Iterator<Item = &'a str>,
    b: impl Iterator<Item = &'a str>,
    mut visit: impl FnMut(&'a str, bool),
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => match x.cmp(y) {
                Ordering::Less => {
                    visit(x, false);
                    a.next();
                }
                Ordering::Greater => {
                    visit(y, false);
                    b.next();
                }
                Ordering::Equal => {
                    visit(x, true);
                    a.next();
                    b.next();
                }
            },
            (Some(&x), None) => {
                visit(x, false);
                a.next();
            }
            (None, Some(&y)) => {
                visit(y, false);
                b.next();
            }
            (None, None) => return,
        }
    }
}

/// `|A ∩ B|` of two sorted, distinct token sequences.
pub(crate) fn sorted_intersection<'a>(a: impl Iterator<Item = &'a str>, b: impl Iterator<Item = &'a str>) -> usize {
    let mut inter = 0;
    merge_sorted(a, b, |_, shared| inter += usize::from(shared));
    inter
}

/// The distinct tokens of a slice, sorted.
fn sorted_set<S: AsRef<str>>(xs: &[S]) -> Vec<&str> {
    let mut set = sorted_tokens(xs);
    set.dedup();
    set
}

/// The distinct tokens of a slice, sorted, with their counts.
fn sorted_counts<S: AsRef<str>>(xs: &[S]) -> Vec<(&str, u32)> {
    let mut counts: Vec<(&str, u32)> = Vec::new();
    for t in sorted_tokens(xs) {
        match counts.last_mut() {
            Some((last, n)) if *last == t => *n += 1,
            _ => counts.push((t, 1)),
        }
    }
    counts
}

/// The tokens of a slice, sorted.
fn sorted_tokens<S: AsRef<str>>(xs: &[S]) -> Vec<&str> {
    let mut tokens: Vec<&str> = xs.iter().map(AsRef::as_ref).collect();
    tokens.sort_unstable();
    tokens
}

/// Applies a set metric to two token slices.
fn on_sets<S: AsRef<str>>(a: &[S], b: &[S], metric: fn(usize, usize, usize) -> f64) -> f64 {
    let (sa, sb) = (sorted_set(a), sorted_set(b));
    metric(
        sa.len(),
        sb.len(),
        sorted_intersection(sa.iter().copied(), sb.iter().copied()),
    )
}

/// Jaccard index of two token multisets (treated as sets).
pub fn jaccard<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    on_sets(a, b, jaccard_of)
}

/// Jaccard index from set sizes and intersection size.
pub(crate) fn jaccard_of(len_a: usize, len_b: usize, inter: usize) -> f64 {
    if len_a == 0 && len_b == 0 {
        return 1.0;
    }
    inter as f64 / (len_a + len_b - inter) as f64
}

/// Dice coefficient `2|A∩B| / (|A| + |B|)` over token sets.
pub fn dice<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    on_sets(a, b, dice_of)
}

/// Dice coefficient from set sizes and intersection size.
pub(crate) fn dice_of(len_a: usize, len_b: usize, inter: usize) -> f64 {
    let denom = len_a + len_b;
    if denom == 0 {
        return 1.0;
    }
    2.0 * inter as f64 / denom as f64
}

/// Overlap coefficient `|A∩B| / min(|A|, |B|)` over token sets.
pub fn overlap<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    on_sets(a, b, overlap_of)
}

/// Overlap coefficient from set sizes and intersection size.
pub(crate) fn overlap_of(len_a: usize, len_b: usize, inter: usize) -> f64 {
    if len_a == 0 && len_b == 0 {
        return 1.0;
    }
    let min = len_a.min(len_b);
    if min == 0 {
        return 0.0;
    }
    inter as f64 / min as f64
}

/// Cosine similarity of term-frequency vectors built from the token lists.
pub fn cosine_tf<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let weigh = |xs| -> Vec<(&str, f64)> { sorted_counts(xs).into_iter().map(|(t, n)| (t, f64::from(n))).collect() };
    cosine_of(&weigh(a), &weigh(b))
}

/// Cosine similarity of two weight vectors given as `(token, weight)` lists
/// sorted by token.  Empty lists are empty token lists: two are fully
/// similar, one is not similar at all.
pub(crate) fn cosine_of(a: &[(&str, f64)], b: &[(&str, f64)]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut dot = 0.0;
    let mut rest = b;
    for &(t, x) in a {
        while rest.first().is_some_and(|&(u, _)| u < t) {
            rest = &rest[1..];
        }
        if let Some(&(u, y)) = rest.first() {
            if u == t {
                dot += x * y;
            }
        }
    }
    let na: f64 = a.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Monge–Elkan similarity: for each token of `a`, the best Jaro–Winkler match
/// in `b`, averaged.  Tolerant to token-level typos and reorderings, useful for
/// person-name lists.
pub fn monge_elkan<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (ca, cb) = (token_chars(a), token_chars(b));
    monge_elkan_chars(&slices(&ca), &slices(&cb), &mut Kernels::default())
}

/// Symmetric Monge–Elkan: the mean of both directions, making the metric
/// order-independent.
pub fn monge_elkan_sym<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (ca, cb) = (token_chars(a), token_chars(b));
    monge_elkan_sym_chars(&slices(&ca), &slices(&cb), &mut Kernels::default())
}

fn token_chars<S: AsRef<str>>(xs: &[S]) -> Vec<Vec<char>> {
    xs.iter().map(|x| x.as_ref().chars().collect()).collect()
}

fn slices(xs: &[Vec<char>]) -> Vec<&[char]> {
    xs.iter().map(Vec::as_slice).collect()
}

/// [`monge_elkan`] over the characters of each token.
pub(crate) fn monge_elkan_chars(a: &[&[char]], b: &[&[char]], kernels: &mut Kernels) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for ta in a {
        // Jaro–Winkler never exceeds 1.0 and is exactly 1.0 on equal tokens,
        // so an equal token settles the maximum without scoring the rest.
        let best = if b.contains(ta) {
            1.0
        } else {
            b.iter().fold(0.0f64, |best, tb| best.max(kernels.jaro_winkler(ta, tb)))
        };
        total += best;
    }
    total / a.len() as f64
}

/// [`monge_elkan_sym`] over the characters of each token.
pub(crate) fn monge_elkan_sym_chars(a: &[&[char]], b: &[&[char]], kernels: &mut Kernels) -> f64 {
    (monge_elkan_chars(a, b, kernels) + monge_elkan_chars(b, a, kernels)) / 2.0
}

/// A corpus-level inverse-document-frequency table over tokens.
///
/// `diff-key-token` and TF-IDF cosine need to know which tokens are
/// *discriminating*; IDF computed over all attribute values of a workload
/// provides that signal.
#[derive(Debug, Clone, Default)]
pub struct IdfTable {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
}

impl IdfTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document's tokens (counted once per document).
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.doc_count += 1;
        let uniq: HashSet<&str> = tokens.iter().map(AsRef::as_ref).collect();
        for t in uniq {
            *self.doc_freq.entry(t.to_owned()).or_insert(0) += 1;
        }
    }

    /// Number of documents added.
    pub fn documents(&self) -> usize {
        self.doc_count
    }

    /// Smoothed IDF of a token: `ln((1 + N) / (1 + df)) + 1`.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        ((1.0 + self.doc_count as f64) / (1.0 + df as f64)).ln() + 1.0
    }

    /// Whether a token is a *key* (discriminating) token: its document
    /// frequency is at most `max_df_ratio` of the corpus, or it looks
    /// intrinsically specific (contains digits / long).
    pub fn is_key_token(&self, token: &str, max_df_ratio: f64) -> bool {
        if crate::tokenize::is_specific_token(token) {
            return true;
        }
        if self.doc_count == 0 {
            return false;
        }
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        (df as f64 / self.doc_count as f64) <= max_df_ratio
    }

    /// Cosine similarity of TF-IDF weighted token vectors.
    pub fn cosine_tfidf<S: AsRef<str>>(&self, a: &[S], b: &[S]) -> f64 {
        let weigh = |xs| self.tfidf_weights(sorted_counts(xs).into_iter());
        cosine_of(&weigh(a), &weigh(b))
    }

    /// TF-IDF weights of sorted `(token, count)` pairs.
    pub(crate) fn tfidf_weights<'a>(&self, counts: impl Iterator<Item = (&'a str, u32)>) -> Vec<(&'a str, f64)> {
        counts.map(|(t, n)| (t, f64::from(n) * self.idf(t))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokens;

    #[test]
    fn jaccard_basic() {
        let a = tokens("efficient processing of spatial joins");
        let b = tokens("efficient processing of joins");
        let j = jaccard(&a, &b);
        assert!((j - 4.0 / 5.0).abs() < 1e-12);
        assert!((jaccard::<&str>(&[], &[]) - 1.0).abs() < 1e-12);
        assert_eq!(jaccard(&["a".to_string()], &["b".to_string()]), 0.0);
    }

    #[test]
    fn paper_example_entity_jaccard() {
        // Example 1 of the paper: author sets of sizes 4 and 3 sharing 3 entities.
        let s1 = crate::tokenize::entities("T Brinkhoff, H Kriegel, R Schneider, B Seeger");
        let s2 = crate::tokenize::entities("T Brinkhoff, H Kriegel, B Seeger");
        assert!((jaccard(&s1, &s2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dice_and_overlap() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "z".to_string()];
        assert!((dice(&a, &b) - 0.5).abs() < 1e-12);
        assert!((overlap(&a, &b) - 0.5).abs() < 1e-12);
        let sub = vec!["y".to_string()];
        assert!((overlap(&a, &sub) - 1.0).abs() < 1e-12);
        assert!((dice::<&str>(&[], &[]) - 1.0).abs() < 1e-12);
        assert!((overlap::<&str>(&[], &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_tf_identical_and_disjoint() {
        let a = tokens("big data systems");
        assert!((cosine_tf(&a, &a) - 1.0).abs() < 1e-12);
        let b = tokens("tiny things");
        assert_eq!(cosine_tf(&a, &b), 0.0);
        assert_eq!(cosine_tf::<&str>(&[], &["x"]), 0.0);
    }

    #[test]
    fn monge_elkan_tolerates_typos() {
        let a = tokens("hans kriegel");
        let b = tokens("hans peter kriegel");
        assert!(monge_elkan(&a, &b) > 0.95);
        let c = tokens("michael stonebraker");
        assert!(monge_elkan_sym(&a, &c) < 0.7);
        assert!((monge_elkan_sym::<&str>(&[], &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monge_elkan_symmetric_version_is_symmetric() {
        let a = tokens("the quick brown fox");
        let b = tokens("quick fox");
        assert!((monge_elkan_sym(&a, &b) - monge_elkan_sym(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn idf_table_marks_rare_tokens_as_key() {
        let mut idf = IdfTable::new();
        for _ in 0..50 {
            idf.add_document(&tokens("apple ipod nano silver"));
        }
        idf.add_document(&tokens("apple ipod shuffle 512mb"));
        assert_eq!(idf.documents(), 51);
        // "apple" occurs everywhere -> not a key token; "shuffle" is rare -> key.
        assert!(!idf.is_key_token("apple", 0.2));
        assert!(idf.is_key_token("shuffle", 0.2));
        // Digits are always specific.
        assert!(idf.is_key_token("512mb", 0.2));
        assert!(idf.idf("shuffle") > idf.idf("apple"));
    }

    #[test]
    fn tfidf_cosine_downweights_common_tokens() {
        let mut idf = IdfTable::new();
        idf.add_document(&tokens("sony vaio laptop"));
        idf.add_document(&tokens("sony bravia tv"));
        idf.add_document(&tokens("sony walkman player"));
        let a = tokens("sony vaio");
        let b = tokens("sony walkman");
        let c = tokens("sony vaio laptop");
        // Sharing only the ubiquitous "sony" scores lower than sharing "vaio".
        assert!(idf.cosine_tfidf(&a, &c) > idf.cosine_tfidf(&a, &b));
        assert!((idf.cosine_tfidf(&a, &a) - 1.0).abs() < 1e-9);
    }
}
