//! # er-similarity
//!
//! Similarity and difference metrics over ER attribute values, plus the
//! metric registry that binds them to schema attributes (the paper's *basic
//! metrics*, Section 5.1 / Figure 5).
//!
//! * [`tokenize`] — normalization, tokenization, entity splitting, abbreviation.
//! * [`edit`] — Levenshtein, Jaro, Jaro–Winkler.
//! * [`token_sim`] — Jaccard, Dice, overlap, cosine (TF and TF-IDF), Monge–Elkan.
//! * [`sequence`] — LCS and longest-common-substring similarity.
//! * [`difference`] — the paper's difference metrics (non-substring/prefix/suffix,
//!   abbreviation variants, diff-cardinality, distinct-entity, diff-key-token,
//!   numeric differences).
//! * [`metric`] — [`metric::MetricKind`], [`metric::AttrMetric`] and
//!   [`metric::MetricEvaluator`], which evaluate the basic metric vector of a
//!   record pair.
//!
//! ## How a row is computed
//!
//! [`MetricEvaluator::eval_all`] and [`MetricEvaluator::eval_pairs`] prepare
//! each string attribute value once per pair, building only the parts that
//! attribute's metrics read: the raw characters, the normalized text, its
//! token spans in order, its distinct tokens sorted with counts, and its
//! entity names with their sorted distinct set.  Every metric then reads
//! those parts:
//!
//! * Jaccard, Dice, overlap, entity Jaccard and `diff-key-token` merge two
//!   sorted distinct sequences, counting exactly what hash sets would count;
//! * the cosine metrics walk the sorted `(token, weight)` lists in the order a
//!   `BTreeMap` iterates, so every sum adds the same terms in the same order;
//! * Monge–Elkan and `distinct-entity` run Jaro–Winkler over the prepared
//!   tokens and names, in the original loop order.
//!
//! The character kernels are bit-parallel over 64-bit words: Levenshtein is
//! Myers/Hyyrö, LCS is Allison–Dix/Hyyrö, and Jaro finds each window match in
//! the second string's character masks.  Patterns longer than 64 characters
//! span several words with carries between them; ASCII characters index the
//! mask table directly and other characters use a short side list.  The
//! public functions of [`edit`], [`sequence`], [`token_sim`] and
//! [`difference`] and [`eval_metric_kind`] are thin wrappers over the same
//! kernels, and `eval_pairs` reuses one set of buffers across its pairs.
//!
//! The straightforward bodies these replaced — character dynamic programs,
//! `HashSet` token sets, `BTreeMap` term vectors — live on as a test-only
//! reference module.  Tests check every kernel against it on random strings
//! around each word boundary, and whole rows on the four paper datasets, bit
//! for bit.

#![warn(missing_docs)]

pub mod difference;
pub mod edit;
mod kernel;
pub mod metric;
mod prepared;
#[cfg(test)]
mod reference;
pub mod sequence;
pub mod token_sim;
pub mod tokenize;

pub use metric::{default_metrics, eval_metric_kind, AttrMetric, MetricEvaluator, MetricKind};
pub use token_sim::IdfTable;
