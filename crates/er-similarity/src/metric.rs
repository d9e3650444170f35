//! The metric registry: basic similarity/difference metrics per attribute.
//!
//! Rule generation (Section 5.2 of the paper) searches over *basic metrics*
//! applied to attribute value pairs.  This module defines the metric kinds,
//! evaluates them over a pair of records and builds the default metric set for
//! a schema, following the Figure 5 taxonomy: the metric mix depends on the
//! attribute type.

use crate::difference as diff;
use crate::edit;
use crate::kernel::Kernels;
use crate::prepared::{needs, PairBuffers, Prepared};
use crate::sequence;
use crate::token_sim::{self, IdfTable};
use crate::tokenize::tokens;
use er_base::{AttrType, AttrValue, Pair, Record, Schema};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a metric computed over one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    // ---- similarity metrics (higher = more similar) ----
    /// Normalized Levenshtein similarity.
    EditSimilarity,
    /// Jaro–Winkler similarity.
    JaroWinkler,
    /// Token Jaccard index.
    Jaccard,
    /// Token Dice coefficient.
    Dice,
    /// Token overlap coefficient.
    Overlap,
    /// Term-frequency cosine similarity.
    CosineTf,
    /// TF-IDF cosine similarity (requires corpus statistics).
    CosineTfIdf,
    /// Symmetric Monge–Elkan similarity.
    MongeElkan,
    /// Normalized longest-common-subsequence similarity.
    Lcs,
    /// Normalized longest-common-substring similarity.
    SubstringSim,
    /// Entity-level Jaccard over entity sets.
    EntityJaccard,
    /// Numeric equality indicator (1 = equal).
    NumericEqual,
    /// Negated normalized absolute numeric difference (1 = identical).
    NumericSimilarity,
    // ---- difference metrics (higher = more different) ----
    /// Neither value is a substring of the other.
    NonSubstring,
    /// Neither value is a prefix of the other.
    NonPrefix,
    /// Neither value is a suffix of the other.
    NonSuffix,
    /// Abbreviation-aware non-substring.
    AbbrNonSubstring,
    /// Abbreviation-aware non-prefix.
    AbbrNonPrefix,
    /// Abbreviation-aware non-suffix.
    AbbrNonSuffix,
    /// Entity sets have different cardinalities.
    DiffCardinality,
    /// Number of entities present in only one set.
    DistinctEntity,
    /// Number of key tokens present in only one value.
    DiffKeyToken,
    /// Numeric values differ.
    NumericNotEqual,
    /// Absolute numeric difference.
    NumericAbsDiff,
    /// Relative numeric difference.
    NumericRelDiff,
}

impl MetricKind {
    /// Whether larger values indicate *difference* (a difference metric) as
    /// opposed to similarity.
    pub fn is_difference(self) -> bool {
        matches!(
            self,
            MetricKind::NonSubstring
                | MetricKind::NonPrefix
                | MetricKind::NonSuffix
                | MetricKind::AbbrNonSubstring
                | MetricKind::AbbrNonPrefix
                | MetricKind::AbbrNonSuffix
                | MetricKind::DiffCardinality
                | MetricKind::DistinctEntity
                | MetricKind::DiffKeyToken
                | MetricKind::NumericNotEqual
                | MetricKind::NumericAbsDiff
                | MetricKind::NumericRelDiff
        )
    }

    /// Stable snake-case name, used when rendering rules.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::EditSimilarity => "edit_sim",
            MetricKind::JaroWinkler => "jaro_winkler",
            MetricKind::Jaccard => "jaccard",
            MetricKind::Dice => "dice",
            MetricKind::Overlap => "overlap",
            MetricKind::CosineTf => "cosine_tf",
            MetricKind::CosineTfIdf => "cosine_tfidf",
            MetricKind::MongeElkan => "monge_elkan",
            MetricKind::Lcs => "lcs",
            MetricKind::SubstringSim => "substring_sim",
            MetricKind::EntityJaccard => "entity_jaccard",
            MetricKind::NumericEqual => "num_equal",
            MetricKind::NumericSimilarity => "num_sim",
            MetricKind::NonSubstring => "non_substring",
            MetricKind::NonPrefix => "non_prefix",
            MetricKind::NonSuffix => "non_suffix",
            MetricKind::AbbrNonSubstring => "abbr_non_substring",
            MetricKind::AbbrNonPrefix => "abbr_non_prefix",
            MetricKind::AbbrNonSuffix => "abbr_non_suffix",
            MetricKind::DiffCardinality => "diff_cardinality",
            MetricKind::DistinctEntity => "distinct_entity",
            MetricKind::DiffKeyToken => "diff_key_token",
            MetricKind::NumericNotEqual => "num_not_equal",
            MetricKind::NumericAbsDiff => "num_abs_diff",
            MetricKind::NumericRelDiff => "num_rel_diff",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A basic metric bound to an attribute: the unit the rule generator searches
/// over (`sim(r1[A], r2[A])` / `diff(r1[A], r2[A])`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrMetric {
    /// Index of the attribute in the schema.
    pub attr_index: usize,
    /// Attribute name (for interpretable rendering).
    pub attr_name: String,
    /// Metric kind.
    pub kind: MetricKind,
}

impl fmt::Display for AttrMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind, self.attr_name)
    }
}

/// Evaluates basic metrics over record pairs, with shared corpus statistics
/// (IDF tables per text attribute) collected once per workload.
#[derive(Debug, Clone)]
pub struct MetricEvaluator {
    schema: Arc<Schema>,
    metrics: Vec<AttrMetric>,
    /// One IDF table per attribute (empty tables for non-text attributes).
    idf: Vec<IdfTable>,
    /// Document-frequency ratio below which a token counts as a key token.
    pub key_token_max_df: f64,
}

impl MetricEvaluator {
    /// Builds an evaluator with the default metric set for the schema and
    /// corpus statistics gathered from the provided records.
    pub fn new<'a, I>(schema: Arc<Schema>, corpus: I) -> Self
    where
        I: IntoIterator<Item = &'a Record>,
        I::IntoIter: Clone,
    {
        let metrics = default_metrics(&schema);
        let mut idf = vec![IdfTable::new(); schema.len()];
        let iter = corpus.into_iter();
        for record in iter {
            for (i, attr) in schema.iter() {
                if attr.ty.is_string() {
                    if let Some(s) = record.values[i].as_str() {
                        idf[i].add_document(&tokens(s));
                    }
                }
            }
        }
        Self {
            schema,
            metrics,
            idf,
            key_token_max_df: 0.05,
        }
    }

    /// Builds an evaluator gathering corpus statistics from the records of a
    /// pair list (both sides).
    pub fn from_pairs(schema: Arc<Schema>, pairs: &[Pair]) -> Self {
        let mut evaluator = Self::new(Arc::clone(&schema), std::iter::empty::<&Record>());
        for p in pairs {
            for rec in [&p.left, &p.right] {
                for (i, attr) in schema.iter() {
                    if attr.ty.is_string() {
                        if let Some(s) = rec.values[i].as_str() {
                            evaluator.idf[i].add_document(&tokens(s));
                        }
                    }
                }
            }
        }
        evaluator
    }

    /// The metrics this evaluator computes, in order.
    pub fn metrics(&self) -> &[AttrMetric] {
        &self.metrics
    }

    /// The schema the evaluator was built for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of basic metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metrics are configured.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Restricts the evaluator to a custom metric list (used by tests and by
    /// dataset-specific configurations mirroring the paper's per-dataset
    /// metric counts).
    pub fn with_metrics(mut self, metrics: Vec<AttrMetric>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The IDF table of one attribute.
    #[cfg(test)]
    pub(crate) fn idf_table(&self, attr_index: usize) -> &IdfTable {
        &self.idf[attr_index]
    }

    /// Evaluates a single metric on a pair of records.
    pub fn eval_metric(&self, metric: &AttrMetric, left: &Record, right: &Record) -> f64 {
        let a = &left.values[metric.attr_index];
        let b = &right.values[metric.attr_index];
        self.eval_values(metric, a, b)
    }

    /// Evaluates a single metric on two attribute values.
    pub fn eval_values(&self, metric: &AttrMetric, a: &AttrValue, b: &AttrValue) -> f64 {
        let idf = &self.idf[metric.attr_index];
        eval_metric_kind(metric.kind, a, b, idf, self.key_token_max_df)
    }

    /// Evaluates every configured metric on a pair of records, producing the
    /// basic-metric vector used by rule generation and classification.
    pub fn eval_all(&self, left: &Record, right: &Record) -> Vec<f64> {
        self.eval_row(left, right, &mut PairBuffers::default())
    }

    /// Evaluates every metric for each pair, producing a row-major matrix.
    pub fn eval_pairs(&self, pairs: &[Pair]) -> Vec<Vec<f64>> {
        let mut buffers = PairBuffers::default();
        pairs
            .iter()
            .map(|p| self.eval_row(&p.left, &p.right, &mut buffers))
            .collect()
    }

    /// One pair's row: each string attribute's values are prepared once, with
    /// the parts its metrics read, and every metric reads those parts.
    fn eval_row(&self, left: &Record, right: &Record, buffers: &mut PairBuffers) -> Vec<f64> {
        buffers.values.prepare(&self.metrics, left, right);
        self.metrics
            .iter()
            .map(|m| match buffers.values.sides(m.attr_index) {
                Some((a, b)) if needs(m.kind) != 0 => eval_prepared(
                    m.kind,
                    a,
                    b,
                    &self.idf[m.attr_index],
                    self.key_token_max_df,
                    &mut buffers.kernels,
                ),
                // Numeric metrics, and string metrics over a missing value.
                _ => self.eval_metric(m, left, right),
            })
            .collect()
    }
}

/// Evaluates a metric kind over two attribute values.
///
/// Missing values yield a neutral result: similarity metrics return 0.5 (no
/// evidence either way would be ideal, but classifiers benefit from a constant
/// mid value) and difference metrics return 0 (no difference evidence), as
/// discussed in Section 5.1 of the paper.
pub fn eval_metric_kind(kind: MetricKind, a: &AttrValue, b: &AttrValue, idf: &IdfTable, key_df: f64) -> f64 {
    use MetricKind::*;
    // Numeric metrics read numbers; everything else reads strings.
    match kind {
        NumericEqual => {
            let (x, y) = (a.as_num(), b.as_num());
            match (x, y) {
                (Some(x), Some(y)) => {
                    if (x - y).abs() < 1e-9 {
                        1.0
                    } else {
                        0.0
                    }
                }
                _ => 0.5,
            }
        }
        NumericSimilarity => {
            let (x, y) = (a.as_num(), b.as_num());
            match (x, y) {
                (Some(x), Some(y)) => {
                    let denom = x.abs().max(y.abs());
                    if denom == 0.0 {
                        1.0
                    } else {
                        (1.0 - (x - y).abs() / denom).max(0.0)
                    }
                }
                _ => 0.5,
            }
        }
        NumericNotEqual => diff::numeric_not_equal(a.as_num(), b.as_num()),
        NumericAbsDiff => diff::numeric_abs_diff(a.as_num(), b.as_num()),
        NumericRelDiff => diff::numeric_rel_diff(a.as_num(), b.as_num()),
        _ => match (a.as_str(), b.as_str()) {
            (Some(sa), Some(sb)) => {
                let parts = needs(kind);
                let (pa, pb) = (Prepared::of(sa, parts), Prepared::of(sb, parts));
                eval_prepared(kind, &pa, &pb, idf, key_df, &mut Kernels::default())
            }
            _ if kind.is_difference() => 0.0,
            _ => 0.5,
        },
    }
}

/// Evaluates a string metric kind over two values prepared with (at least)
/// the parts the kind [`needs`].
fn eval_prepared(
    kind: MetricKind,
    a: &Prepared,
    b: &Prepared,
    idf: &IdfTable,
    key_df: f64,
    kernels: &mut Kernels,
) -> f64 {
    use MetricKind::*;
    let sets = |metric: fn(usize, usize, usize) -> f64| {
        let inter = token_sim::sorted_intersection(a.distinct_tokens(), b.distinct_tokens());
        metric(a.distinct_len(), b.distinct_len(), inter)
    };
    match kind {
        EditSimilarity => edit::edit_similarity_chars(&a.raw, &b.raw, kernels),
        JaroWinkler => kernels.jaro_winkler(&a.raw, &b.raw),
        Jaccard => sets(token_sim::jaccard_of),
        Dice => sets(token_sim::dice_of),
        Overlap => sets(token_sim::overlap_of),
        CosineTf => {
            let [wa, wb] = [a, b].map(|p| p.distinct_counts().map(|(t, n)| (t, f64::from(n))).collect::<Vec<_>>());
            token_sim::cosine_of(&wa, &wb)
        }
        CosineTfIdf => token_sim::cosine_of(
            &idf.tfidf_weights(a.distinct_counts()),
            &idf.tfidf_weights(b.distinct_counts()),
        ),
        MongeElkan => {
            let [ta, tb] = [a, b].map(|p| p.token_chars().collect::<Vec<_>>());
            token_sim::monge_elkan_sym_chars(&ta, &tb, kernels)
        }
        Lcs => sequence::lcs_similarity_chars(&a.raw, &b.raw, kernels),
        SubstringSim => sequence::substring_similarity_chars(&a.raw, &b.raw),
        EntityJaccard => token_sim::jaccard_of(
            a.distinct_entity_len(),
            b.distinct_entity_len(),
            token_sim::sorted_intersection(a.distinct_entities(), b.distinct_entities()),
        ),
        NonSubstring => diff::neither(&a.norm, &b.norm, diff::Contained::Substring),
        NonPrefix => diff::neither(&a.norm, &b.norm, diff::Contained::Prefix),
        NonSuffix => diff::neither(&a.norm, &b.norm, diff::Contained::Suffix),
        AbbrNonSubstring => diff::abbr_neither(a, b, diff::Contained::Substring),
        AbbrNonPrefix => diff::abbr_neither(a, b, diff::Contained::Prefix),
        AbbrNonSuffix => diff::abbr_neither(a, b, diff::Contained::Suffix),
        DiffCardinality => diff::cardinality_differs(a.entity_count(), b.entity_count()),
        DistinctEntity => diff::distinct_entities(a, b, kernels),
        DiffKeyToken => diff::one_sided_tokens(a, b, |t| idf.is_key_token(t, key_df)),
        NumericEqual | NumericSimilarity | NumericNotEqual | NumericAbsDiff | NumericRelDiff => {
            unreachable!("numeric kinds read no prepared parts")
        }
    }
}

/// Builds the default metric set for a schema, following the Figure 5 taxonomy.
pub fn default_metrics(schema: &Schema) -> Vec<AttrMetric> {
    let mut out = Vec::new();
    for (i, attr) in schema.iter() {
        let kinds: &[MetricKind] = match attr.ty {
            AttrType::EntityName => &[
                MetricKind::JaroWinkler,
                MetricKind::EditSimilarity,
                MetricKind::Jaccard,
                MetricKind::NonSubstring,
                MetricKind::AbbrNonSubstring,
                MetricKind::NonPrefix,
            ],
            AttrType::EntitySet => &[
                MetricKind::EntityJaccard,
                MetricKind::MongeElkan,
                MetricKind::DiffCardinality,
                MetricKind::DistinctEntity,
            ],
            AttrType::Text => &[
                MetricKind::Jaccard,
                MetricKind::CosineTfIdf,
                MetricKind::Lcs,
                MetricKind::EditSimilarity,
                MetricKind::DiffKeyToken,
            ],
            AttrType::Numeric => &[
                MetricKind::NumericEqual,
                MetricKind::NumericNotEqual,
                MetricKind::NumericRelDiff,
            ],
            AttrType::Categorical => &[MetricKind::EditSimilarity, MetricKind::NonSubstring],
        };
        for &kind in kinds {
            out.push(AttrMetric {
                attr_index: i,
                attr_name: attr.name.clone(),
                kind,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::{AttrDef, RecordId};

    fn paper_schema() -> Schema {
        Schema::new(vec![
            AttrDef::new("title", AttrType::Text),
            AttrDef::new("authors", AttrType::EntitySet),
            AttrDef::new("venue", AttrType::EntityName),
            AttrDef::new("year", AttrType::Numeric),
        ])
    }

    fn record(id: u32, title: &str, authors: &str, venue: &str, year: Option<f64>) -> Record {
        Record::new(
            RecordId(id),
            vec![
                AttrValue::from(title),
                AttrValue::from(authors),
                AttrValue::from(venue),
                year.map(AttrValue::Num).unwrap_or(AttrValue::Null),
            ],
        )
    }

    #[test]
    fn default_metric_mix_follows_attribute_types() {
        let schema = paper_schema();
        let metrics = default_metrics(&schema);
        // Text: 5, EntitySet: 4, EntityName: 6, Numeric: 3.
        assert_eq!(metrics.len(), 18);
        assert!(metrics
            .iter()
            .any(|m| m.attr_name == "year" && m.kind == MetricKind::NumericNotEqual));
        assert!(metrics
            .iter()
            .any(|m| m.attr_name == "authors" && m.kind == MetricKind::DistinctEntity));
        assert!(metrics
            .iter()
            .any(|m| m.attr_name == "title" && m.kind == MetricKind::DiffKeyToken));
        assert!(metrics
            .iter()
            .any(|m| m.attr_name == "venue" && m.kind == MetricKind::AbbrNonSubstring));
    }

    #[test]
    fn evaluator_computes_all_metrics() {
        let schema = Arc::new(paper_schema());
        let r1 = record(
            0,
            "Efficient Processing of Spatial Joins",
            "T Brinkhoff, H Kriegel, B Seeger",
            "SIGMOD",
            Some(1993.0),
        );
        let r2 = record(
            1,
            "Efficient Processing of Spatial Joins Using R-Trees",
            "T Brinkhoff, H Kriegel, B Seeger",
            "SIGMOD Conference",
            Some(1993.0),
        );
        let r3 = record(
            2,
            "The Design of Postgres",
            "M Stonebraker, L Rowe",
            "SIGMOD",
            Some(1986.0),
        );
        let corpus = [r1.clone(), r2.clone(), r3.clone()];
        let evaluator = MetricEvaluator::new(Arc::clone(&schema), corpus.iter());
        let v12 = evaluator.eval_all(&r1, &r2);
        let v13 = evaluator.eval_all(&r1, &r3);
        assert_eq!(v12.len(), evaluator.len());
        // Find jaccard(title) position and compare.
        let idx_jaccard = evaluator
            .metrics()
            .iter()
            .position(|m| m.attr_name == "title" && m.kind == MetricKind::Jaccard)
            .unwrap();
        assert!(v12[idx_jaccard] > v13[idx_jaccard]);
        // Year inequality fires for the unrelated pair only.
        let idx_year = evaluator
            .metrics()
            .iter()
            .position(|m| m.attr_name == "year" && m.kind == MetricKind::NumericNotEqual)
            .unwrap();
        assert_eq!(v12[idx_year], 0.0);
        assert_eq!(v13[idx_year], 1.0);
    }

    #[test]
    fn missing_values_are_neutral() {
        let schema = Arc::new(paper_schema());
        let evaluator = MetricEvaluator::new(Arc::clone(&schema), std::iter::empty::<&Record>());
        let full = record(0, "A Title", "A Smith", "VLDB", Some(2000.0));
        let hole = Record::new(
            RecordId(1),
            vec![AttrValue::Null, AttrValue::Null, AttrValue::Null, AttrValue::Null],
        );
        for (metric, value) in evaluator.metrics().iter().zip(evaluator.eval_all(&full, &hole)) {
            if metric.kind.is_difference() {
                assert_eq!(
                    value, 0.0,
                    "difference metric {metric} should give no evidence on nulls"
                );
            } else {
                assert_eq!(value, 0.5, "similarity metric {metric} should be neutral on nulls");
            }
        }
    }

    #[test]
    fn metric_kind_classification() {
        assert!(MetricKind::DistinctEntity.is_difference());
        assert!(MetricKind::NumericNotEqual.is_difference());
        assert!(!MetricKind::Jaccard.is_difference());
        assert!(!MetricKind::NumericEqual.is_difference());
        assert_eq!(MetricKind::Lcs.name(), "lcs");
        assert_eq!(format!("{}", MetricKind::DiffKeyToken), "diff_key_token");
    }

    #[test]
    fn attr_metric_display() {
        let m = AttrMetric {
            attr_index: 3,
            attr_name: "year".into(),
            kind: MetricKind::NumericNotEqual,
        };
        assert_eq!(m.to_string(), "num_not_equal(year)");
    }

    #[test]
    fn evaluator_from_pairs_builds_idf() {
        let schema = Arc::new(paper_schema());
        let r1 = Arc::new(record(0, "rare gem title", "A", "V", Some(1.0)));
        let r2 = Arc::new(record(1, "common words here", "B", "V", Some(1.0)));
        let pairs = vec![Pair::new(er_base::PairId(0), r1, r2, er_base::Label::Inequivalent)];
        let ev = MetricEvaluator::from_pairs(Arc::clone(&schema), &pairs);
        assert_eq!(ev.eval_pairs(&pairs).len(), 1);
        assert!(!ev.is_empty());
    }
}
