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
use crate::prepared::{attr_parts, needs, Prepared, PreparedRecord};
use crate::sequence;
use crate::token_sim::{self, IdfTable};
use crate::tokenize::tokens;
use er_base::{AttrType, AttrValue, Pair, Record, Schema};
use er_pool::WorkerPool;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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
    /// Rows attached by [`MetricEvaluator::with_remembered_rows`], shared by
    /// every clone.
    remembered: Option<Arc<RememberedRows>>,
}

/// Rows this evaluator computed earlier, each for the pair built from two
/// particular records.
#[derive(Debug)]
struct RememberedRows {
    /// Index into `rows`, keyed by the addresses of a pair's left and right
    /// record.
    index: HashMap<[usize; 2], usize>,
    /// The records of every keyed pair, held so that while the rows live no
    /// other record can be allocated at one of their addresses.
    _records: Vec<[Arc<Record>; 2]>,
    rows: Vec<Vec<f64>>,
    /// The evaluator's `key_token_max_df` when the rows were computed.
    key_token_max_df: f64,
}

impl RememberedRows {
    /// The row of the pair built from exactly `pair`'s two records.
    fn row(&self, pair: &Pair) -> Option<&[f64]> {
        let key = [&pair.left, &pair.right].map(|r| Arc::as_ptr(r) as usize);
        self.index.get(&key).map(|&i| self.rows[i].as_slice())
    }
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
            remembered: None,
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
    /// metric counts).  Drops any remembered rows: they hold the old
    /// metrics.
    pub fn with_metrics(mut self, metrics: Vec<AttrMetric>) -> Self {
        self.metrics = metrics;
        self.remembered = None;
        self
    }

    /// Remembers `rows`, this evaluator's [`eval_pairs`](Self::eval_pairs)
    /// output for `pairs`, so later `eval_pairs` calls (on this evaluator
    /// and its clones) take a pair's row from here instead of evaluating
    /// it again.  A row is found only for a pair built from the same two
    /// record `Arc`s; the evaluator holds those `Arc`s, so no other record
    /// can reuse their addresses.  Replaces any rows remembered before.
    ///
    /// # Panics
    /// Panics unless there is one row per pair, each with one value per
    /// metric.
    pub fn with_remembered_rows(mut self, pairs: &[Pair], rows: Vec<Vec<f64>>) -> Self {
        assert_eq!(rows.len(), pairs.len(), "one remembered row per pair");
        assert!(
            rows.iter().all(|row| row.len() == self.metrics.len()),
            "a remembered row has one value per metric"
        );
        let mut index = HashMap::with_capacity(pairs.len());
        for (i, p) in pairs.iter().enumerate() {
            index
                .entry([&p.left, &p.right].map(|r| Arc::as_ptr(r) as usize))
                .or_insert(i);
        }
        let records = pairs
            .iter()
            .map(|p| [Arc::clone(&p.left), Arc::clone(&p.right)])
            .collect();
        self.remembered = Some(Arc::new(RememberedRows {
            index,
            _records: records,
            rows,
            key_token_max_df: self.key_token_max_df,
        }));
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
        let parts = attr_parts(&self.metrics);
        let [a, b] = [left, right].map(|r| PreparedRecord::new(r, &parts));
        self.eval_row(left, right, &a, &b, &mut Kernels::default())
    }

    /// Evaluates every metric for each pair, producing a row-major matrix
    /// whose rows equal [`eval_all`](Self::eval_all)'s, bit for bit.
    ///
    /// A pair built from the same two record `Arc`s as a pair whose row was
    /// attached with [`with_remembered_rows`](Self::with_remembered_rows)
    /// gets a copy of that row; only the pipeline attaches rows, and this
    /// call keeps none of its output.  The other pairs are evaluated: phase
    /// 1 prepares each distinct record (by allocation) once, however many
    /// pairs it is in; phase 2 evaluates the rows from the prepared
    /// records.  Each phase runs in contiguous chunks over the lanes of a
    /// worker pool, one per available CPU, with its own kernel buffers per
    /// chunk, and inline when it has too few items for two chunks.
    pub fn eval_pairs(&self, pairs: &[Pair]) -> Vec<Vec<f64>> {
        let remembered = self
            .remembered
            .as_deref()
            .filter(|r| r.key_token_max_df.to_bits() == self.key_token_max_df.to_bits());
        let Some(remembered) = remembered else {
            return self.evaluate(pairs.iter());
        };
        let known: Vec<Option<&[f64]>> = pairs.iter().map(|p| remembered.row(p)).collect();
        let unknown = pairs.iter().zip(&known).filter(|(_, row)| row.is_none());
        let mut fresh = self.evaluate(unknown.map(|(p, _)| p)).into_iter();
        known
            .into_iter()
            .map(|row| match row {
                Some(row) => row.to_vec(),
                None => fresh.next().expect("one evaluated row per unknown pair"),
            })
            .collect()
    }

    /// The two phases of [`eval_pairs`](Self::eval_pairs) over `pairs`.
    fn evaluate<'a>(&self, pairs: impl Iterator<Item = &'a Pair>) -> Vec<Vec<f64>> {
        let mut slots: HashMap<*const Record, u32> = HashMap::with_capacity(2 * pairs.size_hint().0);
        let mut records: Vec<&Record> = Vec::new();
        let sides: Vec<[u32; 2]> = pairs
            .map(|p| {
                [&p.left, &p.right].map(|r| {
                    *slots.entry(Arc::as_ptr(r)).or_insert_with(|| {
                        records.push(r);
                        (records.len() - 1) as u32
                    })
                })
            })
            .collect();

        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (record_chunk, pair_chunk) = (chunk_len(records.len(), cpus), chunk_len(sides.len(), cpus));
        // One lane per chunk of the larger phase: never more than `cpus`.
        let chunks = records
            .len()
            .div_ceil(record_chunk)
            .max(sides.len().div_ceil(pair_chunk));
        let pool = (chunks > 1).then(|| WorkerPool::new(chunks));
        let pool = pool.as_ref();

        let parts = attr_parts(&self.metrics);
        let prepared = map_chunked(
            pool,
            &records,
            record_chunk,
            || (),
            |r, _| PreparedRecord::new(r, &parts),
        );
        map_chunked(pool, &sides, pair_chunk, Kernels::default, |&[l, r], kernels| {
            let (l, r) = (l as usize, r as usize);
            self.eval_row(records[l], records[r], &prepared[l], &prepared[r], kernels)
        })
    }

    /// One pair's row: every string metric reads the values prepared for
    /// its attribute.
    fn eval_row(
        &self,
        left: &Record,
        right: &Record,
        a: &PreparedRecord,
        b: &PreparedRecord,
        kernels: &mut Kernels,
    ) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|m| match (a.value(m.attr_index), b.value(m.attr_index)) {
                (Some(a), Some(b)) if needs(m.kind) != 0 => {
                    eval_prepared(m.kind, a, b, &self.idf[m.attr_index], self.key_token_max_df, kernels)
                }
                // Numeric metrics, and string metrics over a value that is
                // not a string.
                _ => self.eval_metric(m, left, right),
            })
            .collect()
    }
}

/// Fewest items (records in phase 1 of [`MetricEvaluator::eval_pairs`],
/// pairs in phase 2) per chunk: below this the hand-off to another lane
/// costs more than the work.
const MIN_CHUNK_LEN: usize = 32;

/// Items per chunk of `len` items over `lanes` lanes: an even share, but
/// never fewer than [`MIN_CHUNK_LEN`].
fn chunk_len(len: usize, lanes: usize) -> usize {
    len.div_ceil(lanes.max(1)).max(MIN_CHUNK_LEN)
}

/// `f` of every item, in order.  Items go in contiguous chunks of `chunk`,
/// each chunk with its own `state()`, over the pool's lanes when there is a
/// pool and more than one chunk, and inline otherwise.
fn map_chunked<T, U, S>(
    pool: Option<&WorkerPool>,
    items: &[T],
    chunk: usize,
    state: impl Fn() -> S + Sync,
    f: impl Fn(&T, &mut S) -> U + Sync,
) -> Vec<U>
where
    T: Sync,
    U: Send,
{
    let run = |items: &[T]| {
        let mut state = state();
        items.iter().map(|x| f(x, &mut state)).collect::<Vec<U>>()
    };
    let Some(pool) = pool.filter(|_| items.len() > chunk) else {
        return run(items);
    };
    let mut outputs: Vec<Vec<U>> = items.chunks(chunk).map(|_| Vec::new()).collect();
    pool.scope(|scope| {
        for (input, output) in items.chunks(chunk).zip(&mut outputs) {
            let run = &run;
            scope.spawn(move || *output = run(input));
        }
    })
    .propagate();
    let mut out = Vec::with_capacity(items.len());
    for output in outputs {
        out.extend(output);
    }
    out
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
    fn chunked_maps_keep_item_order_on_any_number_of_lanes() {
        let items: Vec<u32> = (0..101).collect();
        // Each chunk's state counts its items, so chunk boundaries show.
        let f = |&x: &u32, seen: &mut u32| {
            *seen += 1;
            (x, *seen)
        };
        let inline = map_chunked(None, &items, 10, || 0, f);
        assert_eq!(inline, items.iter().zip(1..).map(|(&x, n)| (x, n)).collect::<Vec<_>>());
        for lanes in [1, 2, 3] {
            let pool = WorkerPool::new(lanes);
            let chunked = map_chunked(Some(&pool), &items, 10, || 0, f);
            let want: Vec<(u32, u32)> = items.iter().map(|&x| (x, x % 10 + 1)).collect();
            assert_eq!(chunked, want, "{lanes} lanes");
        }
        assert_eq!(chunk_len(10, 2), MIN_CHUNK_LEN, "a short list is one chunk");
        assert_eq!(chunk_len(10 * MIN_CHUNK_LEN, 2), 5 * MIN_CHUNK_LEN);
    }

    /// DS pairs, the first `n` of them, and an evaluator over them.
    fn ds_pairs(n: usize) -> (Vec<Pair>, MetricEvaluator) {
        let ds = er_datasets::generate_benchmark(er_datasets::BenchmarkId::DblpScholar, 0.02, 2020);
        let pairs = ds.workload.pairs()[..n].to_vec();
        let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), &pairs);
        (pairs, evaluator)
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// The pair rebuilt from fresh records with the same values.
    fn rebuilt(p: &Pair) -> Pair {
        let copy = |r: &Arc<Record>| Arc::new(Record::clone(r));
        Pair::new(p.id, copy(&p.left), copy(&p.right), p.truth)
    }

    #[test]
    fn remembered_rows_are_used_only_for_pairs_built_from_the_same_records() {
        let (pairs, fresh) = ds_pairs(80);
        let want = bits(&fresh.eval_pairs(&pairs));
        // Rows no evaluation produces, so every output shows where it came
        // from: the first 50 pairs are remembered.
        let marker = |i: usize| vec![-(i as f64) - 1.0; fresh.len()];
        let marked = fresh
            .clone()
            .with_remembered_rows(&pairs[..50], (0..50).map(marker).collect());

        let got = bits(&marked.eval_pairs(&pairs));
        let marked_want = bits(&(0..50).map(marker).collect::<Vec<_>>());
        assert_eq!(got[..50], marked_want, "the first 50 pairs take their remembered rows");
        assert_eq!(got[50..], want[50..], "the other pairs are evaluated");
        // The same pairs again, reversed and each rebuilt from equal-valued
        // records: the reversed ones still find their rows; a rebuilt pair
        // is evaluated afresh, and so is the swapped pair.
        let reversed: Vec<Pair> = pairs[..50].iter().rev().cloned().collect();
        assert_eq!(
            bits(&marked.eval_pairs(&reversed)),
            bits(&(0..50).rev().map(marker).collect::<Vec<_>>())
        );
        let rebuilt_pairs: Vec<Pair> = pairs.iter().map(rebuilt).collect();
        assert_eq!(bits(&marked.eval_pairs(&rebuilt_pairs)), want);
        let swapped = Pair::new(
            pairs[0].id,
            Arc::clone(&pairs[0].right),
            Arc::clone(&pairs[0].left),
            pairs[0].truth,
        );
        assert_eq!(
            bits(&marked.eval_pairs(std::slice::from_ref(&swapped))),
            bits(&[fresh.eval_all(&swapped.left, &swapped.right)])
        );
    }

    #[test]
    fn remembered_rows_end_with_a_change_to_what_they_were_computed_with() {
        let (pairs, fresh) = ds_pairs(60);
        let marked = fresh
            .clone()
            .with_remembered_rows(&pairs, vec![vec![f64::NAN; fresh.len()]; pairs.len()]);
        // `with_metrics` drops the rows, even for the same metric list.
        let same_metrics = marked.clone().with_metrics(fresh.metrics().to_vec());
        assert_eq!(bits(&same_metrics.eval_pairs(&pairs)), bits(&fresh.eval_pairs(&pairs)));
        // A new key-token threshold ignores them.
        let (mut retuned, mut retuned_fresh) = (marked.clone(), fresh.clone());
        retuned.key_token_max_df = 0.2;
        retuned_fresh.key_token_max_df = 0.2;
        assert_eq!(
            bits(&retuned.eval_pairs(&pairs)),
            bits(&retuned_fresh.eval_pairs(&pairs))
        );
        // Clones share them.
        assert!(marked.clone().eval_pairs(&pairs).iter().flatten().all(|v| v.is_nan()));
    }

    #[test]
    fn remembering_an_evaluators_own_rows_changes_no_output_bit() {
        let (pairs, fresh) = ds_pairs(120);
        let remembering = fresh
            .clone()
            .with_remembered_rows(&pairs[..70], fresh.eval_pairs(&pairs[..70]));
        let mixed: Vec<Pair> = pairs
            .iter()
            .rev()
            .cloned()
            .chain(pairs.iter().step_by(3).map(rebuilt))
            .collect();
        assert_eq!(bits(&remembering.eval_pairs(&mixed)), bits(&fresh.eval_pairs(&mixed)));
        assert_eq!(bits(&remembering.eval_pairs(&[])), bits(&fresh.eval_pairs(&[])));
    }

    #[test]
    #[should_panic(expected = "one remembered row per pair")]
    fn remembered_rows_need_one_row_per_pair() {
        let (pairs, fresh) = ds_pairs(4);
        let _ = fresh
            .clone()
            .with_remembered_rows(&pairs, fresh.eval_pairs(&pairs[..3]));
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
