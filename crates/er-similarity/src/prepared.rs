//! Attribute values prepared once per record.
//!
//! Every string metric reads one or more *parts* of a value: its raw
//! characters, its normalized text, its tokens, its distinct tokens or its
//! entity names.  [`Prepared`] builds exactly the parts a set of metrics
//! [`needs`], once per value, so that an attribute with five metrics
//! normalizes and tokenizes each side once instead of five times, and
//! [`PreparedRecord`] holds them for every attribute of one record, so that
//! a record in many pairs is prepared once for all of them.

use crate::metric::{AttrMetric, MetricKind};
use crate::tokenize::{entity_parts, normalize_into};
use er_base::Record;

/// Part flags: which parts of a value a metric reads.
pub(crate) type Parts = u8;
/// Raw characters (edit, LCS, substring and Jaro–Winkler metrics).
pub(crate) const RAW: Parts = 1;
/// Normalized text (substring, prefix and suffix indicators).
pub(crate) const NORM: Parts = 1 << 1;
/// Token spans, in order.  Implies [`NORM`].
pub(crate) const TOKENS: Parts = 1 << 2;
/// Characters of the tokens (Monge–Elkan).  Implies [`TOKENS`].
pub(crate) const TOKEN_CHARS: Parts = 1 << 3;
/// Distinct tokens in sorted order, with counts.  Implies [`TOKENS`].
pub(crate) const DISTINCT: Parts = 1 << 4;
/// Entity names, their characters and their sorted distinct set.
pub(crate) const ENTITIES: Parts = 1 << 5;

/// The parts of a value that a metric kind reads; none for numeric kinds.
pub(crate) fn needs(kind: MetricKind) -> Parts {
    use MetricKind::*;
    match kind {
        EditSimilarity | JaroWinkler | Lcs | SubstringSim => RAW,
        Jaccard | Dice | Overlap | CosineTf | CosineTfIdf | DiffKeyToken => DISTINCT,
        MongeElkan => TOKEN_CHARS,
        EntityJaccard | DiffCardinality | DistinctEntity => ENTITIES,
        NonSubstring | NonPrefix | NonSuffix => NORM,
        AbbrNonSubstring | AbbrNonPrefix | AbbrNonSuffix => TOKENS,
        NumericEqual | NumericSimilarity | NumericNotEqual | NumericAbsDiff | NumericRelDiff => 0,
    }
}

/// A piece of a prepared text: its byte range in the text and its character
/// range in the text's characters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: u32,
    end: u32,
    char_start: u32,
    char_end: u32,
}

impl Span {
    fn text<'a>(&self, text: &'a str) -> &'a str {
        &text[self.start as usize..self.end as usize]
    }

    fn chars<'a>(&self, chars: &'a [char]) -> &'a [char] {
        &chars[self.char_start as usize..self.char_end as usize]
    }
}

/// One attribute value with the parts its metrics read.
#[derive(Debug, Default)]
pub(crate) struct Prepared {
    /// Raw characters.
    pub(crate) raw: Vec<char>,
    /// Normalized text.
    pub(crate) norm: String,
    /// Characters of `norm`, filled for [`TOKEN_CHARS`].
    norm_chars: Vec<char>,
    /// Tokens of `norm`, in order.
    tokens: Vec<Span>,
    /// Distinct tokens in sorted order: the index of one occurrence in
    /// `tokens`, and the number of occurrences.
    distinct: Vec<(u32, u32)>,
    /// Normalized entity names, concatenated.
    entity_text: String,
    entity_chars: Vec<char>,
    entities: Vec<Span>,
    /// Distinct entity names in sorted order, as indices into `entities`.
    distinct_entities: Vec<u32>,
}

impl Prepared {
    /// `s` prepared with the given parts.
    pub(crate) fn of(s: &str, parts: Parts) -> Self {
        let mut p = Self::default();
        p.fill(s, parts);
        p
    }

    /// Builds the given parts of `s` into `self`, which is empty.
    fn fill(&mut self, s: &str, parts: Parts) {
        if parts & RAW != 0 {
            self.raw.extend(s.chars());
        }
        if parts & (NORM | TOKENS | TOKEN_CHARS | DISTINCT) != 0 {
            normalize_into(s, &mut self.norm);
        }
        if parts & (TOKENS | TOKEN_CHARS | DISTINCT) != 0 {
            split_spans(&self.norm, &mut self.tokens);
        }
        if parts & TOKEN_CHARS != 0 {
            self.norm_chars.extend(self.norm.chars());
        }
        if parts & DISTINCT != 0 {
            let (norm, tokens) = (&self.norm, &self.tokens);
            self.distinct.extend((0..tokens.len() as u32).map(|i| (i, 1)));
            self.distinct
                .sort_unstable_by_key(|&(i, _)| tokens[i as usize].text(norm));
            self.distinct.dedup_by(|(i, count), (kept, kept_count)| {
                let repeat = tokens[*i as usize].text(norm) == tokens[*kept as usize].text(norm);
                if repeat {
                    *kept_count += *count;
                }
                repeat
            });
        }
        if parts & ENTITIES != 0 {
            for part in entity_parts(s) {
                let start = self.entity_text.len();
                normalize_into(part, &mut self.entity_text);
                if self.entity_text.len() > start {
                    let char_start = self.entity_chars.len() as u32;
                    self.entity_chars.extend(self.entity_text[start..].chars());
                    self.entities.push(Span {
                        start: start as u32,
                        end: self.entity_text.len() as u32,
                        char_start,
                        char_end: self.entity_chars.len() as u32,
                    });
                }
            }
            let (text, entities) = (&self.entity_text, &self.entities);
            self.distinct_entities.extend(0..entities.len() as u32);
            self.distinct_entities
                .sort_unstable_by_key(|&i| entities[i as usize].text(text));
            self.distinct_entities
                .dedup_by_key(|i| entities[*i as usize].text(text));
        }
    }

    /// Number of tokens, with repeats.
    pub(crate) fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// Tokens in order.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = &str> {
        self.tokens.iter().map(|s| s.text(&self.norm))
    }

    /// Characters of each token, in order (needs [`TOKEN_CHARS`]).
    pub(crate) fn token_chars(&self) -> impl Iterator<Item = &[char]> {
        self.tokens.iter().map(|s| s.chars(&self.norm_chars))
    }

    /// Distinct tokens in sorted order, with their counts.
    pub(crate) fn distinct_counts(&self) -> impl Iterator<Item = (&str, u32)> {
        self.distinct
            .iter()
            .map(|&(i, count)| (self.tokens[i as usize].text(&self.norm), count))
    }

    /// Distinct tokens in sorted order.
    pub(crate) fn distinct_tokens(&self) -> impl Iterator<Item = &str> {
        self.distinct_counts().map(|(t, _)| t)
    }

    /// Number of distinct tokens.
    pub(crate) fn distinct_len(&self) -> usize {
        self.distinct.len()
    }

    /// Number of entity names, with repeats.
    pub(crate) fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Entity names in order, with their characters.
    pub(crate) fn entities(&self) -> impl Iterator<Item = (&str, &[char])> {
        self.entities
            .iter()
            .map(|s| (s.text(&self.entity_text), s.chars(&self.entity_chars)))
    }

    /// Distinct entity names in sorted order.
    pub(crate) fn distinct_entities(&self) -> impl Iterator<Item = &str> {
        self.distinct_entities
            .iter()
            .map(|&i| self.entities[i as usize].text(&self.entity_text))
    }

    /// Number of distinct entity names.
    pub(crate) fn distinct_entity_len(&self) -> usize {
        self.distinct_entities.len()
    }
}

/// Appends the spans of the space-separated, non-empty pieces of `text` to
/// `out`.
fn split_spans(text: &str, out: &mut Vec<Span>) {
    let (mut start, mut char_start, mut chars) = (0usize, 0u32, 0u32);
    for (i, c) in text.char_indices() {
        if c == ' ' {
            if i > start {
                out.push(Span {
                    start: start as u32,
                    end: i as u32,
                    char_start,
                    char_end: chars,
                });
            }
            start = i + 1;
            char_start = chars + 1;
        }
        chars += 1;
    }
    if text.len() > start {
        out.push(Span {
            start: start as u32,
            end: text.len() as u32,
            char_start,
            char_end: chars,
        });
    }
}

/// The parts each attribute's metrics read, indexed by attribute up to the
/// last one a metric reads.
pub(crate) fn attr_parts(metrics: &[AttrMetric]) -> Vec<Parts> {
    let attrs = metrics.iter().map(|m| m.attr_index + 1).max().unwrap_or(0);
    let mut parts = vec![0; attrs];
    for m in metrics {
        parts[m.attr_index] |= needs(m.kind);
    }
    parts
}

/// One record's string values, each prepared with the parts its
/// attribute's metrics read.
#[derive(Debug)]
pub(crate) struct PreparedRecord {
    /// Per attribute; `None` for an attribute no string metric reads or a
    /// value that is not a string.
    values: Vec<Option<Prepared>>,
}

impl PreparedRecord {
    /// Prepares `record` with `parts` (see [`attr_parts`]).
    pub(crate) fn new(record: &Record, parts: &[Parts]) -> Self {
        let values = parts
            .iter()
            .zip(&record.values)
            .map(|(&parts, value)| match value.as_str() {
                Some(s) if parts != 0 => Some(Prepared::of(s, parts)),
                _ => None,
            })
            .collect();
        Self { values }
    }

    /// The prepared value of an attribute, when it holds a string that a
    /// string metric reads.
    pub(crate) fn value(&self, attr: usize) -> Option<&Prepared> {
        self.values.get(attr).and_then(Option::as_ref)
    }
}
