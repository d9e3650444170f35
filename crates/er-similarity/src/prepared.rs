//! Attribute values prepared once per pair.
//!
//! Every string metric reads one or more *parts* of a value: its raw
//! characters, its normalized text, its tokens, its distinct tokens or its
//! entity names.  [`Prepared`] builds exactly the parts a set of metrics
//! [`needs`], once per value, so that an attribute with five metrics
//! normalizes and tokenizes each side once instead of five times.

use crate::kernel::Kernels;
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

/// One attribute value with the parts its metrics read.  Buffers are reused
/// from one [`Prepared::prepare`] to the next.
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
        p.prepare(s, parts);
        p
    }

    /// Rebuilds `self` as `s` with the given parts.
    pub(crate) fn prepare(&mut self, s: &str, parts: Parts) {
        self.raw.clear();
        if parts & RAW != 0 {
            self.raw.extend(s.chars());
        }
        self.norm.clear();
        self.norm_chars.clear();
        self.tokens.clear();
        self.distinct.clear();
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
        self.entity_text.clear();
        self.entity_chars.clear();
        self.entities.clear();
        self.distinct_entities.clear();
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

/// Per-pair buffers of an evaluation loop: both sides' prepared values per
/// attribute, and the character kernels.
#[derive(Debug, Default)]
pub(crate) struct PairBuffers {
    pub(crate) values: PreparedPair,
    pub(crate) kernels: Kernels,
}

/// Both records' prepared values, per attribute.
#[derive(Debug, Default)]
pub(crate) struct PreparedPair {
    /// Parts each attribute's metrics read; 0 for an attribute without
    /// string metrics or with a side that holds no string.
    parts: Vec<Parts>,
    /// Prepared left and right values per attribute, kept across pairs.
    sides: Vec<[Prepared; 2]>,
}

impl PreparedPair {
    /// Prepares, for every attribute the metrics read as strings, both
    /// records' values with the parts those metrics need.
    pub(crate) fn prepare(&mut self, metrics: &[AttrMetric], left: &Record, right: &Record) {
        let attrs = left.values.len();
        self.parts.clear();
        self.parts.resize(attrs, 0);
        for m in metrics {
            self.parts[m.attr_index] |= needs(m.kind);
        }
        self.sides.resize_with(attrs, Default::default);
        for (attr, [pa, pb]) in self.sides.iter_mut().enumerate() {
            if self.parts[attr] == 0 {
                continue;
            }
            match (left.values[attr].as_str(), right.values[attr].as_str()) {
                (Some(a), Some(b)) => {
                    pa.prepare(a, self.parts[attr]);
                    pb.prepare(b, self.parts[attr]);
                }
                _ => self.parts[attr] = 0,
            }
        }
    }

    /// The prepared left and right values of an attribute, when both sides
    /// hold strings.
    pub(crate) fn sides(&self, attr: usize) -> Option<(&Prepared, &Prepared)> {
        let [a, b] = &self.sides[attr];
        (self.parts[attr] != 0).then_some((a, b))
    }
}
