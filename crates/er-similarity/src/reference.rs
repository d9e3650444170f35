//! The test oracle: the straightforward metric bodies the prepared values and
//! bit-parallel kernels replaced — character dynamic programs, `HashSet`
//! token sets and `BTreeMap` term vectors.  Every metric of the crate must
//! return exactly (bit for bit) what these return.

use crate::metric::{AttrMetric, MetricEvaluator, MetricKind};
use crate::token_sim::IdfTable;
use crate::tokenize::{abbreviation, entities, normalize, tokens};
use er_base::{AttrValue, Pair};
use std::collections::{BTreeMap, HashSet};

pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

pub fn edit_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut a_matched = vec![false; a.len()];
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let a_ms: Vec<char> = a
        .iter()
        .enumerate()
        .filter(|(i, _)| a_matched[*i])
        .map(|(_, &c)| c)
        .collect();
    let b_ms: Vec<char> = b
        .iter()
        .enumerate()
        .filter(|(j, _)| b_matched[*j])
        .map(|(_, &c)| c)
        .collect();
    let transpositions = a_ms.iter().zip(b_ms.iter()).filter(|(x, y)| x != y).count() / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

pub fn lcs_length(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    let mut prev = vec![0usize; short.len() + 1];
    let mut cur = vec![0usize; short.len() + 1];
    for &lc in long.iter() {
        for (j, &sc) in short.iter().enumerate() {
            cur[j + 1] = if lc == sc { prev[j] + 1 } else { prev[j + 1].max(cur[j]) };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.iter_mut().for_each(|x| *x = 0);
    }
    prev[short.len()]
}

pub fn lcs_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    lcs_length(a, b) as f64 / max_len as f64
}

pub fn longest_common_substring(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    let mut best = 0usize;
    for &ca in a.iter() {
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb { prev[j] + 1 } else { 0 };
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

pub fn substring_similarity(a: &str, b: &str) -> f64 {
    let min_len = a.chars().count().min(b.chars().count());
    if min_len == 0 {
        return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
    }
    longest_common_substring(a, b) as f64 / min_len as f64
}

pub fn jaccard<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&str> = a.iter().map(AsRef::as_ref).collect();
    let sb: HashSet<&str> = b.iter().map(AsRef::as_ref).collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

pub fn dice<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&str> = a.iter().map(AsRef::as_ref).collect();
    let sb: HashSet<&str> = b.iter().map(AsRef::as_ref).collect();
    let denom = sa.len() + sb.len();
    if denom == 0 {
        return 1.0;
    }
    2.0 * sa.intersection(&sb).count() as f64 / denom as f64
}

pub fn overlap<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&str> = a.iter().map(AsRef::as_ref).collect();
    let sb: HashSet<&str> = b.iter().map(AsRef::as_ref).collect();
    let min = sa.len().min(sb.len());
    if min == 0 {
        return 0.0;
    }
    sa.intersection(&sb).count() as f64 / min as f64
}

pub fn cosine_tf<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    fn count<S: AsRef<str>>(xs: &[S]) -> BTreeMap<&str, f64> {
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        for x in xs {
            *m.entry(x.as_ref()).or_insert(0.0) += 1.0;
        }
        m
    }
    let ca = count(a);
    let cb = count(b);
    let mut dot = 0.0;
    for (t, &wa) in &ca {
        if let Some(&wb) = cb.get(t) {
            dot += wa * wb;
        }
    }
    let na: f64 = ca.values().map(|w| w * w).sum::<f64>().sqrt();
    let nb: f64 = cb.values().map(|w| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

pub fn monge_elkan<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for ta in a {
        let mut best = 0.0f64;
        for tb in b {
            best = best.max(jaro_winkler(ta.as_ref(), tb.as_ref()));
        }
        total += best;
    }
    total / a.len() as f64
}

pub fn monge_elkan_sym<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    (monge_elkan(a, b) + monge_elkan(b, a)) / 2.0
}

pub fn cosine_tfidf<S: AsRef<str>>(table: &IdfTable, a: &[S], b: &[S]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    fn weigh<'a, S: AsRef<str>>(table: &IdfTable, xs: &'a [S]) -> BTreeMap<&'a str, f64> {
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        for x in xs {
            *m.entry(x.as_ref()).or_insert(0.0) += 1.0;
        }
        for (t, w) in m.iter_mut() {
            *w *= table.idf(t);
        }
        m
    }
    let wa = weigh(table, a);
    let wb = weigh(table, b);
    let mut dot = 0.0;
    for (t, &x) in &wa {
        if let Some(&y) = wb.get(t) {
            dot += x * y;
        }
    }
    let na: f64 = wa.values().map(|w| w * w).sum::<f64>().sqrt();
    let nb: f64 = wb.values().map(|w| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

pub fn non_substring(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if na.contains(&nb) || nb.contains(&na) {
        0.0
    } else {
        1.0
    }
}

pub fn non_prefix(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if na.starts_with(&nb) || nb.starts_with(&na) {
        0.0
    } else {
        1.0
    }
}

pub fn non_suffix(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if na.ends_with(&nb) || nb.ends_with(&na) {
        0.0
    } else {
        1.0
    }
}

pub fn abbr_non_substring(a: &str, b: &str) -> f64 {
    let na = normalize(a).replace(' ', "");
    let nb = normalize(b).replace(' ', "");
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    let aa = abbreviation(a);
    let ab = abbreviation(b);
    let contained = aa.contains(&nb)
        || nb.contains(&aa)
        || ab.contains(&na)
        || na.contains(&ab)
        || (!aa.is_empty() && !ab.is_empty() && (aa.contains(&ab) || ab.contains(&aa)));
    if contained {
        0.0
    } else {
        1.0
    }
}

pub fn abbr_non_prefix(a: &str, b: &str) -> f64 {
    let na = normalize(a).replace(' ', "");
    let nb = normalize(b).replace(' ', "");
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    let aa = abbreviation(a);
    let ab = abbreviation(b);
    let ok = aa.starts_with(&ab)
        || ab.starts_with(&aa)
        || aa.starts_with(&nb)
        || nb.starts_with(&aa)
        || ab.starts_with(&na)
        || na.starts_with(&ab);
    if ok {
        0.0
    } else {
        1.0
    }
}

pub fn abbr_non_suffix(a: &str, b: &str) -> f64 {
    let na = normalize(a).replace(' ', "");
    let nb = normalize(b).replace(' ', "");
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    let aa = abbreviation(a);
    let ab = abbreviation(b);
    let ok = aa.ends_with(&ab)
        || ab.ends_with(&aa)
        || aa.ends_with(&nb)
        || nb.ends_with(&aa)
        || ab.ends_with(&na)
        || na.ends_with(&ab);
    if ok {
        0.0
    } else {
        1.0
    }
}

pub fn diff_cardinality(a: &str, b: &str) -> f64 {
    let ea = entities(a);
    let eb = entities(b);
    if ea.is_empty() || eb.is_empty() {
        return 0.0;
    }
    if ea.len() == eb.len() {
        0.0
    } else {
        1.0
    }
}

pub fn distinct_entity(a: &str, b: &str) -> f64 {
    let ea = entities(a);
    let eb = entities(b);
    if ea.is_empty() || eb.is_empty() {
        return 0.0;
    }
    let unmatched = |xs: &[String], ys: &[String]| -> usize {
        xs.iter()
            .filter(|x| !ys.iter().any(|y| entity_names_match(x, y)))
            .count()
    };
    (unmatched(&ea, &eb) + unmatched(&eb, &ea)) as f64
}

fn entity_names_match(a: &str, b: &str) -> bool {
    if a == b || a.contains(b) || b.contains(a) {
        return true;
    }
    let la = a.split(' ').next_back().unwrap_or(a);
    let lb = b.split(' ').next_back().unwrap_or(b);
    if la == lb {
        return true;
    }
    jaro_winkler(a, b) >= 0.9
}

pub fn diff_key_token(a: &str, b: &str, idf: &IdfTable, max_df_ratio: f64) -> f64 {
    let ta = tokens(a);
    let tb = tokens(b);
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let sa: HashSet<&str> = ta.iter().map(String::as_str).collect();
    let sb: HashSet<&str> = tb.iter().map(String::as_str).collect();
    let count_one_sided = |xs: &HashSet<&str>, ys: &HashSet<&str>| -> usize {
        xs.iter()
            .filter(|t| !ys.contains(*t) && idf.is_key_token(t, max_df_ratio))
            .count()
    };
    (count_one_sided(&sa, &sb) + count_one_sided(&sb, &sa)) as f64
}

pub fn diff_specific_token(a: &str, b: &str) -> f64 {
    let ta = tokens(a);
    let tb = tokens(b);
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let sa: HashSet<&str> = ta.iter().map(String::as_str).collect();
    let sb: HashSet<&str> = tb.iter().map(String::as_str).collect();
    let one_sided = |xs: &HashSet<&str>, ys: &HashSet<&str>| -> usize {
        xs.iter()
            .filter(|t| !ys.contains(*t) && crate::tokenize::is_specific_token(t))
            .count()
    };
    (one_sided(&sa, &sb) + one_sided(&sb, &sa)) as f64
}

/// The metric dispatch over the bodies above; numeric kinds call the crate's
/// numeric functions, which the kernels do not touch.
pub fn eval_metric_kind(kind: MetricKind, a: &AttrValue, b: &AttrValue, idf: &IdfTable, key_df: f64) -> f64 {
    use crate::difference as diff;
    use MetricKind::*;
    match kind {
        NumericEqual => match (a.as_num(), b.as_num()) {
            (Some(x), Some(y)) => {
                if (x - y).abs() < 1e-9 {
                    1.0
                } else {
                    0.0
                }
            }
            _ => 0.5,
        },
        NumericSimilarity => match (a.as_num(), b.as_num()) {
            (Some(x), Some(y)) => {
                let denom = x.abs().max(y.abs());
                if denom == 0.0 {
                    1.0
                } else {
                    (1.0 - (x - y).abs() / denom).max(0.0)
                }
            }
            _ => 0.5,
        },
        NumericNotEqual => diff::numeric_not_equal(a.as_num(), b.as_num()),
        NumericAbsDiff => diff::numeric_abs_diff(a.as_num(), b.as_num()),
        NumericRelDiff => diff::numeric_rel_diff(a.as_num(), b.as_num()),
        _ => {
            let (sa, sb) = match (a.as_str(), b.as_str()) {
                (Some(x), Some(y)) => (x, y),
                _ => return if kind.is_difference() { 0.0 } else { 0.5 },
            };
            match kind {
                EditSimilarity => edit_similarity(sa, sb),
                JaroWinkler => jaro_winkler(sa, sb),
                Jaccard => jaccard(&tokens(sa), &tokens(sb)),
                Dice => dice(&tokens(sa), &tokens(sb)),
                Overlap => overlap(&tokens(sa), &tokens(sb)),
                CosineTf => cosine_tf(&tokens(sa), &tokens(sb)),
                CosineTfIdf => cosine_tfidf(idf, &tokens(sa), &tokens(sb)),
                MongeElkan => monge_elkan_sym(&tokens(sa), &tokens(sb)),
                Lcs => lcs_similarity(sa, sb),
                SubstringSim => substring_similarity(sa, sb),
                EntityJaccard => jaccard(&entities(sa), &entities(sb)),
                NonSubstring => non_substring(sa, sb),
                NonPrefix => non_prefix(sa, sb),
                NonSuffix => non_suffix(sa, sb),
                AbbrNonSubstring => abbr_non_substring(sa, sb),
                AbbrNonPrefix => abbr_non_prefix(sa, sb),
                AbbrNonSuffix => abbr_non_suffix(sa, sb),
                DiffCardinality => diff_cardinality(sa, sb),
                DistinctEntity => distinct_entity(sa, sb),
                DiffKeyToken => diff_key_token(sa, sb, idf, key_df),
                NumericEqual | NumericSimilarity | NumericNotEqual | NumericAbsDiff | NumericRelDiff => {
                    unreachable!("numeric kinds handled above")
                }
            }
        }
    }
}

/// The basic-metric rows of `pairs`, one metric at a time.
pub fn eval_pairs(evaluator: &MetricEvaluator, pairs: &[Pair]) -> Vec<Vec<f64>> {
    let eval = |m: &AttrMetric, p: &Pair| {
        eval_metric_kind(
            m.kind,
            &p.left.values[m.attr_index],
            &p.right.values[m.attr_index],
            evaluator.idf_table(m.attr_index),
            evaluator.key_token_max_df,
        )
    };
    pairs
        .iter()
        .map(|p| evaluator.metrics().iter().map(|m| eval(m, p)).collect())
        .collect()
}

mod tests {
    use super::*;
    use crate::token_sim::IdfTable;
    use crate::{difference, edit, eval_metric_kind, sequence, token_sim};
    use er_base::{PairId, Record, RecordId};
    use er_datasets::{generate_benchmark, BenchmarkId};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Every metric kind, string and numeric.
    const ALL_KINDS: [MetricKind; 25] = {
        use MetricKind::*;
        [
            EditSimilarity,
            JaroWinkler,
            Jaccard,
            Dice,
            Overlap,
            CosineTf,
            CosineTfIdf,
            MongeElkan,
            Lcs,
            SubstringSim,
            EntityJaccard,
            NumericEqual,
            NumericSimilarity,
            NonSubstring,
            NonPrefix,
            NonSuffix,
            AbbrNonSubstring,
            AbbrNonPrefix,
            AbbrNonSuffix,
            DiffCardinality,
            DistinctEntity,
            DiffKeyToken,
            NumericNotEqual,
            NumericAbsDiff,
            NumericRelDiff,
        ]
    };

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
    }

    #[test]
    fn rows_match_the_reference_bit_for_bit_on_every_paper_dataset() {
        for id in BenchmarkId::paper_datasets() {
            let ds = generate_benchmark(id, 0.02, 2020);
            let pairs = ds.workload.pairs();
            let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), pairs);
            let want = bits(&eval_pairs(&evaluator, pairs));
            assert_eq!(bits(&evaluator.eval_pairs(pairs)), want, "{} rows", id.short_name());
            for (p, row) in pairs.iter().zip(&want).step_by(17) {
                assert_eq!(&bits(&[evaluator.eval_all(&p.left, &p.right)])[0], row);
            }
        }
    }

    /// Asserts that `eval_pairs` and `eval_all` give the reference rows of
    /// `pairs`, bit for bit.
    fn assert_rows_match(evaluator: &MetricEvaluator, pairs: &[Pair], what: &str) {
        let want = bits(&eval_pairs(evaluator, pairs));
        assert_eq!(bits(&evaluator.eval_pairs(pairs)), want, "{what}: {} rows", pairs.len());
        for (i, (p, row)) in pairs.iter().zip(&want).enumerate() {
            assert_eq!(
                &bits(&[evaluator.eval_all(&p.left, &p.right)])[0],
                row,
                "{what}: pair {i}"
            );
        }
    }

    #[test]
    fn rows_match_the_reference_on_lists_that_repeat_records() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 2020);
        let pool = ds.workload.pairs();
        let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), pool);
        // Each record on both sides, against itself, and in many pairs.
        let mut pairs = Vec::new();
        for (k, p) in pool.iter().take(60).enumerate() {
            let next = &pool[(k + 1) % pool.len()];
            for (l, r) in [
                (&p.left, &p.right),
                (&p.right, &p.left),
                (&p.left, &p.left),
                (&p.left, &next.right),
                (&next.left, &p.left),
            ] {
                pairs.push(Pair::new(
                    PairId(pairs.len() as u32),
                    Arc::clone(l),
                    Arc::clone(r),
                    p.truth,
                ));
            }
        }
        assert_rows_match(&evaluator, &pairs, "repeated records");
    }

    #[test]
    fn rows_match_the_reference_when_a_side_holds_no_string() {
        let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 2020);
        let pool = ds.workload.pairs();
        let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), pool);
        // Copies of pool records with one attribute a number or missing
        // (and the numeric attribute a string), paired with the originals.
        let mut pairs = Vec::new();
        for (k, p) in pool.iter().take(80).enumerate() {
            let mut values = p.left.values.clone();
            let attr = k % values.len();
            values[attr] = match k % 3 {
                0 => AttrValue::Num(k as f64),
                1 => AttrValue::Null,
                _ => AttrValue::from("1999 vldb"),
            };
            let odd = Arc::new(Record::new(RecordId(10_000 + k as u32), values));
            for (l, r) in [(&odd, &p.right), (&p.right, &odd), (&odd, &odd)] {
                pairs.push(Pair::new(
                    PairId(pairs.len() as u32),
                    Arc::clone(l),
                    Arc::clone(r),
                    p.truth,
                ));
            }
        }
        assert_rows_match(&evaluator, &pairs, "non-string values");
    }

    #[test]
    fn rows_match_the_reference_on_songs_where_equal_values_sit_in_separate_records() {
        // A dedup workload fills both tables with the same values, each
        // record in its own allocation.
        let ds = generate_benchmark(BenchmarkId::Songs, 0.02, 2020);
        let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), ds.workload.pairs());
        let mut pairs = ds.workload.pairs().to_vec();
        for i in (0..ds.left.len()).step_by(7) {
            let (l, r) = (ds.left.record(RecordId(i as u32)), ds.right.record(RecordId(i as u32)));
            assert!(!Arc::ptr_eq(l, r) && l.values == r.values);
            pairs.push(Pair::new(
                PairId(pairs.len() as u32),
                Arc::clone(l),
                Arc::clone(r),
                er_base::Label::Equivalent,
            ));
        }
        assert_rows_match(&evaluator, &pairs, "SG");
    }

    #[test]
    fn rows_match_the_reference_on_lists_below_and_above_the_chunk_floor() {
        let ds = generate_benchmark(BenchmarkId::AbtBuy, 0.02, 2020);
        let pool = ds.workload.pairs();
        let evaluator = MetricEvaluator::from_pairs(Arc::clone(&ds.workload.left_schema), pool);
        // Around one and two chunks of 32 pairs, the whole pool, and the
        // pool three times over.
        let thrice: Vec<Pair> = pool.iter().chain(pool).chain(pool).cloned().collect();
        for len in [0usize, 1, 2, 31, 32, 33, 63, 64, 65, 129] {
            assert_rows_match(&evaluator, &pool[..len], "AB prefix");
        }
        assert_rows_match(&evaluator, pool, "AB");
        assert_rows_match(&evaluator, &thrice, "AB three times");
    }

    /// Characters the kernels see: ASCII first, then two-byte Latin and
    /// three-byte CJK.  A narrow prefix makes long runs of matches, so bit
    /// carries cross whole words.
    const CHARS: [char; 12] = ['a', 'é', 'b', '中', 'c', 'ß', ' ', 'A', 'É', '1', '文', '-'];

    /// Lengths on both sides of every 64-bit word boundary the kernels cross.
    const LENGTHS: [usize; 8] = [0, 1, 2, 63, 64, 65, 128, 129];

    fn spell(picks: &[usize], len: usize, width: usize) -> String {
        picks[..len].iter().map(|&i| CHARS[i % width]).collect()
    }

    /// Value fragments: words, separators, entity separators and the word
    /// `and`, so tokens, entity lists and abbreviations all vary.
    const PIECES: [&str; 16] = [
        "a", "ab", "Ab", "é", "ßx", "中文", "x1", "thinkpad", "éééé", " ", " ", ", ", "; ", " & ", " and ", "-",
    ];

    fn value() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..PIECES.len(), 0..14)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn character_kernels_match_the_reference_at_every_word_boundary(
            lens in (0usize..LENGTHS.len(), 0usize..LENGTHS.len()),
            width in 1usize..CHARS.len() + 1,
            picks_a in proptest::collection::vec(0usize..CHARS.len(), 129..130),
            picks_b in proptest::collection::vec(0usize..CHARS.len(), 129..130),
        ) {
            let a = spell(&picks_a, LENGTHS[lens.0], width);
            let b = spell(&picks_b, LENGTHS[lens.1], width);
            prop_assert_eq!(edit::levenshtein(&a, &b), levenshtein(&a, &b));
            prop_assert_eq!(sequence::lcs_length(&a, &b), lcs_length(&a, &b));
            prop_assert_eq!(sequence::longest_common_substring(&a, &b), longest_common_substring(&a, &b));
            for (name, got, want) in [
                ("edit_similarity", edit::edit_similarity(&a, &b), edit_similarity(&a, &b)),
                ("jaro", edit::jaro(&a, &b), jaro(&a, &b)),
                ("jaro_winkler", edit::jaro_winkler(&a, &b), jaro_winkler(&a, &b)),
                ("lcs_similarity", sequence::lcs_similarity(&a, &b), lcs_similarity(&a, &b)),
                ("substring_similarity", sequence::substring_similarity(&a, &b), substring_similarity(&a, &b)),
            ] {
                prop_assert!(got.to_bits() == want.to_bits(), "{name}: {got} != {want}");
            }
        }

        #[test]
        fn jaro_winkler_is_symmetric_bit_for_bit(
            lens in (0usize..24, 0usize..24),
            width in 1usize..6,
            picks_a in proptest::collection::vec(0usize..CHARS.len(), 129..130),
            picks_b in proptest::collection::vec(0usize..CHARS.len(), 129..130),
            boundary in (0usize..LENGTHS.len(), 0usize..LENGTHS.len(), 0usize..4),
        ) {
            // Short strings over a few characters make many matches and
            // transpositions; one case in four takes word-boundary lengths.
            let (la, lb) = if boundary.2 == 0 { (LENGTHS[boundary.0], LENGTHS[boundary.1]) } else { lens };
            let a = spell(&picks_a, la, width);
            let b = spell(&picks_b, lb, width);
            let (ab, ba) = (edit::jaro_winkler(&a, &b), edit::jaro_winkler(&b, &a));
            prop_assert!(ab.to_bits() == ba.to_bits(), "{a:?} vs {b:?}: {ab} != {ba}");
        }

        #[test]
        fn value_metrics_match_the_reference(a in value(), b in value(), corpus in proptest::collection::vec(value(), 0..6)) {
            let (ta, tb) = (crate::tokenize::tokens(&a), crate::tokenize::tokens(&b));
            let (ea, eb) = (crate::tokenize::entities(&a), crate::tokenize::entities(&b));
            let mut idf = IdfTable::new();
            for doc in corpus.iter().chain([&a, &b]) {
                idf.add_document(&crate::tokenize::tokens(doc));
            }
            for (name, got, want) in [
                ("jaccard", token_sim::jaccard(&ta, &tb), jaccard(&ta, &tb)),
                ("entity jaccard", token_sim::jaccard(&ea, &eb), jaccard(&ea, &eb)),
                ("dice", token_sim::dice(&ta, &tb), dice(&ta, &tb)),
                ("overlap", token_sim::overlap(&ta, &tb), overlap(&ta, &tb)),
                ("cosine_tf", token_sim::cosine_tf(&ta, &tb), cosine_tf(&ta, &tb)),
                ("cosine_tfidf", idf.cosine_tfidf(&ta, &tb), cosine_tfidf(&idf, &ta, &tb)),
                ("monge_elkan", token_sim::monge_elkan(&ta, &tb), monge_elkan(&ta, &tb)),
                ("monge_elkan_sym", token_sim::monge_elkan_sym(&ta, &tb), monge_elkan_sym(&ta, &tb)),
                ("non_substring", difference::non_substring(&a, &b), non_substring(&a, &b)),
                ("non_prefix", difference::non_prefix(&a, &b), non_prefix(&a, &b)),
                ("non_suffix", difference::non_suffix(&a, &b), non_suffix(&a, &b)),
                ("abbr_non_substring", difference::abbr_non_substring(&a, &b), abbr_non_substring(&a, &b)),
                ("abbr_non_prefix", difference::abbr_non_prefix(&a, &b), abbr_non_prefix(&a, &b)),
                ("abbr_non_suffix", difference::abbr_non_suffix(&a, &b), abbr_non_suffix(&a, &b)),
                ("diff_cardinality", difference::diff_cardinality(&a, &b), diff_cardinality(&a, &b)),
                ("distinct_entity", difference::distinct_entity(&a, &b), distinct_entity(&a, &b)),
                ("diff_key_token", difference::diff_key_token(&a, &b, &idf, 0.3), diff_key_token(&a, &b, &idf, 0.3)),
                ("diff_specific_token", difference::diff_specific_token(&a, &b), diff_specific_token(&a, &b)),
            ] {
                prop_assert!(got.to_bits() == want.to_bits(), "{name}: {got} != {want}");
            }
            let values = [AttrValue::from(a.as_str()), AttrValue::from(b.as_str()), AttrValue::Null, AttrValue::Num(1.5)];
            for kind in ALL_KINDS {
                for x in &values {
                    for y in &values {
                        let got = eval_metric_kind(kind, x, y, &idf, 0.3);
                        let want = super::eval_metric_kind(kind, x, y, &idf, 0.3);
                        prop_assert!(got.to_bits() == want.to_bits(), "{kind}({x:?}, {y:?}): {got} != {want}");
                    }
                }
            }
        }
    }
}
