//! Generic machinery for generating dirty-duplicate ER benchmarks.
//!
//! A benchmark is built in four steps:
//!
//! 1. generate *clean entities* for a domain (papers, products, songs);
//! 2. optionally derive *hard siblings* — distinct entities that are very
//!    similar to an existing one (a journal version of a paper, the next model
//!    of a camera) which produce hard negative pairs;
//! 3. materialize one record per entity into the left table and, for a subset
//!    of the entities, one record into the right table (or extra records into
//!    the same table for deduplication workloads), each with its own
//!    [`DirtinessProfile`];
//! 4. run token blocking and assemble a candidate-pair [`Workload`] with a
//!    target size and match rate (mirroring Table 2 of the paper).

use crate::blocking::token_blocking_pairs;
use crate::perturb::DirtinessProfile;
use er_base::rng::substream;
use er_base::{AttrValue, Label, Pair, PairId, RecordId, Schema, Table, Workload};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;

/// A clean (canonical) entity: the ground truth record before dirtying.
#[derive(Debug, Clone)]
pub struct CleanEntity {
    /// Globally unique entity identifier — records derived from the same
    /// entity are equivalent.
    pub entity_id: u64,
    /// Canonical attribute values, aligned with the domain schema.
    pub values: Vec<AttrValue>,
}

/// A domain (bibliographic, product, song) that knows how to generate clean
/// entities, hard siblings and dirty record views.
pub trait Domain {
    /// Attribute schema of the domain.
    fn schema(&self) -> Schema;

    /// Generates a clean entity with the given id.
    fn generate_entity<R: Rng + ?Sized>(&self, rng: &mut R, entity_id: u64) -> CleanEntity;

    /// Generates a *hard sibling*: a distinct entity that closely resembles
    /// `base` (same brand and category but a different model, a re-publication
    /// with a different year, a cover version of a song by another artist).
    fn generate_sibling<R: Rng + ?Sized>(&self, rng: &mut R, base: &CleanEntity, entity_id: u64) -> CleanEntity;

    /// Derives a dirty record view of an entity under a dirtiness profile.
    fn derive_record<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        entity: &CleanEntity,
        profile: &DirtinessProfile,
    ) -> Vec<AttrValue>;

    /// Indices of the attributes used as blocking keys.
    fn blocking_attrs(&self) -> Vec<usize>;
}

/// Configuration of one synthetic benchmark.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Workload name (e.g. `"DS"`).
    pub name: String,
    /// Number of base entities that appear in the left table.
    pub n_entities: usize,
    /// Fraction of base entities that also appear in the right table (and thus
    /// produce equivalent pairs).
    pub duplicate_rate: f64,
    /// Fraction of base entities that spawn a hard sibling entity.
    pub sibling_rate: f64,
    /// Dirtiness of the left table.
    pub left_profile: DirtinessProfile,
    /// Dirtiness of the right table.
    pub right_profile: DirtinessProfile,
    /// Desired number of candidate pairs after blocking/subsampling.
    pub target_pairs: usize,
    /// Desired fraction of equivalent pairs among the candidates.
    pub target_match_rate: f64,
    /// Whether this is a single-table deduplication workload (e.g. Songs).
    pub dedup: bool,
    /// Random seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// Reasonable defaults for a small test workload.
    pub fn small(name: &str) -> Self {
        DatasetConfig {
            name: name.to_owned(),
            n_entities: 300,
            duplicate_rate: 0.6,
            sibling_rate: 0.3,
            left_profile: DirtinessProfile::LIGHT,
            right_profile: DirtinessProfile::MODERATE,
            target_pairs: 2000,
            target_match_rate: 0.10,
            dedup: false,
            seed: 7,
        }
    }
}

/// A fully generated benchmark: the tables plus the candidate-pair workload.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The left (or only, for dedup) table.
    pub left: Table,
    /// The right table (same as left for dedup workloads).
    pub right: Table,
    /// Entity id of every left record, aligned with `left.records()`.
    pub left_entities: Vec<u64>,
    /// Entity id of every right record, aligned with `right.records()`.
    pub right_entities: Vec<u64>,
    /// The candidate-pair workload with ground-truth labels.
    pub workload: Workload,
}

impl GeneratedDataset {
    /// Convenience accessor for the workload name.
    pub fn name(&self) -> &str {
        &self.workload.name
    }
}

/// Generates a benchmark for a domain under a configuration.
pub fn generate<D: Domain>(domain: &D, config: &DatasetConfig) -> GeneratedDataset {
    let schema = Arc::new(domain.schema());
    let mut rng_entities = substream(config.seed, 1);
    let mut rng_records = substream(config.seed, 2);
    let mut rng_pairs = substream(config.seed, 3);

    // 1. Clean entities + hard siblings.
    let mut entities: Vec<CleanEntity> = Vec::with_capacity(config.n_entities * 2);
    let mut next_id = 0u64;
    for _ in 0..config.n_entities {
        let e = domain.generate_entity(&mut rng_entities, next_id);
        next_id += 1;
        let make_sibling = rng_entities.gen_bool(config.sibling_rate);
        if make_sibling {
            let sib = domain.generate_sibling(&mut rng_entities, &e, next_id);
            next_id += 1;
            entities.push(e);
            entities.push(sib);
        } else {
            entities.push(e);
        }
    }

    // 2. Materialize records.
    let mut left = Table::with_capacity(format!("{}-left", config.name), (*schema).clone(), entities.len());
    let mut right = Table::with_capacity(format!("{}-right", config.name), (*schema).clone(), entities.len());
    let mut left_entities = Vec::with_capacity(entities.len());
    let mut right_entities = Vec::with_capacity(entities.len());

    if config.dedup {
        // Single logical table: we still fill `left` and `right` with the same
        // records so downstream code can treat both workload styles uniformly.
        for e in &entities {
            let n_copies = if rng_records.gen_bool(config.duplicate_rate) {
                2
            } else {
                1
            };
            for c in 0..n_copies {
                let profile = if c == 0 {
                    &config.left_profile
                } else {
                    &config.right_profile
                };
                let values = domain.derive_record(&mut rng_records, e, profile);
                left.push(values.clone());
                left_entities.push(e.entity_id);
                right.push(values);
                right_entities.push(e.entity_id);
            }
        }
    } else {
        for e in &entities {
            let values = domain.derive_record(&mut rng_records, e, &config.left_profile);
            left.push(values);
            left_entities.push(e.entity_id);
            if rng_records.gen_bool(config.duplicate_rate) {
                let values = domain.derive_record(&mut rng_records, e, &config.right_profile);
                right.push(values);
                right_entities.push(e.entity_id);
            }
        }
        // Add some right-only entities so the right table also has records
        // without a left counterpart (as in real benchmarks).
        let extra = (config.n_entities as f64 * 0.3) as usize;
        for _ in 0..extra {
            let e = domain.generate_entity(&mut rng_entities, next_id);
            next_id += 1;
            let values = domain.derive_record(&mut rng_records, &e, &config.right_profile);
            right.push(values);
            right_entities.push(e.entity_id);
        }
    }

    // 3. Candidate pairs: all matches plus blocked non-matches.
    let workload = build_workload(
        config,
        Arc::clone(&schema),
        &left,
        &right,
        &left_entities,
        &right_entities,
        domain.blocking_attrs(),
        &mut rng_pairs,
    );

    GeneratedDataset {
        left,
        right,
        left_entities,
        right_entities,
        workload,
    }
}

/// Each record's blocking-attribute token set, sorted and deduplicated: the
/// blocking attributes' strings joined by spaces, then tokenized.
fn blocking_token_sets(table: &Table, blocking_attrs: &[usize]) -> Vec<Vec<String>> {
    table
        .records()
        .iter()
        .map(|record| {
            let mut text = String::new();
            for &a in blocking_attrs {
                if let Some(s) = record.values[a].as_str() {
                    text.push_str(s);
                    text.push(' ');
                }
            }
            let mut set = er_similarity::tokenize::tokens(&text);
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

/// Jaccard similarity `|A∩B| / |A∪B|` of two sorted, deduplicated token sets
/// by one merge; two empty sets are identical (1.0), as in
/// [`er_similarity::token_sim::jaccard`], whose counts and value this equals.
fn sorted_jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Assembles the candidate-pair workload with the target size and match rate.
#[allow(clippy::too_many_arguments)]
fn build_workload<R: Rng + ?Sized>(
    config: &DatasetConfig,
    schema: Arc<Schema>,
    left: &Table,
    right: &Table,
    left_entities: &[u64],
    right_entities: &[u64],
    blocking_attrs: Vec<usize>,
    rng: &mut R,
) -> Workload {
    let dedup = config.dedup;

    // All equivalent pairs (cross product of views of the same entity).
    let mut match_pairs: Vec<(u32, u32)> = Vec::new();
    for (i, &el) in left_entities.iter().enumerate() {
        for (j, &er) in right_entities.iter().enumerate() {
            if dedup && j <= i {
                continue; // avoid self pairs and double counting within one table
            }
            if el == er {
                match_pairs.push((i as u32, j as u32));
            }
        }
    }

    // Candidate non-matches from token blocking.
    let blocked = token_blocking_pairs(left, right, &blocking_attrs, dedup);
    let match_set: HashSet<(u32, u32)> = match_pairs.iter().copied().collect();
    let mut blocked_nonmatches: Vec<(u32, u32)> = blocked
        .into_iter()
        .filter(|idx| !match_set.contains(idx) && left_entities[idx.0 as usize] != right_entities[idx.1 as usize])
        .collect();

    // Determine final composition.
    let target_matches = ((config.target_pairs as f64) * config.target_match_rate).round() as usize;
    let n_matches = match_pairs.len().min(target_matches.max(1));
    let n_nonmatches = config.target_pairs.saturating_sub(n_matches);

    match_pairs.shuffle(rng);
    match_pairs.truncate(n_matches);

    // Prefer *hard* non-matches: rank blocked candidates by token overlap of
    // their blocking attributes so that near-duplicates of distinct entities
    // (sibling products, follow-up papers) dominate the negative class, as
    // they do after blocking in the real benchmarks.
    let left_tokens = blocking_token_sets(left, &blocking_attrs);
    let right_tokens = blocking_token_sets(right, &blocking_attrs);
    let mut scored: Vec<((u32, u32), f64)> = blocked_nonmatches
        .drain(..)
        .map(|p| {
            (
                p,
                sorted_jaccard(&left_tokens[p.0 as usize], &right_tokens[p.1 as usize]),
            )
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    // Two thirds of the negatives come from the hardest candidates, the rest is
    // a random sample of the remaining blocked pairs.
    let n_hard = (n_nonmatches * 2 / 3).min(scored.len());
    let mut nonmatch_pairs: Vec<(u32, u32)> = scored[..n_hard].iter().map(|(p, _)| *p).collect();
    let mut tail: Vec<(u32, u32)> = scored[n_hard..].iter().map(|(p, _)| *p).collect();
    tail.shuffle(rng);
    nonmatch_pairs.extend(tail.into_iter().take(n_nonmatches - n_hard));

    // Top up with random non-matching pairs if blocking produced too few.
    let mut guard = 0usize;
    while nonmatch_pairs.len() < n_nonmatches && guard < n_nonmatches * 20 {
        let i = rng.gen_range(0..left.len()) as u32;
        let j = rng.gen_range(0..right.len()) as u32;
        if dedup && j <= i {
            guard += 1;
            continue;
        }
        if left_entities[i as usize] != right_entities[j as usize] {
            nonmatch_pairs.push((i, j));
        }
        guard += 1;
    }
    nonmatch_pairs.truncate(n_nonmatches);

    // Assemble, shuffle, and number the pairs.
    let mut all: Vec<((u32, u32), Label)> = match_pairs
        .into_iter()
        .map(|p| (p, Label::Equivalent))
        .chain(nonmatch_pairs.into_iter().map(|p| (p, Label::Inequivalent)))
        .collect();
    all.shuffle(rng);
    // Deduplicate (blocking may emit a pair twice through different keys).
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(all.len());
    all.retain(|(p, _)| seen.insert(*p));

    let pairs: Vec<Pair> = all
        .into_iter()
        .enumerate()
        .map(|(k, ((i, j), label))| {
            Pair::new(
                PairId(k as u32),
                Arc::clone(left.record(RecordId(i))),
                Arc::clone(right.record(RecordId(j))),
                label,
            )
        })
        .collect();

    Workload::new(config.name.clone(), Arc::clone(&schema), schema, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::BibliographicDomain;

    #[test]
    fn generated_dataset_matches_target_statistics() {
        let domain = BibliographicDomain::dblp_scholar();
        let mut config = DatasetConfig::small("DS-test");
        config.target_pairs = 1500;
        config.target_match_rate = 0.12;
        let ds = generate(&domain, &config);
        let w = &ds.workload;
        assert!(w.len() > 1000, "workload size {}", w.len());
        assert!(w.len() <= 1500);
        let rate = w.match_rate();
        assert!(rate > 0.06 && rate < 0.20, "match rate {rate}");
        assert_eq!(w.attribute_count(), 4);
        assert_eq!(ds.left_entities.len(), ds.left.len());
        assert_eq!(ds.right_entities.len(), ds.right.len());
    }

    #[test]
    fn sorted_jaccard_equals_the_hash_set_jaccard() {
        let cases: [(&str, &str); 6] = [
            ("", ""),
            ("", "deep learning"),
            ("the r tree the r tree", "r tree index"),
            ("query optimization", "query optimization"),
            ("a b c d", "e f g"),
            ("spatial join spatial processing", "join spatial 1993 join"),
        ];
        for (x, y) in cases {
            let (tx, ty) = (er_similarity::tokenize::tokens(x), er_similarity::tokenize::tokens(y));
            let sorted = |t: &[String]| {
                let mut t = t.to_vec();
                t.sort_unstable();
                t.dedup();
                t
            };
            let want = er_similarity::token_sim::jaccard(&tx, &ty);
            assert_eq!(
                sorted_jaccard(&sorted(&tx), &sorted(&ty)).to_bits(),
                want.to_bits(),
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let domain = BibliographicDomain::dblp_scholar();
        let config = DatasetConfig::small("DS-test");
        let a = generate(&domain, &config);
        let b = generate(&domain, &config);
        assert_eq!(a.workload.len(), b.workload.len());
        assert_eq!(a.workload.match_count(), b.workload.match_count());
        // Spot-check a record.
        assert_eq!(a.left.record(RecordId(0)).values, b.left.record(RecordId(0)).values);
    }

    #[test]
    fn different_seeds_differ() {
        let domain = BibliographicDomain::dblp_scholar();
        let mut c1 = DatasetConfig::small("DS-test");
        let mut c2 = DatasetConfig::small("DS-test");
        c1.seed = 1;
        c2.seed = 2;
        let a = generate(&domain, &c1);
        let b = generate(&domain, &c2);
        assert_ne!(a.left.record(RecordId(0)).values, b.left.record(RecordId(0)).values);
    }

    #[test]
    fn ground_truth_is_consistent_with_entities() {
        let domain = BibliographicDomain::dblp_scholar();
        let ds = generate(&domain, &DatasetConfig::small("DS-test"));
        for p in ds.workload.pairs() {
            let le = ds.left_entities[p.left.id.0 as usize];
            let re = ds.right_entities[p.right.id.0 as usize];
            assert_eq!(p.truth.is_match(), le == re);
        }
    }

    #[test]
    fn no_duplicate_pairs() {
        let domain = BibliographicDomain::dblp_scholar();
        let ds = generate(&domain, &DatasetConfig::small("DS-test"));
        let mut seen = HashSet::new();
        for p in ds.workload.pairs() {
            assert!(
                seen.insert((p.left.id, p.right.id)),
                "duplicate pair {:?}",
                (p.left.id, p.right.id)
            );
        }
    }
}
