//! Integration tests of the dataset substrate: the synthetic benchmarks must
//! reproduce the paper's Table 2 shapes and produce workloads on which a
//! trained classifier is good but imperfect (otherwise the risk-analysis
//! experiments would be vacuous).

use learnrisk_repro::base::SplitRatio;
use learnrisk_repro::classifier::{ErMatcher, MatcherKind, TrainConfig};
use learnrisk_repro::datasets::{benchmark_config, generate_benchmark, table2, BenchmarkId};
use learnrisk_repro::similarity::MetricEvaluator;
use std::sync::Arc;

#[test]
fn table2_shapes_match_the_paper() {
    let rows = table2(0.02, 9);
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert_eq!(row.generated_attributes, row.paper_attributes, "{}", row.dataset);
        // Match rates of the generated workloads are in the same low regime as
        // the paper's (well under 50%), and never zero.
        let rate = row.generated_matches as f64 / row.generated_size as f64;
        assert!(rate > 0.0 && rate < 0.3, "{}: match rate {rate}", row.dataset);
    }
    // Relative dataset ordering by paper size is preserved in the configs.
    assert!(BenchmarkId::Songs.paper_size() > BenchmarkId::AbtBuy.paper_size());
    assert!(BenchmarkId::AbtBuy.paper_size() > BenchmarkId::DblpScholar.paper_size());
    assert!(BenchmarkId::DblpScholar.paper_size() > BenchmarkId::AmazonGoogle.paper_size());
}

#[test]
fn scale_one_configs_reproduce_paper_sizes() {
    for id in BenchmarkId::paper_datasets() {
        let config = benchmark_config(id, 1.0, 1);
        assert_eq!(config.target_pairs, id.paper_size(), "{id:?}");
    }
}

#[test]
fn every_benchmark_yields_an_imperfect_but_useful_classifier() {
    for id in BenchmarkId::paper_datasets() {
        let ds = generate_benchmark(id, 0.02, 77);
        let workload = &ds.workload;
        let mut rng = learnrisk_repro::base::rng::seeded(77);
        let split = workload.split_by_ratio(SplitRatio::new(3, 2, 5), &mut rng);
        let train = workload.select(&split.train);
        let test = workload.select(&split.test);
        let evaluator = MetricEvaluator::from_pairs(Arc::clone(&workload.left_schema), &train);
        let mut matcher = ErMatcher::new(
            evaluator,
            MatcherKind::Logistic,
            TrainConfig {
                epochs: 30,
                ..Default::default()
            },
        );
        matcher.train(&train);
        let labeled = matcher.label_workload("it", &test);
        let accuracy = labeled.classifier_accuracy();
        assert!(accuracy > 0.75, "{id:?}: classifier accuracy too low ({accuracy:.3})");
        assert!(
            labeled.mislabeled_count() > 0,
            "{id:?}: classifier is perfect — workload too easy for risk analysis"
        );
        let f1 = labeled.classifier_f1();
        assert!(f1 > 0.3, "{id:?}: classifier F1 too low ({f1:.3})");
    }
}

#[test]
fn blocking_keeps_workloads_far_below_the_cross_product() {
    let ds = generate_benchmark(BenchmarkId::DblpScholar, 0.02, 5);
    let cross_product = ds.left.len() * ds.right.len();
    assert!(
        ds.workload.len() * 10 < cross_product,
        "candidate set ({}) should be much smaller than the cross product ({})",
        ds.workload.len(),
        cross_product
    );
}

#[test]
fn dedup_workload_never_pairs_a_record_with_itself() {
    let ds = generate_benchmark(BenchmarkId::Songs, 0.01, 6);
    for pair in ds.workload.pairs() {
        assert!(
            !(std::sync::Arc::ptr_eq(&pair.left, &pair.right)),
            "dedup workload contains a self pair"
        );
    }
}

/// FNV-1a over the left id, right id and label of every pair, in order.
fn workload_hash(id: BenchmarkId, scale: f64, seed: u64) -> u64 {
    let ds = generate_benchmark(id, scale, seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for pair in ds.workload.pairs() {
        let words = [
            u64::from(pair.left.id.0),
            u64::from(pair.right.id.0),
            u64::from(pair.truth.is_match()),
        ];
        for word in words {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn generated_workloads_are_pinned() {
    // Captured before the generator's hard-negative proxy was reworked (the
    // paper datasets at 0.02) and before its candidate ranking was (DA, and
    // every dataset at a second scale and seed); any change to which pairs
    // are drawn, in which order or with which label shows up here. The hash
    // covers integers only, so it is the same on every platform.
    let expected = [
        (BenchmarkId::DblpScholar, 0.02, 2020, 0xd985_c355_85a8_f6fa),
        (BenchmarkId::AbtBuy, 0.02, 2020, 0xca20_5ddc_eae0_c1c8),
        (BenchmarkId::AmazonGoogle, 0.02, 2020, 0xcbf4_a52b_706f_5c75),
        (BenchmarkId::Songs, 0.02, 2020, 0xeecb_a945_54ea_f066),
        (BenchmarkId::DblpAcm, 0.02, 2020, 0x8874_e82c_0deb_ac46),
        (BenchmarkId::DblpScholar, 0.05, 7, 0xebda_4713_cd41_ed7b),
        (BenchmarkId::AbtBuy, 0.05, 7, 0xfc28_6d82_f33e_2e19),
        (BenchmarkId::AmazonGoogle, 0.05, 7, 0x69d0_6f0d_8f89_bebd),
        (BenchmarkId::Songs, 0.05, 7, 0x0a02_8259_db78_919b),
        (BenchmarkId::DblpAcm, 0.05, 7, 0x31d8_faf2_6d1a_580b),
    ];
    for (id, scale, seed, want) in expected {
        assert_eq!(
            workload_hash(id, scale, seed),
            want,
            "{id:?} at scale {scale}, seed {seed}"
        );
    }
}
