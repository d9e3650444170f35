//! Exact heap-allocation counts of a warm training epoch.
//!
//! [`EpochScratch`] keeps every per-epoch buffer, and the rank-pair sampler
//! fills a caller-owned list. This test binary installs a counting global
//! allocator and runs the epoch the trainer runs — sample the rank pairs,
//! then `factorized_loss_and_gradient` — on one lane and on two, after
//! warm-up epochs that spawn the worker pool.
//!
//! * When every epoch ranks the same pairs (the positive × negative product
//!   fits the pair budget, so it is enumerated), one lane allocates nothing
//!   after the first epoch.
//! * Two lanes fan the forward and gradient passes out on the scratch's
//!   [`er_pool::WorkerPool`], whose `scope` boxes every task and builds its
//!   bookkeeping per call: [`TWO_LANE_ALLOCS`] per epoch, pinned exactly.
//! * When the pairs are sampled, each epoch forward-scores the inputs its
//!   pairs touch, and the scratch keeps one portfolio per touched input up
//!   to the most any epoch touched so far. An epoch that touches more builds
//!   the extra portfolios: [`SAMPLED_ALLOCS`] over the measured epochs of
//!   this workload, pinned exactly.
//!
//! The file holds one `#[test]`, so no other test allocates inside a
//! measured window.

use er_base::rng::substream;
use er_base::Label;
use er_rulegen::{CmpOp, Condition, Rule};
use learnrisk_core::{
    flatten_params, EpochScratch, LearnRiskModel, PairRiskInput, RankPairSampler, RiskFeatureSet, RiskModelConfig,
    RiskTrainConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, on every thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// so `System`'s contract is the caller's; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one warm two-lane epoch: the worker pool's two scopes
/// (forward and gradient pass), each boxing its two tasks.
const TWO_LANE_ALLOCS: u64 = 14;
/// Allocations of the [`MEASURED`] one-lane epochs of the sampled workload.
const SAMPLED_ALLOCS: u64 = 20;

/// Enough inputs that the forward pass engages two lanes (512 per lane).
const INPUTS: usize = 1_300;
/// Mislabeled inputs of the enumerated workload: 3 × 1297 pairs fit the
/// default budget of 4000.
const ENUMERATED_MISLABELED: usize = 3;
/// Mislabeled inputs of the sampled workload.
const SAMPLED_MISLABELED: usize = 260;
const WARM_UP: usize = 3;
const MEASURED: u64 = 20;

fn model() -> LearnRiskModel {
    let rules = vec![
        Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 50, 0.95),
        Rule::new(vec![Condition::new(1, CmpOp::Gt, 0.5)], Label::Equivalent, 40, 0.95),
        Rule::new(vec![Condition::new(0, CmpOp::Le, 0.2)], Label::Equivalent, 30, 0.9),
    ];
    let feature_set = RiskFeatureSet {
        rules,
        metrics: vec![],
        expectations: vec![0.05, 0.95, 0.8],
        support: vec![50, 40, 30],
    };
    LearnRiskModel::new(feature_set, RiskModelConfig::default())
}

/// Inputs covering every rule combination, `mislabeled` of them spread
/// evenly.
fn inputs(mislabeled: usize) -> Vec<PairRiskInput> {
    (0..INPUTS)
        .map(|i| {
            let output = (i as f64 * 0.618_033_988_749_895).fract();
            PairRiskInput {
                rule_indices: (0..3u32).filter(|rule| (i >> rule) & 1 == 1).collect(),
                classifier_output: output,
                machine_says_match: output >= 0.5,
                risk_label: u8::from(i % (INPUTS / mislabeled) == 0 && i / (INPUTS / mislabeled) < mislabeled),
            }
        })
        .collect()
}

/// Allocations of [`MEASURED`] warm epochs on `threads` lanes.
fn epoch_allocations(mislabeled: usize, threads: usize) -> u64 {
    let model = model();
    let inputs = inputs(mislabeled);
    let config = RiskTrainConfig::default();
    let sampler = RankPairSampler::new(&inputs);
    let mut rng = substream(7, 0x71);
    let mut rank_pairs = Vec::new();
    let mut grad = vec![0.0; flatten_params(&model).len()];
    let mut scratch = EpochScratch::new();
    let mut epoch = |rank_pairs: &mut Vec<(u32, u32)>| {
        sampler.sample_into(config.max_rank_pairs, &mut rng, rank_pairs);
        assert!(!rank_pairs.is_empty(), "the inputs hold mislabeled pairs");
        scratch.factorized_loss_and_gradient(&model, &inputs, rank_pairs, &config, threads, &mut grad)
    };
    for _ in 0..WARM_UP {
        epoch(&mut rank_pairs);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..MEASURED {
        std::hint::black_box(epoch(&mut rank_pairs));
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_epochs_allocate_nothing_on_one_lane_but_the_pools_scopes_and_new_portfolios() {
    let one = epoch_allocations(ENUMERATED_MISLABELED, 1);
    let two = epoch_allocations(ENUMERATED_MISLABELED, 2);
    let sampled = epoch_allocations(SAMPLED_MISLABELED, 1);
    let per_epoch = |total: u64| total as f64 / MEASURED as f64;
    println!(
        "allocations per warm epoch: enumerated pairs 1 lane {:.3}, 2 lanes {:.3}; sampled pairs 1 lane {:.3}",
        per_epoch(one),
        per_epoch(two),
        per_epoch(sampled)
    );
    assert_eq!(one, 0, "a one-lane epoch allocated {:.3} times", per_epoch(one));
    assert_eq!(
        two,
        TWO_LANE_ALLOCS * MEASURED,
        "a two-lane epoch allocated {:.3} times, pinned at {TWO_LANE_ALLOCS}",
        per_epoch(two)
    );
    assert_eq!(
        sampled, SAMPLED_ALLOCS,
        "the sampled epochs allocated {sampled} times, pinned at {SAMPLED_ALLOCS}"
    );
}
