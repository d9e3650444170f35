//! The sharded multi-threaded executor.
//!
//! [`ShardedExecutor::score_batch`] splits a batch into contiguous chunks
//! of `max(ceil(len / threads), MIN_CHUNK_PAIRS)` requests and hands each to
//! one supervised chunk runner, with its own [`EngineScratch`] and its own
//! outcome slot. One chunk runs inline on the calling thread (with the
//! caller's scratch, when a serving loop passes its own); more run on
//! the lanes of a persistent [`er_pool::WorkerPool`] (threads
//! are spawned once per executor — or once per
//! [`crate::ReloadableExecutor`], which shares one pool across every
//! reload generation — not once per batch). A runner scores its first
//! attempt under `catch_unwind`; a panicked chunk is re-scored once, and the
//! call hands the number of restarts back to its caller. Because chunks are
//! contiguous, the first failing chunk in order holds the batch's smallest
//! failing index. A bounded LRU result cache, sharded across
//! 16 mutexes and keyed on pair id, serves repeated-pair
//! traffic without re-scoring.
//!
//! The executor holds scoring state only: the engine, the pool, the cache
//! and its hit/miss counters. A fault plan is an argument of the
//! crate-private scoring call, passed by the server that owns it. Scoring is a pure function of
//! the request, so results are deterministic: the same batch produces the
//! same scores for every thread count and cache state (the concurrency test
//! suite asserts this bit-exactly).
//!
//! **Chunk floor.** Handing a chunk to a pool lane and joining it costs
//! around ten microseconds, while the engine scores a pair in under one.
//! A chunk therefore holds at least `MIN_CHUNK_PAIRS` requests: a batch of
//! up to that many pairs (a 32-pair `/score` array, or two coalesced ones)
//! scores inline on the calling thread, and only batches that give each
//! lane enough pairs to pay for the dispatch fan out. The floor was chosen
//! with the `serve/executor/score_cold` and `score_cold_inline` criterion
//! benches as the smallest chunk at which the 2-lane path is no slower than
//! inline. Scores are a
//! pure function of each request, so the floor cannot change them.

use crate::cache::LruCache;
use crate::engine::{EngineScratch, ScoreError, ScoreRequest, ScoringEngine};
use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::Counter;
use crate::trace::{SpanSet, Stage};
use er_pool::WorkerPool;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The fewest requests a chunk holds (see the module docs).
const MIN_CHUNK_PAIRS: usize = 64;

/// Independently locked score-cache shards per executor.
const CACHE_SHARDS: usize = 16;

/// Requests per chunk when a batch of `len` requests is split for `threads`
/// lanes: an even share, but never fewer than [`MIN_CHUNK_PAIRS`].
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1)).max(MIN_CHUNK_PAIRS)
}

/// A [`ScoreError`] attributed to its position in a batch — the error
/// [`ShardedExecutor::try_score_batch`] reports, so a caller can reject the
/// offending request instead of losing a worker thread to a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchScoreError {
    /// Index of the first malformed request in the batch.
    pub request_index: usize,
    /// Why it could not be scored.
    pub error: ScoreError,
}

impl fmt::Display for BatchScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} cannot be scored: {}", self.request_index, self.error)
    }
}

impl std::error::Error for BatchScoreError {}

/// Configuration of a [`ShardedExecutor`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Scoring lanes: the worker threads [`ShardedExecutor::score_batch`]
    /// splits a batch over, and, for a [`crate::ScoreServer`] over this
    /// executor, its number of readiness loops.
    pub threads: usize,
    /// Total cached scores across all shards; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            cache_capacity: 16_384,
        }
    }
}

impl ServeConfig {
    /// This configuration with a different thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// This configuration with a different total cache capacity (0 disables
    /// the score cache).
    pub fn with_cache_capacity(self, cache_capacity: usize) -> Self {
        Self { cache_capacity, ..self }
    }
}

/// Cache hit/miss counters of an executor.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to be scored.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of requests answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A [`ScoringEngine`] behind worker threads and a sharded score cache.
pub struct ShardedExecutor {
    engine: ScoringEngine,
    config: ServeConfig,
    pool: Arc<WorkerPool>,
    shards: Vec<Mutex<LruCache<u64, f64>>>,
    /// Shared with the metrics registry, which exposes them as this
    /// generation's `er_serve_cache_{hits,misses}_total` series.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl ShardedExecutor {
    /// Wraps an engine. `config.threads` is floored at 1; `cache_capacity`
    /// splits across the 16 cache shards rounding *up*, so a non-zero
    /// requested capacity always caches at least one entry per shard (the
    /// total may exceed the request by up to 15).
    pub fn new(engine: ScoringEngine, config: ServeConfig) -> Self {
        Self::with_pool(engine, config, Arc::new(WorkerPool::new(config.threads.max(1))))
    }

    /// [`Self::new`] on an existing worker pool instead of spawning a fresh
    /// one — how [`crate::ReloadableExecutor`] keeps one set of persistent
    /// lanes across every reload generation. The pool's lane count bounds
    /// parallelism; chunking (and therefore scores, bit for bit) depends
    /// only on `config.threads` and the batch length.
    pub fn with_pool(engine: ScoringEngine, config: ServeConfig, pool: Arc<WorkerPool>) -> Self {
        let per_shard = config.cache_capacity.div_ceil(CACHE_SHARDS);
        let shards = (0..CACHE_SHARDS)
            .map(|_| Mutex::new(LruCache::new(per_shard)))
            .collect();
        Self {
            engine,
            config,
            pool,
            shards,
            hits: Arc::default(),
            misses: Arc::default(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ScoringEngine {
        &self.engine
    }

    /// The worker pool batches are scored on (shareable with further
    /// executors via [`Self::with_pool`]).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The executor configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Cache hit/miss counters since construction (or the last reset).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// The hit and miss counters themselves, for the metrics registry to
    /// expose ([`crate::metrics::CounterVec::adopt`]).
    pub(crate) fn cache_counters(&self) -> (&Arc<Counter>, &Arc<Counter>) {
        (&self.hits, &self.misses)
    }

    /// Live entries across all cache shards (the `er_serve_cache_entries`
    /// gauge; takes each shard lock briefly, so scrape-time only).
    pub fn cache_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    #[inline]
    fn shard_of(&self, pair_id: u64) -> usize {
        // SplitMix64 finalizer: pair ids are often sequential, so spread them
        // before taking the shard residue.
        let mut z = pair_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % self.shards.len()
    }

    /// Scores one request through the cache.
    ///
    /// The shard lock is released while computing a miss, so two threads may
    /// race to score the same cold pair; both compute the identical value, so
    /// the cache stays consistent.
    ///
    /// # Panics
    /// Panics on a malformed request; [`Self::try_score_one`] is the
    /// non-panicking request path.
    pub fn score_one(&self, request: &ScoreRequest, scratch: &mut EngineScratch) -> f64 {
        self.try_score_one(request, scratch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::score_one`]: a malformed request or a degenerate
    /// portfolio becomes a [`ScoreError`] instead of a panic.  Errors are
    /// never cached, so a rejected request does not poison later traffic for
    /// the same pair id.
    pub fn try_score_one(&self, request: &ScoreRequest, scratch: &mut EngineScratch) -> Result<f64, ScoreError> {
        let mut tally = Tally::default();
        let score = self.score_cached(request, scratch, &mut tally);
        self.count(tally);
        score
    }

    /// [`Self::try_score_one`], counting its cache hit or miss in `tally`.
    fn score_cached(
        &self,
        request: &ScoreRequest,
        scratch: &mut EngineScratch,
        tally: &mut Tally,
    ) -> Result<f64, ScoreError> {
        if self.config.cache_capacity == 0 {
            return self.engine.try_score_request(request, scratch);
        }
        let shard = self.shard_of(request.pair_id);
        if let Some(score) = self.shards[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&request.pair_id)
        {
            tally.hits += 1;
            return Ok(score);
        }
        let score = self.engine.try_score_request(request, scratch)?;
        tally.misses += 1;
        self.shards[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(request.pair_id, score);
        Ok(score)
    }

    /// Adds a tally to the hit and miss counters.
    fn count(&self, tally: Tally) {
        for (counter, n) in [(&self.hits, tally.hits), (&self.misses, tally.misses)] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Scores a batch across up to `config.threads` chunks on the persistent
    /// worker pool, preserving request order in the returned scores.
    ///
    /// # Panics
    /// Panics on the first malformed request; [`Self::try_score_batch`] is
    /// the non-panicking form.
    pub fn score_batch(&self, requests: &[ScoreRequest]) -> Vec<f64> {
        self.try_score_batch(requests).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::score_batch`]: scores the batch and reports the
    /// *first* malformed request (smallest batch index, deterministic for
    /// every thread count) as a [`BatchScoreError`] instead of panicking a
    /// worker.  Each chunk stops at its first error, so a poisoned batch
    /// fails fast rather than burning the remaining scoring work.
    ///
    /// Chunks additionally run under `catch_unwind` supervision: a chunk
    /// that panics is re-scored once, sequentially, producing bit-exact
    /// scores.
    pub fn try_score_batch(&self, requests: &[ScoreRequest]) -> Result<Vec<f64>, BatchScoreError> {
        self.try_score_batch_spanned(requests, None, None).0
    }

    /// [`Self::try_score_batch`] behind `fault`'s `shard_worker_panic` point
    /// (consulted once per chunk), returning how many chunks panicked and
    /// were re-scored alongside the result. Given `spans`, it records one
    /// [`Stage::Score`] span per chunk (shard = chunk index; its first
    /// attempt's wall-clock window) and one [`Stage::Recover`] span per
    /// restarted chunk, so a request trace can attribute scoring time to the
    /// executor fan-out. `None` records nothing.
    pub(crate) fn try_score_batch_spanned(
        &self,
        requests: &[ScoreRequest],
        fault: Option<&FaultPlan>,
        spans: Option<&mut SpanSet>,
    ) -> (Result<Vec<f64>, BatchScoreError>, u64) {
        let mut scores = Vec::new();
        let mut scratch = self.engine.scratch();
        let (result, restarts) = self.try_score_batch_into(requests, &mut scores, &mut scratch, fault, spans);
        (result.map(|()| scores), restarts)
    }

    /// [`Self::try_score_batch_spanned`] into `scores` (resized to the
    /// batch), for a caller that keeps its buffers: a batch that scores in
    /// one chunk scores on this thread with `scratch`, which must come from
    /// this executor's engine; each pooled chunk makes its own. The cache's
    /// hit and miss counters move once per chunk.
    pub(crate) fn try_score_batch_into(
        &self,
        requests: &[ScoreRequest],
        scores: &mut Vec<f64>,
        scratch: &mut EngineScratch,
        fault: Option<&FaultPlan>,
        spans: Option<&mut SpanSet>,
    ) -> (Result<(), BatchScoreError>, u64) {
        scores.clear();
        scores.resize(requests.len(), 0.0);
        if requests.is_empty() {
            return (Ok(()), 0);
        }
        let chunk = chunk_len(requests.len(), self.config.threads);
        if requests.len() <= chunk {
            // One chunk (one thread, or a batch within the floor) scores on
            // this thread.
            let outcome = self.run_chunk(requests, scores, 0, fault, scratch);
            return settle(&[Some(outcome)], spans);
        }
        // One outcome slot per chunk, written by that chunk's runner alone.
        let mut outcomes: Vec<Option<ChunkOutcome>> = vec![None; requests.len().div_ceil(chunk)];
        let chunks = requests
            .chunks(chunk)
            .zip(scores.chunks_mut(chunk))
            .zip(outcomes.iter_mut())
            .enumerate();
        // A restart that panics again is a real bug: the pool hands the
        // panic back and it propagates to the caller's supervisor.
        self.pool
            .scope(|scope| {
                for (index, ((request_chunk, score_chunk), slot)) in chunks {
                    scope.spawn(move || {
                        let mut scratch = self.engine.scratch();
                        *slot = Some(self.run_chunk(request_chunk, score_chunk, index * chunk, fault, &mut scratch))
                    });
                }
            })
            .propagate();
        settle(&outcomes, spans)
    }

    /// Scores one contiguous chunk of a batch (`base` = its first batch
    /// index) under supervision: the first attempt runs under
    /// `catch_unwind`, behind the `shard_worker_panic` fault point; if it
    /// panics, the chunk is re-scored on the same thread with a fresh
    /// scratch, which replaces `scratch`. Scoring is pure, so the restart
    /// reproduces the scores bit-exactly.
    fn run_chunk(
        &self,
        requests: &[ScoreRequest],
        scores: &mut [f64],
        base: usize,
        fault: Option<&FaultPlan>,
        scratch: &mut EngineScratch,
    ) -> ChunkOutcome {
        let start = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if fault.is_some_and(|plan| plan.fires(FaultKind::ShardWorkerPanic)) {
                panic!("injected {}", FaultKind::ShardWorkerPanic);
            }
            self.score_range(requests, scores, base, scratch)
        }));
        let score = (start, Instant::now());
        let (result, recover) = match attempt {
            Ok(result) => (result, None),
            Err(_) => {
                *scratch = self.engine.scratch();
                let result = self.score_range(requests, scores, base, scratch);
                (result, Some((score.1, Instant::now())))
            }
        };
        ChunkOutcome { result, score, recover }
    }

    /// Scores `requests` sequentially into `scores`, attributing errors
    /// against batch index `base`; stops at the first error.
    fn score_range(
        &self,
        requests: &[ScoreRequest],
        scores: &mut [f64],
        base: usize,
        scratch: &mut EngineScratch,
    ) -> Result<(), BatchScoreError> {
        let mut tally = Tally::default();
        let result = requests
            .iter()
            .zip(scores)
            .enumerate()
            .try_for_each(|(offset, (request, slot))| {
                *slot = self
                    .score_cached(request, scratch, &mut tally)
                    .map_err(|error| BatchScoreError {
                        request_index: base + offset,
                        error,
                    })?;
                Ok(())
            });
        self.count(tally);
        result
    }
}

/// Cache hits and misses counted over a run of requests.
#[derive(Default, Clone, Copy)]
struct Tally {
    hits: u64,
    misses: u64,
}

/// The result, spans and restart count of a batch from its chunks'
/// outcomes, in chunk order.
fn settle(outcomes: &[Option<ChunkOutcome>], spans: Option<&mut SpanSet>) -> (Result<(), BatchScoreError>, u64) {
    if let Some(spans) = spans {
        for (shard, outcome) in outcomes.iter().flatten().enumerate() {
            let (start, end) = outcome.score;
            spans.record_shard(Stage::Score, shard as u32, start, end);
            if let Some((start, end)) = outcome.recover {
                spans.record(Stage::Recover, start, end);
            }
        }
    }
    let restarts = outcomes
        .iter()
        .flatten()
        .filter(|outcome| outcome.recover.is_some())
        .count();
    // Chunks are contiguous, so the first chunk in order that failed holds
    // the batch's smallest failing index.
    let result = match outcomes.iter().flatten().find_map(|outcome| outcome.result.err()) {
        Some(error) => Err(error),
        None => Ok(()),
    };
    (result, restarts as u64)
}

/// What one chunk's runner leaves in the chunk's own slot.
#[derive(Clone, Copy)]
struct ChunkOutcome {
    /// The chunk's first error, if any.
    result: Result<(), BatchScoreError>,
    /// Wall-clock window of the first attempt.
    score: (Instant, Instant),
    /// Wall-clock window of the restart, when the first attempt panicked.
    recover: Option<(Instant, Instant)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::Label;
    use er_rulegen::{CmpOp, Condition, Rule};
    use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};

    fn engine() -> ScoringEngine {
        let rules = vec![
            Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 20, 0.97),
            Rule::new(vec![Condition::new(1, CmpOp::Le, 0.3)], Label::Equivalent, 15, 0.93),
        ];
        let fs = RiskFeatureSet {
            rules,
            metrics: vec![],
            expectations: vec![0.05, 0.92],
            support: vec![20, 15],
        };
        ScoringEngine::new(LearnRiskModel::new(fs, RiskModelConfig::default()))
    }

    fn requests(n: usize, distinct: u64) -> Vec<ScoreRequest> {
        (0..n)
            .map(|i| {
                let id = i as u64 % distinct;
                let x = (id as f64 * 0.37).fract();
                ScoreRequest {
                    pair_id: id,
                    metric_row: vec![x, 1.0 - x],
                    classifier_output: x,
                    machine_says_match: x >= 0.5,
                }
            })
            .collect()
    }

    /// Asserts that a `len`-request batch on `threads` lanes runs at least two
    /// chunks, so a test of the fan-out path does not silently score inline.
    fn assert_fans_out(len: usize, threads: usize) {
        assert!(
            len.div_ceil(chunk_len(len, threads)) >= 2,
            "{len} requests on {threads} threads run one chunk"
        );
    }

    #[test]
    fn chunks_hold_an_even_share_but_at_least_the_floor() {
        assert_eq!(chunk_len(32, 2), MIN_CHUNK_PAIRS, "a 32-pair array scores inline");
        assert_eq!(chunk_len(0, 4), MIN_CHUNK_PAIRS);
        assert_eq!(chunk_len(10 * MIN_CHUNK_PAIRS, 2), 5 * MIN_CHUNK_PAIRS);
        assert_eq!(chunk_len(10 * MIN_CHUNK_PAIRS, 0), 10 * MIN_CHUNK_PAIRS);
    }

    #[test]
    fn batch_scores_are_identical_across_thread_counts() {
        let reqs = requests(8 * MIN_CHUNK_PAIRS + 12, 100);
        let baseline = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(1)).score_batch(&reqs);
        for threads in [2, 3, 8] {
            assert_fans_out(reqs.len(), threads);
            let exec = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(threads));
            let scores = exec.score_batch(&reqs);
            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            let base_bits: Vec<u64> = baseline.iter().map(|s| s.to_bits()).collect();
            assert_eq!(bits, base_bits, "threads = {threads}");
        }
    }

    #[test]
    fn cache_serves_repeated_pairs() {
        let exec = ShardedExecutor::new(
            engine(),
            ServeConfig {
                threads: 1,
                cache_capacity: 64,
            },
        );
        let reqs = requests(300, 10); // 10 distinct pairs, replayed 30×
        let scores = exec.score_batch(&reqs);
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, 10, "one miss per distinct pair");
        assert_eq!(stats.hits, 290);
        assert!(stats.hit_rate() > 0.96);
        // Cached scores equal computed scores.
        let uncached = ShardedExecutor::new(
            engine(),
            ServeConfig {
                threads: 1,
                cache_capacity: 0,
            },
        );
        let plain = uncached.score_batch(&reqs);
        assert_eq!(uncached.cache_stats().hits, 0);
        for (a, b) in scores.iter().zip(&plain) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn small_capacities_still_cache() {
        // A capacity below the shard count must not silently disable caching.
        const { assert!(8 < CACHE_SHARDS) };
        let exec = ShardedExecutor::new(
            engine(),
            ServeConfig {
                threads: 1,
                cache_capacity: 8,
            },
        );
        let reqs = requests(40, 4); // 4 distinct pairs, replayed 10×
        exec.score_batch(&reqs);
        let stats = exec.cache_stats();
        assert!(stats.hits > 0, "requested capacity 8 but nothing was cached: {stats:?}");
    }

    #[test]
    fn a_warm_cache_answers_every_repeat() {
        let exec = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(1));
        let reqs = requests(50, 5);
        exec.score_batch(&reqs);
        let cold = exec.cache_stats();
        exec.score_batch(&reqs);
        let warm = exec.cache_stats();
        assert_eq!(warm.misses, cold.misses, "warm cache answers everything");
        assert_eq!(warm.hits - cold.hits, 50);
    }

    #[test]
    fn empty_and_tiny_batches_work_at_any_thread_count() {
        let exec = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(7));
        assert!(exec.score_batch(&[]).is_empty());
        let one = requests(1, 1);
        assert_eq!(exec.score_batch(&one).len(), 1);
    }

    #[test]
    fn malformed_batch_requests_surface_as_errors_not_panics() {
        let good = requests(4 * MIN_CHUNK_PAIRS + 4, 1000);
        assert_fans_out(good.len(), 4);
        // On 4 threads the poisoned requests sit in chunks 1 and 2.
        let chunk = chunk_len(good.len(), 4);
        let (first, second) = (chunk + 13, 2 * chunk + 37);
        for threads in [1usize, 4] {
            let exec = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(threads));
            // Poison two requests: the *first* (smallest index) is reported,
            // regardless of the thread count.
            let mut poisoned = good.clone();
            poisoned[first].metric_row = vec![0.4]; // too short for 2 metrics
            poisoned[second].metric_row = vec![];
            let err = exec.try_score_batch(&poisoned).unwrap_err();
            assert_eq!(err.request_index, first, "threads = {threads}");
            assert!(matches!(err.error, ScoreError::Row(_)));
            assert!(err.to_string().contains(&format!("request {first}")));
            // The executor survives and keeps serving clean traffic through
            // the same fallible path.
            let scores = exec.try_score_batch(&good).expect("still serving");
            assert_eq!(scores.len(), good.len());
        }
    }

    #[test]
    fn injected_worker_panics_are_supervised_and_scores_stay_bit_exact() {
        let reqs = requests(8 * MIN_CHUNK_PAIRS + 12, 1000);
        let baseline = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(1)).score_batch(&reqs);
        for threads in [1usize, 3, 8] {
            if threads > 1 {
                assert_fans_out(reqs.len(), threads);
            }
            let exec = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(threads));
            // The first two worker spawns panic; the supervisor re-scores
            // their chunks, so the batch still comes back complete.
            let plan = FaultPlan::parse("shard_worker_panic@0,1").expect("spec");
            let (scores, restarts) = exec.try_score_batch_spanned(&reqs, Some(&plan), None);
            let scores = scores.expect("supervised batch completes");
            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            let base_bits: Vec<u64> = baseline.iter().map(|s| s.to_bits()).collect();
            assert_eq!(bits, base_bits, "threads = {threads}: recovery must be bit-exact");
            let expected_panics = plan.fired(FaultKind::ShardWorkerPanic);
            assert!(
                expected_panics >= 1,
                "threads = {threads}: the fault must actually fire"
            );
            assert_eq!(
                restarts, expected_panics,
                "threads = {threads}: every injected panic is counted"
            );
            // Without the plan the executor serves normally.
            let clean = exec.try_score_batch(&reqs).expect("clean batch");
            assert_eq!(clean.len(), reqs.len());
        }
    }

    #[test]
    fn panicked_chunk_with_malformed_request_still_reports_first_error() {
        let exec = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(4));
        let plan = FaultPlan::parse("shard_worker_panic@0,1,2,3").expect("spec");
        let mut poisoned = requests(4 * MIN_CHUNK_PAIRS + 4, 1000);
        assert_fans_out(poisoned.len(), 4);
        // The poisoned request sits in chunk 1, as the second of four.
        let first = chunk_len(poisoned.len(), 4) + 13;
        poisoned[first].metric_row = vec![0.4];
        let err = exec
            .try_score_batch_spanned(&poisoned, Some(&plan), None)
            .0
            .unwrap_err();
        assert_eq!(err.request_index, first, "restart path reports the same first error");
    }

    #[test]
    fn traced_batches_record_one_score_span_per_chunk_and_one_recover_per_restart() {
        use crate::trace::Tracer;

        let reqs = requests(4 * MIN_CHUNK_PAIRS + 4, 1000);
        assert_fans_out(reqs.len(), 4);
        let baseline = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(1)).score_batch(&reqs);
        for threads in [1usize, 4] {
            let chunks = reqs.len().div_ceil(chunk_len(reqs.len(), threads));
            for plan in [None, Some("shard_worker_panic@0")] {
                let exec = ShardedExecutor::new(engine(), ServeConfig::default().with_threads(threads));
                let fault = plan.map(|spec| FaultPlan::parse(spec).expect("spec"));
                let mut spans = SpanSet::new();
                let (scores, restarts) = exec.try_score_batch_spanned(&reqs, fault.as_ref(), Some(&mut spans));
                let scores = scores.expect("scored");
                let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                let base_bits: Vec<u64> = baseline.iter().map(|s| s.to_bits()).collect();
                assert_eq!(bits, base_bits, "threads = {threads}, plan = {plan:?}");

                let tracer = Tracer::new(4);
                let mut trace = tracer.begin("executor-spans".to_string(), "/score");
                trace.extend_from(&spans);
                tracer.commit(trace, 200);
                let committed = tracer.snapshot();
                let spans = &committed[0].spans;
                let mut shards: Vec<Option<u32>> = spans
                    .iter()
                    .filter(|s| s.stage == Stage::Score)
                    .map(|s| s.shard)
                    .collect();
                shards.sort_unstable();
                let expected: Vec<Option<u32>> = (0..chunks as u32).map(Some).collect();
                assert_eq!(shards, expected, "threads = {threads}, plan = {plan:?}");
                let recovers = spans.iter().filter(|s| s.stage == Stage::Recover).count();
                assert_eq!(
                    recovers,
                    usize::from(plan.is_some()),
                    "threads = {threads}, plan = {plan:?}"
                );
                assert_eq!(restarts, recovers as u64);
            }
        }
    }

    #[test]
    fn errors_are_not_cached() {
        let exec = ShardedExecutor::new(
            engine(),
            ServeConfig {
                threads: 1,
                cache_capacity: 64,
            },
        );
        let mut scratch = exec.engine().scratch();
        let mut bad = requests(1, 1).remove(0);
        bad.metric_row = vec![];
        assert!(exec.try_score_one(&bad, &mut scratch).is_err());
        // The same pair id with a well-formed row scores fresh (a miss, not a
        // poisoned hit).
        let good = requests(1, 1).remove(0);
        let score = exec.try_score_one(&good, &mut scratch).expect("well-formed");
        assert!(score.is_finite());
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
    }
}
