//! # er-serve
//!
//! The online serving layer of the LearnRisk reproduction: everything needed
//! to take a risk model trained by the batch pipeline and stand it up behind
//! a request stream, as the risk-aware human-machine workflows of r-HUMO and
//! its successors assume.
//!
//! * [`artifact`] — versioned, validated persistence of the full trained
//!   state ([`ModelArtifact`]); the loader rejects format-version mismatches
//!   and structurally corrupt models.
//! * [`index`] — [`CompiledRuleIndex`]: the rule set pre-compiled into
//!   per-metric violation bitsets, so per-request rule matching ORs one
//!   mask per metric instead of scanning every rule condition.
//! * [`engine`] — [`ScoringEngine`]: `score_request` / `score_batch` over
//!   raw metric rows, bit-identical to the offline
//!   [`learnrisk_core::LearnRiskModel::risk_score`] path; plus the `/score`
//!   wire codec ([`decode_score_body`], [`encode_score_response`]) that
//!   reads and writes requests and answers without a JSON value tree.
//! * [`cache`] — a bounded intrusive-list [`LruCache`] for repeated-pair
//!   traffic.
//! * [`executor`] — [`ShardedExecutor`]: batches chunked across the lanes
//!   of a persistent [`er_pool::WorkerPool`] plus a shard-locked result
//!   cache keyed on pair id. It holds scoring state only; the server passes
//!   its fault plan into each scoring call.
//! * [`readiness`] — a hand-rolled, Linux-only readiness facility
//!   (`epoll`, `mio`-shaped API, nonblocking `connect`) behind both
//!   processes' event-driven drivers.
//! * [`conn`] — the connection half of a readiness-loop driver, shared by
//!   the server and `er-gateway`: read → parse → `100 Continue` → respond
//!   → flush → keep-alive or close, interest bookkeeping, and the
//!   lifetime, read- and write-progress deadlines.
//! * [`fault`] — [`FaultPlan`]: deterministic fault injection (worker
//!   panics, torn artifact reads, stalls) threaded through the stack so the
//!   supervision and degradation machinery is exercised, not assumed.
//! * [`reload`] — [`ReloadableExecutor`]: versioned artifact hot-reload
//!   (load → validate → verify round trip → atomic swap), so a retrained
//!   model rolls out without draining traffic and every response is
//!   attributable to exactly one artifact version. It counts applied and
//!   refused reloads; `GET /metrics` copies the counts in when scraped.
//! * [`http`] — the one incremental HTTP/1.1 codec (request and response
//!   parsers, one head writer) that the server, the blocking client and
//!   `er-gateway` all frame messages with.
//! * [`server`] — [`ScoreServer`]: a dependency-free HTTP/1.1 front-end —
//!   one event-driven readiness loop owning every connection and scoring
//!   what each pass admits, coalescing requests into `try_score_batch`
//!   calls only under load — with a bounded admission queue and
//!   deterministic 429/503 backpressure.
//! * [`metrics`] — [`MetricsRegistry`]: lock-cheap counters, gauges and
//!   fixed-bucket histograms, always on, rendered as a Prometheus text
//!   exposition by `GET /metrics`.
//! * [`ratelimit`] — [`RateLimiter`]: per-client token buckets in front of
//!   the admission queue (429 + `X-RateLimit-*` headers).
//! * [`replay`] — the Zipf-skewed synthetic traffic generator `perfbench`
//!   and the socket-replay tests draw request streams from.
//! * [`trace`] — end-to-end request tracing: per-request span timelines
//!   through `parse → ratelimit → admission_queue → score (per-shard) →
//!   serialize → write`, retained in a tail-biased ring
//!   (slowest-N survive wrap-around), exported with every span as Chrome
//!   trace-event JSON by `GET /debug/traces`.

#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod conn;
pub mod engine;
pub mod executor;
pub mod fault;
pub mod http;
pub mod index;
pub mod metrics;
pub mod ratelimit;
pub mod readiness;
pub mod reload;
pub mod replay;
pub mod server;
pub mod trace;

pub use artifact::{model_digest, ArtifactError, ModelArtifact, FORMAT_VERSION};
pub use cache::LruCache;
pub use engine::{decode_score_body, encode_score_response, EngineScratch, ScoreError, ScoreRequest, ScoringEngine};
pub use executor::{BatchScoreError, CacheStats, ServeConfig, ShardedExecutor};
pub use fault::{FaultKind, FaultPlan, FaultSpecError, FAULT_KINDS};
pub use index::{CompiledRuleIndex, MatchScratch, RowLengthError};
pub use metrics::{parse_exposition, MetricsRegistry, Sample};
pub use ratelimit::{RateLimitConfig, RateLimitDecision, RateLimiter};
pub use reload::{synthesize_probes, ReloadError, ReloadStats, ReloadableExecutor, VersionedExecutor};
pub use replay::{zipf_stream, ReplayConfig};
pub use server::{
    http_roundtrip, http_roundtrip_with_headers, http_roundtrip_with_retry, parse_score_response, read_http_response,
    HttpResponse, RetryPolicy, ScoreServer, ServerConfig,
};
pub use trace::{chrome_trace_document, valid_trace_id, ActiveTrace, CompletedTrace, Span, SpanSet, Stage, Tracer};
