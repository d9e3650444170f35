//! A dependency-free HTTP/1.1 front-end over [`std::net::TcpListener`].
//!
//! The serving lifecycle the rest of the crate builds toward: a
//! [`ScoreServer`] runs one **event-driven readiness loop** (the
//! [`crate::readiness`] poller — `epoll` on Linux) per scoring lane, that
//! is [`crate::ServeConfig::threads`] loops, each on its own thread. The
//! first loop owns the listener: it hands each accepted connection to the
//! loop with the fewest live connections, through that loop's mailbox. From
//! then on the connection belongs to that loop alone, which routes the
//! requests that [`crate::conn`] — the connection state machine
//! `er-gateway` runs too — reads and parses off it, and admits scoring
//! requests into its **bounded queue**.
//! After each readiness pass a loop scores what that pass admitted — up to
//! [`MAX_BATCH`] requests per
//! [`crate::ShardedExecutor::try_score_batch`] call — and queues every
//! response straight onto its connection. Requests coalesce into one batch
//! only when a single pass of one loop admits several of them, so batching
//! happens under load and a lone request never waits for company; a batch
//! held on one loop never delays another loop's connections. A parked
//! connection costs a few hundred bytes of state, not a thread, so
//! thousands of mostly-idle keep-alive connections are cheap.
//!
//! What must hold across the whole server is shared by every loop: the
//! admission-queue capacity and the connection cap are server-wide counts,
//! and the executor (with its worker pool), rate limiter, metrics registry
//! and tracer are one each. Pause, resume and shutdown reach every loop.
//!
//! An admitted `/score` is one `Job` from admission to answer: the token of
//! the connection parked on it, its request metadata, trace, admission
//! instant and deadline. A connection has at most one request with its
//! loop, so the token names the job. The job leaves the queue exactly
//! once — scored, shed at its deadline, or taken by the reply watchdog —
//! and its answer goes to the connection its token names. `POST /reload`
//! parks by token too, while a worker thread promotes the artifact and
//! posts the answer back to the loop that owns the connection.
//!
//! Every batch is scored through a single [`ReloadableExecutor`] snapshot,
//! so each HTTP response carries exactly one artifact version (the
//! `model_version` field / `X-Model-Version` header) even while a hot
//! reload is in flight; so does the empty batch `[]`, answered at once.
//!
//! **Backpressure is explicit and deterministic**: when the admission queue
//! is full the server answers `429 Too Many Requests` immediately (with a
//! JSON error body and `Retry-After: 0`), and once shutdown has begun it
//! answers `503 Service Unavailable` — requests are never silently dropped
//! and connections are never severed mid-request. With
//! [`ServerConfig::rate_limit`] set, a per-client token bucket
//! ([`crate::ratelimit`]) additionally answers 429 **with**
//! `X-RateLimit-*` headers before the queue is touched, so clients can tell
//! "you are over budget" from "the server is saturated".
//!
//! ## Wire format
//!
//! | Method & path      | Body                                   | Success |
//! |--------------------|----------------------------------------|---------|
//! | `POST /score`      | one [`ScoreRequest`] object or an array | `200` `{"model_version": v, "scores": [..]}` |
//! | `GET /healthz`     | —                                      | `200` `{"status": "ok", "model_version": v, "model_digest": ..}` |
//! | `GET /version`     | —                                      | `200` `{"model_version": v, "producer": .., "format_version": .., "model_digest": ..}` |
//! | `GET /stats`       | —                                      | `200` response counters + micro-batch stats |
//! | `GET /metrics`     | —                                      | `200` Prometheus text exposition ([`crate::metrics`]) |
//! | `POST /reload`     | `{"path": "artifact.json"}`            | `200` `{"model_version": v+1}` |
//! | `POST /admin/pause` / `POST /admin/resume` | —              | `200` `{"paused": ..}` |
//!
//! Error responses always carry a JSON `{"error": ..}` body: `400` malformed
//! HTTP or JSON, `404`/`405` unknown path/method, `409` refused reload (the
//! old version keeps serving), `413` oversized body, `422` well-formed but
//! unscorable request (e.g. short metric row or NaN `classifier_output`,
//! with `request_index`), `429`
//! admission queue full, `500` a scoring-pipeline panic was isolated to this
//! batch, `503` draining or at the connection cap, `504` the request's
//! `X-Deadline-Ms` budget expired before scoring started. Scores round-trip
//! **bit-exactly** over the wire: the JSON float encoding is
//! shortest-round-trip (see the vendored `serde`), so socket scores equal
//! in-process scores to the last `f64` bit — the integration suite asserts
//! exactly that.
//!
//! A `/score` body is decoded straight into requests by
//! [`crate::engine::decode_score_body`] on the vendored
//! `serde::json::Reader` — no JSON value tree on the scoring path — and a
//! 200 answer is written directly by
//! [`crate::engine::encode_score_response`]. Unknown keys are skipped but
//! still validated, the first of duplicate keys wins, and integer tokens
//! are accepted in float fields. A syntax error anywhere in the body beats
//! any field error; otherwise the first failing array index wins, and
//! within a request the first failing field in declaration order.
//!
//! ## Failure containment
//!
//! Each batch is scored under `catch_unwind`, and the executor's chunks
//! run under their own supervision: a panic is counted
//! (`er_serve_worker_panics_total{role}`, `role="batcher"` for a batch), the
//! jobs of the panicked batch get a deterministic 500 (never a severed
//! connection), and the next batch scores normally. Every internal lock
//! recovers from poisoning via `into_inner`, so one panic can never
//! permanently wedge metrics, stats or reload completions. The
//! [`crate::fault`] module can inject these failures deterministically; an
//! injected scoring stall holds its batch on a timer while its loop keeps
//! answering health probes and admitting behind it, and the other loops
//! keep scoring their own connections. The chaos test in
//! `tests/server_integration.rs` replays traffic under injected panics,
//! stalls, and torn artifact reads to attest all of it.

use crate::conn::{self, Conn, Limits, Request, Step};
use crate::engine::{decode_score_body, encode_score_response, ScoreRequest};
use crate::executor::BatchScoreError;
use crate::fault::{FaultKind, FaultPlan};
use crate::http::{self, Progress, StartLine};
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::ratelimit::{RateLimitConfig, RateLimitDecision, RateLimiter};
use crate::readiness::{self, Interest, Mailbox, Token};
use crate::reload::{ReloadableExecutor, VersionedExecutor};
use crate::trace::{ActiveTrace, SpanSet, Stage, Tracer};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`ScoreServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, benches).
    pub addr: String,
    /// Maximum admitted-but-unscored jobs (one HTTP scoring request = one
    /// job), counted across every readiness loop; the queue answers 429
    /// beyond this.
    pub queue_capacity: usize,
    /// Per-client token-bucket rate limiting in front of the admission
    /// queue (`None` disables it). Clients are keyed by their `X-Client-Id`
    /// header, falling back to the peer IP. An exhausted bucket yields a 429
    /// with `X-RateLimit-*` headers — distinguishable from the queue-full
    /// 429, which carries `Retry-After: 0` and no `X-RateLimit-*` headers.
    pub rate_limit: Option<RateLimitConfig>,
    /// Whether the [`crate::metrics::MetricsRegistry`] records observations
    /// and `GET /metrics` serves them. Disabling removes every observation
    /// from the hot path (the A/B switch `tests/request_allocations.rs`
    /// uses to hold that metrics add no allocation to a `/score`) — which
    /// also freezes `/stats` at zero, since its counters are re-derived from
    /// the registry.
    pub metrics_enabled: bool,
    /// How many completed request traces the [`crate::trace::Tracer`] ring
    /// retains (an eighth of the capacity is reserved for the slowest traces,
    /// which survive wrap-around). `0` disables tracing entirely: no spans
    /// are recorded, `GET /debug/traces` answers 404, and `/stats` carries no
    /// exemplars — the A/B control `tests/request_allocations.rs` counts
    /// tracing's allocations against. Request-id handling (`X-Request-Id` accept/echo) stays on
    /// either way.
    pub trace_capacity: usize,
    /// Maximum concurrently served connections, counted across every
    /// readiness loop. The listening loop answers additional connections
    /// with an immediate `503` + `Retry-After` instead of admitting an
    /// unbounded connection pile-up.
    pub max_connections: usize,
    /// Hard per-connection lifetime: a keep-alive connection is closed (after
    /// the in-flight request, if any, completes) once it has been open this
    /// long.
    pub max_connection_lifetime: Duration,
    /// Deterministic fault injection ([`crate::fault`]). Defaults to
    /// [`FaultPlan::from_env`] (the `ER_FAULT_PLAN` variable), i.e. `None`
    /// unless an operator or harness opted in. The plan lives here only: the
    /// loops pass it into each scoring and reload call they make, so
    /// occurrence counts are server-wide.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 256,
            rate_limit: None,
            metrics_enabled: true,
            trace_capacity: 512,
            max_connections: 256,
            max_connection_lifetime: Duration::from_secs(600),
            fault_plan: FaultPlan::from_env(),
        }
    }
}

/// Response and micro-batching counters of a running server (a monotonic
/// snapshot).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Successful responses (2xx).
    pub responses_2xx: u64,
    /// Client errors other than backpressure (400/404/405/413/422).
    pub responses_4xx: u64,
    /// Backpressure rejections (429).
    pub responses_429: u64,
    /// Server errors including draining 503s.
    pub responses_5xx: u64,
    /// Micro-batches scored.
    pub batches: u64,
    /// Requests scored across all micro-batches (`/ batches` = mean
    /// coalescing factor).
    pub batched_requests: u64,
}

/// Re-derives the `/stats` counters from the metrics registry — the
/// registry is the single source of truth, so `/stats` and `/metrics` can
/// never disagree (they are the same counters, classified by status class).
fn stats_from_registry(metrics: &MetricsRegistry) -> ServerStats {
    let mut stats = ServerStats::default();
    for (labels, value) in metrics.responses.snapshot() {
        let status: u16 = labels
            .iter()
            .find(|(name, _)| *name == "status")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        match status {
            200..=299 => stats.responses_2xx += value,
            429 => stats.responses_429 += value,
            400..=499 => stats.responses_4xx += value,
            _ => stats.responses_5xx += value,
        }
    }
    stats.batches = metrics.batches.get();
    stats.batched_requests = metrics.batched_requests.get();
    stats
}

// ---------------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------------

/// How a job left scoring.
enum JobOutcome {
    /// Scored through one executor snapshot (whose version the labels
    /// carry) → 200.
    Scored(Arc<VersionLabels>, Vec<f64>),
    /// Well-formed HTTP but unscorable content → 422.
    Unscorable(BatchScoreError),
    /// The batch this job rode in panicked; supervision isolated the blast
    /// radius to a deterministic 500 instead of a severed connection.
    Panicked,
    /// The job's deadline budget expired before scoring started → 504.
    Expired,
    /// The job waited past [`SCORE_REPLY_TIMEOUT`] unscored → 500.
    Stalled,
}

/// An admitted `POST /score`: the one record of it from admission to
/// answer. A parked connection has at most one request with its loop, so
/// the connection's token names the job.
struct Job {
    /// The token of the connection parked on the job.
    token: u64,
    requests: Vec<ScoreRequest>,
    meta: RequestMeta,
    /// The request's in-flight trace.
    trace: Option<ActiveTrace>,
    /// When the job was admitted: opens the `admission_queue` span (closed
    /// when scoring starts), drives `er_serve_score_duration_seconds`, and
    /// starts the [`SCORE_REPLY_TIMEOUT`].
    admitted: Instant,
    /// Absolute deadline derived from `X-Deadline-Ms`; the job is shed with
    /// a 504 once this passes.
    deadline: Option<Instant>,
}

/// One loop's admission queue between request parsing and scoring. Its
/// bound is server-wide: every loop's queue counts its jobs in one shared
/// `queued` count, which [`ScoreServer::queued_jobs`] and the
/// `er_serve_queue_depth` gauge read.
struct AdmissionQueue {
    jobs: VecDeque<Job>,
    /// Admitted-but-unscored jobs across every loop's queue.
    queued: Arc<AtomicUsize>,
    capacity: usize,
}

impl AdmissionQueue {
    fn new(capacity: usize, queued: Arc<AtomicUsize>) -> Self {
        Self {
            jobs: VecDeque::new(),
            queued,
            capacity: capacity.max(1),
        }
    }

    /// Admits a job, or hands it back when the server-wide queue is full
    /// (→ 429) so the caller keeps ownership of the in-flight trace.
    #[allow(clippy::result_large_err)] // the Err deliberately returns the whole job
    fn push(&mut self, job: Job) -> Result<(), Job> {
        let capacity = self.capacity;
        let slot = self.queued.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < capacity).then_some(n + 1)
        });
        if slot.is_err() {
            return Err(job);
        }
        self.jobs.push_back(job);
        Ok(())
    }

    /// Takes jobs from the head until `max_requests` requests have
    /// accumulated (a job is never split, so one larger job may exceed it).
    fn take_batch(&mut self, max_requests: usize) -> Vec<Job> {
        let mut batch = Vec::new();
        let mut total = 0usize;
        while total < max_requests {
            let Some(job) = self.jobs.pop_front() else { break };
            total += job.requests.len().max(1);
            batch.push(job);
        }
        self.queued.fetch_sub(batch.len(), Ordering::Relaxed);
        batch
    }

    /// Takes the jobs admitted at or before `cutoff` — the reply
    /// watchdog's expired jobs. Admission order is FIFO, so they are a
    /// prefix of the queue.
    fn take_admitted_by(&mut self, cutoff: Instant) -> Vec<Job> {
        let late = self.jobs.iter().take_while(|job| job.admitted <= cutoff).count();
        self.queued.fetch_sub(late, Ordering::Relaxed);
        self.jobs.drain(..late).collect()
    }
}

/// A finished `POST /reload`, posted by its worker thread to the loop that
/// owns the connection parked on it, and keyed by that connection's token.
/// The response is already decided; the loop only serializes and flushes it.
struct Completion {
    token: u64,
    status: u16,
    body: String,
    version: Option<u64>,
    trace: Option<ActiveTrace>,
}

/// What other threads post to a readiness loop.
enum Message {
    /// A connection the listening loop accepted and handed to this loop.
    Conn(TcpStream),
    /// A finished `POST /reload` of one of this loop's connections.
    Reload(Completion),
}

/// One readiness loop as the other threads see it: its mailbox (whose
/// waker also carries resume and shutdown) and its load.
struct Lane {
    mailbox: Mailbox<Message>,
    /// Connections the loop owns, counted against `max_connections`. Only
    /// the listening loop raises it, when it hands a connection over; the
    /// owning loop lowers it when the connection closes.
    live: AtomicUsize,
}

/// The `/score` metric children every answered array touches, resolved on
/// first use and kept for the loop's life, so a 200 `/score` answer takes
/// no registry lock and allocates no label strings.
#[derive(Default)]
struct ScoreHandles {
    /// `er_serve_responses_total{route="/score",status="200"}`.
    ok: OnceCell<Arc<Counter>>,
    /// `er_serve_request_duration_seconds{route="/score"}`.
    duration: OnceCell<Arc<Histogram>>,
}

/// The `version`-labelled metric handles and the `X-Model-Version` header
/// value of one artifact version. Resolved once per version and reused
/// until the snapshot version changes, so answering a `/score` allocates no
/// label strings. The handles are `None` when metrics are disabled.
struct VersionLabels {
    version: u64,
    header: Arc<str>,
    score_requests: Option<Arc<Counter>>,
    score_duration: Option<Arc<Histogram>>,
}

impl VersionLabels {
    /// The 200 `/score` response carrying `scores` under this version, named
    /// in the body and the `X-Model-Version` header alike.
    fn response(&self, scores: &[f64]) -> ResponseParts {
        let mut parts = ResponseParts::json(200, encode_score_response(self.version, scores));
        parts.model_version = Some(Arc::clone(&self.header));
        parts
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Shared {
    executor: Arc<ReloadableExecutor>,
    /// Intake paused ([`ScoreServer::pause_intake`], `POST /admin/pause`):
    /// admitted jobs stay queued until resume or shutdown.
    paused: AtomicBool,
    /// Admitted-but-unscored jobs across every loop's admission queue, held
    /// under [`ServerConfig::queue_capacity`]; read by
    /// [`ScoreServer::queued_jobs`] and the `er_serve_queue_depth` gauge.
    queued: Arc<AtomicUsize>,
    /// One entry per readiness loop; the first owns the listener.
    lanes: Vec<Lane>,
    metrics: Arc<MetricsRegistry>,
    limiter: Option<RateLimiter>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// `None` when [`ServerConfig::trace_capacity`] is 0.
    tracer: Option<Tracer>,
    /// Counter behind generated request ids (requests without a valid
    /// client-supplied `X-Request-Id`).
    id_seq: AtomicU64,
}

impl Shared {
    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The request id for this request: the client's `X-Request-Id` when it
    /// is well-formed, else a generated `er-…` id.
    fn request_id(&self, client_supplied: Option<&str>) -> String {
        conn::request_id(client_supplied, "er", &self.id_seq)
    }

    /// Interrupts every loop's poll, so each notices resumed intake or
    /// shutdown at once.
    fn wake_all(&self) {
        for lane in &self.lanes {
            let _ = lane.mailbox.waker().wake();
        }
    }
}

/// A running HTTP scoring server; see the [module docs](self) for the wire
/// format. Dropping the handle shuts the server down gracefully (scores the
/// admitted queues, joins the loop threads).
///
/// # Examples
///
/// Stand a model up on an ephemeral port and probe it over a raw socket:
///
/// ```
/// use er_base::Label;
/// use er_rulegen::{CmpOp, Condition, Rule};
/// use er_serve::{http_roundtrip, ReloadableExecutor, ScoreServer, ScoringEngine, ServeConfig, ServerConfig};
/// use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
/// use std::net::TcpStream;
/// use std::sync::Arc;
///
/// # fn main() -> std::io::Result<()> {
/// let feature_set = RiskFeatureSet {
///     rules: vec![Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 10, 0.9)],
///     metrics: vec![],
///     expectations: vec![0.1],
///     support: vec![10],
/// };
/// let model = LearnRiskModel::new(feature_set, RiskModelConfig::default());
/// let executor = Arc::new(ReloadableExecutor::new(
///     ScoringEngine::new(model),
///     ServeConfig::default().with_threads(1),
/// ));
///
/// let server = ScoreServer::start(executor, ServerConfig::default())?;
/// let mut conn = TcpStream::connect(server.local_addr())?;
/// let health = http_roundtrip(&mut conn, "GET", "/healthz", None)?;
/// assert_eq!(health.status, 200);
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct ScoreServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// One thread per readiness loop.
    loops: Vec<std::thread::JoinHandle<()>>,
}

impl ScoreServer {
    /// Binds `config.addr` and starts one readiness-loop thread per scoring
    /// lane ([`crate::ServeConfig::threads`] of the executor). The caller
    /// keeps the [`ReloadableExecutor`] handle, so in-process reloads and
    /// the HTTP `POST /reload` endpoint coexist.
    pub fn start(executor: Arc<ReloadableExecutor>, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let pollers = (0..executor.config().threads.max(1))
            .map(|_| readiness::Poller::new())
            .collect::<io::Result<Vec<_>>>()?;
        pollers[0].register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        let lanes = pollers
            .iter()
            .map(|poller| {
                Ok(Lane {
                    mailbox: Mailbox::new(poller, WAKER)?,
                    live: AtomicUsize::new(0),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let tracer = (config.trace_capacity > 0).then(|| Tracer::new(config.trace_capacity));
        let shared = Arc::new(Shared {
            executor,
            paused: AtomicBool::new(false),
            queued: Arc::new(AtomicUsize::new(0)),
            lanes,
            metrics: Arc::new(MetricsRegistry::new()),
            limiter: config.rate_limit.map(RateLimiter::new),
            config,
            shutdown: AtomicBool::new(false),
            tracer,
            id_seq: AtomicU64::new(0),
        });
        // Built before the threads, so a failed spawn drops it and shuts
        // down the loops already running.
        let mut server = Self {
            shared,
            local_addr,
            loops: Vec::new(),
        };
        let mut listener = Some(listener);
        for (lane, poller) in pollers.into_iter().enumerate() {
            let shared = Arc::clone(&server.shared);
            let listener = listener.take();
            let handle = std::thread::Builder::new()
                .name(format!("er-serve-loop-{lane}"))
                .spawn(move || {
                    Driver {
                        lane,
                        poller,
                        listener,
                        limits: Limits {
                            write_timeout: WRITE_TIMEOUT,
                            read_timeout: None,
                            lifetime: Some(shared.config.max_connection_lifetime),
                        },
                        conns: HashMap::new(),
                        reloads: HashMap::new(),
                        refused: HashSet::new(),
                        next_token: FIRST_CONN,
                        queue: AdmissionQueue::new(shared.config.queue_capacity, Arc::clone(&shared.queued)),
                        stalled: None,
                        labels: None,
                        score: ScoreHandles::default(),
                        shared,
                    }
                    .run()
                })?;
            server.loops.push(handle);
        }
        Ok(server)
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The hot-reloadable serving state behind this server.
    pub fn executor(&self) -> &Arc<ReloadableExecutor> {
        &self.shared.executor
    }

    /// Response/batching counters since start, re-derived from the metrics
    /// registry (all zero when [`ServerConfig::metrics_enabled`] is off).
    pub fn stats(&self) -> ServerStats {
        stats_from_registry(&self.shared.metrics)
    }

    /// The metrics registry behind `GET /metrics`.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The request tracer behind `GET /debug/traces`, or `None` when
    /// [`ServerConfig::trace_capacity`] is 0.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.shared.tracer()
    }

    /// Admitted-but-unscored jobs currently queued.
    pub fn queued_jobs(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Stops scoring admitted jobs (requests keep being admitted until the
    /// queue fills and 429s begin) — the deliberate backpressure switch the
    /// smoke tiers flip. Also reachable over the wire via
    /// `POST /admin/pause`.
    pub fn pause_intake(&self) {
        self.shared.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes scoring after [`Self::pause_intake`], waking every loop so
    /// the queued jobs are scored at once.
    pub fn resume_intake(&self) {
        self.shared.paused.store(false, Ordering::SeqCst);
        self.shared.wake_all();
    }

    /// Graceful shutdown: stop accepting, answer in-flight admissions with
    /// 503, score every already-admitted job, join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Interrupt every loop's poll so each notices the flag, closes its
        // idle connections, scores every job it admitted, and flushes every
        // in-flight response before exiting.
        self.shared.wake_all();
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ScoreServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------------
// Readiness loops
// ---------------------------------------------------------------------------

/// Upper bound on one poll wait, so per-connection timers (lifetimes, write
/// deadlines, injected stalls) and the reply watchdog are scanned at least
/// this often even when no readiness event arrives.
const POLL_TICK: Duration = Duration::from_millis(100);
/// How long an admitted job may stay unscored (paused intake, a stalled
/// batch ahead of it) before its loop takes it out of the queue and
/// answers 500 (`scoring pipeline stalled`).
const SCORE_REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Micro-batch cap, per readiness loop: the most requests one
/// `try_score_batch` call scores. Jobs coalesce only when one pass of one
/// loop admits several of them; nothing ever waits for a batch to fill.
pub const MAX_BATCH: usize = 128;
/// Write-progress budget on accepted sockets: a connection whose peer
/// accepts no response bytes for this long is closed, so a reader that stops
/// draining its receive window cannot pin response state forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The listener's token in the listening loop.
const LISTENER: Token = Token(0);
/// The mailbox waker's token (handed-over connections, reload completions,
/// resumed intake, or shutdown).
const WAKER: Token = Token(1);
/// First token a loop gives a connection it owns.
const FIRST_CONN: u64 = 2;

/// Identity and timing of one parsed request, carried from dispatch to the
/// response's flush completion — where the duration histogram and the trace
/// commit happen, the same post-write position they had when a blocking
/// handler thread owned the whole exchange.
struct RequestMeta {
    route: &'static str,
    started: Instant,
    rid: String,
}

/// The ticket a queued response carries through its flush: everything the
/// loop records once [`Step::Sent`] hands it back.
struct Outgoing {
    status: u16,
    /// Pending trace, committed with the status actually flushed (0 if the
    /// write failed) — `/score` and `/reload` responses only.
    trace: Option<ActiveTrace>,
    /// When the response was built and enqueued; the start of the `write`
    /// span a `/score` trace records.
    write_start: Instant,
    /// `None` for responses to unparseable requests and connection-cap
    /// refusals, which are never duration-observed (there is no route to
    /// attribute them to).
    meta: Option<RequestMeta>,
}

/// A response computed by a route handler, not yet serialized to the wire.
struct ResponseParts {
    status: u16,
    content_type: &'static str,
    body: String,
    headers: Vec<(&'static str, String)>,
    /// The `X-Model-Version` header value, shared per artifact version.
    model_version: Option<Arc<str>>,
}

impl ResponseParts {
    fn json(status: u16, body: String) -> Self {
        Self::with_headers(status, body, Vec::new())
    }

    fn with_headers(status: u16, body: String, headers: Vec<(&'static str, String)>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
            headers,
            model_version: None,
        }
    }
}

/// One readiness loop, owning the connections handed to it: routes their
/// requests, scores the jobs it admitted, and hands each connection's
/// reading, parsing and flushing to [`crate::conn`] — all over nonblocking
/// sockets driven by the loop's own [`crate::readiness`] poller. The first
/// loop also accepts, and places every new connection.
struct Driver {
    shared: Arc<Shared>,
    /// This loop's index in [`Shared::lanes`].
    lane: usize,
    poller: readiness::Poller,
    /// The first loop's listener; dropped when shutdown begins, so new
    /// connections are refused at once.
    listener: Option<TcpListener>,
    limits: Limits,
    conns: HashMap<u64, Conn<Outgoing>>,
    /// Parked `/reload` requests, by connection token. Reloads carry no
    /// reply timeout.
    reloads: HashMap<u64, RequestMeta>,
    /// Over-cap connections that exist only to flush their 503; not
    /// counted against the connection cap.
    refused: HashSet<u64>,
    next_token: u64,
    /// Admitted-but-unscored jobs.
    queue: AdmissionQueue,
    /// A batch held by an injected `score_stall` until the instant passes.
    stalled: Option<(Instant, Vec<Job>)>,
    /// Labels of the artifact version that scored last.
    labels: Option<Arc<VersionLabels>>,
    score: ScoreHandles,
}

impl Driver {
    fn run(mut self) {
        let mut events = readiness::Events::with_capacity(1024);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // Stop listening: a connect made during the drain is
                // refused, not parked in the backlog until the drain ends.
                // Idle and mid-read connections close now (a half-received
                // head can never be admitted); parked and flushing ones get
                // their response first — never a severed connection — and
                // lingering ones run out their bounded linger.
                self.listener = None;
                self.close_reading_conns();
                if self.conns.is_empty() {
                    return;
                }
            }
            let timeout = self.poll_timeout();
            if self.poller.poll(&mut events, Some(timeout)).is_err() {
                // An unrecoverable poll error must not spin the loop; back
                // off one tick and retry (timers still run below).
                std::thread::sleep(POLL_TICK);
            }
            let mut accept = false;
            let mut ready: Vec<u64> = Vec::with_capacity(events.len());
            for event in events.iter() {
                match event.token() {
                    LISTENER => accept = true,
                    WAKER => self.lane().mailbox.waker().drain(),
                    Token(token) => ready.push(token),
                }
            }
            if accept {
                self.accept_ready();
            }
            for token in ready {
                if let Some(mut conn) = self.conns.remove(&token) {
                    conn.read();
                    self.drive(conn);
                }
            }
            for message in self.lane().mailbox.take() {
                match message {
                    Message::Conn(stream) => self.admit(stream, false),
                    Message::Reload(completion) => self.on_completion(completion),
                }
            }
            self.score_admitted();
            self.run_timers();
        }
    }

    fn lane(&self) -> &Lane {
        &self.shared.lanes[self.lane]
    }

    /// Sleep until the nearest per-connection deadline or the end of an
    /// injected scoring stall, capped at [`POLL_TICK`]; readiness events and
    /// the waker interrupt it anyway.
    fn poll_timeout(&self) -> Duration {
        let deadline = self
            .conns
            .values()
            .filter_map(Conn::deadline)
            .chain(self.stalled.as_ref().map(|(until, _)| *until))
            .min();
        deadline.map_or(POLL_TICK, |at| {
            at.saturating_duration_since(Instant::now()).min(POLL_TICK)
        })
    }

    fn accept_ready(&mut self) {
        while let Some(accepted) = self.listener.as_ref().map(TcpListener::accept) {
            match accepted {
                Ok((stream, _)) => self.place(stream),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Hands an accepted connection to the loop with the fewest live
    /// connections (the lowest index on a tie), or refuses it at the
    /// connection cap. Only this loop raises live counts, so their sum never
    /// passes the cap.
    fn place(&mut self, stream: TcpStream) {
        let lanes = &self.shared.lanes;
        let live = |lane: &Lane| lane.live.load(Ordering::Relaxed);
        if lanes.iter().map(live).sum::<usize>() >= self.shared.config.max_connections {
            return self.admit(stream, true);
        }
        let Some((index, lane)) = lanes.iter().enumerate().min_by_key(|(_, lane)| live(lane)) else {
            return;
        };
        lane.live.fetch_add(1, Ordering::Relaxed);
        if index == self.lane {
            self.admit(stream, false);
        } else {
            lane.mailbox.post(Message::Conn(stream));
        }
    }

    /// Takes a placed connection into this loop, or (`refused`) one over
    /// the connection cap.
    fn admit(&mut self, stream: TcpStream, refused: bool) {
        let token = self.next_token;
        self.next_token += 1;
        let Ok(mut conn) = Conn::new(Token(token), stream, self.limits) else {
            if !refused {
                self.lane().live.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        };
        // The connection cap bounds live connection state: at the limit the
        // new connection gets one clean 503 + Retry-After and is closed,
        // rather than growing the loops' working sets without bound. The
        // refusal flushes through the same machinery as any response but
        // is not counted against the cap or duration-observed. Its request
        // may already be on the way, so the close lingers to spare the 503
        // a reset — but at most `max_connections` refusals linger at once,
        // so a connect flood cannot pin descriptors past twice the cap.
        if refused {
            if self.shared.config.metrics_enabled {
                self.shared.metrics.rejected.with(&[("cause", "overloaded")]).inc();
                self.shared
                    .metrics
                    .responses
                    .with(&[("route", "refused"), ("status", "503")])
                    .inc();
            }
            let body = error_body("server at connection capacity; retry", None);
            let headers = [("Content-Type", "application/json"), ("Retry-After", "1")];
            let refusal = Outgoing {
                status: 503,
                trace: None,
                write_start: Instant::now(),
                meta: None,
            };
            conn.respond(503, headers, body.as_bytes(), refusal, true);
            if self.refused.len() < self.shared.config.max_connections {
                conn.linger();
            }
            self.refused.insert(token);
        }
        // Drive immediately: request bytes may already be waiting, and the
        // eager read shaves one poll round-trip off accept-to-first-byte.
        conn.read();
        self.drive(conn);
    }

    /// Runs a connection until it parks (needs more bytes, a job
    /// completion, kernel send-buffer space, or a timer) or closes.
    fn drive(&mut self, mut conn: Conn<Outgoing>) {
        loop {
            match conn.advance() {
                Step::Request(Ok(request)) => self.dispatch(&mut conn, request),
                Step::Request(Err(failure)) => self.queue_failure(&mut conn, failure),
                Step::Sent(out, delivered) => {
                    self.finish_response(out, delivered);
                    // A draining loop closes a kept-alive connection now; a
                    // lingering one runs out its linger first.
                    if self.shared.shutdown.load(Ordering::SeqCst) && conn.is_reading() {
                        return self.discard(conn);
                    }
                    // Otherwise loop on, so a pipelined request already
                    // buffered is answered without a poll round.
                }
                Step::Wait => {
                    conn.park(&self.poller);
                    self.conns.insert(conn.token().0, conn);
                    return;
                }
                Step::Close => return self.discard(conn),
            }
        }
    }

    /// Closes a connection and releases its cap slot.
    fn discard(&mut self, conn: Conn<Outgoing>) {
        if !self.refused.remove(&conn.token().0) {
            self.lane().live.fetch_sub(1, Ordering::Relaxed);
        }
        conn.close(&self.poller);
    }

    /// Answers a request that could not be parsed. Even these get a
    /// (generated) request id echoed back, so client-side retry logs have
    /// something to correlate on.
    fn queue_failure(&self, conn: &mut Conn<Outgoing>, failure: http::Error) {
        let rid = self.shared.request_id(None);
        let body = error_body(&failure.message, None);
        let parts = ResponseParts::with_headers(failure.status, body, vec![("X-Request-Id", rid)]);
        self.queue_response(conn, parts, None, None);
    }

    /// Serializes a response onto the connection and arms the flush
    /// machinery; the `X-Request-Id` it echoes comes from `meta`. The
    /// responses counter is incremented here, before any byte moves — the
    /// position it held in the blocking writer — and an injected
    /// `client_write_stall` defers the flush, as if the client had stopped
    /// draining its receive window.
    fn queue_response(
        &self,
        conn: &mut Conn<Outgoing>,
        parts: ResponseParts,
        trace: Option<ActiveTrace>,
        meta: Option<RequestMeta>,
    ) {
        let route = meta.as_ref().map_or("unparsed", |m| m.route);
        if self.shared.config.metrics_enabled {
            let metrics = &self.shared.metrics;
            if route == "/score" && parts.status == 200 {
                let ok = &self.score.ok;
                ok.get_or_init(|| metrics.responses.with(&[("route", route), ("status", "200")]))
                    .inc();
            } else {
                let status = parts.status.to_string();
                metrics.responses.with(&[("route", route), ("status", &status)]).inc();
            }
        }
        // Every response — including 4xx/5xx error bodies — echoes the
        // request id, so client retry logs, server logs and traces all
        // correlate.
        let rid = meta.as_ref().map(|m| m.rid.clone());
        let request_id = rid.as_deref().map(|rid| ("X-Request-Id", rid));
        let extra = parts.headers.iter().map(|(name, value)| (*name, value.as_str()));
        let model_version = parts.model_version.as_deref().map(|v| ("X-Model-Version", v));
        conn.respond(
            parts.status,
            [("Content-Type", parts.content_type)]
                .into_iter()
                .chain(request_id)
                .chain(extra)
                .chain(model_version),
            parts.body.as_bytes(),
            Outgoing {
                status: parts.status,
                trace,
                write_start: Instant::now(),
                meta,
            },
            self.shared.shutdown.load(Ordering::SeqCst),
        );
        conn.hold_flush(
            self.shared
                .config
                .fault_plan
                .as_deref()
                .and_then(|plan| plan.check(FaultKind::ClientWriteStall))
                .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms))),
        );
    }

    /// Post-flush bookkeeping: commit the trace with the status actually
    /// delivered (0 if the write failed) and observe the request-duration
    /// histogram — the exact sequence the blocking handler ran after its
    /// write returned.
    fn finish_response(&self, out: Outgoing, delivered: bool) {
        let now = Instant::now();
        if let Some(mut trace) = out.trace {
            if out.meta.as_ref().is_some_and(|m| m.route == "/score") {
                trace.record(Stage::Write, out.write_start, now);
            }
            if let Some(tracer) = self.shared.tracer() {
                tracer.commit(trace, if delivered { out.status } else { 0 });
            }
        }
        let Some(meta) = out.meta.filter(|_| self.shared.config.metrics_enabled) else {
            return;
        };
        let metrics = &self.shared.metrics;
        let route = [("route", meta.route)];
        let seconds = now.duration_since(meta.started).as_secs_f64();
        match meta.route {
            "/score" => self
                .score
                .duration
                .get_or_init(|| metrics.request_duration.with(&route))
                .observe(seconds),
            _ => metrics.request_duration.with(&route).observe(seconds),
        }
    }

    /// Routes one parsed request. Fast routes answer inline; `/score`
    /// admits a job and parks the connection; `/reload` runs on a
    /// short-lived worker thread (artifact IO plus probe scoring would
    /// otherwise stall every connection the loop owns).
    fn dispatch(&mut self, conn: &mut Conn<Outgoing>, request: Request) {
        let meta = RequestMeta {
            route: route_label(&request.path),
            started: Instant::now(),
            rid: self.shared.request_id(request.request_id.as_deref()),
        };
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/score") => self.dispatch_score(conn, &request, meta),
            ("POST", "/reload") => self.dispatch_reload(conn, &request, meta),
            _ => {
                let parts = inline_route(&self.shared, &request);
                self.queue_response(conn, parts, None, Some(meta));
            }
        }
    }

    fn dispatch_score(&mut self, conn: &mut Conn<Outgoing>, request: &Request, meta: RequestMeta) {
        let shared = Arc::clone(&self.shared);
        let mut trace = shared.tracer().map(|t| t.begin(meta.rid.clone(), "/score"));
        // The token bucket sits in front of the admission queue: an
        // over-budget client is turned away before it can occupy queue
        // capacity. Clients are keyed by `X-Client-Id`, else the peer IP.
        if let Some(limiter) = &shared.limiter {
            let check_start = Instant::now();
            let client = request.client_id.as_deref().unwrap_or(conn.peer());
            let decision = limiter.check(client, check_start);
            if let Some(t) = trace.as_mut() {
                t.record(Stage::Ratelimit, check_start, Instant::now());
            }
            if let RateLimitDecision::Limited { retry_after, limit } = decision {
                if shared.config.metrics_enabled {
                    shared.metrics.rejected.with(&[("cause", "rate_limited")]).inc();
                }
                let parts = ResponseParts::with_headers(
                    429,
                    error_body("rate limit exceeded; slow down", None),
                    vec![
                        ("Retry-After", format!("{}", retry_after.ceil() as u64)),
                        ("X-RateLimit-Limit", format!("{}", limit as u64)),
                        ("X-RateLimit-Remaining", "0".to_string()),
                        ("X-RateLimit-Reset", format!("{retry_after:.3}")),
                    ],
                );
                self.queue_response(conn, parts, trace, Some(meta));
                return;
            }
        }
        let parse_start = Instant::now();
        let parsed = decode_score_body(&request.body);
        if let Some(t) = trace.as_mut() {
            t.record(Stage::Parse, parse_start, Instant::now());
        }
        let requests = match parsed {
            Ok(requests) => requests,
            Err(message) => {
                let parts = ResponseParts::json(400, error_body(&message, None));
                self.queue_response(conn, parts, trace, Some(meta));
                return;
            }
        };
        if requests.is_empty() {
            // Nothing to score, but the answer still names the version that
            // serves it, in the body and the header alike.
            let parts = self.version_labels(&shared.executor.snapshot()).response(&[]);
            self.queue_response(conn, parts, trace, Some(meta));
            return;
        }
        let admitted = Instant::now();
        // The absolute deadline this request's budget implies; a budget so
        // large it overflows `Instant` saturates to "no deadline".
        let deadline = request
            .deadline_ms
            .and_then(|ms| admitted.checked_add(Duration::from_millis(ms)));
        if shared.shutdown.load(Ordering::SeqCst) {
            let parts = ResponseParts::json(503, error_body("server is draining", None));
            self.queue_response(conn, parts, trace, Some(meta));
            return;
        }
        let pushed = self.queue.push(Job {
            token: conn.token().0,
            requests,
            meta,
            trace,
            admitted,
            deadline,
        });
        if let Err(bounced) = pushed {
            if shared.config.metrics_enabled {
                shared.metrics.rejected.with(&[("cause", "queue_full")]).inc();
            }
            // Deliberately NO X-RateLimit-* headers here: queue-full means
            // the server is saturated (retry immediately), not that this
            // client is over its own budget.
            let parts = ResponseParts::with_headers(
                429,
                error_body("admission queue full; retry", None),
                vec![("Retry-After", "0".to_string())],
            );
            self.queue_response(conn, parts, bounced.trace, Some(bounced.meta));
        }
    }

    fn dispatch_reload(&mut self, conn: &mut Conn<Outgoing>, request: &Request, meta: RequestMeta) {
        let path = match serde::json::from_str::<ReloadRequest>(&request.body) {
            Ok(reload) => reload.path,
            Err(e) => {
                let parts = ResponseParts::json(
                    400,
                    error_body(&format!("malformed reload body (expected {{\"path\": ..}}): {e}"), None),
                );
                self.queue_response(conn, parts, None, Some(meta));
                return;
            }
        };
        // A reload gets its own trace: the `load → validate → probe → swap`
        // timeline, recorded by the reload pipeline into a detached span
        // set on the worker thread.
        let trace = self.shared.tracer().map(|t| t.begin(meta.rid.clone(), "/reload"));
        let token = conn.token().0;
        let shared = Arc::clone(&self.shared);
        let lane = self.lane;
        std::thread::spawn(move || {
            let mut trace = trace;
            let mut spans = SpanSet::new();
            let recorded = trace.is_some().then_some(&mut spans);
            let fault = shared.config.fault_plan.as_deref();
            let result = shared
                .executor
                .reload_from_path_spanned(path.as_ref(), &[], fault, recorded);
            if let Some(t) = trace.as_mut() {
                t.extend_from(&spans);
            }
            let (status, body, version) = match result {
                Ok(model_version) => (
                    200,
                    serde::json::to_string(&ReloadResponse { model_version }),
                    Some(model_version),
                ),
                // The old version keeps serving; 409 tells the operator the
                // rollout did not happen.
                Err(e) => (409, error_body(&e.to_string(), None), None),
            };
            shared.lanes[lane].mailbox.post(Message::Reload(Completion {
                token,
                status,
                body,
                version,
                trace,
            }));
        });
        self.reloads.insert(token, meta);
    }

    fn on_completion(&mut self, completion: Completion) {
        let Some(meta) = self.reloads.remove(&completion.token) else {
            return;
        };
        let Some(mut conn) = self.conns.remove(&completion.token) else {
            return;
        };
        let mut parts = ResponseParts::json(completion.status, completion.body);
        parts.model_version = completion.version.map(|v| v.to_string().into());
        self.queue_response(&mut conn, parts, completion.trace, Some(meta));
        self.drive(conn);
    }

    /// Scores what the readiness pass admitted: batches of up to
    /// [`MAX_BATCH`] requests until the queue is empty, intake is paused
    /// (ignored once shutdown has begun, so shutdown never strands an
    /// admitted job), or an injected `score_stall` holds a batch.
    fn score_admitted(&mut self) {
        loop {
            if let Some((until, _)) = &self.stalled {
                if Instant::now() < *until {
                    return;
                }
                if let Some((_, batch)) = self.stalled.take() {
                    self.score_batch(batch);
                }
                continue;
            }
            let paused = self.shared.paused.load(Ordering::SeqCst) && !self.shared.shutdown.load(Ordering::SeqCst);
            if paused || self.queue.jobs.is_empty() {
                return;
            }
            let batch = self.queue.take_batch(MAX_BATCH);
            let batch = self.shed_expired(batch);
            if batch.is_empty() {
                continue;
            }
            let fault = self.shared.config.fault_plan.as_deref();
            if let Some(ms) = fault.and_then(|plan| plan.check(FaultKind::ScoreStall)) {
                // Injected stall: the scorer sits on this batch. It is held
                // on a timer, not slept on, so the loop keeps accepting,
                // answering health probes and admitting — queue-full 429s
                // and deadline expiry still happen behind the stall.
                let now = Instant::now();
                self.stalled = Some((now.checked_add(Duration::from_millis(ms)).unwrap_or(now), batch));
                continue;
            }
            self.score_batch(batch);
        }
    }

    /// Sheds the jobs whose deadline budget expired while they waited:
    /// scoring them would spend executor time on answers nobody is waiting
    /// for. A shed job still gets a response — a 504, never a severed
    /// connection — so clients can tell "too late" from "lost". Returns the
    /// live rest.
    fn shed_expired(&mut self, batch: Vec<Job>) -> Vec<Job> {
        let now = Instant::now();
        let expired = |job: &Job| job.deadline.is_some_and(|d| d <= now);
        if !batch.iter().any(expired) {
            return batch;
        }
        let (expired, live): (Vec<Job>, Vec<Job>) = batch.into_iter().partition(expired);
        for job in expired {
            if self.shared.config.metrics_enabled {
                self.shared.metrics.rejected.with(&[("cause", "deadline")]).inc();
            }
            self.answer(job, JobOutcome::Expired);
        }
        live
    }

    /// The labels of `generation`'s version, rebuilt only when the version
    /// changes. A new version also exposes its cache counters and retires
    /// the series of versions no longer live.
    fn version_labels(&mut self, generation: &VersionedExecutor) -> Arc<VersionLabels> {
        let version = generation.version;
        if let Some(labels) = self.labels.as_ref().filter(|labels| labels.version == version) {
            return Arc::clone(labels);
        }
        let header: Arc<str> = version.to_string().into();
        let metrics = self.shared.config.metrics_enabled.then_some(&self.shared.metrics);
        let labels = Arc::new(VersionLabels {
            version,
            score_requests: metrics.map(|m| m.score_requests.with(&[("version", &header)])),
            score_duration: metrics.map(|m| m.score_duration.with(&[("version", &header)])),
            header,
        });
        // Replacing this loop's old labels releases their handles first, so
        // their series can fold now.
        self.labels = Some(Arc::clone(&labels));
        if let Some(metrics) = metrics {
            expose_cache_counters(metrics, generation, &labels.header);
            metrics.retire_versions(version);
        }
        labels
    }

    /// Scores one batch through one executor snapshot — so every response
    /// in it is attributable to exactly that artifact version, even
    /// mid-reload — and answers each job on its connection.
    fn score_batch(&mut self, batch: Vec<Job>) {
        let shared = Arc::clone(&self.shared);
        let metrics = shared.config.metrics_enabled.then_some(&shared.metrics);
        let snapshot = shared.executor.snapshot();
        let executor = snapshot.executor();
        let labels = self.version_labels(&snapshot);
        let total: usize = batch.iter().map(|j| j.requests.len()).sum();
        if let Some(metrics) = metrics {
            metrics.batches.inc();
            metrics.batched_requests.add(total as u64);
            metrics.batch_size.observe(total as f64);
        }
        // A lone job is scored from its own request slice; only a
        // coalesced batch is gathered into one.
        let gathered: Vec<ScoreRequest>;
        let all: &[ScoreRequest] = match batch.as_slice() {
            [job] => &job.requests,
            _ => {
                gathered = batch.iter().flat_map(|j| j.requests.iter().cloned()).collect();
                &gathered
            }
        };
        // Batch-level spans are recorded once and replayed into every
        // coalesced job's trace: all requests in the batch share the same
        // per-shard score spans.
        let tracing = batch.iter().any(|j| j.trace.is_some());
        let score_start = Instant::now();
        // The scoring section runs under `catch_unwind`: a panic (injected
        // `batcher_panic`, or a real defect that escaped the executor's own
        // chunk supervision) is confined to this batch — every job in it
        // gets a deterministic 500 and the loop moves on to the next.
        let fault = shared.config.fault_plan.as_deref();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if fault.is_some_and(|plan| plan.fires(FaultKind::BatcherPanic)) {
                panic!("injected {}", FaultKind::BatcherPanic);
            }
            let mut spans = SpanSet::new();
            let (scored, restarts) = executor.try_score_batch_spanned(all, fault, tracing.then_some(&mut spans));
            (scored, restarts, spans)
        }));
        // The executor catches chunk panics and re-scores those chunks; each
        // scoring call reports how many, and the loop counts them here.
        let count_restarts = |restarts: u64| {
            if let Some(metrics) = metrics.filter(|_| restarts > 0) {
                metrics.worker_panics.with(&[("role", "shard")]).add(restarts);
            }
        };
        let finish_trace = |job: &mut Job, spans: &SpanSet| {
            if let Some(trace) = job.trace.as_mut() {
                trace.record(Stage::AdmissionQueue, job.admitted, score_start);
                trace.extend_from(spans);
            }
        };
        let (scored, restarts, shard_spans) = match attempt {
            Ok(result) => result,
            Err(_) => {
                if let Some(metrics) = metrics {
                    metrics.worker_panics.with(&[("role", "batcher")]).inc();
                }
                let empty = SpanSet::new();
                for mut job in batch {
                    finish_trace(&mut job, &empty);
                    self.answer(job, JobOutcome::Panicked);
                }
                return;
            }
        };
        count_restarts(restarts);
        match scored {
            Ok(scores) => {
                if let Some(counter) = &labels.score_requests {
                    counter.add(total as u64);
                }
                let mut offset = 0;
                for mut job in batch {
                    let slice = scores[offset..offset + job.requests.len()].to_vec();
                    offset += job.requests.len();
                    finish_trace(&mut job, &shard_spans);
                    self.answer(job, JobOutcome::Scored(Arc::clone(&labels), slice));
                }
            }
            Err(_) => {
                // At least one coalesced request is malformed. Re-score per
                // job so only the offending response degrades to 422 and the
                // innocent neighbors in the same batch still get scores.
                for mut job in batch {
                    let mut job_spans = SpanSet::new();
                    let recorded = job.trace.is_some().then_some(&mut job_spans);
                    let (scored, restarts) = executor.try_score_batch_spanned(&job.requests, fault, recorded);
                    count_restarts(restarts);
                    let outcome = match scored {
                        Ok(scores) => {
                            if let Some(counter) = &labels.score_requests {
                                counter.add(job.requests.len() as u64);
                            }
                            JobOutcome::Scored(Arc::clone(&labels), scores)
                        }
                        Err(e) => JobOutcome::Unscorable(e),
                    };
                    finish_trace(&mut job, &job_spans);
                    self.answer(job, outcome);
                }
            }
        }
    }

    /// The scoring-outcome → response mapping, one arm per [`JobOutcome`],
    /// queued straight onto the connection parked on the job.
    fn answer(&mut self, job: Job, outcome: JobOutcome) {
        let Some(mut conn) = self.conns.remove(&job.token) else {
            return;
        };
        let Job {
            meta,
            mut trace,
            admitted,
            ..
        } = job;
        let parts = match outcome {
            JobOutcome::Scored(labels, scores) => {
                if let Some(histogram) = &labels.score_duration {
                    histogram.observe(admitted.elapsed().as_secs_f64());
                }
                let serialize_start = Instant::now();
                let parts = labels.response(&scores);
                if let Some(t) = trace.as_mut() {
                    t.record(Stage::Serialize, serialize_start, Instant::now());
                }
                parts
            }
            JobOutcome::Unscorable(e) => ResponseParts::json(422, error_body(&e.to_string(), Some(e.request_index))),
            JobOutcome::Panicked => ResponseParts::json(
                500,
                error_body("scoring batch panicked; the request was not scored", None),
            ),
            JobOutcome::Expired => {
                ResponseParts::json(504, error_body("deadline expired before scoring started", None))
            }
            JobOutcome::Stalled => ResponseParts::json(500, error_body("scoring pipeline stalled", None)),
        };
        self.queue_response(&mut conn, parts, trace, Some(meta));
        self.drive(conn);
    }

    /// Re-drives every connection whose timer passed (lifetime caps,
    /// read and write budgets, injected-stall expiries — [`Conn::advance`]
    /// applies them), then runs the reply watchdog: a job still unscored
    /// [`SCORE_REPLY_TIMEOUT`] after admission leaves the queue (or the
    /// held stall batch) and is answered 500 in the same step, so no late
    /// outcome can ever reach the next request its connection parks.
    fn run_timers(&mut self) {
        let now = Instant::now();
        let due: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.deadline().is_some_and(|at| now >= at))
            .map(|(token, _)| *token)
            .collect();
        for token in due {
            if let Some(conn) = self.conns.remove(&token) {
                self.drive(conn);
            }
        }
        let Some(cutoff) = now.checked_sub(SCORE_REPLY_TIMEOUT) else {
            return;
        };
        let mut late = Vec::new();
        if let Some((_, batch)) = &mut self.stalled {
            let expired = batch.iter().take_while(|job| job.admitted <= cutoff).count();
            late.extend(batch.drain(..expired));
            if batch.is_empty() {
                self.stalled = None;
            }
        }
        late.extend(self.queue.take_admitted_by(cutoff));
        for job in late {
            self.answer(job, JobOutcome::Stalled);
        }
    }

    /// Shutdown: close every connection that is not owed a response.
    fn close_reading_conns(&mut self) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.is_reading())
            .map(|(token, _)| *token)
            .collect();
        for token in idle {
            if let Some(conn) = self.conns.remove(&token) {
                self.discard(conn);
            }
        }
    }
}

/// The bounded-cardinality `route` label: known paths label as themselves,
/// everything else collapses into `other` so a path-scanning client cannot
/// blow up the registry.
fn route_label(path: &str) -> &'static str {
    match path {
        "/score" => "/score",
        "/healthz" => "/healthz",
        "/version" => "/version",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        "/reload" => "/reload",
        "/debug/traces" => "/debug/traces",
        "/admin/pause" => "/admin/pause",
        "/admin/resume" => "/admin/resume",
        _ => "other",
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct ErrorResponse {
    error: String,
    request_index: Option<usize>,
}

#[derive(Serialize)]
struct HealthResponse {
    status: String,
    model_version: u64,
    model_digest: String,
}

#[derive(Serialize)]
struct VersionResponse {
    model_version: u64,
    producer: String,
    format_version: u32,
    model_digest: String,
}

#[derive(Serialize)]
struct ReloadResponse {
    model_version: u64,
}

#[derive(Deserialize)]
struct ReloadRequest {
    path: String,
}

#[derive(Serialize)]
struct PausedResponse {
    paused: bool,
}

fn error_body(message: &str, request_index: Option<usize>) -> String {
    serde::json::to_string(&ErrorResponse {
        error: message.to_string(),
        request_index,
    })
}

/// Computes the response for every route a loop answers inline —
/// everything but `POST /score` (admitted and scored after the pass) and `POST /reload`
/// (offloaded to a worker thread), which the loop intercepts first.
fn inline_route(shared: &Shared, request: &Request) -> ResponseParts {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let snapshot = shared.executor.snapshot();
            ResponseParts::json(
                200,
                serde::json::to_string(&HealthResponse {
                    status: "ok".to_string(),
                    model_version: snapshot.version,
                    model_digest: snapshot.digest.clone(),
                }),
            )
        }
        ("GET", "/version") => {
            let snapshot = shared.executor.snapshot();
            ResponseParts::json(
                200,
                serde::json::to_string(&VersionResponse {
                    model_version: snapshot.version,
                    producer: snapshot.producer.clone(),
                    format_version: crate::artifact::FORMAT_VERSION,
                    model_digest: snapshot.digest.clone(),
                }),
            )
        }
        ("GET", "/stats") => ResponseParts::json(200, stats_body(shared)),
        ("GET", "/metrics") => metrics_parts(shared),
        // Every retained trace as Chrome trace-event JSON, loadable in
        // `chrome://tracing` or Perfetto. 404 when tracing is disabled.
        ("GET", "/debug/traces") => match shared.tracer() {
            None => ResponseParts::json(404, error_body("tracing is disabled for this server", None)),
            Some(tracer) => ResponseParts::json(200, tracer.chrome_trace_json()),
        },
        ("POST", "/admin/pause") => {
            shared.paused.store(true, Ordering::SeqCst);
            ResponseParts::json(200, serde::json::to_string(&PausedResponse { paused: true }))
        }
        ("POST", "/admin/resume") => {
            // Every loop scores its queue once it wakes; the one answering
            // this route would anyway, at the end of this pass.
            shared.paused.store(false, Ordering::SeqCst);
            shared.wake_all();
            ResponseParts::json(200, serde::json::to_string(&PausedResponse { paused: false }))
        }
        (
            _,
            "/score" | "/healthz" | "/version" | "/stats" | "/metrics" | "/reload" | "/debug/traces" | "/admin/pause"
            | "/admin/resume",
        ) => ResponseParts::json(405, error_body("method not allowed", None)),
        _ => ResponseParts::json(404, error_body(&format!("no route for {}", request.path), None)),
    }
}

/// Exposes `generation`'s own cache hit and miss counters as its
/// `version` series: they count on after a reload, and fold into `retired`
/// with the generation's final counts once it is released.
fn expose_cache_counters(metrics: &MetricsRegistry, generation: &VersionedExecutor, version: &str) {
    let (hits, misses) = generation.executor().cache_counters();
    metrics.cache_hits.adopt(&[("version", version)], hits);
    metrics.cache_misses.adopt(&[("version", version)], misses);
}

/// `GET /metrics`: refresh the scrape-time gauges (queue depth, model
/// version, the serving version's cache gauges), copy in the reload counts,
/// retire the series of versions no longer live, and render the registry
/// as Prometheus text.
fn metrics_parts(shared: &Shared) -> ResponseParts {
    if !shared.config.metrics_enabled {
        return ResponseParts::json(404, error_body("metrics are disabled for this server", None));
    }
    let snapshot = shared.executor.snapshot();
    let version = snapshot.version.to_string();
    let cache = snapshot.executor().cache_stats();
    let reloads = shared.executor.reload_stats();
    let metrics = &shared.metrics;
    metrics.queue_depth.set(shared.queued.load(Ordering::Relaxed) as f64);
    metrics.model_version.set(snapshot.version as f64);
    metrics.reloads.with(&[("outcome", "applied")]).store(reloads.applied);
    metrics.reloads.with(&[("outcome", "refused")]).store(reloads.refused);
    expose_cache_counters(metrics, &snapshot, &version);
    metrics
        .cache_hit_rate
        .with(&[("version", &version)])
        .set(cache.hit_rate());
    metrics
        .cache_entries
        .with(&[("version", &version)])
        .set(snapshot.executor().cache_entries() as f64);
    metrics.retire_versions(snapshot.version);
    ResponseParts {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: metrics.render(),
        headers: Vec::new(),
        model_version: None,
    }
}

/// How many slow-request exemplars `/stats` attaches.
const STATS_EXEMPLARS: usize = 5;

/// The `/stats` body: the [`ServerStats`] counters plus (when tracing is on)
/// `slow_exemplars` — the slowest retained traces with their per-stage
/// breakdown, each annotated with the `er_serve_score_duration_seconds`
/// bucket (`bucket_le`, Prometheus `le` format) its total latency falls
/// into, so a histogram tail bucket can be traced back to concrete requests.
fn stats_body(shared: &Shared) -> String {
    let stats = stats_from_registry(&shared.metrics);
    let mut value = serde::to_value(&stats);
    if let Some(tracer) = shared.tracer() {
        let bounds = crate::metrics::latency_bounds();
        let exemplars: Vec<serde::Value> = tracer
            .slow_exemplars(STATS_EXEMPLARS)
            .into_iter()
            .map(|exemplar| {
                let total_secs = exemplar.total_us as f64 / 1e6;
                let le = bounds
                    .iter()
                    .find(|b| total_secs < **b)
                    .map(|b| format!("{b}"))
                    .unwrap_or_else(|| "+Inf".to_string());
                let mut entry = serde::to_value(&exemplar);
                if let serde::Value::Map(entries) = &mut entry {
                    entries.push(("bucket_le".to_string(), serde::Value::Str(le)));
                }
                entry
            })
            .collect();
        if let serde::Value::Map(entries) = &mut value {
            entries.push(("slow_exemplars".to_string(), serde::Value::Seq(exemplars)));
        }
    }
    serde::json::to_string(&value)
}

// ---------------------------------------------------------------------------
// Minimal blocking client (tests, benches, smoke tiers)
// ---------------------------------------------------------------------------

/// A parsed HTTP response from [`http_roundtrip`].
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one HTTP/1.1 request over an existing connection and reads the
/// response (Content-Length framed). This is the raw-socket client the
/// tests and perfbench drive the server with — deliberately minimal, not a
/// general HTTP client.
pub fn http_roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    http_roundtrip_with_headers(stream, method, path, body, &[])
}

/// [`http_roundtrip`] with extra request headers (e.g. `X-Client-Id`, the
/// rate limiter's client key).
pub fn http_roundtrip_with_headers(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> io::Result<HttpResponse> {
    let mut request = Vec::new();
    let fixed = [("Host", "er-serve"), ("Content-Type", "application/json")];
    http::write_message(
        &mut request,
        StartLine::Request { method, target: path },
        fixed.into_iter().chain(headers.iter().copied()),
        body.unwrap_or("").as_bytes(),
    );
    stream.write_all(&request)?;
    read_http_response(stream)
}

/// Reads one Content-Length-framed HTTP/1.1 response off the stream. Split
/// out from [`http_roundtrip`] so pipelined callers can write several
/// requests first and collect the responses afterwards: bytes are peeked
/// and consumed only up to the end of this response, so the next response
/// stays in the socket for the next call.
pub fn read_http_response(stream: &mut TcpStream) -> io::Result<HttpResponse> {
    let mut buffer = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        let peeked = match stream.peek(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let consumed = buffer.len();
        buffer.extend_from_slice(&chunk[..peeked]);
        if let Progress::Complete(response, len) = http::parse_response(&buffer, usize::MAX)? {
            stream.read_exact(&mut chunk[..len - consumed])?;
            let body = String::from_utf8(response.body)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not UTF-8"))?;
            return Ok(HttpResponse {
                status: response.status,
                headers: response.headers,
                body,
            });
        }
        // Everything peeked belongs to this still-incomplete response.
        stream.read_exact(&mut chunk[..peeked])?;
    }
}

/// Capped-exponential-backoff retry policy for [`http_roundtrip_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first — `1` disables retries.
    pub max_attempts: u32,
    /// Backoff cap before the first retry, in milliseconds; doubles per
    /// attempt up to [`Self::max_backoff_ms`].
    pub base_backoff_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The wait before retrying after failed attempt `attempt` (0-based):
    /// capped exponential with deterministic jitter in `[cap/2, cap]`, where
    /// `cap = min(base_backoff_ms << attempt, max_backoff_ms)`. Jittering
    /// within a halved floor keeps waits bounded both ways — short enough to
    /// make progress, spread enough that a herd of clients does not retry in
    /// lockstep.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let cap = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(32))
            .min(self.max_backoff_ms)
            .max(1);
        let floor = cap / 2;
        floor + jitter_hash(self.seed, attempt as u64) % (cap - floor + 1)
    }
}

/// splitmix64 finalizer over (seed, attempt) — the jitter source behind
/// [`RetryPolicy::backoff_ms`], deterministic per seed so tests and chaos
/// replays can assert exact waits.
fn jitter_hash(seed: u64, attempt: u64) -> u64 {
    let mut z = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a response status is worth retrying: backpressure (429), a
/// panic-isolated batch (500 — scoring is pure, so a retry is safe), or an
/// unavailable server (503, draining or at the connection cap). 504 is
/// deliberately not here: the request's own deadline expired, and retrying
/// cannot recover the budget.
fn retryable_status(status: u16) -> bool {
    matches!(status, 429 | 500 | 503)
}

/// A full client loop over [`http_roundtrip_with_headers`]: reconnects per
/// attempt and retries transport errors and retryable statuses (429, 500,
/// 503) under `policy`, honoring a server-sent
/// `Retry-After` when it exceeds the computed backoff. Returns the final
/// response plus the number of attempts made, so harnesses can attest retry
/// behavior; the last response (even a retryable one) is returned once
/// attempts are exhausted.
pub fn http_roundtrip_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
    policy: &RetryPolicy,
) -> io::Result<(HttpResponse, u32)> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        let result = TcpStream::connect(addr).and_then(|mut stream| {
            let _ = stream.set_nodelay(true);
            http_roundtrip_with_headers(&mut stream, method, path, body, headers)
        });
        let last = attempt + 1 == attempts;
        match result {
            Ok(response) if retryable_status(response.status) && !last => {
                let retry_after_ms = response
                    .header("retry-after")
                    .and_then(|v| v.parse::<f64>().ok())
                    .map(|secs| (secs * 1_000.0).ceil() as u64)
                    .unwrap_or(0);
                let wait = policy.backoff_ms(attempt).max(retry_after_ms);
                std::thread::sleep(Duration::from_millis(wait));
            }
            Ok(response) => return Ok((response, attempt + 1)),
            Err(e) if !last => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt)));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
}

/// Parses the `{"model_version": v, "scores": [..]}` body of a successful
/// `POST /score` response.
pub fn parse_score_response(body: &str) -> Result<(u64, Vec<f64>), serde::Error> {
    #[derive(Deserialize)]
    struct Wire {
        model_version: u64,
        scores: Vec<f64>,
    }
    let wire: Wire = serde::json::from_str(body)?;
    Ok((wire.model_version, wire.scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScoringEngine;
    use crate::executor::ServeConfig;
    use er_base::Label;
    use er_rulegen::{CmpOp, Condition, Rule};
    use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};

    fn model(weight0: f64) -> LearnRiskModel {
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
        let mut m = LearnRiskModel::new(fs, RiskModelConfig::default());
        m.rule_weights = vec![weight0, 0.7];
        m
    }

    fn start_server(queue_capacity: usize) -> (ScoreServer, Arc<ReloadableExecutor>) {
        start_server_with(ServerConfig {
            queue_capacity,
            ..ServerConfig::default()
        })
    }

    fn start_server_with(config: ServerConfig) -> (ScoreServer, Arc<ReloadableExecutor>) {
        start_server_on(2, config)
    }

    /// A server with `threads` scoring lanes, hence `threads` readiness
    /// loops.
    fn start_server_on(threads: usize, config: ServerConfig) -> (ScoreServer, Arc<ReloadableExecutor>) {
        let executor = Arc::new(ReloadableExecutor::new(
            ScoringEngine::new(model(1.3)),
            ServeConfig {
                threads,
                cache_capacity: 64,
            },
        ));
        let server = ScoreServer::start(Arc::clone(&executor), config).expect("bind ephemeral port");
        (server, executor)
    }

    fn connect(server: &ScoreServer) -> TcpStream {
        TcpStream::connect(server.local_addr()).expect("connect")
    }

    fn request(pair_id: u64, x: f64) -> ScoreRequest {
        ScoreRequest {
            pair_id,
            metric_row: vec![x, 1.0 - x],
            classifier_output: x,
            machine_says_match: x >= 0.5,
        }
    }

    fn request_json(pair_id: u64, x: f64) -> String {
        serde::json::to_string(&request(pair_id, x))
    }

    /// Asserts a 200 `/score` answer carries `executor`'s score for
    /// `request(pair_id, x)` bit for bit.
    fn assert_scored_bit_exactly(response: &HttpResponse, executor: &ReloadableExecutor, pair_id: u64, x: f64) {
        assert_eq!(response.status, 200, "{}", response.body);
        let (_, scores) = parse_score_response(&response.body).expect("score body");
        let expected = executor.snapshot().executor().score_batch(&[request(pair_id, x)]);
        assert_eq!(
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            [expected[0].to_bits()]
        );
    }

    #[test]
    fn health_version_and_stats_respond() {
        let (server, _executor) = start_server(16);
        let mut stream = connect(&server);
        let health = http_roundtrip(&mut stream, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"ok\""), "{}", health.body);
        let version = http_roundtrip(&mut stream, "GET", "/version", None).expect("version");
        assert_eq!(version.status, 200);
        assert!(version.body.contains("\"model_version\":1"), "{}", version.body);
        let stats = http_roundtrip(&mut stream, "GET", "/stats", None).expect("stats");
        assert_eq!(stats.status, 200);
        let parsed: ServerStats = serde::json::from_str(&stats.body).expect("stats body");
        assert_eq!(parsed.responses_2xx, 2, "healthz + version preceded the stats call");
    }

    #[test]
    fn scores_over_the_socket_match_in_process_bit_for_bit() {
        let (server, executor) = start_server(16);
        let requests: Vec<ScoreRequest> = (0..20)
            .map(|i| {
                let x = (i as f64 * 0.37).fract();
                ScoreRequest {
                    pair_id: i,
                    metric_row: vec![x, 1.0 - x],
                    classifier_output: x,
                    machine_says_match: x >= 0.5,
                }
            })
            .collect();
        let expected = executor.snapshot().executor().score_batch(&requests);
        let mut stream = connect(&server);
        // Single-object form.
        let single = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(0, 0.0))).expect("score");
        assert_eq!(single.status, 200, "{}", single.body);
        let (version, scores) = parse_score_response(&single.body).expect("body");
        assert_eq!(version, 1);
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].to_bits(), expected[0].to_bits());
        assert_eq!(single.header("x-model-version"), Some("1"));
        // Array form, coalesced through the same micro-batching path.
        let body = serde::json::to_string(&requests);
        let batch = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("score batch");
        assert_eq!(batch.status, 200, "{}", batch.body);
        let (_, scores) = parse_score_response(&batch.body).expect("body");
        let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        let expected_bits: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, expected_bits);
    }

    #[test]
    fn malformed_requests_get_deterministic_error_bodies_not_dropped_connections() {
        let (server, _executor) = start_server(16);
        let mut stream = connect(&server);
        // Unparseable JSON → 400 with an error body.
        let bad_json = http_roundtrip(&mut stream, "POST", "/score", Some("{not json")).expect("response");
        assert_eq!(bad_json.status, 400);
        assert!(bad_json.body.contains("\"error\""), "{}", bad_json.body);
        // Parseable but unscorable (short metric row) → 422 with the index.
        let short_row =
            r#"[{"pair_id": 0, "metric_row": [0.5], "classifier_output": 0.5, "machine_says_match": true}]"#;
        let unscorable = http_roundtrip(&mut stream, "POST", "/score", Some(short_row)).expect("response");
        assert_eq!(unscorable.status, 422, "{}", unscorable.body);
        assert!(unscorable.body.contains("\"request_index\":0"), "{}", unscorable.body);
        // The same connection still serves well-formed traffic.
        let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(1, 0.4))).expect("response");
        assert_eq!(ok.status, 200, "{}", ok.body);
        // Unknown route and wrong method are 404/405, not hangs.
        assert_eq!(
            http_roundtrip(&mut stream, "GET", "/nope", None).expect("404").status,
            404
        );
        assert_eq!(
            http_roundtrip(&mut stream, "GET", "/score", None).expect("405").status,
            405
        );
    }

    #[test]
    fn nan_classifier_outputs_get_a_422_not_a_batch_panic() {
        let (server, _executor) = start_server(16);
        let mut stream = connect(&server);
        let body = format!(
            r#"[{}, {{"pair_id": 7, "metric_row": [0.5, 0.5], "classifier_output": NaN, "machine_says_match": true}}]"#,
            request_json(6, 0.4)
        );
        let nan = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("response");
        assert_eq!(nan.status, 422, "{}", nan.body);
        assert!(nan.body.contains("\"request_index\":1"), "{}", nan.body);
        assert!(nan.body.contains("classifier_output is NaN"), "{}", nan.body);
        // No scoring worker panicked, and the same connection keeps serving.
        let rendered = server.metrics().render();
        let panics: f64 = rendered
            .lines()
            .filter(|line| line.starts_with("er_serve_worker_panics_total{"))
            .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
            .sum();
        assert_eq!(panics, 0.0, "{rendered}");
        let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(8, 0.4))).expect("response");
        assert_eq!(ok.status, 200, "{}", ok.body);
        server.shutdown();
    }

    #[test]
    fn full_queue_backpressure_is_429_and_recovers() {
        let (server, _executor) = start_server(2);
        server.pause_intake();
        // Two in-flight jobs fill the paused queue; they are issued from
        // their own connections.
        let addr = server.local_addr();
        let blocked: Vec<std::thread::JoinHandle<u16>> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(i, 0.3)))
                        .expect("eventually scored")
                        .status
                })
            })
            .collect();
        // Wait until both jobs are admitted.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.queued_jobs() < 2 {
            assert!(Instant::now() < deadline, "jobs were not admitted in time");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The next request must bounce with a deterministic 429.
        let mut stream = connect(&server);
        let rejected = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(9, 0.6))).expect("response");
        assert_eq!(rejected.status, 429, "{}", rejected.body);
        assert_eq!(rejected.header("retry-after"), Some("0"));
        assert!(rejected.body.contains("admission queue full"), "{}", rejected.body);
        // Queue-full 429s never carry rate-limit headers — that is the
        // disambiguation clients rely on.
        assert_eq!(rejected.header("x-ratelimit-limit"), None);
        assert_eq!(rejected.header("x-ratelimit-remaining"), None);
        // Resume: the blocked jobs complete and fresh traffic flows again.
        server.resume_intake();
        for handle in blocked {
            assert_eq!(handle.join().expect("client thread"), 200);
        }
        let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(9, 0.6))).expect("response");
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert_eq!(server.stats().responses_429, 1);
    }

    #[test]
    fn reload_over_http_swaps_the_version_and_refuses_garbage() {
        let (server, executor) = start_server(16);
        let dir = std::env::temp_dir().join("er-serve-server-reload-test");
        let path = dir.join("v2.json");
        crate::artifact::ModelArtifact::new(model(2.6))
            .save(&path)
            .expect("save");
        let mut stream = connect(&server);

        let body = format!("{{\"path\": {:?}}}", path.display().to_string());
        let reloaded = http_roundtrip(&mut stream, "POST", "/reload", Some(&body)).expect("reload");
        assert_eq!(reloaded.status, 200, "{}", reloaded.body);
        assert!(reloaded.body.contains("\"model_version\":2"), "{}", reloaded.body);
        assert_eq!(executor.version(), 2);

        // Scores now come from the new model, tagged with the new version.
        let scored = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(0, 0.8))).expect("score");
        let (version, scores) = parse_score_response(&scored.body).expect("body");
        assert_eq!(version, 2);
        let expected = ScoringEngine::new(model(2.6)).score_batch(&[ScoreRequest {
            pair_id: 0,
            metric_row: vec![0.8, 0.2],
            classifier_output: 0.8,
            machine_says_match: true,
        }]);
        assert_eq!(scores[0].to_bits(), expected[0].to_bits());

        // A missing artifact is refused with 409 and the version stays.
        let missing = format!("{{\"path\": {:?}}}", dir.join("nope.json").display().to_string());
        let refused = http_roundtrip(&mut stream, "POST", "/reload", Some(&missing)).expect("response");
        assert_eq!(refused.status, 409, "{}", refused.body);
        assert_eq!(executor.version(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_endpoint_renders_and_agrees_with_stats() {
        let (server, _executor) = start_server(16);
        let mut stream = connect(&server);
        for i in 0..3u64 {
            let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(i, 0.4))).expect("score");
            assert_eq!(ok.status, 200, "{}", ok.body);
        }
        let scraped = http_roundtrip(&mut stream, "GET", "/metrics", None).expect("metrics");
        assert_eq!(scraped.status, 200);
        assert!(
            scraped
                .header("content-type")
                .is_some_and(|ct| ct.starts_with("text/plain")),
            "{:?}",
            scraped.headers
        );
        let samples = crate::metrics::parse_exposition(&scraped.body).expect("exposition parses");
        let sum_of = |name: &str| -> f64 { samples.iter().filter(|s| s.name == name).map(|s| s.value).sum() };
        // Every scored request is counted under the version that scored it.
        assert_eq!(sum_of("er_serve_score_requests_total"), 3.0);
        assert_eq!(sum_of("er_serve_model_version"), 1.0);
        assert_eq!(sum_of("er_serve_request_duration_seconds_count"), 3.0);
        // The /stats counters are the same registry, classified by status
        // class: 3 scores + the /metrics scrape itself.
        let stats = server.stats();
        assert_eq!(stats.responses_2xx, 4, "{stats:?}");
        assert_eq!(stats.responses_4xx + stats.responses_429 + stats.responses_5xx, 0);
        // The exposition's own responses_total agrees with what /stats saw
        // at scrape time (the scrape response is recorded after rendering).
        assert_eq!(sum_of("er_serve_responses_total"), 3.0);
        // Batching evidence flows through the same registry.
        assert_eq!(stats.batched_requests, 3);
        assert!(stats.batches >= 1 && stats.batches <= 3, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn disabled_metrics_turn_off_the_endpoint_and_freeze_stats() {
        let (server, executor) = start_server_with(ServerConfig {
            metrics_enabled: false,
            ..ServerConfig::default()
        });
        let mut stream = connect(&server);
        let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(0, 0.4))).expect("score");
        assert_scored_bit_exactly(&ok, &executor, 0, 0.4);
        let scraped = http_roundtrip(&mut stream, "GET", "/metrics", None).expect("response");
        assert_eq!(scraped.status, 404, "{}", scraped.body);
        let stats = server.stats();
        assert_eq!(stats.responses_2xx, 0, "no observations when disabled: {stats:?}");
        server.shutdown();
    }

    #[test]
    fn rate_limited_client_gets_429_with_headers_while_others_flow() {
        let (server, _executor) = start_server_with(ServerConfig {
            // Burst of 2 with a negligible refill: the third request from
            // the same client must bounce for the rest of the test.
            rate_limit: Some(RateLimitConfig::new(0.001, 2.0)),
            ..ServerConfig::default()
        });
        let mut stream = connect(&server);
        let a = [("X-Client-Id", "client-a")];
        for i in 0..2u64 {
            let ok = http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&request_json(i, 0.4)), &a)
                .expect("score");
            assert_eq!(ok.status, 200, "{}", ok.body);
        }
        let limited = http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&request_json(2, 0.4)), &a)
            .expect("response");
        assert_eq!(limited.status, 429, "{}", limited.body);
        assert_eq!(limited.header("x-ratelimit-limit"), Some("2"));
        assert_eq!(limited.header("x-ratelimit-remaining"), Some("0"));
        assert!(limited.header("x-ratelimit-reset").is_some());
        assert!(
            limited.header("retry-after").is_some_and(|v| v != "0"),
            "rate-limit Retry-After must be a real backoff, got {:?}",
            limited.header("retry-after")
        );
        assert!(limited.body.contains("rate limit"), "{}", limited.body);
        // A different client on the SAME connection (same peer IP) has its
        // own untouched bucket.
        let b = [("X-Client-Id", "client-b")];
        let ok =
            http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&request_json(3, 0.4)), &b).expect("score");
        assert_eq!(ok.status, 200, "{}", ok.body);
        // The registry saw exactly one token-bucket rejection and no
        // queue-full rejection.
        assert_eq!(server.metrics().rejected.with(&[("cause", "rate_limited")]).get(), 1);
        assert_eq!(server.metrics().rejected.with(&[("cause", "queue_full")]).get(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_does_not_hang_on_a_half_received_request() {
        let (server, _executor) = start_server(8);
        let mut stream = connect(&server);
        // A request head fragment with no terminating blank line: the
        // handler buffers it and keeps polling for the rest. Shutdown must
        // still close the connection and return instead of joining forever.
        stream
            .write_all(b"POST /score HTTP/1.1\r\nContent-Length: 10\r\n")
            .expect("send partial head");
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let (server, _executor) = start_server(8);
        let mut stream = connect(&server);
        let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(0, 0.2))).expect("score");
        assert_eq!(ok.status, 200);
        server.shutdown();
        // The connection is gone after shutdown; a fresh request fails to
        // connect or errors out rather than hanging.
        assert!(http_roundtrip(&mut stream, "GET", "/healthz", None).is_err());
    }

    #[test]
    fn request_ids_are_accepted_generated_and_echoed_on_every_response() {
        let (server, _executor) = start_server(16);
        let mut stream = connect(&server);
        // A well-formed client id is adopted verbatim.
        let supplied = [("X-Request-Id", "client.trace-42_A")];
        let ok = http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&request_json(0, 0.4)), &supplied)
            .expect("score");
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert_eq!(ok.header("x-request-id"), Some("client.trace-42_A"));
        // No client id: the server mints one with its own prefix.
        let minted = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(1, 0.4))).expect("score");
        assert_eq!(minted.status, 200, "{}", minted.body);
        let minted_id = minted.header("x-request-id").expect("generated id");
        assert!(minted_id.starts_with("er-"), "generated id, got {minted_id:?}");
        // A malformed client id (characters outside [A-Za-z0-9._-]) is
        // replaced, never reflected back.
        let hostile = [("X-Request-Id", "evil id\"<script>")];
        let replaced =
            http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&request_json(2, 0.4)), &hostile)
                .expect("score");
        assert_eq!(replaced.status, 200, "{}", replaced.body);
        let replaced_id = replaced.header("x-request-id").expect("replacement id");
        assert!(replaced_id.starts_with("er-"), "sanitized id, got {replaced_id:?}");
        // Error responses carry the id too: a parse failure still echoes the
        // client's id so the 400 is attributable in both parties' logs.
        let err =
            http_roundtrip_with_headers(&mut stream, "POST", "/score", Some("{not json"), &supplied).expect("response");
        assert_eq!(err.status, 400, "{}", err.body);
        assert_eq!(err.header("x-request-id"), Some("client.trace-42_A"));
        // Non-score routes and 404s echo as well.
        let missing = http_roundtrip_with_headers(&mut stream, "GET", "/nope", None, &supplied).expect("response");
        assert_eq!(missing.status, 404);
        assert_eq!(missing.header("x-request-id"), Some("client.trace-42_A"));
        server.shutdown();
    }

    #[test]
    fn debug_traces_exports_chrome_trace_json() {
        let (server, _executor) = start_server(16);
        let mut stream = connect(&server);
        let supplied = [("X-Request-Id", "traced-req-7")];
        for i in 0..3u64 {
            let ok = http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&request_json(i, 0.3)), &supplied)
                .expect("score");
            assert_eq!(ok.status, 200, "{}", ok.body);
        }
        let traces = http_roundtrip(&mut stream, "GET", "/debug/traces", None).expect("traces");
        assert_eq!(traces.status, 200, "{}", traces.body);
        let doc = serde::json::parse(&traces.body).expect("chrome trace JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_seq())
            .expect("traceEvents array");
        assert!(!events.is_empty(), "three traced requests retained");
        let mut stages_seen = std::collections::BTreeSet::new();
        for event in events {
            let event = event.as_map().expect("event object");
            let field = |k: &str| {
                event
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("missing {k}"))
            };
            assert_eq!(field("ph").as_str(), Some("X"), "complete events");
            assert!(matches!(field("ts"), serde::Value::UInt(_)));
            assert!(matches!(field("dur"), serde::Value::UInt(_)));
            stages_seen.insert(field("name").as_str().expect("stage name").to_string());
        }
        for stage in ["parse", "score", "serialize", "write"] {
            assert!(stages_seen.contains(stage), "missing {stage} in {stages_seen:?}");
        }
        // The supplied request id is the trace id in the export.
        assert!(traces.body.contains("traced-req-7"), "{}", traces.body);
        // committed_total counts every traced request.
        let committed = doc
            .get("otherData")
            .and_then(|v| v.get("committed_total"))
            .expect("otherData.committed_total");
        assert_eq!(committed, &serde::Value::UInt(3));
        server.shutdown();
    }

    #[test]
    fn trace_capacity_zero_disables_the_endpoint_and_stats_exemplars() {
        let (server, executor) = start_server_with(ServerConfig {
            trace_capacity: 0,
            ..ServerConfig::default()
        });
        let mut stream = connect(&server);
        let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(0, 0.6))).expect("score");
        assert_scored_bit_exactly(&ok, &executor, 0, 0.6);
        // Request ids still flow when tracing is off.
        assert!(ok.header("x-request-id").is_some());
        let traces = http_roundtrip(&mut stream, "GET", "/debug/traces", None).expect("response");
        assert_eq!(traces.status, 404, "{}", traces.body);
        let stats = http_roundtrip(&mut stream, "GET", "/stats", None).expect("stats");
        assert!(!stats.body.contains("slow_exemplars"), "{}", stats.body);
        server.shutdown();
    }

    #[test]
    fn stats_carry_slow_request_exemplars_with_histogram_buckets() {
        let (server, _executor) = start_server(16);
        let mut stream = connect(&server);
        for i in 0..4u64 {
            let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(i, 0.8))).expect("score");
            assert_eq!(ok.status, 200, "{}", ok.body);
        }
        let stats = http_roundtrip(&mut stream, "GET", "/stats", None).expect("stats");
        assert_eq!(stats.status, 200);
        let doc = serde::json::parse(&stats.body).expect("stats JSON");
        let exemplars = doc
            .get("slow_exemplars")
            .and_then(|v| v.as_seq())
            .expect("slow_exemplars array");
        assert!(!exemplars.is_empty() && exemplars.len() <= STATS_EXEMPLARS);
        let slowest = &exemplars[0];
        let total_us = match slowest.get("total_us").expect("total_us") {
            serde::Value::UInt(us) => *us,
            other => panic!("total_us should be an integer, got {other:?}"),
        };
        // Exemplars are sorted slowest-first and each maps into a histogram
        // bucket in Prometheus `le` format.
        for pair in exemplars.windows(2) {
            let next = match pair[1].get("total_us").expect("total_us") {
                serde::Value::UInt(us) => *us,
                other => panic!("total_us should be an integer, got {other:?}"),
            };
            let prev = match pair[0].get("total_us").expect("total_us") {
                serde::Value::UInt(us) => *us,
                other => panic!("total_us should be an integer, got {other:?}"),
            };
            assert!(prev >= next, "exemplars sorted slowest-first");
        }
        let le = slowest.get("bucket_le").and_then(|v| v.as_str()).expect("bucket_le");
        if le != "+Inf" {
            let bound: f64 = le.parse().expect("bucket_le parses as a bound");
            assert!(
                total_us as f64 / 1e6 <= bound,
                "{total_us}us must fall within its le={le} bucket"
            );
        }
        let stages = slowest.get("stages").and_then(|v| v.as_seq()).expect("stages");
        assert!(!stages.is_empty(), "per-stage breakdown present");
        server.shutdown();
    }

    #[test]
    fn injected_batcher_panic_is_contained_and_the_server_recovers() {
        let plan = Arc::new(FaultPlan::parse("batcher_panic@0").expect("plan"));
        let (server, executor) = start_server_with(ServerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        });
        let request = ScoreRequest {
            pair_id: 1,
            metric_row: vec![0.4, 0.6],
            classifier_output: 0.4,
            machine_says_match: false,
        };
        let mut stream = connect(&server);
        // The first batch panics; the rider gets a deterministic 500 over
        // the same (still healthy) connection.
        let first = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(1, 0.4))).expect("first");
        assert_eq!(first.status, 500, "{}", first.body);
        assert!(first.body.contains("panicked"), "{}", first.body);
        // The very next batch scores normally — and bit-exactly.
        let second = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(1, 0.4))).expect("second");
        assert_eq!(second.status, 200, "{}", second.body);
        let (_, scores) = parse_score_response(&second.body).expect("score body");
        let expected = executor
            .snapshot()
            .executor()
            .score_batch(std::slice::from_ref(&request));
        assert_eq!(scores[0].to_bits(), expected[0].to_bits());
        assert_eq!(plan.fired(FaultKind::BatcherPanic), 1);
        let rendered = server.metrics().render();
        assert!(
            rendered.contains("er_serve_worker_panics_total{role=\"batcher\"} 1"),
            "{rendered}"
        );
        server.shutdown();
    }

    /// The sum of the scraped samples named `name` whose `key` label is
    /// `value`.
    fn scraped(stream: &mut TcpStream, name: &str, key: &str, value: &str) -> f64 {
        let scrape = http_roundtrip(stream, "GET", "/metrics", None).expect("scrape");
        assert_eq!(scrape.status, 200, "{}", scrape.body);
        crate::metrics::parse_exposition(&scrape.body)
            .expect("exposition parses")
            .iter()
            .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == value))
            .map(|s| s.value)
            .sum()
    }

    #[test]
    fn shard_restarts_during_the_per_job_rescore_are_counted() {
        // Two jobs coalesce behind paused intake on a one-loop server; one
        // is unscorable, so the batch fails and each job is re-scored on its
        // own. Occurrence 0 of the fault point is the coalesced call;
        // occurrence 1 is the first per-job call, whose chunk panics and is
        // re-scored.
        let plan = Arc::new(FaultPlan::parse("shard_worker_panic@1").expect("plan"));
        let (server, executor) = start_server_on(
            1,
            ServerConfig {
                fault_plan: Some(Arc::clone(&plan)),
                ..ServerConfig::default()
            },
        );
        server.pause_intake();
        let addr = server.local_addr();
        let short_row =
            r#"{"pair_id": 5, "metric_row": [0.5], "classifier_output": 0.5, "machine_says_match": true}"#.to_string();
        let clients: Vec<_> = [request_json(4, 0.3), short_row]
            .into_iter()
            .map(|body| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("response")
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.queued_jobs() < 2 {
            assert!(Instant::now() < deadline, "jobs were not admitted in time");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.resume_intake();
        let responses: Vec<HttpResponse> = clients.into_iter().map(|c| c.join().expect("client")).collect();
        assert_eq!(server.stats().batches, 1, "the two jobs coalesce into one batch");
        assert_eq!(responses[0].status, 200, "{}", responses[0].body);
        assert_eq!(responses[1].status, 422, "{}", responses[1].body);
        let (_, scores) = parse_score_response(&responses[0].body).expect("body");
        let expected = executor.snapshot().executor().score_batch(&[ScoreRequest {
            pair_id: 4,
            metric_row: vec![0.3, 0.7],
            classifier_output: 0.3,
            machine_says_match: false,
        }]);
        assert_eq!(scores[0].to_bits(), expected[0].to_bits());
        assert_eq!(plan.fired(FaultKind::ShardWorkerPanic), 1);
        let mut stream = connect(&server);
        assert_eq!(
            scraped(&mut stream, "er_serve_worker_panics_total", "role", "shard"),
            1.0
        );
        server.shutdown();
    }

    #[test]
    fn in_process_and_http_reloads_both_reach_the_scraped_reload_counts() {
        let (server, _executor) = start_server(16);
        let dir = std::env::temp_dir().join(format!("er-serve-reload-counts-{}", std::process::id()));
        let path = dir.join("v2.json");
        crate::artifact::ModelArtifact::new(model(2.6))
            .save(&path)
            .expect("save");
        assert_eq!(server.executor().reload_from_path(&path, &[]).expect("in-process"), 2);
        let mut stream = connect(&server);
        let body = format!("{{\"path\": {:?}}}", path.display().to_string());
        let applied = http_roundtrip(&mut stream, "POST", "/reload", Some(&body)).expect("reload");
        assert_eq!(applied.status, 200, "{}", applied.body);
        let missing = format!("{{\"path\": {:?}}}", dir.join("nope.json").display().to_string());
        let refused = http_roundtrip(&mut stream, "POST", "/reload", Some(&missing)).expect("reload");
        assert_eq!(refused.status, 409, "{}", refused.body);
        assert_eq!(
            scraped(&mut stream, "er_serve_reloads_total", "outcome", "applied"),
            2.0
        );
        assert_eq!(
            scraped(&mut stream, "er_serve_reloads_total", "outcome", "refused"),
            1.0
        );
        let scrape = http_roundtrip(&mut stream, "GET", "/metrics", None).expect("scrape");
        assert!(scrape.body.contains("er_serve_model_version 3"), "{}", scrape.body);
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    /// Reloads over `stream` to the artifact at `path`, asserting success.
    fn reload_over(stream: &mut TcpStream, path: &std::path::Path) {
        let body = format!("{{\"path\": {:?}}}", path.display().to_string());
        let reloaded = http_roundtrip(stream, "POST", "/reload", Some(&body)).expect("reload");
        assert_eq!(reloaded.status, 200, "{}", reloaded.body);
    }

    /// Scores the pairs `ids` as one array over `stream`, asserting a 200.
    fn score_array(stream: &mut TcpStream, ids: std::ops::Range<u64>) {
        let body = format!("[{}]", ids.map(|i| request_json(i, 0.4)).collect::<Vec<_>>().join(","));
        let scored = http_roundtrip(stream, "POST", "/score", Some(&body)).expect("score");
        assert_eq!(scored.status, 200, "{}", scored.body);
    }

    #[test]
    fn a_version_reloaded_away_unscraped_still_reports_its_cache_counts() {
        let (server, _executor) = start_server(16);
        let dir = std::env::temp_dir().join(format!("er-serve-unscraped-cache-{}", std::process::id()));
        let path = dir.join("v2.json");
        crate::artifact::ModelArtifact::new(model(2.6))
            .save(&path)
            .expect("save");
        let mut stream = connect(&server);
        score_array(&mut stream, 0..5);
        reload_over(&mut stream, &path);
        score_array(&mut stream, 0..3);
        // Every miss since boot is in the scrape: version 1's five, counted
        // before any scrape, and version 2's three.
        assert_eq!(scraped(&mut stream, "er_serve_cache_misses_total", "version", "1"), 5.0);
        assert_eq!(scraped(&mut stream, "er_serve_cache_misses_total", "version", "2"), 3.0);
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    #[test]
    fn reload_churn_keeps_the_version_series_bounded_and_their_sums_exact() {
        let (server, _executor) = start_server(16);
        let dir = std::env::temp_dir().join(format!("er-serve-reload-churn-{}", std::process::id()));
        let paths = [dir.join("a.json"), dir.join("b.json")];
        for (path, weight) in paths.iter().zip([2.6, 1.3]) {
            crate::artifact::ModelArtifact::new(model(weight))
                .save(path)
                .expect("save");
        }
        let mut stream = connect(&server);
        let scrape = |stream: &mut TcpStream| {
            let scrape = http_roundtrip(stream, "GET", "/metrics", None).expect("scrape");
            assert_eq!(scrape.status, 200, "{}", scrape.body);
            scrape.body
        };
        let mut lines_after_4 = 0;
        for reload in 1..=40u64 {
            reload_over(&mut stream, &paths[reload as usize % 2]);
            score_array(&mut stream, reload * 2..reload * 2 + 2);
            if reload == 4 {
                // The first scrape's own response is recorded after it
                // renders; the second sees every route this test uses.
                scrape(&mut stream);
                lines_after_4 = scrape(&mut stream).lines().count();
            }
        }
        let text = scrape(&mut stream);
        assert_eq!(
            text.lines().count(),
            lines_after_4,
            "the scrape grew with reloads:\n{text}"
        );
        let samples = crate::metrics::parse_exposition(&text).expect("exposition parses");
        let versioned = [
            "er_serve_score_requests_total",
            "er_serve_score_duration_seconds_count",
            "er_serve_cache_hits_total",
            "er_serve_cache_misses_total",
            "er_serve_cache_hit_rate",
            "er_serve_cache_entries",
        ];
        for name in versioned {
            let versions: HashSet<&str> = samples
                .iter()
                .filter(|s| s.name == name)
                .filter_map(|s| s.label("version"))
                .collect();
            assert!(versions.len() <= 3, "{name} holds {versions:?}");
            assert!(
                versions.iter().all(|v| ["41", "40", "retired"].contains(v)),
                "{name} holds {versions:?}"
            );
        }
        let sum_of = |name: &str| -> f64 { samples.iter().filter(|s| s.name == name).map(|s| s.value).sum() };
        // 40 arrays of two pairs each, all distinct pairs: exact sums.
        assert_eq!(sum_of("er_serve_score_requests_total"), 80.0);
        assert_eq!(sum_of("er_serve_score_duration_seconds_count"), 40.0);
        assert_eq!(sum_of("er_serve_cache_misses_total"), 80.0);
        assert_eq!(sum_of("er_serve_cache_hits_total"), 0.0);
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    #[test]
    fn a_connect_made_during_the_shutdown_drain_is_refused() {
        // The first response's flush is held for 1.5 s, which keeps the
        // drain open that long after shutdown begins.
        let plan = Arc::new(FaultPlan::parse("client_write_stall@0:1500ms").expect("plan"));
        let (server, _executor) = start_server_with(ServerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let held = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            http_roundtrip(&mut stream, "GET", "/healthz", None).expect("held response")
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while plan.fired(FaultKind::ClientWriteStall) == 0 {
            assert!(Instant::now() < deadline, "the write stall never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        let began = Instant::now();
        let shutdown = std::thread::spawn(move || server.shutdown());
        // Well inside the held flush, a fresh connect must be refused.
        let refused = loop {
            match TcpStream::connect(addr) {
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => break true,
                _ if began.elapsed() > Duration::from_millis(1000) => break false,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        assert!(refused, "a connect made during the drain was accepted");
        // The drain still delivers the held response.
        assert_eq!(held.join().expect("held client").status, 200);
        shutdown.join().expect("shutdown");
    }

    /// Live connections per readiness loop, as the listening loop placed
    /// them.
    fn live_per_loop(server: &ScoreServer) -> Vec<usize> {
        let lanes = &server.shared.lanes;
        lanes.iter().map(|lane| lane.live.load(Ordering::Relaxed)).collect()
    }

    /// Posts `body` to `/score` from a fresh connection on its own thread.
    fn score_from_thread(addr: SocketAddr, body: String) -> std::thread::JoinHandle<HttpResponse> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("response")
        })
    }

    fn wait_for_queued(server: &ScoreServer, jobs: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.queued_jobs() < jobs {
            assert!(Instant::now() < deadline, "jobs were not admitted in time");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_batch_stalled_on_one_loop_does_not_hold_another_loops_jobs() {
        let plan = Arc::new(FaultPlan::parse("score_stall@0:2000ms").expect("plan"));
        let (server, executor) = start_server_with(ServerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let sent = Instant::now();
        let stalled = score_from_thread(addr, request_json(1, 0.3));
        let deadline = Instant::now() + Duration::from_secs(5);
        while plan.fired(FaultKind::ScoreStall) == 0 {
            assert!(Instant::now() < deadline, "the stall never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The first connection holds the first loop; this one goes to the
        // second, whose queue nothing stalls.
        let mut stream = connect(&server);
        let asked = Instant::now();
        let answered = http_roundtrip(&mut stream, "POST", "/score", Some(&request_json(2, 0.7))).expect("score");
        let answered_in = asked.elapsed();
        assert_eq!(answered.status, 200, "{}", answered.body);
        assert_eq!(live_per_loop(&server), [1, 1]);
        assert!(
            answered_in < Duration::from_millis(500),
            "a /score on the other loop took {answered_in:?} behind a 2 s stall"
        );
        let held = stalled.join().expect("stalled client");
        assert_eq!(held.status, 200, "{}", held.body);
        assert!(
            sent.elapsed() >= Duration::from_millis(1900),
            "the stall must hold its batch"
        );
        let (_, scores) = parse_score_response(&held.body).expect("body");
        let expected = executor.snapshot().executor().score_batch(&[ScoreRequest {
            pair_id: 1,
            metric_row: vec![0.3, 0.7],
            classifier_output: 0.3,
            machine_says_match: false,
        }]);
        assert_eq!(scores[0].to_bits(), expected[0].to_bits());
        server.shutdown();
    }

    #[test]
    fn queue_and_connection_caps_hold_across_loops() {
        let (server, _executor) = start_server_with(ServerConfig {
            queue_capacity: 3,
            max_connections: 4,
            ..ServerConfig::default()
        });
        server.pause_intake();
        let addr = server.local_addr();
        let parked: Vec<_> = (0..3).map(|i| score_from_thread(addr, request_json(i, 0.4))).collect();
        wait_for_queued(&server, 3);
        assert_eq!(live_per_loop(&server), [2, 1], "connections spread over both loops");
        // The fourth connection lands on the second loop, whose own queue
        // holds one job: only the server-wide count is full.
        let mut fourth = connect(&server);
        let bounced = http_roundtrip(&mut fourth, "POST", "/score", Some(&request_json(3, 0.4))).expect("response");
        assert_eq!(live_per_loop(&server), [2, 2]);
        assert_eq!(bounced.status, 429, "{}", bounced.body);
        assert!(bounced.body.contains("admission queue full"), "{}", bounced.body);
        // The fifth connection is one past the server-wide cap, though each
        // loop holds only two.
        let mut fifth = connect(&server);
        let refused = read_http_response(&mut fifth).expect("refusal");
        assert_eq!(refused.status, 503, "{}", refused.body);
        assert!(refused.body.contains("capacity"), "{}", refused.body);
        server.resume_intake();
        for client in parked {
            let response = client.join().expect("client");
            assert_eq!(response.status, 200, "{}", response.body);
        }
        assert_eq!(server.queued_jobs(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_every_loop_and_refuses_new_connects() {
        // The first response's flush is held for 1.5 s, which keeps the
        // drain open that long after shutdown begins.
        let plan = Arc::new(FaultPlan::parse("client_write_stall@0:1500ms").expect("plan"));
        let (server, _executor) = start_server_with(ServerConfig {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        });
        server.pause_intake();
        let addr = server.local_addr();
        let parked: Vec<_> = (0..2).map(|i| score_from_thread(addr, request_json(i, 0.6))).collect();
        wait_for_queued(&server, 2);
        assert_eq!(live_per_loop(&server), [1, 1]);
        let metrics = Arc::clone(server.metrics());
        let began = Instant::now();
        let shutdown = std::thread::spawn(move || server.shutdown());
        let refused = loop {
            match TcpStream::connect(addr) {
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => break true,
                _ if began.elapsed() > Duration::from_millis(1000) => break false,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        assert!(refused, "a connect made during the drain was accepted");
        // Each loop scores the job it admitted, paused intake or not.
        for client in parked {
            let response = client.join().expect("client");
            assert_eq!(response.status, 200, "{}", response.body);
        }
        shutdown.join().expect("shutdown");
        assert_eq!(metrics.batches.get(), 2, "one batch per loop");
        assert_eq!(plan.fired(FaultKind::ClientWriteStall), 1);
    }

    #[test]
    fn a_reload_is_answered_on_its_own_loop_while_the_other_keeps_scoring() {
        let (server, _executor) = start_server(16);
        let dir = std::env::temp_dir().join(format!("er-serve-loop-reload-{}", std::process::id()));
        let path = dir.join("v2.json");
        crate::artifact::ModelArtifact::new(model(2.6))
            .save(&path)
            .expect("save");
        // The scoring connection goes to the listening loop, the reloading
        // one to the second loop.
        let mut scoring = connect(&server);
        let warm = http_roundtrip(&mut scoring, "POST", "/score", Some(&request_json(0, 0.8))).expect("score");
        assert_eq!(warm.status, 200, "{}", warm.body);
        let mut reloading = connect(&server);
        let health = http_roundtrip(&mut reloading, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200);
        assert_eq!(live_per_loop(&server), [1, 1]);
        // The scorer runs from before the reload until it reads the new
        // version, every answer a 200.
        let scored = Arc::new(AtomicUsize::new(0));
        let scorer = {
            let scored = Arc::clone(&scored);
            std::thread::spawn(move || {
                let began = Instant::now();
                let mut versions = Vec::new();
                while versions.last() != Some(&2) {
                    assert!(began.elapsed() < Duration::from_secs(5), "{versions:?}");
                    let body = request_json(versions.len() as u64, 0.8);
                    let response = http_roundtrip(&mut scoring, "POST", "/score", Some(&body)).expect("score");
                    assert_eq!(response.status, 200, "{}", response.body);
                    versions.push(parse_score_response(&response.body).expect("body").0);
                    scored.fetch_add(1, Ordering::SeqCst);
                }
                versions
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while scored.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the scorer never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        reloading
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let body = format!("{{\"path\": {:?}}}", path.display().to_string());
        let reloaded = http_roundtrip(&mut reloading, "POST", "/reload", Some(&body)).expect("reload answered");
        assert_eq!(reloaded.status, 200, "{}", reloaded.body);
        assert!(reloaded.body.contains("\"model_version\":2"), "{}", reloaded.body);
        let versions = scorer.join().expect("scorer");
        assert_eq!(versions.first(), Some(&1), "{versions:?}");
        assert!(versions.windows(2).all(|w| w[0] <= w[1]), "{versions:?}");
        std::fs::remove_dir_all(&dir).ok();
        server.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_with_504() {
        let (server, _executor) = start_server(16);
        server.pause_intake();
        let addr = server.local_addr();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            http_roundtrip_with_headers(
                &mut stream,
                "POST",
                "/score",
                Some(&request_json(3, 0.2)),
                &[("X-Deadline-Ms", "5")],
            )
            .expect("roundtrip")
        });
        // Let the 5ms budget expire while the job sits in the paused queue.
        std::thread::sleep(Duration::from_millis(100));
        server.resume_intake();
        let response = client.join().expect("client thread");
        assert_eq!(response.status, 504, "{}", response.body);
        assert!(response.body.contains("deadline"), "{}", response.body);
        assert!(
            server
                .metrics()
                .render()
                .contains("er_serve_rejected_total{cause=\"deadline\"} 1"),
            "deadline shed must be counted"
        );
        server.shutdown();
    }

    #[test]
    fn connection_cap_refuses_with_503_and_retry_after() {
        let (server, _executor) = start_server_with(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let mut held = connect(&server);
        let ok = http_roundtrip(&mut held, "GET", "/healthz", None).expect("held connection");
        assert_eq!(ok.status, 200);
        // The cap is reached: the next connection is answered 503 without
        // its request even being read.
        let mut refused_stream = connect(&server);
        let refused = read_http_response(&mut refused_stream).expect("refusal response");
        assert_eq!(refused.status, 503, "{}", refused.body);
        assert_eq!(refused.header("retry-after"), Some("1"));
        assert!(refused.body.contains("capacity"), "{}", refused.body);
        // Freeing the slot lets a retrying client back in.
        drop(held);
        let policy = RetryPolicy {
            max_attempts: 20,
            base_backoff_ms: 20,
            max_backoff_ms: 200,
            seed: 7,
        };
        let (recovered, attempts) =
            http_roundtrip_with_retry(server.local_addr(), "GET", "/healthz", None, &[], &policy).expect("recovered");
        assert_eq!(recovered.status, 200, "{}", recovered.body);
        assert!(attempts >= 1);
        assert!(
            server
                .metrics()
                .render()
                .contains("er_serve_rejected_total{cause=\"overloaded\"}"),
            "refusals must be counted"
        );
        server.shutdown();
    }

    #[test]
    fn at_most_max_connections_refusals_linger() {
        let (server, _executor) = start_server_with(ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        });
        let mut held: Vec<TcpStream> = (0..2).map(|_| connect(&server)).collect();
        for stream in &mut held {
            let ok = http_roundtrip(stream, "GET", "/healthz", None).expect("held connection");
            assert_eq!(ok.status, 200);
        }
        // Over-cap clients that read their 503 and its EOF but never close.
        let mut refused: Vec<TcpStream> = (0..5).map(|_| connect(&server)).collect();
        for stream in &mut refused {
            let response = read_http_response(stream).expect("refusal response");
            assert_eq!(response.status, 503, "{}", response.body);
            assert_eq!(stream.read(&mut [0u8; 16]).expect("end of the refusal"), 0);
        }
        // A lingering refusal discards what its peer sends; one closed at
        // once answers the first write with a reset, and the next fails.
        for stream in &mut refused {
            stream.write_all(b"x").expect("first write after the refusal");
        }
        std::thread::sleep(Duration::from_millis(200));
        let lingering: Vec<bool> = refused
            .iter_mut()
            .map(|stream| stream.write_all(b"y").is_ok())
            .collect();
        assert_eq!(
            lingering,
            [true, true, false, false, false],
            "only max_connections refusals linger"
        );
        drop(refused);
        server.shutdown();
    }

    #[test]
    fn a_fully_read_close_exchange_closes_without_lingering() {
        let (server, _executor) = start_server(8);
        let mut stream = connect(&server);
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("request");
        let response = read_http_response(&mut stream).expect("response");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(stream.read(&mut [0u8; 16]).expect("end of the response"), 0);
        // Closed at once: the first write after it draws a reset, so the
        // next one fails. A lingering connection would discard both.
        stream.write_all(b"x").expect("first write after the close");
        std::thread::sleep(Duration::from_millis(200));
        assert!(stream.write_all(b"y").is_err(), "a fully read exchange lingered");
        server.shutdown();
    }

    #[test]
    fn keep_alive_connections_close_at_the_lifetime_cap() {
        let (server, _executor) = start_server_with(ServerConfig {
            max_connection_lifetime: Duration::from_millis(100),
            ..ServerConfig::default()
        });
        let mut stream = connect(&server);
        let first = http_roundtrip(&mut stream, "GET", "/healthz", None).expect("first request");
        assert_eq!(first.status, 200);
        std::thread::sleep(Duration::from_millis(400));
        // The handler has closed the connection at the lifetime cap; the
        // next round trip fails instead of being served.
        assert!(
            http_roundtrip(&mut stream, "GET", "/healthz", None).is_err(),
            "lifetime-capped connection must be closed"
        );
        server.shutdown();
    }

    #[test]
    fn admission_queue_bounds_jobs_and_caps_batches_by_request_count() {
        let start = Instant::now();
        // Job `token` is admitted `token + 1` ms after `start`.
        let job = |token: u64, requests: usize| Job {
            token,
            requests: (0..requests as u64)
                .map(|pair_id| ScoreRequest {
                    pair_id,
                    metric_row: vec![0.5, 0.5],
                    classifier_output: 0.5,
                    machine_says_match: true,
                })
                .collect(),
            meta: RequestMeta {
                route: "/score",
                started: start,
                rid: String::new(),
            },
            trace: None,
            admitted: start + Duration::from_millis(token + 1),
            deadline: None,
        };
        let queued = Arc::new(AtomicUsize::new(0));
        let mut queue = AdmissionQueue::new(3, Arc::clone(&queued));
        for (token, requests) in [(0, 2), (1, 1), (2, 3)] {
            assert!(queue.push(job(token, requests)).is_ok(), "job {token} fits");
        }
        // Full: the job comes back (with its trace) instead of being queued.
        let bounced = queue.push(job(3, 1)).expect_err("queue is at capacity");
        assert_eq!(bounced.token, 3);
        // The bound is the shared count: another loop's queue is full too.
        let mut other = AdmissionQueue::new(3, Arc::clone(&queued));
        assert!(other.push(job(5, 1)).is_err(), "the server-wide count is at capacity");
        assert_eq!(queued.load(Ordering::Relaxed), 3);
        // A batch closes once it holds `max_requests` requests; a job is
        // never split, so the job that crosses the cap rides along.
        let tokens = |batch: Vec<Job>| batch.iter().map(|j| j.token).collect::<Vec<_>>();
        assert_eq!(tokens(queue.take_batch(2)), [0]);
        assert_eq!(tokens(queue.take_batch(2)), [1, 2]);
        assert!(queue.take_batch(2).is_empty());
        assert_eq!(queued.load(Ordering::Relaxed), 0);
        assert!(other.push(job(4, 1)).is_ok(), "capacity frees as batches leave");
        assert_eq!(queued.load(Ordering::Relaxed), 1);
        // The reply watchdog's expiry: the jobs admitted by its cutoff leave
        // the queue oldest first; younger jobs stay queued.
        let queued = Arc::new(AtomicUsize::new(0));
        let mut queue = AdmissionQueue::new(4, Arc::clone(&queued));
        for token in 0..4 {
            assert!(queue.push(job(token, 1)).is_ok());
        }
        assert!(queue.take_admitted_by(start).is_empty(), "nothing is late yet");
        assert_eq!(tokens(queue.take_admitted_by(start + Duration::from_millis(2))), [0, 1]);
        assert_eq!(queued.load(Ordering::Relaxed), 2);
        assert!(queue.take_admitted_by(start + Duration::from_millis(2)).is_empty());
        assert_eq!(tokens(queue.take_batch(8)), [2, 3]);
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            seed: 42,
        };
        for attempt in 0..8 {
            let cap = (10u64 << attempt).min(500);
            let ms = policy.backoff_ms(attempt);
            assert!(
                ms >= cap / 2 && ms <= cap,
                "attempt {attempt}: {ms}ms outside [{}, {cap}]",
                cap / 2
            );
            assert_eq!(ms, policy.backoff_ms(attempt), "deterministic per (seed, attempt)");
        }
        let other = RetryPolicy { seed: 43, ..policy };
        assert!(
            (0..8).any(|a| other.backoff_ms(a) != policy.backoff_ms(a)),
            "different seeds should jitter differently"
        );
    }
}
