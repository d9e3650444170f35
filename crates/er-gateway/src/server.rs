//! The gateway HTTP server: downstream request handling, consistent-hash
//! routing, tail hedging, shadow scoring, and the canary control plane.
//!
//! Downstream connections are thread-per-connection and blocking — the
//! gateway is the *client-facing* edge and its connection counts are the
//! fleet's, not one process's. Upstream I/O is the opposite: every backend
//! request funnels through one [`UpstreamPool`] driver thread on the
//! readiness loop, so a stalled backend occupies a parked nonblocking
//! socket, never a gateway thread.
//!
//! ## Routes
//!
//! | Method & path           | Purpose |
//! |-------------------------|---------|
//! | `POST /score`           | consistent-hash route (+hedge, +shadow) to a backend; body relayed bit-exactly |
//! | `GET /healthz`          | gateway liveness + healthy-backend count |
//! | `GET /gateway/stats`    | routing/hedging counters, per-backend health, canary status |
//! | `POST /reload`          | `{"path": ..}` — load candidate on canary backends, enter Shadow |
//! | `POST /canary/promote`  | advance the canary one rung (final rung promotes) |
//! | `POST /canary/rollback` | abandon the canary, restore baseline on canary backends |
//!
//! `/score` responses carry `X-Backend` (index that served), `X-Hedged`
//! (`1` when the hedge won the race) and the upstream's `X-Model-Version`.
//!
//! Every response echoes the request's `X-Request-Id`: the client's when it
//! is well-formed, else one the gateway generates. Upstream `/score`
//! requests carry that id and the client's `X-Client-Id` (falling back to
//! the downstream peer address), so the backend's traces and per-client
//! rate limiting see the client, not the gateway.

use crate::canary::{Action, CanaryConfig, CanaryController, CanaryStatus};
use crate::health::{spawn_monitor, BackendHealth, HealthState};
use crate::ring::{percent_slot, HashRing};
use crate::upstream::{ResponseSlot, UpstreamPool, UpstreamResponse};
use er_serve::http::{self, Progress, StartLine};
use er_serve::valid_trace_id;
use serde::Serialize;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gateway tuning; every knob has an operational default.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (port 0 for ephemeral).
    pub listen: String,
    /// Backend `er-serve` addresses, in index order.
    pub backends: Vec<SocketAddr>,
    /// Indices (into `backends`) designated to hold canary artifacts. Must
    /// be a proper non-empty subset for the canary machinery to engage.
    pub canary_backends: Vec<usize>,
    /// Artifact path every backend is presumed to serve at boot; rollbacks
    /// restore it.
    pub baseline_artifact: String,
    /// Vnodes per backend on the hash ring.
    pub vnodes: usize,
    /// Hedge budget: a `/score` still unanswered after this long is
    /// duplicated to the next backend on the ring. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Total per-attempt upstream budget (connect + send + receive).
    pub upstream_timeout: Duration,
    /// Upstream TCP connect budget.
    pub connect_timeout: Duration,
    /// Background health-probe period.
    pub health_interval: Duration,
    /// Consecutive probe failures before a backend is ejected.
    pub eject_after: u32,
    /// Canary ladder tuning.
    pub canary: CanaryConfig,
    /// Largest accepted downstream request body.
    pub max_body_bytes: usize,
    /// Downstream socket read/write budget.
    pub io_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            canary_backends: Vec::new(),
            baseline_artifact: String::new(),
            vnodes: 128,
            hedge_after: Some(Duration::from_millis(30)),
            upstream_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(2),
            health_interval: Duration::from_millis(500),
            eject_after: 3,
            canary: CanaryConfig::default(),
            max_body_bytes: 1 << 20,
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Monotonic gateway counters (snapshot via [`GatewayServer::stats`]).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_non_2xx: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    shadow_comparisons: AtomicU64,
    upstream_errors: AtomicU64,
}

/// Serializable `/gateway/stats` document.
#[derive(Debug, Clone, Serialize)]
pub struct GatewayStats {
    /// Downstream requests accepted (all routes).
    pub requests: u64,
    /// 2xx responses written downstream.
    pub responses_2xx: u64,
    /// Non-2xx responses written downstream.
    pub responses_non_2xx: u64,
    /// Hedge requests launched after the latency budget expired.
    pub hedges_launched: u64,
    /// Races the hedge won.
    pub hedges_won: u64,
    /// Shadow score comparisons recorded.
    pub shadow_comparisons: u64,
    /// Upstream attempts that errored (timeouts included).
    pub upstream_errors: u64,
    /// Requests served per backend index.
    pub served_by_backend: Vec<u64>,
    /// Health table, in backend index order.
    pub backends: Vec<BackendHealth>,
    /// Canary controller status.
    pub canary: CanaryStatus,
}

struct Shared {
    config: GatewayConfig,
    ring: HashRing,
    health: Arc<HealthState>,
    upstream: UpstreamPool,
    canary: CanaryController,
    counters: Counters,
    served_by_backend: Vec<AtomicU64>,
    /// Guards rollback/promotion reloads: only one control action at a time.
    action_inflight: AtomicBool,
    shutdown: AtomicBool,
    /// Counter behind generated request ids.
    id_seq: AtomicU64,
}

/// A running gateway; dropping it (or calling [`Self::shutdown`]) stops the
/// accept loop, the health monitor and the upstream driver.
pub struct GatewayServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    health_thread: Option<std::thread::JoinHandle<()>>,
    shutdown_flag: Arc<AtomicBool>,
}

impl GatewayServer {
    /// Binds and starts serving. Probes every backend once before
    /// returning, so the first request already routes on real health.
    pub fn start(config: GatewayConfig) -> io::Result<Self> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "at least one backend required",
            ));
        }
        if config.canary_backends.iter().any(|&i| i >= config.backends.len()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "canary backend index out of range",
            ));
        }
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let health = Arc::new(HealthState::new(
            config.backends.clone(),
            config.eject_after,
            config.connect_timeout,
        ));
        health.probe_all();
        let upstream = UpstreamPool::new(config.connect_timeout)?;
        let canary = CanaryController::new(config.canary.clone(), config.baseline_artifact.clone());
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            served_by_backend: (0..config.backends.len()).map(|_| AtomicU64::new(0)).collect(),
            ring: HashRing::new(config.backends.len(), config.vnodes),
            health: Arc::clone(&health),
            upstream,
            canary,
            counters: Counters::default(),
            action_inflight: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            id_seq: AtomicU64::new(0),
            config,
        });
        let health_thread = spawn_monitor(health, shared.config.health_interval, Arc::clone(&shutdown_flag))?;
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown_flag);
            std::thread::Builder::new()
                .name("gw-accept".to_string())
                .spawn(move || accept_loop(listener, shared, shutdown))?
        };
        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            health_thread: Some(health_thread),
            shutdown_flag,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Counter + health + canary snapshot.
    pub fn stats(&self) -> GatewayStats {
        stats_snapshot(&self.shared)
    }

    /// Stops accepting, joins the helper threads. In-flight downstream
    /// connections finish their current request.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown_flag.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.health_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn stats_snapshot(shared: &Shared) -> GatewayStats {
    GatewayStats {
        requests: shared.counters.requests.load(Ordering::Relaxed),
        responses_2xx: shared.counters.responses_2xx.load(Ordering::Relaxed),
        responses_non_2xx: shared.counters.responses_non_2xx.load(Ordering::Relaxed),
        hedges_launched: shared.counters.hedges_launched.load(Ordering::Relaxed),
        hedges_won: shared.counters.hedges_won.load(Ordering::Relaxed),
        shadow_comparisons: shared.counters.shadow_comparisons.load(Ordering::Relaxed),
        upstream_errors: shared.counters.upstream_errors.load(Ordering::Relaxed),
        served_by_backend: shared
            .served_by_backend
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        backends: shared.health.snapshot(),
        canary: shared.canary.status(),
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("gw-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

// ---------------------------------------------------------------------------
// Downstream HTTP.

struct DownstreamRequest {
    method: String,
    path: String,
    body: Vec<u8>,
    close: bool,
    /// `X-Request-Id` as sent (empty when absent); replaced by a generated
    /// id unless well-formed.
    request_id: String,
    /// `X-Client-Id` as sent (empty when absent); falls back to the peer
    /// address.
    client_id: String,
}

/// Reads one request off a blocking downstream socket: `Ok(None)` when the
/// peer closed between requests or the socket failed (nothing to answer),
/// `Err` for a request to refuse before closing. The gateway answers
/// `Expect: 100-continue` itself and never forwards `Expect` upstream, so a
/// slow client handshake never holds a backend connection.
fn read_request(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    max_body: usize,
) -> Result<Option<DownstreamRequest>, http::Error> {
    let mut chunk = [0u8; 4096];
    let mut continue_sent = false;
    loop {
        match http::parse_request(buffer, max_body)? {
            Progress::Complete(request, len) => {
                let header = |name: &str| {
                    request
                        .headers()
                        .find(|(n, _)| n.eq_ignore_ascii_case(name))
                        .map_or_else(String::new, |(_, value)| value.to_string())
                };
                let request = DownstreamRequest {
                    method: request.method.to_string(),
                    path: request.target.to_string(),
                    body: request.body.to_vec(),
                    close: request.close,
                    request_id: header("x-request-id"),
                    client_id: header("x-client-id"),
                };
                buffer.drain(..len);
                return Ok(Some(request));
            }
            Progress::Partial { expect_continue } if expect_continue && !continue_sent => {
                continue_sent = true;
                if stream.write_all(http::CONTINUE).is_err() {
                    return Ok(None);
                }
            }
            Progress::Partial { .. } => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) if buffer.is_empty() => return Ok(None),
            Ok(0) => return Err(http::Error::new(400, "connection closed mid-request")),
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(None),
        }
    }
}

struct Reply {
    status: u16,
    body: Vec<u8>,
    extra_headers: Vec<(&'static str, String)>,
}

impl Reply {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\": {}}}", serde::json::to_string(&message)))
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let peer = stream
        .peer_addr()
        .map(|addr| addr.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut buffer = Vec::new();
    let mut wire = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let generated_id = || format!("gw-{:08x}", shared.id_seq.fetch_add(1, Ordering::Relaxed));
        let (reply, close, shadow, request_id) =
            match read_request(&mut stream, &mut buffer, shared.config.max_body_bytes) {
                Ok(None) => return,
                Ok(Some(mut request)) => {
                    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                    if !valid_trace_id(&request.request_id) {
                        request.request_id = generated_id();
                    }
                    if request.client_id.is_empty() {
                        request.client_id.clone_from(&peer);
                    }
                    let (reply, shadow) = route_request(shared, &request);
                    (reply, request.close, shadow, request.request_id)
                }
                Err(error) => {
                    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                    (Reply::error(error.status, &error.message), true, None, generated_id())
                }
            };
        if reply.status < 300 {
            shared.counters.responses_2xx.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.counters.responses_non_2xx.fetch_add(1, Ordering::Relaxed);
        }
        wire.clear();
        let extra = reply.extra_headers.iter().map(|(name, value)| (*name, value.as_str()));
        http::write_message(
            &mut wire,
            StartLine::Response(reply.status),
            [
                ("Content-Type", "application/json"),
                ("X-Request-Id", request_id.as_str()),
            ]
            .into_iter()
            .chain(extra)
            .chain(close.then_some(("Connection", "close"))),
            &reply.body,
        );
        if stream.write_all(&wire).is_err() {
            return;
        }
        // Shadow comparison runs after the response is on the wire: the
        // client never waits on the canary.
        if let Some(job) = shadow {
            job.run(shared);
        }
        if close {
            return;
        }
    }
}

fn route_request(shared: &Arc<Shared>, request: &DownstreamRequest) -> (Reply, Option<ShadowJob>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/score") => handle_score(shared, request),
        ("GET", "/healthz") => {
            let healthy = shared.health.healthy_count();
            let status = if healthy > 0 { 200 } else { 503 };
            (
                Reply::json(
                    status,
                    format!(
                        "{{\"status\": {}, \"healthy_backends\": {healthy}, \"backends\": {}}}",
                        serde::json::to_string(if healthy > 0 { "ok" } else { "no-healthy-backends" }),
                        shared.config.backends.len()
                    ),
                ),
                None,
            )
        }
        ("GET", "/gateway/stats") => (Reply::json(200, serde::json::to_string(&stats_snapshot(shared))), None),
        ("POST", "/reload") => (handle_reload(shared, request), None),
        ("POST", "/canary/promote") => (handle_promote(shared), None),
        ("POST", "/canary/rollback") => (handle_manual_rollback(shared), None),
        (_, "/score" | "/healthz" | "/gateway/stats" | "/reload" | "/canary/promote" | "/canary/rollback") => {
            (Reply::error(405, "method not allowed"), None)
        }
        _ => (Reply::error(404, &format!("no route for {}", request.path)), None),
    }
}

// ---------------------------------------------------------------------------
// /score: routing, hedging, shadow scoring.

/// A deferred shadow comparison: duplicate the request to the other version
/// set, compare score vectors, feed the verdict to the canary controller.
struct ShadowJob {
    pair_id: u64,
    request_bytes: Vec<u8>,
    served_scores: Vec<f64>,
    /// The served response came from the canary set (so the shadow goes to
    /// baseline and the comparison arguments swap).
    served_canary: bool,
}

impl ShadowJob {
    fn run(self, shared: &Arc<Shared>) {
        let target_set_canary = !self.served_canary;
        let Some(backend) = pick_backend(shared, self.pair_id, target_set_canary) else {
            return;
        };
        let slot = shared.upstream.submit(
            shared.config.backends[backend],
            self.request_bytes,
            shared.config.upstream_timeout,
        );
        let Some(Ok(response)) = slot.take_timeout(shared.config.upstream_timeout) else {
            shared.counters.upstream_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if response.status != 200 {
            return;
        }
        let Ok((_, other_scores)) = er_serve::parse_score_response(&String::from_utf8_lossy(&response.body)) else {
            return;
        };
        shared
            .counters
            .shadow_comparisons
            .fetch_add(self.served_scores.len().max(1) as u64, Ordering::Relaxed);
        let (baseline, canary): (&[f64], &[f64]) = if self.served_canary {
            (&other_scores, &self.served_scores)
        } else {
            (&self.served_scores, &other_scores)
        };
        let action = shared.canary.record_comparison(baseline, canary);
        run_action(shared, action);
    }
}

/// Is `backend` in the canary set?
fn in_canary_set(shared: &Shared, backend: usize) -> bool {
    shared.config.canary_backends.contains(&backend)
}

/// Routes a pair id within one version set (canary or baseline), healthy
/// backends only. When the gateway is Stable the set restriction is lifted
/// — every backend serves the same artifact.
fn pick_backend(shared: &Shared, pair_id: u64, canary_set: bool) -> Option<usize> {
    let stable = shared.canary.status().phase == "stable";
    shared.ring.route(pair_id, |backend| {
        shared.health.is_healthy(backend) && (stable || in_canary_set(shared, backend) == canary_set)
    })
}

fn hedge_target(shared: &Shared, pair_id: u64, primary: usize, canary_set: bool) -> Option<usize> {
    let stable = shared.canary.status().phase == "stable";
    shared.ring.route_excluding(pair_id, primary, |backend| {
        shared.health.is_healthy(backend) && (stable || in_canary_set(shared, backend) == canary_set)
    })
}

/// Extracts the routing key from a `/score` body: the `pair_id` of a single
/// request object, or of the first element of a batch.
fn extract_pair_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let value = serde::json::parse(text).ok()?;
    let object = match value.as_seq() {
        Some(items) => items.first()?,
        None => &value,
    };
    serde::from_value(object.get("pair_id")?).ok()
}

/// Builds the upstream wire request: a fresh head carrying only the
/// client's identity (`X-Request-Id`, `X-Client-Id`) of the downstream
/// headers — notably not `Expect` — and identical body bytes.
fn upstream_request(request: &DownstreamRequest) -> Vec<u8> {
    let headers = [
        ("Host", "er-gateway"),
        ("Content-Type", "application/json"),
        ("X-Request-Id", request.request_id.as_str()),
        ("X-Client-Id", request.client_id.as_str()),
        ("Connection", "close"),
    ];
    let mut wire = Vec::with_capacity(256 + request.body.len());
    http::write_message(
        &mut wire,
        StartLine::Request {
            method: "POST",
            target: "/score",
        },
        headers,
        &request.body,
    );
    wire
}

fn handle_score(shared: &Shared, request: &DownstreamRequest) -> (Reply, Option<ShadowJob>) {
    let Some(pair_id) = extract_pair_id(&request.body) else {
        return (
            Reply::error(400, "body must be a score request (or batch) with a pair_id"),
            None,
        );
    };
    let plan = shared.canary.plan(percent_slot(pair_id));
    let Some(primary) = pick_backend(shared, pair_id, plan.serve_canary) else {
        return (Reply::error(503, "no healthy backend for this request"), None);
    };
    let wire = upstream_request(request);
    let deadline = Instant::now() + shared.config.upstream_timeout;
    let primary_slot = shared.upstream.submit(
        shared.config.backends[primary],
        wire.clone(),
        shared.config.upstream_timeout,
    );

    let mut served_backend = primary;
    let mut hedged_won = false;
    let outcome: Option<io::Result<UpstreamResponse>> = match shared.config.hedge_after {
        Some(budget) => {
            match primary_slot.take_timeout(budget.min(shared.config.upstream_timeout)) {
                Some(result) => Some(result),
                None => {
                    // The primary is past its latency budget: race a
                    // duplicate against it on the next ring backend.
                    match hedge_target(shared, pair_id, primary, plan.serve_canary) {
                        None => primary_slot.take_timeout(deadline.saturating_duration_since(Instant::now())),
                        Some(secondary) => {
                            shared.counters.hedges_launched.fetch_add(1, Ordering::Relaxed);
                            let hedge_slot = shared.upstream.submit(
                                shared.config.backends[secondary],
                                wire.clone(),
                                deadline.saturating_duration_since(Instant::now()),
                            );
                            race(
                                &primary_slot,
                                &hedge_slot,
                                deadline,
                                &mut served_backend,
                                secondary,
                                &mut hedged_won,
                            )
                        }
                    }
                }
            }
        }
        None => primary_slot.take_timeout(shared.config.upstream_timeout),
    };

    let response = match outcome {
        Some(Ok(response)) => response,
        Some(Err(e)) => {
            shared.counters.upstream_errors.fetch_add(1, Ordering::Relaxed);
            return (Reply::error(502, &format!("upstream failed: {e}")), None);
        }
        None => {
            shared.counters.upstream_errors.fetch_add(1, Ordering::Relaxed);
            return (Reply::error(504, "upstream deadline expired"), None);
        }
    };
    if hedged_won {
        shared.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
    }
    shared.served_by_backend[served_backend].fetch_add(1, Ordering::Relaxed);

    // Relay the backend body byte-for-byte (bit-exact scores), plus the
    // provenance headers worth keeping.
    let mut extra_headers = vec![
        ("X-Backend", served_backend.to_string()),
        ("X-Hedged", if hedged_won { "1" } else { "0" }.to_string()),
    ];
    if let Some(value) = response.header("x-model-version") {
        extra_headers.push(("x-model-version", value.to_string()));
    }
    let shadow = if plan.shadow_compare && response.status == 200 {
        er_serve::parse_score_response(&String::from_utf8_lossy(&response.body))
            .ok()
            .map(|(_, scores)| ShadowJob {
                pair_id,
                request_bytes: wire,
                served_scores: scores,
                served_canary: plan.serve_canary,
            })
    } else {
        None
    };
    (
        Reply {
            status: response.status,
            body: response.body,
            extra_headers,
        },
        shadow,
    )
}

/// Waits for whichever of two slots completes first (polling in small
/// slices — only the hedged path pays this). Prefers a *successful* early
/// completion; an error from one side keeps waiting on the other.
fn race(
    primary: &ResponseSlot,
    hedge: &ResponseSlot,
    deadline: Instant,
    served_backend: &mut usize,
    hedge_backend: usize,
    hedged_won: &mut bool,
) -> Option<io::Result<UpstreamResponse>> {
    let slice = Duration::from_millis(2);
    let mut primary_error: Option<io::Error> = None;
    let mut hedge_error: Option<io::Error> = None;
    loop {
        if primary_error.is_none() {
            if let Some(result) = primary.take_timeout(slice) {
                match result {
                    Ok(response) => {
                        hedge.cancel();
                        return Some(Ok(response));
                    }
                    Err(e) => primary_error = Some(e),
                }
            }
        }
        if hedge_error.is_none() {
            if let Some(result) = hedge.take_timeout(slice) {
                match result {
                    Ok(response) => {
                        primary.cancel();
                        *served_backend = hedge_backend;
                        *hedged_won = true;
                        return Some(Ok(response));
                    }
                    Err(e) => hedge_error = Some(e),
                }
            }
        }
        if let (Some(primary_e), Some(_)) = (&primary_error, &hedge_error) {
            // Both sides failed: report the primary's error.
            return Some(Err(io::Error::new(primary_e.kind(), primary_e.to_string())));
        }
        if Instant::now() >= deadline {
            primary.cancel();
            hedge.cancel();
            return None;
        }
    }
}

// ---------------------------------------------------------------------------
// Canary control plane.

/// Blocking `POST /reload {"path": ..}` against one backend.
fn reload_backend(shared: &Shared, backend: usize, path: &str) -> Result<(), String> {
    let addr = shared.config.backends[backend];
    let mut stream = TcpStream::connect_timeout(&addr, shared.config.connect_timeout)
        .map_err(|e| format!("backend {backend}: connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(shared.config.upstream_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.upstream_timeout));
    let body = format!("{{\"path\": {}}}", serde::json::to_string(&path));
    let response = er_serve::http_roundtrip(&mut stream, "POST", "/reload", Some(&body))
        .map_err(|e| format!("backend {backend}: reload: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "backend {backend}: reload returned {}: {}",
            response.status, response.body
        ));
    }
    Ok(())
}

/// Executes a canary [`Action`] on a dedicated thread — the reload fan-out
/// can take up to `backends × upstream_timeout`, and the caller is either a
/// downstream connection thread (a shadow verdict) or a control request;
/// neither may stall behind canary side effects. One action at a time; the
/// `action_inflight` CAS drops duplicates (the controller will re-emit the
/// verdict on the next comparison if it still stands).
fn run_action(shared: &Arc<Shared>, action: Action) {
    let targets_and_done: Option<(Vec<usize>, bool, String)> = match action {
        Action::None => None,
        Action::RollbackCanaries { baseline_path } => {
            Some((shared.config.canary_backends.clone(), false, baseline_path))
        }
        Action::PromoteBaselines { candidate_path } => {
            let baselines: Vec<usize> = (0..shared.config.backends.len())
                .filter(|b| !in_canary_set(shared, *b))
                .collect();
            Some((baselines, true, candidate_path))
        }
    };
    let Some((targets, is_promotion, path)) = targets_and_done else {
        return;
    };
    if shared
        .action_inflight
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return;
    }
    let worker = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("gw-canary-action".to_string())
        .spawn(move || {
            for backend in targets {
                if let Err(e) = reload_backend(&worker, backend, &path) {
                    eprintln!("er-gateway: canary action reload failed: {e}");
                }
            }
            // Refresh digests *before* the controller flips phase: anyone
            // who observes the promotion/rollback counter sees converged
            // digests in the same stats snapshot.
            worker.health.probe_all();
            if is_promotion {
                worker.canary.promoted();
            } else {
                worker.canary.rolled_back();
            }
            worker.action_inflight.store(false, Ordering::SeqCst);
        });
    if spawned.is_err() {
        // Could not spawn: release the guard; the verdict re-fires on the
        // next comparison.
        shared.action_inflight.store(false, Ordering::SeqCst);
        eprintln!("er-gateway: cannot spawn canary action thread");
    }
}

fn handle_reload(shared: &Arc<Shared>, request: &DownstreamRequest) -> Reply {
    if shared.config.canary_backends.is_empty() || shared.config.canary_backends.len() >= shared.config.backends.len() {
        return Reply::error(
            503,
            "canary promotion needs a proper non-empty canary backend subset (--canary)",
        );
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Reply::error(400, "reload body is not UTF-8");
    };
    let path: String = match serde::json::parse(text)
        .ok()
        .and_then(|v| v.get("path").and_then(|p| serde::from_value(p).ok()))
    {
        Some(path) => path,
        None => return Reply::error(400, "reload body must be {\"path\": \"artifact.json\"}"),
    };
    // Reserve the canary slot (phase → Loading): the duplicate-canary guard
    // engages now, but no shadow comparison counts until every canary
    // backend actually holds the candidate — otherwise the ladder would
    // advance on baseline-vs-baseline zero-divergence samples.
    if let Err(message) = shared.canary.begin(path.clone()) {
        return Reply::error(409, &message);
    }
    // Load the candidate onto every canary backend; any failure aborts the
    // canary before it sees traffic.
    for &backend in &shared.config.canary_backends {
        if let Err(message) = reload_backend(shared, backend, &path) {
            // Best-effort restore, then report.
            let baseline = shared.canary.baseline_path();
            for &b in &shared.config.canary_backends {
                let _ = reload_backend(shared, b, &baseline);
            }
            shared.canary.rolled_back();
            return Reply::error(502, &format!("canary load failed, rolled back: {message}"));
        }
    }
    shared.health.probe_all();
    // Every canary backend holds the candidate: comparisons may begin.
    shared.canary.loaded();
    Reply::json(
        200,
        format!(
            "{{\"canary\": \"shadow\", \"candidate\": {}, \"canary_backends\": {}}}",
            serde::json::to_string(&path),
            serde::json::to_string(&shared.config.canary_backends)
        ),
    )
}

fn handle_promote(shared: &Arc<Shared>) -> Reply {
    match shared.canary.advance() {
        Err(message) => Reply::error(409, &message),
        Ok(action) => {
            let promoting = matches!(action, Action::PromoteBaselines { .. });
            run_action(shared, action);
            Reply::json(
                200,
                serde::json::to_string(&PromoteResponse {
                    status: if promoting { "promoted" } else { "advanced" },
                    canary: shared.canary.status(),
                }),
            )
        }
    }
}

fn handle_manual_rollback(shared: &Arc<Shared>) -> Reply {
    match shared.canary.rollback() {
        Err(message) => Reply::error(409, &message),
        Ok(action) => {
            run_action(shared, action);
            Reply::json(
                200,
                serde::json::to_string(&PromoteResponse {
                    status: "rolled-back",
                    canary: shared.canary.status(),
                }),
            )
        }
    }
}

#[derive(Serialize)]
struct PromoteResponse {
    status: &'static str,
    canary: CanaryStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_id_extraction_handles_objects_and_batches() {
        assert_eq!(extract_pair_id(br#"{"pair_id": 42, "metric_row": []}"#), Some(42));
        assert_eq!(extract_pair_id(br#"[{"pair_id": 7}, {"pair_id": 9}]"#), Some(7));
        assert_eq!(extract_pair_id(b"[]"), None);
        assert_eq!(extract_pair_id(b"{\"x\": 1}"), None);
        assert_eq!(extract_pair_id(b"not json"), None);
    }

    #[test]
    fn upstream_request_never_forwards_expect() {
        let wire = upstream_request(&DownstreamRequest {
            method: "POST".to_string(),
            path: "/score".to_string(),
            body: b"{\"pair_id\": 1}".to_vec(),
            close: false,
            request_id: "rid-1".to_string(),
            client_id: "10.0.0.7".to_string(),
        });
        let text = String::from_utf8(wire).expect("utf8");
        assert!(!text.to_ascii_lowercase().contains("expect"), "{text}");
        assert!(text.contains("\r\nX-Request-Id: rid-1\r\n"), "{text}");
        assert!(text.contains("\r\nX-Client-Id: 10.0.0.7\r\n"), "{text}");
        assert!(text.starts_with("POST /score HTTP/1.1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"pair_id\": 1}"), "{text}");
    }
}
