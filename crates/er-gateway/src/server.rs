//! The gateway HTTP server: downstream request handling, consistent-hash
//! routing, tail hedging, shadow scoring, and the canary control plane.
//!
//! One `gw-driver` thread owns everything on one readiness loop (the
//! [`er_serve::readiness`] poller the backend runs on): the listener, every
//! downstream connection — read, parsed, answered and flushed by the same
//! [`er_serve::conn`] state machine the backend uses — and every upstream
//! [`Flight`]. A `/score` parks its connection while its flights run; the
//! hedge launch, the upstream deadline and the client's `X-Deadline-Ms`
//! budget are timers on that loop, and a shadow comparison is one more
//! flight whose verdict lands after the client already has its answer. A
//! stalled backend therefore costs a parked socket, never a thread. The
//! blocking work left — the `/reload` fan-out and canary actions — runs on
//! short-lived workers that post their replies back through a mailbox.
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
//! (`1` when the hedge won the race), and the upstream's `X-Model-Version`,
//! `Retry-After` and `X-RateLimit-*` headers.
//!
//! Every response echoes the request's `X-Request-Id`: the client's when it
//! is well-formed, else one the gateway generates. Upstream `/score`
//! requests carry that id, the client's `X-Client-Id` (falling back to the
//! downstream peer address), and what is left of the client's
//! `X-Deadline-Ms` budget, so the backend's traces, per-client rate
//! limiting and deadline shedding see the client, not the gateway. The
//! gateway never waits past that budget: once it is spent the client gets a
//! 504 and no hedge is launched.

use crate::canary::{Action, CanaryConfig, CanaryController, CanaryStatus, RoutePlan};
use crate::health::{spawn_monitor, BackendHealth, HealthState};
use crate::ring::{percent_slot, HashRing};
use crate::upstream::{Flight, UpstreamResponse};
use er_serve::conn::{self, Conn, Limits, Request, Step};
use er_serve::http::{self, StartLine};
use er_serve::readiness::{Events, Interest, Mailbox, Poller, Token};
use serde::json::Reader;
use serde::Serialize;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
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
    /// Downstream read/write budget: a connection that sends nothing, or
    /// stops draining its response, for this long is closed.
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
    canary: CanaryController,
    counters: Counters,
    served_by_backend: Vec<AtomicU64>,
    /// Guards rollback/promotion reloads: only one control action at a time.
    action_inflight: AtomicBool,
    /// Set once by [`GatewayServer::shutdown`]; read by the driver and the
    /// health monitor.
    shutdown: Arc<AtomicBool>,
    /// Counter behind generated request ids.
    id_seq: AtomicU64,
}

/// The listener's token in the readiness loop.
const LISTENER: Token = Token(0);
/// The mailbox waker's token (reload replies, shutdown).
const WAKER: Token = Token(1);
/// First token handed to a downstream connection or an upstream flight.
const FIRST_TOKEN: u64 = 2;
/// Upper bound on one poll wait, so timers are scanned at least this often.
const POLL_TICK: Duration = Duration::from_millis(100);

/// A running gateway; dropping it (or calling [`Self::shutdown`]) stops the
/// driver and the health monitor.
pub struct GatewayServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// Reload workers post `(connection token, reply)` here.
    mailbox: Arc<Mailbox<(u64, Reply)>>,
    driver: Option<std::thread::JoinHandle<()>>,
    health_thread: Option<std::thread::JoinHandle<()>>,
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
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        let mailbox = Arc::new(Mailbox::new(&poller, WAKER)?);
        let health = Arc::new(HealthState::new(
            config.backends.clone(),
            config.eject_after,
            config.connect_timeout,
        ));
        health.probe_all();
        let canary = CanaryController::new(config.canary.clone(), config.baseline_artifact.clone());
        let limits = Limits {
            write_timeout: config.io_timeout,
            read_timeout: Some(config.io_timeout),
            lifetime: None,
        };
        let shared = Arc::new(Shared {
            served_by_backend: (0..config.backends.len()).map(|_| AtomicU64::new(0)).collect(),
            ring: HashRing::new(config.backends.len(), config.vnodes),
            health: Arc::clone(&health),
            canary,
            counters: Counters::default(),
            action_inflight: AtomicBool::new(false),
            shutdown: Arc::new(AtomicBool::new(false)),
            id_seq: AtomicU64::new(0),
            config,
        });
        let health_thread = spawn_monitor(health, shared.config.health_interval, Arc::clone(&shared.shutdown))?;
        let driver = Driver {
            shared: Arc::clone(&shared),
            poller,
            mailbox: Arc::clone(&mailbox),
            listener: Some(listener),
            limits,
            conns: HashMap::new(),
            exchanges: HashMap::new(),
            reloads: HashMap::new(),
            flights: HashMap::new(),
            next_token: FIRST_TOKEN,
        };
        let driver = std::thread::Builder::new()
            .name("gw-driver".to_string())
            .spawn(move || driver.run())?;
        Ok(Self {
            shared,
            local_addr,
            mailbox,
            driver: Some(driver),
            health_thread: Some(health_thread),
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

    /// Stops accepting at once, answers every request in flight (a `/score`
    /// waiting upstream gets a 502), and joins the driver and the health
    /// monitor.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.mailbox.waker().wake();
        if let Some(handle) = self.driver.take() {
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

// ---------------------------------------------------------------------------
// The driver.

/// A `/score` waiting upstream on its legs: the primary and, once
/// `hedge_after` passes unanswered, the hedge.
struct Exchange {
    rid: String,
    client: String,
    body: String,
    pair_id: u64,
    plan: RoutePlan,
    /// The end of the client's `X-Deadline-Ms` budget.
    budget: Option<Instant>,
    /// The client gets a 504 then: `upstream_timeout` after dispatch, or the
    /// end of the budget if sooner.
    deadline: Instant,
    /// When to launch the hedge, until it is launched.
    hedge_at: Option<Instant>,
    legs: Vec<Leg>,
}

struct Leg {
    backend: usize,
    /// The flight's token while it runs.
    flight: Option<u64>,
    error: Option<io::Error>,
}

/// Who waits on a flight.
enum Owner {
    /// Leg `leg` (0 primary, 1 hedge) of the exchange parked on `conn`.
    Leg { conn: u64, leg: usize },
    /// A shadow comparison against the scores served from the canary set
    /// (`true`) or the baseline set.
    Shadow(Vec<f64>, bool),
}

/// The gateway's event loop: one thread owning the listener, every
/// downstream connection and every upstream flight.
struct Driver {
    shared: Arc<Shared>,
    poller: Poller,
    mailbox: Arc<Mailbox<(u64, Reply)>>,
    /// Dropped at shutdown, so new connections are refused at once.
    listener: Option<TcpListener>,
    limits: Limits,
    conns: HashMap<u64, Conn<()>>,
    /// Parked `/score` requests, by connection token.
    exchanges: HashMap<u64, Exchange>,
    /// Parked `/reload` requests: connection token → request id.
    reloads: HashMap<u64, String>,
    flights: HashMap<u64, (Flight, Owner)>,
    next_token: u64,
}

impl Driver {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                if self.listener.take().is_some() {
                    self.fail_pending();
                }
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.is_reading())
                    .map(|(t, _)| *t)
                    .collect();
                for token in idle {
                    if let Some(conn) = self.conns.remove(&token) {
                        conn.close(&self.poller);
                    }
                }
                if self.conns.is_empty() {
                    return;
                }
            }
            if self.poller.poll(&mut events, Some(self.poll_timeout())).is_err() {
                std::thread::sleep(POLL_TICK);
            }
            let mut ready: Vec<u64> = Vec::with_capacity(events.len());
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => self.mailbox.waker().drain(),
                    Token(token) => ready.push(token),
                }
            }
            for token in ready {
                if let Some(mut conn) = self.conns.remove(&token) {
                    conn.read();
                    self.drive(conn);
                } else if let Some((flight, _)) = self.flights.get_mut(&token) {
                    if let Some(result) = flight.step(&self.poller, Token(token)) {
                        self.flight_done(token, result);
                    }
                }
            }
            for (conn, reply) in self.mailbox.take() {
                if let Some(rid) = self.reloads.remove(&conn) {
                    self.reply_parked(conn, reply, &rid);
                }
            }
            self.run_timers();
        }
    }

    /// Sleep until the nearest connection, exchange or flight timer, capped
    /// at [`POLL_TICK`].
    fn poll_timeout(&self) -> Duration {
        let exchanges = self
            .exchanges
            .values()
            .map(|ex| ex.hedge_at.map_or(ex.deadline, |at| at.min(ex.deadline)));
        let deadline = (self.conns.values().filter_map(Conn::deadline))
            .chain(exchanges)
            .chain(self.flights.values().filter_map(|(flight, _)| flight.deadline()))
            .min();
        deadline.map_or(POLL_TICK, |at| {
            at.saturating_duration_since(Instant::now()).min(POLL_TICK)
        })
    }

    fn accept_ready(&mut self) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            let token = self.token();
            if let Ok(mut conn) = Conn::new(Token(token), stream, self.limits) {
                conn.read();
                self.drive(conn);
            }
        }
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token - 1
    }

    /// Runs a downstream connection until it parks or closes.
    fn drive(&mut self, mut conn: Conn<()>) {
        loop {
            match conn.advance() {
                Step::Request(Ok(request)) => self.dispatch(&mut conn, request),
                Step::Request(Err(failure)) => {
                    self.shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                    let rid = conn::request_id(None, "gw", &self.shared.id_seq);
                    self.reply(&mut conn, Reply::error(failure.status, &failure.message), &rid);
                }
                // A draining gateway closes a kept-alive connection after
                // its response; a lingering one runs out its linger first.
                Step::Sent((), _) if !(self.shared.shutdown.load(Ordering::SeqCst) && conn.is_reading()) => {}
                Step::Sent(..) | Step::Close => return conn.close(&self.poller),
                Step::Wait => {
                    conn.park(&self.poller);
                    self.conns.insert(conn.token().0, conn);
                    return;
                }
            }
        }
    }

    /// Queues `reply` on the connection, echoing `rid`.
    fn reply(&self, conn: &mut Conn<()>, reply: Reply, rid: &str) {
        let counters = &self.shared.counters;
        let counter = if reply.status < 300 {
            &counters.responses_2xx
        } else {
            &counters.responses_non_2xx
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let headers = [("Content-Type", "application/json"), ("X-Request-Id", rid)];
        let extra = reply.extra_headers.iter().map(|(name, value)| (*name, value.as_str()));
        let draining = self.shared.shutdown.load(Ordering::SeqCst);
        conn.respond(
            reply.status,
            headers.into_iter().chain(extra),
            &reply.body,
            (),
            draining,
        );
    }

    /// Answers the connection parked on token `conn` and drives it on.
    fn reply_parked(&mut self, conn: u64, reply: Reply, rid: &str) {
        if let Some(mut conn) = self.conns.remove(&conn) {
            self.reply(&mut conn, reply, rid);
            self.drive(conn);
        }
    }

    fn dispatch(&mut self, conn: &mut Conn<()>, request: Request) {
        let shared = Arc::clone(&self.shared);
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let rid = conn::request_id(request.request_id.as_deref(), "gw", &shared.id_seq);
        let reply = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/score") => match self.start_exchange(conn, request, &rid) {
                Some(reply) => reply,
                None => return,
            },
            ("GET", "/healthz") => {
                let healthy = shared.health.healthy_count();
                let status = if healthy > 0 { 200 } else { 503 };
                Reply::json(
                    status,
                    format!(
                        "{{\"status\": {}, \"healthy_backends\": {healthy}, \"backends\": {}}}",
                        serde::json::to_string(if healthy > 0 { "ok" } else { "no-healthy-backends" }),
                        shared.config.backends.len()
                    ),
                )
            }
            ("GET", "/gateway/stats") => Reply::json(200, serde::json::to_string(&stats_snapshot(&shared))),
            ("POST", "/reload") => {
                // The fan-out blocks on every canary backend's reload, so it
                // runs on a worker that posts the reply back.
                let (token, mailbox) = (conn.token().0, Arc::clone(&self.mailbox));
                let body = conn.body().to_string();
                let spawned = std::thread::Builder::new()
                    .name("gw-reload".to_string())
                    .spawn(move || mailbox.post((token, handle_reload(&shared, &body))));
                if spawned.is_ok() {
                    self.reloads.insert(token, rid);
                    return;
                }
                Reply::error(503, "cannot spawn a reload worker")
            }
            ("POST", "/canary/promote") => handle_promote(&shared),
            ("POST", "/canary/rollback") => handle_manual_rollback(&shared),
            (_, "/score" | "/healthz" | "/gateway/stats" | "/reload" | "/canary/promote" | "/canary/rollback") => {
                Reply::error(405, "method not allowed")
            }
            _ => Reply::error(404, &format!("no route for {}", request.path)),
        };
        self.reply(conn, reply, &rid);
    }

    /// Routes a `/score` and launches its primary leg, parking the
    /// connection; a request that cannot be routed gets its reply back.
    fn start_exchange(&mut self, conn: &Conn<()>, request: Request, rid: &str) -> Option<Reply> {
        let config = &self.shared.config;
        let Some(pair_id) = extract_pair_id(conn.body().as_bytes()) else {
            return Some(Reply::error(
                400,
                "body must be a score request (or batch) with a pair_id",
            ));
        };
        let plan = self.shared.canary.plan(percent_slot(pair_id));
        let Some(primary) = pick_backend(&self.shared, pair_id, plan.serve_canary) else {
            return Some(Reply::error(503, "no healthy backend for this request"));
        };
        let now = Instant::now();
        let budget = request
            .deadline_ms
            .and_then(|ms| now.checked_add(Duration::from_millis(ms)));
        let deadline = budget.map_or(now + config.upstream_timeout, |b| b.min(now + config.upstream_timeout));
        let hedge_after = config.hedge_after.map(|after| after.min(config.upstream_timeout));
        let mut exchange = Exchange {
            rid: rid.to_string(),
            client: request.client_id.unwrap_or_else(|| conn.peer().to_string()),
            body: conn.body().to_string(),
            pair_id,
            plan,
            budget,
            deadline,
            hedge_at: hedge_after.map(|after| now + after).filter(|at| *at < deadline),
            legs: Vec::with_capacity(2),
        };
        let token = conn.token().0;
        let leg = self.launch_leg(&exchange, primary, token, 0);
        if let Some(error) = leg.error {
            self.shared.counters.upstream_errors.fetch_add(1, Ordering::Relaxed);
            return Some(Reply::error(502, &format!("upstream failed: {error}")));
        }
        exchange.legs.push(leg);
        self.exchanges.insert(token, exchange);
        None
    }

    fn launch_leg(&mut self, exchange: &Exchange, backend: usize, conn: u64, leg: usize) -> Leg {
        let (flight, error) = match self.launch(exchange, backend, Owner::Leg { conn, leg }, None) {
            Ok(flight) => (Some(flight), None),
            Err(e) => (None, Some(e)),
        };
        Leg { backend, flight, error }
    }

    /// Starts a flight carrying the exchange's request to `backend`, with
    /// what is left of the client's budget.
    fn launch(
        &mut self,
        exchange: &Exchange,
        backend: usize,
        owner: Owner,
        deadline: Option<Instant>,
    ) -> io::Result<u64> {
        let remaining = exchange
            .budget
            .map(|budget| budget.saturating_duration_since(Instant::now()));
        if remaining == Some(Duration::ZERO) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline budget spent"));
        }
        let wire = upstream_request(exchange.body.as_bytes(), &exchange.rid, &exchange.client, remaining);
        let token = self.token();
        let (addr, connect_timeout) = (self.shared.config.backends[backend], self.shared.config.connect_timeout);
        let flight = Flight::start(&self.poller, Token(token), addr, wire, connect_timeout, deadline)?;
        self.flights.insert(token, (flight, owner));
        Ok(token)
    }

    /// A flight finished, failed or timed out: close it and tell its owner.
    /// The first successful leg wins; an error on one leg keeps waiting on
    /// the other, and when every leg has failed the primary's error is
    /// reported.
    fn flight_done(&mut self, token: u64, result: io::Result<UpstreamResponse>) {
        let Some((flight, owner)) = self.flights.remove(&token) else {
            return;
        };
        flight.close(&self.poller);
        let (conn, index) = match owner {
            Owner::Shadow(served, served_canary) => return self.compare(served, served_canary, result),
            Owner::Leg { conn, leg } => (conn, leg),
        };
        let Some(exchange) = self.exchanges.get_mut(&conn) else {
            return;
        };
        let leg = &mut exchange.legs[index];
        leg.flight = None;
        let response = match result {
            Ok(response) => response,
            Err(e) => {
                leg.error = Some(e);
                if exchange.legs.iter().all(|leg| leg.error.is_some()) {
                    let error = exchange.legs[0].error.as_ref().map_or(String::new(), |e| e.to_string());
                    self.fail(conn, Reply::error(502, &format!("upstream failed: {error}")));
                }
                return;
            }
        };
        let (backend, hedged) = (leg.backend, index > 0);
        let shadow = exchange.plan.shadow_compare && response.status == 200;
        let served = shadow.then(|| er_serve::parse_score_response(&String::from_utf8_lossy(&response.body)).ok());
        if hedged {
            self.shared.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.served_by_backend[backend].fetch_add(1, Ordering::Relaxed);
        let exchange = self.settle(conn, relay(response, backend, hedged));
        if let (Some(exchange), Some(Some((_, scores)))) = (exchange, served) {
            self.shadow(&exchange, scores);
        }
    }

    /// Ends the exchange parked on `conn` with an upstream error.
    fn fail(&mut self, conn: u64, reply: Reply) {
        self.shared.counters.upstream_errors.fetch_add(1, Ordering::Relaxed);
        self.settle(conn, reply);
    }

    /// Ends the exchange parked on `conn`: closes any leg still flying and
    /// answers the client.
    fn settle(&mut self, conn: u64, reply: Reply) -> Option<Exchange> {
        let exchange = self.exchanges.remove(&conn)?;
        for token in exchange.legs.iter().filter_map(|leg| leg.flight) {
            if let Some((flight, _)) = self.flights.remove(&token) {
                flight.close(&self.poller);
            }
        }
        self.reply_parked(conn, reply, &exchange.rid);
        Some(exchange)
    }

    /// Duplicates a served request to the other version set; the verdict
    /// lands in [`Self::compare`], after the client has its answer.
    fn shadow(&mut self, exchange: &Exchange, scores: Vec<f64>) {
        let Some(backend) = pick_backend(&self.shared, exchange.pair_id, !exchange.plan.serve_canary) else {
            return;
        };
        let owner = Owner::Shadow(scores, exchange.plan.serve_canary);
        let deadline = Instant::now() + self.shared.config.upstream_timeout;
        if self.launch(exchange, backend, owner, Some(deadline)).is_err() {
            self.shared.counters.upstream_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Compares the shadow's scores with the served ones and feeds the
    /// verdict to the canary controller.
    fn compare(&self, served: Vec<f64>, served_canary: bool, result: io::Result<UpstreamResponse>) {
        let shared = &self.shared;
        let Ok(response) = result else {
            shared.counters.upstream_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let body = String::from_utf8_lossy(&response.body);
        let Some((_, other)) = (response.status == 200)
            .then(|| er_serve::parse_score_response(&body).ok())
            .flatten()
        else {
            return;
        };
        let samples = served.len().max(1) as u64;
        shared.counters.shadow_comparisons.fetch_add(samples, Ordering::Relaxed);
        let (baseline, canary) = if served_canary {
            (&other, &served)
        } else {
            (&served, &other)
        };
        run_action(shared, shared.canary.record_comparison(baseline, canary));
    }

    /// Fires every due timer: connection budgets, exchange deadlines and
    /// hedge launches, flight timeouts.
    fn run_timers(&mut self) {
        let now = Instant::now();
        let due = |at: Option<Instant>| at.is_some_and(|at| now >= at);
        let conns: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| due(c.deadline()))
            .map(|(t, _)| *t)
            .collect();
        for token in conns {
            if let Some(conn) = self.conns.remove(&token) {
                self.drive(conn);
            }
        }
        let exchanges: Vec<(u64, bool)> = (self.exchanges.iter())
            .filter(|(_, ex)| now >= ex.deadline || due(ex.hedge_at))
            .map(|(conn, ex)| (*conn, now >= ex.deadline))
            .collect();
        for (conn, expired) in exchanges {
            if expired {
                self.fail(conn, Reply::error(504, "upstream deadline expired"));
            } else {
                self.launch_hedge(conn);
            }
        }
        let flights: Vec<u64> = self
            .flights
            .iter()
            .filter(|(_, (f, _))| due(f.deadline()))
            .map(|(t, _)| *t)
            .collect();
        for token in flights {
            if let Some(error) = self.flights.get(&token).map(|(flight, _)| flight.timed_out()) {
                self.flight_done(token, Err(error));
            }
        }
    }

    /// The primary is past its latency budget: race a duplicate against it
    /// on the next ring backend of the same version set.
    fn launch_hedge(&mut self, conn: u64) {
        let Some(mut exchange) = self.exchanges.remove(&conn) else {
            return;
        };
        exchange.hedge_at = None;
        let primary = exchange.legs[0].backend;
        if let Some(secondary) = hedge_target(&self.shared, exchange.pair_id, primary, exchange.plan.serve_canary) {
            self.shared.counters.hedges_launched.fetch_add(1, Ordering::Relaxed);
            let leg = self.launch_leg(&exchange, secondary, conn, 1);
            exchange.legs.push(leg);
        }
        self.exchanges.insert(conn, exchange);
    }

    /// Shutdown: every parked request is answered before its connection
    /// closes — a `/score` fails as if its backend had gone away, a
    /// `/reload` gets a 503 (its worker finishes on its own).
    fn fail_pending(&mut self) {
        for (_, (flight, _)) in self.flights.drain() {
            flight.close(&self.poller);
        }
        let parked: Vec<u64> = self.exchanges.keys().copied().collect();
        for conn in parked {
            self.fail(conn, Reply::error(502, "upstream failed: gateway shutting down"));
        }
        for (conn, rid) in std::mem::take(&mut self.reloads) {
            self.reply_parked(conn, Reply::error(503, "gateway shutting down"), &rid);
        }
    }
}

// ---------------------------------------------------------------------------
// /score routing.

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
/// request object, or of the first element of a batch. An empty batch has
/// no pair to route by and takes key 0: any healthy backend of its version
/// set answers it. The first `pair_id` is read with the JSON pull reader and
/// the rest of the body only validated, so no tree is built; a body that is
/// not valid JSON has no key.
fn extract_pair_id(body: &[u8]) -> Option<u64> {
    let mut reader = Reader::new(std::str::from_utf8(body).ok()?);
    let pair_id = if reader.peek() == Some(b'[') {
        reader.enter_seq().ok()?.ok()?;
        if reader.next_element().ok()? {
            let first = first_pair_id(&mut reader).ok()?;
            while reader.next_element().ok()? {
                reader.skip().ok()?;
            }
            first
        } else {
            Some(0)
        }
    } else {
        first_pair_id(&mut reader).ok()?
    };
    reader.finish().ok()?;
    pair_id
}

/// The first `pair_id` of the object at the cursor, if it is an unsigned
/// integer; the value is read past either way.
fn first_pair_id(reader: &mut Reader<'_>) -> Result<Option<u64>, serde::Error> {
    if reader.enter_map()?.is_err() {
        return Ok(None);
    }
    let mut pair_id = None;
    while let Some(key) = reader.next_key()? {
        if key == "pair_id" && pair_id.is_none() {
            pair_id = Some(reader.u64()?.ok());
        } else {
            reader.skip()?;
        }
    }
    Ok(pair_id.flatten())
}

/// Builds the upstream wire request: a fresh head carrying only the
/// client's identity (`X-Request-Id`, `X-Client-Id`) and what is left of
/// its deadline budget (`X-Deadline-Ms`, rounded up to a whole
/// millisecond) — notably not `Expect` — and identical body bytes.
fn upstream_request(body: &[u8], request_id: &str, client_id: &str, remaining: Option<Duration>) -> Vec<u8> {
    let budget_ms = remaining.map(|left| left.as_micros().div_ceil(1000).max(1).to_string());
    let headers = [
        ("Host", "er-gateway"),
        ("Content-Type", "application/json"),
        ("X-Request-Id", request_id),
        ("X-Client-Id", client_id),
        ("Connection", "close"),
    ];
    let deadline = budget_ms.as_deref().map(|ms| ("X-Deadline-Ms", ms));
    let mut wire = Vec::with_capacity(256 + body.len());
    http::write_message(
        &mut wire,
        StartLine::Request {
            method: "POST",
            target: "/score",
        },
        headers.into_iter().chain(deadline),
        body,
    );
    wire
}

/// Backend response headers relayed to the client: the artifact version,
/// and a 429's back-off advice, so a client behind the gateway can tell its
/// own rate-limit bucket from a saturated queue.
const RELAYED_HEADERS: [&str; 5] = [
    "x-model-version",
    "retry-after",
    "x-ratelimit-limit",
    "x-ratelimit-remaining",
    "x-ratelimit-reset",
];

/// The client's reply to a served `/score`: the backend body byte-for-byte
/// (bit-exact scores), the provenance headers, and the relayed ones.
fn relay(response: UpstreamResponse, backend: usize, hedged: bool) -> Reply {
    let mut extra_headers = vec![
        ("X-Backend", backend.to_string()),
        ("X-Hedged", if hedged { "1" } else { "0" }.to_string()),
    ];
    for name in RELAYED_HEADERS {
        if let Some(value) = response.header(name) {
            extra_headers.push((name, value.to_string()));
        }
    }
    Reply {
        status: response.status,
        body: response.body,
        extra_headers,
    }
}

// ---------------------------------------------------------------------------
// Canary control plane.

/// Blocking `POST /reload {"path": ..}` against one backend.
fn reload_backend(shared: &Shared, backend: usize, path: &str) -> Result<(), String> {
    let addr = shared.config.backends[backend];
    let mut stream = std::net::TcpStream::connect_timeout(&addr, shared.config.connect_timeout)
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
/// can take up to `backends × upstream_timeout`, and the caller is the
/// driver (a shadow verdict or a control request), which must never stall
/// behind canary side effects. One action at a time; the
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

/// `POST /reload`, run on a worker thread: it blocks on every canary
/// backend's reload.
fn handle_reload(shared: &Arc<Shared>, body: &str) -> Reply {
    if shared.config.canary_backends.is_empty() || shared.config.canary_backends.len() >= shared.config.backends.len() {
        return Reply::error(
            503,
            "canary promotion needs a proper non-empty canary backend subset (--canary)",
        );
    }
    let path: String = match serde::json::parse(body)
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
        assert_eq!(extract_pair_id(b"[]"), Some(0), "an empty batch routes as pair 0");
        assert_eq!(extract_pair_id(b"{\"x\": 1}"), None);
        assert_eq!(extract_pair_id(b"not json"), None);
    }

    #[test]
    fn pair_id_extraction_reads_the_first_pair_id_of_a_valid_body() {
        assert_eq!(
            extract_pair_id(br#"{"metric_row": [0.5, {"pair_id": 3}], "pair_id": 11}"#),
            Some(11)
        );
        assert_eq!(
            extract_pair_id(br#"[{"x": null, "pair_id": 5}, {"pair_id": 6}]"#),
            Some(5)
        );
        assert_eq!(
            extract_pair_id(br#"{"pair_id": 8, "pair_id": 9}"#),
            Some(8),
            "the first duplicate wins"
        );
        assert_eq!(extract_pair_id(br#"{"pair_id": 1.5, "pair_id": 9}"#), None);
        assert_eq!(
            extract_pair_id(br#"{"pair_id": 2.0}"#),
            None,
            "a float is not a pair id"
        );
        assert_eq!(
            extract_pair_id(br#"[{"pair_id": 4}, {"pair_id": "#),
            None,
            "the rest must still parse"
        );
        assert_eq!(extract_pair_id(br#"[{"pair_id": 4}, {"pair_id": 5}] x"#), None);
        assert_eq!(extract_pair_id(br#"{"pair_id": 4, "x": [1,]}"#), None);
        assert_eq!(
            extract_pair_id(br#"[5, {"pair_id": 4}]"#),
            None,
            "the first element is not an object"
        );
    }

    #[test]
    fn upstream_request_never_forwards_expect() {
        let wire = upstream_request(b"{\"pair_id\": 1}", "rid-1", "10.0.0.7", None);
        let text = String::from_utf8(wire).expect("utf8");
        assert!(!text.to_ascii_lowercase().contains("expect"), "{text}");
        assert!(text.contains("\r\nX-Request-Id: rid-1\r\n"), "{text}");
        assert!(text.contains("\r\nX-Client-Id: 10.0.0.7\r\n"), "{text}");
        assert!(!text.contains("X-Deadline-Ms"), "{text}");
        assert!(text.starts_with("POST /score HTTP/1.1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"pair_id\": 1}"), "{text}");
    }

    #[test]
    fn upstream_request_forwards_the_remaining_budget_rounded_up() {
        for (left, header) in [
            (Duration::from_micros(99_400), "X-Deadline-Ms: 100\r\n"),
            (Duration::from_micros(300), "X-Deadline-Ms: 1\r\n"),
            (Duration::from_millis(40), "X-Deadline-Ms: 40\r\n"),
        ] {
            let wire = upstream_request(b"{}", "rid", "client", Some(left));
            let text = String::from_utf8(wire).expect("utf8");
            assert!(text.contains(header), "{left:?}: {text}");
        }
    }
}
