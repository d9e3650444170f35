//! Gateway ↔ backend integration over real sockets: bit-exact score relay,
//! health ejection, tail hedging, the client's deadline budget across the
//! hop, and the canary ladder (promotion, automatic rollback, shadow
//! comparisons off the client's path). HTTP conformance is in
//! `http_conformance.rs`.
//!
//! Backends are in-process [`ScoreServer`]s started from artifacts written
//! to a scratch directory, so `/reload` paths (the canary machinery) work
//! exactly as they do against standalone `er-serve` processes.

use er_gateway::{CanaryConfig, GatewayConfig, GatewayServer, HashRing};
use er_serve::http::{self, Progress};
use er_serve::{
    http_roundtrip, http_roundtrip_with_headers, parse_score_response, ModelArtifact, ReloadableExecutor, ScoreRequest,
    ScoreServer, ScoringEngine, ServeConfig, ServerConfig,
};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tiny_model() -> LearnRiskModel {
    use er_base::Label;
    use er_rulegen::{CmpOp, Condition, Rule};
    let rules = vec![
        Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 12, 0.9),
        Rule::new(vec![Condition::new(1, CmpOp::Le, 0.4)], Label::Equivalent, 8, 0.85),
    ];
    let feature_set = RiskFeatureSet {
        rules,
        metrics: vec![],
        expectations: vec![0.1, 0.9],
        support: vec![12, 8],
    };
    LearnRiskModel::new(feature_set, RiskModelConfig::default())
}

/// The baseline model with every rule weight nudged — scores diverge, which
/// is exactly what the rollback path must catch.
fn divergent_model() -> LearnRiskModel {
    let mut model = tiny_model();
    for (i, w) in model.rule_weights.iter_mut().enumerate() {
        *w *= if i % 2 == 0 { 1.07 } else { 0.93 };
    }
    model
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A test's scratch directory, removed with everything in it when the guard
/// drops — at the end of the test, or while a failing test unwinds.
struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> ScratchDir {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("er-gateway-it-{tag}-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    ScratchDir(dir)
}

fn write_artifact(dir: &Path, name: &str, model: LearnRiskModel) -> String {
    let path = dir.join(name);
    ModelArtifact::new(model).save(&path).expect("save artifact");
    path.to_string_lossy().into_owned()
}

fn start_backend(artifact_path: &str) -> ScoreServer {
    let artifact = ModelArtifact::load(artifact_path).expect("load artifact");
    let executor = Arc::new(
        ReloadableExecutor::from_artifact(artifact, ServeConfig::default().with_threads(1)).expect("executor"),
    );
    ScoreServer::start(executor, ServerConfig::default()).expect("bind backend")
}

fn gateway_config(backends: Vec<SocketAddr>, baseline: &str) -> GatewayConfig {
    GatewayConfig {
        backends,
        baseline_artifact: baseline.to_string(),
        health_interval: Duration::from_millis(100),
        eject_after: 2,
        connect_timeout: Duration::from_millis(500),
        upstream_timeout: Duration::from_secs(5),
        ..GatewayConfig::default()
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
}

fn score_request(pair_id: u64) -> ScoreRequest {
    let x = (pair_id % 10) as f64 / 10.0;
    ScoreRequest {
        pair_id,
        metric_row: vec![x, 1.0 - x],
        classifier_output: x,
        machine_says_match: x >= 0.5,
    }
}

fn score_body(pair_id: u64) -> String {
    serde::json::to_string(&score_request(pair_id))
}

/// Asserts that a 200 `/score` answer for `pair_id` carries the baseline
/// model's score bit for bit: a canary's answers must never reach clients
/// before its verdict, and after a rollback or promotion every backend
/// serves scores identical to the baseline's.
fn assert_baseline_score(baseline: &ScoringEngine, pair_id: u64, body: &str) {
    let (_, scores) = parse_score_response(body).expect("score body");
    let expected = baseline.score_batch(&[score_request(pair_id)]);
    assert_eq!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        vec![expected[0].to_bits()],
        "pair {pair_id}: served {scores:?}, baseline {expected:?}"
    );
}

fn stats(gateway_addr: SocketAddr) -> serde::Value {
    let mut stream = connect(gateway_addr);
    let response = http_roundtrip(&mut stream, "GET", "/gateway/stats", None).expect("stats");
    assert_eq!(response.status, 200, "{}", response.body);
    serde::json::parse(&response.body).expect("stats json")
}

fn stats_u64(value: &serde::Value, pointer: &[&str]) -> u64 {
    let mut cursor = value.clone();
    for key in pointer {
        cursor = cursor.get(key).unwrap_or_else(|| panic!("stats missing {key}")).clone();
    }
    serde::from_value(&cursor).unwrap_or_else(|e| panic!("stats {pointer:?} not a u64: {e}"))
}

#[test]
fn scores_relay_bit_exactly_through_the_gateway() {
    let dir = scratch_dir("bitexact");
    let baseline = write_artifact(&dir, "baseline.json", tiny_model());
    let backend_a = start_backend(&baseline);
    let backend_b = start_backend(&baseline);
    let backends = vec![backend_a.local_addr(), backend_b.local_addr()];
    let gateway = GatewayServer::start(gateway_config(backends.clone(), &baseline)).expect("gateway");

    for pair_id in 0..64u64 {
        let body = score_body(pair_id);
        let mut via_gateway = connect(gateway.local_addr());
        let routed = http_roundtrip(&mut via_gateway, "POST", "/score", Some(&body)).expect("gateway score");
        assert_eq!(routed.status, 200, "{}", routed.body);
        let served: usize = routed
            .headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("x-backend"))
            .and_then(|(_, value)| value.parse().ok())
            .expect("X-Backend header");
        let mut direct_stream = connect(backends[served]);
        let direct = http_roundtrip(&mut direct_stream, "POST", "/score", Some(&body)).expect("direct score");
        assert_eq!(direct.status, 200);
        assert_eq!(
            routed.body, direct.body,
            "pair {pair_id}: gateway response differs from backend {served}"
        );
    }

    let stats = gateway.stats();
    assert_eq!(stats.responses_2xx, 64);
    assert!(
        stats.served_by_backend.iter().all(|&count| count > 0),
        "consistent hashing should spread 64 pairs over both backends: {:?}",
        stats.served_by_backend
    );
}

#[test]
fn ejected_backend_traffic_remaps_without_errors() {
    let dir = scratch_dir("eject");
    let baseline = write_artifact(&dir, "baseline.json", tiny_model());
    let backend_a = start_backend(&baseline);
    let backend_b = start_backend(&baseline);
    let backends = vec![backend_a.local_addr(), backend_b.local_addr()];
    let gateway = GatewayServer::start(gateway_config(backends, &baseline)).expect("gateway");

    // Warm: both backends serve.
    for pair_id in 0..32u64 {
        let mut stream = connect(gateway.local_addr());
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(pair_id))).expect("score");
        assert_eq!(response.status, 200);
    }
    // Kill backend B and wait for the health monitor to eject it
    // (eject_after=2 failures at a 100ms probe interval).
    backend_b.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = gateway.stats();
        if !snapshot.backends[1].healthy {
            assert!(snapshot.backends[1].ejections >= 1, "ejection not counted");
            break;
        }
        assert!(Instant::now() < deadline, "backend B never ejected: {snapshot:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
    // Every pair id — including those that hashed to B — now serves from A.
    for pair_id in 0..32u64 {
        let mut stream = connect(gateway.local_addr());
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(pair_id))).expect("score");
        assert_eq!(
            response.status, 200,
            "pair {pair_id} failed after ejection: {}",
            response.body
        );
        let served = response
            .headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("x-backend"))
            .map(|(_, value)| value.clone())
            .expect("X-Backend");
        assert_eq!(served, "0", "pair {pair_id} routed to the dead backend");
    }
}

/// A fake backend that answers `/healthz` like a healthy `er-serve` and
/// `POST /reload` with a 200, and answers `/score` with `score_reply` — or,
/// when that is `None`, holds it far longer than any test budget. The heads
/// of the `/score` requests it received are recorded.
fn fake_backend(score_reply: Option<&'static str>) -> (SocketAddr, Arc<Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("fake backend addr");
    let heads = Arc::new(Mutex::new(Vec::new()));
    let recorded = Arc::clone(&heads);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let heads = Arc::clone(&recorded);
            std::thread::spawn(move || {
                let mut buffer = Vec::new();
                let mut chunk = [0u8; 1024];
                let (target, head) = loop {
                    if let Ok(Progress::Complete(request, len)) = http::parse_request(&buffer, 1 << 20) {
                        let head = String::from_utf8_lossy(&buffer[..len - request.body.len()]).into_owned();
                        break (request.target.to_string(), head);
                    }
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buffer.extend_from_slice(&chunk[..n]),
                    }
                };
                let body = match (target.as_str(), score_reply) {
                    ("/healthz", _) => "{\"status\": \"ok\", \"model_version\": 1, \"model_digest\": \"fake\"}",
                    ("/reload", _) => "{\"model_version\": 2}",
                    ("/score", Some(reply)) => {
                        heads.lock().expect("heads").push(head);
                        reply
                    }
                    _ => {
                        // Hold the request open far longer than any budget.
                        std::thread::sleep(Duration::from_secs(30));
                        return;
                    }
                };
                let _ = write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
            });
        }
    });
    (addr, heads)
}

/// A backend that answers `/healthz` but never `/score` — the straggler the
/// hedge must beat.
fn start_tarpit() -> (SocketAddr, Arc<Mutex<Vec<String>>>) {
    fake_backend(None)
}

#[test]
fn hedge_beats_a_stalled_backend() {
    let dir = scratch_dir("hedge");
    let baseline = write_artifact(&dir, "baseline.json", tiny_model());
    let backend_a = start_backend(&baseline);
    let (tarpit_addr, _tarpit) = start_tarpit();
    // Backend 1 is the tarpit.
    let backends = vec![backend_a.local_addr(), tarpit_addr];
    let mut config = gateway_config(backends, &baseline);
    config.hedge_after = Some(Duration::from_millis(25));
    let gateway = GatewayServer::start(config).expect("gateway");

    // Pick pair ids whose ring primary is the tarpit (ring layout is
    // deterministic and shared with the gateway: 2 backends, 128 vnodes).
    let ring = HashRing::new(2, 128);
    let stalled_pairs: Vec<u64> = (0..200u64)
        .filter(|&id| ring.route(id, |_| true) == Some(1))
        .take(4)
        .collect();
    assert!(!stalled_pairs.is_empty(), "no pair id routes to the tarpit");

    for &pair_id in &stalled_pairs {
        let mut stream = connect(gateway.local_addr());
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(pair_id))).expect("score");
        assert_eq!(response.status, 200, "{}", response.body);
        let hedged = response
            .headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("x-hedged"))
            .map(|(_, value)| value.clone())
            .expect("X-Hedged");
        assert_eq!(hedged, "1", "pair {pair_id} should have been won by the hedge");
    }
    let stats = gateway.stats();
    assert!(stats.hedges_launched >= stalled_pairs.len() as u64, "{stats:?}");
    assert!(stats.hedges_won >= stalled_pairs.len() as u64, "{stats:?}");
}

fn canary_gateway(backends: Vec<SocketAddr>, baseline: &str, min_samples: u64, ladder: Vec<u32>) -> GatewayServer {
    let mut config = gateway_config(backends, baseline);
    config.canary_backends = vec![1];
    config.canary = CanaryConfig {
        shadow_sample_bp: 10_000,
        min_samples,
        divergence_threshold: 1e-9,
        ladder,
        auto_advance: true,
    };
    GatewayServer::start(config).expect("gateway")
}

#[test]
fn divergent_canary_rolls_back_automatically_with_zero_errors() {
    let dir = scratch_dir("rollback");
    let baseline = write_artifact(&dir, "baseline.json", tiny_model());
    let candidate = write_artifact(&dir, "divergent.json", divergent_model());
    let backend_a = start_backend(&baseline);
    let backend_b = start_backend(&baseline);
    let gateway = canary_gateway(
        vec![backend_a.local_addr(), backend_b.local_addr()],
        &baseline,
        8,
        vec![500, 5_000],
    );

    let mut stream = connect(gateway.local_addr());
    let reload = http_roundtrip(
        &mut stream,
        "POST",
        "/reload",
        Some(&format!("{{\"path\": {}}}", serde::json::to_string(&candidate))),
    )
    .expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.body);
    assert!(reload.body.contains("shadow"), "{}", reload.body);

    // Shadow comparisons run after each response; with min_samples=8 the
    // divergence verdict must fire within a handful of requests.
    let engine = ScoringEngine::new(tiny_model());
    for pair_id in 0..16u64 {
        let mut stream = connect(gateway.local_addr());
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(pair_id))).expect("score");
        assert_eq!(
            response.status, 200,
            "divergence rollback must not sever live traffic: {}",
            response.body
        );
        assert_baseline_score(&engine, pair_id, &response.body);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = stats(gateway.local_addr());
        if stats_u64(&snapshot, &["canary", "rollbacks"]) >= 1 {
            let phase: String = serde::from_value(snapshot.get("canary").and_then(|c| c.get("phase")).expect("phase"))
                .expect("phase string");
            assert_eq!(phase, "stable", "rollback must land back in Stable");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rollback never fired: {}",
            serde::json::to_string(&snapshot)
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // The canary backend is back on the baseline artifact: digests agree
    // and its /reload counter shows candidate + rollback loads.
    let snapshot = gateway.stats();
    assert!(!snapshot.backends[0].model_digest.is_empty(), "no digest reported");
    assert_eq!(
        snapshot.backends[0].model_digest, snapshot.backends[1].model_digest,
        "canary backend still serves the divergent artifact"
    );
    assert_eq!(
        snapshot.backends[1].model_version, 3,
        "expected load(candidate)+load(baseline) on the canary"
    );
    assert_eq!(
        snapshot.responses_non_2xx, 0,
        "zero severed/errored responses through the whole cycle"
    );
}

#[test]
fn equivalent_canary_walks_the_ladder_to_promotion() {
    let dir = scratch_dir("promote");
    let baseline = write_artifact(&dir, "baseline.json", tiny_model());
    // Same trained parameters exported under a new path: the digest is
    // equal, the scores bit-identical — the canary must promote.
    let candidate = write_artifact(&dir, "candidate.json", tiny_model());
    let backend_a = start_backend(&baseline);
    let backend_b = start_backend(&baseline);
    let gateway = canary_gateway(
        vec![backend_a.local_addr(), backend_b.local_addr()],
        &baseline,
        4,
        vec![2_000],
    );

    let mut stream = connect(gateway.local_addr());
    let reload = http_roundtrip(
        &mut stream,
        "POST",
        "/reload",
        Some(&format!("{{\"path\": {}}}", serde::json::to_string(&candidate))),
    )
    .expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.body);

    // Identical scores: each rung passes after min_samples=4 comparisons.
    // Shadow rung → Serving(2000) → promote (single-rung ladder).
    let engine = ScoringEngine::new(tiny_model());
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut pair_id = 0u64;
    loop {
        let mut stream = connect(gateway.local_addr());
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(pair_id))).expect("score");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_baseline_score(&engine, pair_id, &response.body);
        pair_id += 1;
        let snapshot = stats(gateway.local_addr());
        if stats_u64(&snapshot, &["canary", "promotions"]) >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "promotion never fired: {}",
            serde::json::to_string(&snapshot)
        );
    }
    let snapshot = gateway.stats();
    assert_eq!(snapshot.canary.phase, "stable");
    assert_eq!(
        snapshot.canary.rollbacks, 0,
        "an equivalent candidate must never roll back"
    );
    assert_eq!(
        snapshot.backends[0].model_version, 2,
        "promotion must reload the baseline backend onto the candidate"
    );
    assert!(!snapshot.backends[0].model_digest.is_empty(), "no digest reported");
    assert_eq!(snapshot.backends[0].model_digest, snapshot.backends[1].model_digest);
    assert_eq!(
        snapshot.responses_non_2xx, 0,
        "zero errored responses through the promotion"
    );
    // A new canary can now begin: the controller is Stable again.
    let mut stream = connect(gateway.local_addr());
    let again = http_roundtrip(
        &mut stream,
        "POST",
        "/reload",
        Some(&format!("{{\"path\": {}}}", serde::json::to_string(&candidate))),
    )
    .expect("second reload");
    assert_eq!(again.status, 200, "{}", again.body);
}

#[test]
fn a_spent_deadline_budget_answers_504_without_waiting_out_the_upstream_timeout() {
    // The tarpit is the only backend: nothing answers, and there is no
    // hedge target. The gateway's own budget is 5 s.
    let (tarpit, _) = start_tarpit();
    let gateway = GatewayServer::start(gateway_config(vec![tarpit], "")).expect("gateway");
    let mut stream = connect(gateway.local_addr());
    let started = Instant::now();
    let response = http_roundtrip_with_headers(
        &mut stream,
        "POST",
        "/score",
        Some(&score_body(1)),
        &[("X-Deadline-Ms", "100")],
    )
    .expect("response");
    let waited = started.elapsed();
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(
        waited < Duration::from_secs(1),
        "waited {waited:?} past a 100 ms budget"
    );
    assert_eq!(gateway.stats().hedges_launched, 0, "no hedge once the budget is spent");
}

#[test]
fn the_remaining_deadline_budget_is_forwarded_upstream() {
    let (backend, heads) = fake_backend(Some("{\"model_version\": 1, \"scores\": [0.25]}"));
    let gateway = GatewayServer::start(gateway_config(vec![backend], "")).expect("gateway");
    let mut stream = connect(gateway.local_addr());
    let response = http_roundtrip_with_headers(
        &mut stream,
        "POST",
        "/score",
        Some(&score_body(1)),
        &[("X-Deadline-Ms", "100")],
    )
    .expect("response");
    assert_eq!(response.status, 200, "{}", response.body);
    let heads = heads.lock().expect("heads").clone();
    assert_eq!(heads.len(), 1, "{heads:?}");
    let forwarded: u64 = heads[0]
        .lines()
        .find_map(|line| line.strip_prefix("X-Deadline-Ms: "))
        .unwrap_or_else(|| panic!("no X-Deadline-Ms upstream: {}", heads[0]))
        .trim()
        .parse()
        .expect("numeric budget");
    assert!(
        forwarded > 0 && forwarded <= 100,
        "forwarded {forwarded} ms of a 100 ms budget"
    );
}

#[test]
fn a_shadow_comparison_never_delays_the_client() {
    let dir = scratch_dir("shadow");
    let baseline = write_artifact(&dir, "baseline.json", tiny_model());
    let candidate = write_artifact(&dir, "candidate.json", tiny_model());
    let backend = start_backend(&baseline);
    // The canary backend loads anything and never answers a score, so
    // every shadow comparison hangs until the upstream timeout.
    let (canary_tarpit, _) = start_tarpit();
    // Enough samples that no verdict fires: the gateway stays in Shadow.
    let gateway = canary_gateway(vec![backend.local_addr(), canary_tarpit], &baseline, 1_000, vec![5_000]);
    let mut stream = connect(gateway.local_addr());
    let reload = http_roundtrip(
        &mut stream,
        "POST",
        "/reload",
        Some(&format!("{{\"path\": {}}}", serde::json::to_string(&candidate))),
    )
    .expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.body);
    assert_eq!(gateway.stats().canary.phase, "shadow");

    // Two scores on one keep-alive connection: the shadow of the first is
    // still hanging on the canary when the second arrives.
    for attempt in 0..2u64 {
        let started = Instant::now();
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(attempt))).expect("score");
        let waited = started.elapsed();
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.header("x-backend"), Some("0"), "served from the baseline set");
        assert!(
            waited < Duration::from_millis(250),
            "score {attempt} waited {waited:?} behind a shadow comparison"
        );
    }
}

#[test]
fn shutdown_answers_a_request_waiting_upstream_without_waiting_out_its_timeout() {
    let (tarpit, _) = start_tarpit();
    let gateway = GatewayServer::start(gateway_config(vec![tarpit], "")).expect("gateway");
    let addr = gateway.local_addr();
    let client = std::thread::spawn(move || {
        let mut stream = connect(addr);
        http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(1)))
    });
    // Let the request reach the tarpit, then shut down under it.
    while gateway.stats().requests == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let started = Instant::now();
    gateway.shutdown();
    let response = client
        .join()
        .expect("client thread")
        .expect("an answer, not a severed connection");
    assert_eq!(response.status, 502, "{}", response.body);
    assert!(response.body.contains("shutting down"), "{}", response.body);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown waited {:?} on a 5 s upstream timeout",
        started.elapsed()
    );
}
