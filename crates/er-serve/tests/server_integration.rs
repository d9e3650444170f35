//! End-to-end integration of the HTTP front-end: **train → export → load →
//! serve**, driven over a raw [`TcpStream`] exactly as an external client
//! would.
//!
//! The train step is a real [`learnrisk_core::train`] run over synthetic
//! risk inputs (not a hand-assembled model), the export/load step goes
//! through a temp-dir [`ModelArtifact`] file, and the serve step asserts the
//! socket-returned scores are **bit-identical** to in-process
//! [`ScoringEngine::score_batch`] on the same requests — including that a
//! malformed request gets a deterministic JSON error body on a connection
//! that keeps serving, never a dropped connection.

use er_base::Label;
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{
    http_roundtrip, http_roundtrip_with_headers, parse_exposition, parse_score_response, FaultKind, FaultPlan,
    ModelArtifact, RateLimitConfig, ReloadableExecutor, RetryPolicy, ScoreRequest, ScoreServer, ScoringEngine,
    ServeConfig, ServerConfig,
};
use learnrisk_core::{train, LearnRiskModel, PairRiskInput, RiskFeatureSet, RiskModelConfig, RiskTrainConfig};
use std::net::TcpStream;
use std::sync::Arc;

const METRICS: usize = 3;

/// An untrained model over a hand-written rule set (stands in for the
/// rule-generation stage, which has its own pipeline tests in `er-eval`).
fn untrained_model() -> LearnRiskModel {
    let rules = vec![
        Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.55)], Label::Inequivalent, 24, 0.95),
        Rule::new(
            vec![Condition::new(1, CmpOp::Le, 0.35), Condition::new(2, CmpOp::Gt, 0.5)],
            Label::Equivalent,
            17,
            0.9,
        ),
        Rule::new(vec![Condition::new(2, CmpOp::Le, 0.25)], Label::Inequivalent, 11, 0.88),
        Rule::new(vec![Condition::new(1, CmpOp::Gt, 0.7)], Label::Equivalent, 9, 0.86),
    ];
    let feature_set = RiskFeatureSet {
        rules,
        metrics: vec![],
        expectations: vec![0.06, 0.91, 0.12, 0.88],
        support: vec![24, 17, 11, 9],
    };
    LearnRiskModel::new(feature_set, RiskModelConfig::default())
}

/// Deterministic synthetic metric rows: quasi-random in [0, 1).
fn metric_row(i: u64) -> Vec<f64> {
    (0..METRICS)
        .map(|j| ((i as f64) * 0.618_033_988_749_895 + (j as f64) * 0.414_213_562_373_095).fract())
        .collect()
}

/// Risk-training inputs with a deterministic mislabeled minority, so the
/// rank-pair sampler has positives to rank and training actually moves the
/// parameters.
fn training_inputs(model: &LearnRiskModel, n: u64) -> Vec<PairRiskInput> {
    let engine = ScoringEngine::new(model.clone());
    (0..n)
        .map(|i| {
            let row = metric_row(i);
            let classifier_output = ((i as f64) * 0.271_828_182_845_904).fract();
            PairRiskInput {
                rule_indices: engine.index().matching_rules(&row),
                classifier_output,
                machine_says_match: classifier_output >= 0.5,
                risk_label: u8::from(i % 7 == 0),
            }
        })
        .collect()
}

fn serving_requests(n: u64) -> Vec<ScoreRequest> {
    (0..n)
        .map(|i| {
            let classifier_output = ((i as f64) * 0.271_828_182_845_904).fract();
            ScoreRequest {
                pair_id: i,
                metric_row: metric_row(i),
                classifier_output,
                machine_says_match: classifier_output >= 0.5,
            }
        })
        .collect()
}

#[test]
fn train_export_load_serve_over_a_raw_socket_is_bit_identical() {
    // --- train ---
    let mut model = untrained_model();
    let untrained_weights = model.rule_weights.clone();
    let inputs = training_inputs(&model, 160);
    let report = train(
        &mut model,
        &inputs,
        &RiskTrainConfig {
            epochs: 25,
            ..Default::default()
        },
    );
    assert!(!report.losses.is_empty(), "training must have run epochs");
    assert_ne!(model.rule_weights, untrained_weights, "training must move the weights");

    // --- export → load ---
    let dir = std::env::temp_dir().join("er-serve-server-integration");
    let path = dir.join("trained.json");
    ModelArtifact::new(model.clone()).save(&path).expect("export artifact");
    let loaded = ModelArtifact::load(&path).expect("load artifact");

    // --- serve ---
    let executor = Arc::new(
        ReloadableExecutor::from_artifact(loaded, ServeConfig::default().with_threads(2)).expect("boot from artifact"),
    );
    let server = ScoreServer::start(Arc::clone(&executor), ServerConfig::default()).expect("bind");
    let requests = serving_requests(120);
    let expected = ScoringEngine::new(model).score_batch(&requests);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // One-by-one over a keep-alive connection: every socket score matches
    // the in-process engine to the last bit, and carries the version tag.
    for (request, expected_score) in requests.iter().zip(&expected) {
        let body = serde::json::to_string(request);
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("score round trip");
        assert_eq!(response.status, 200, "{}", response.body);
        let (version, scores) = parse_score_response(&response.body).expect("score body");
        assert_eq!(version, 1);
        assert_eq!(scores.len(), 1);
        assert_eq!(
            scores[0].to_bits(),
            expected_score.to_bits(),
            "socket score diverged on pair {}",
            request.pair_id
        );
    }
    // The whole pool as one batched POST: same bits, one version.
    let body = serde::json::to_string(&requests);
    let response = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("batch round trip");
    assert_eq!(response.status, 200, "{}", response.body);
    let (version, scores) = parse_score_response(&response.body).expect("batch body");
    assert_eq!(version, 1);
    let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
    let expected_bits: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
    assert_eq!(bits, expected_bits);

    // /version reports the artifact's provenance, not a placeholder.
    let version_response = http_roundtrip(&mut stream, "GET", "/version", None).expect("version");
    assert_eq!(version_response.status, 200);
    assert!(
        version_response.body.contains("er-serve"),
        "producer missing from {}",
        version_response.body
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_requests_get_error_bodies_and_the_connection_survives() {
    let mut model = untrained_model();
    let inputs = training_inputs(&model, 80);
    train(
        &mut model,
        &inputs,
        &RiskTrainConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model.clone()),
        ServeConfig::default().with_threads(1),
    ));
    let server = ScoreServer::start(executor, ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // Syntactically broken JSON → 400 with a deterministic error body.
    let bad = http_roundtrip(&mut stream, "POST", "/score", Some("[{\"pair_id\": }")).expect("still a response");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.starts_with("{\"error\":"), "{}", bad.body);

    // Well-formed JSON that is not a score request → 400, naming the field.
    let wrong_shape = http_roundtrip(&mut stream, "POST", "/score", Some("{\"hello\": 1}")).expect("still a response");
    assert_eq!(wrong_shape.status, 400, "{}", wrong_shape.body);

    // A short metric row inside a batch → 422 naming the offending index,
    // and the well-formed neighbors of the same batch are not penalized on
    // the retry without the bad request.
    let mut batch = serving_requests(4);
    batch[2].metric_row = vec![0.5];
    let body = serde::json::to_string(&batch);
    let unscorable = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("still a response");
    assert_eq!(unscorable.status, 422, "{}", unscorable.body);
    assert!(unscorable.body.contains("\"request_index\":2"), "{}", unscorable.body);

    // The same connection keeps serving after every rejection.
    let good = serving_requests(3);
    let expected = ScoringEngine::new(model).score_batch(&good);
    let body = serde::json::to_string(&good);
    let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("survives");
    assert_eq!(ok.status, 200, "{}", ok.body);
    let (_, scores) = parse_score_response(&ok.body).expect("body");
    let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
    let expected_bits: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
    assert_eq!(bits, expected_bits);

    server.shutdown();
}

#[test]
fn concurrent_clients_coalesce_into_micro_batches_without_score_drift() {
    let mut model = untrained_model();
    let inputs = training_inputs(&model, 80);
    train(
        &mut model,
        &inputs,
        &RiskTrainConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model.clone()),
        ServeConfig::default().with_threads(2),
    ));
    let server = ScoreServer::start(executor, ServerConfig::default()).expect("bind");
    let requests = serving_requests(60);
    let expected = ScoringEngine::new(model).score_batch(&requests);
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for chunk in requests.chunks(15).zip(expected.chunks(15)) {
            let (requests, expected) = chunk;
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                for (request, expected_score) in requests.iter().zip(expected) {
                    let body = serde::json::to_string(request);
                    let response = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("round trip");
                    assert_eq!(response.status, 200, "{}", response.body);
                    let (_, scores) = parse_score_response(&response.body).expect("body");
                    assert_eq!(scores[0].to_bits(), expected_score.to_bits());
                }
            });
        }
    });
    let metrics = server.metrics();
    let not_ok: Vec<_> = metrics
        .responses
        .snapshot()
        .into_iter()
        .filter(|(labels, n)| {
            *n > 0
                && !labels
                    .iter()
                    .any(|(name, status)| *name == "status" && status.starts_with('2'))
        })
        .collect();
    assert!(not_ok.is_empty(), "{not_ok:?}");
    assert_eq!(metrics.batched_requests.get(), 60);
    server.shutdown();
}

#[test]
fn rate_limited_client_is_rejected_over_a_raw_socket_while_metrics_attribute_it() {
    let mut model = untrained_model();
    let inputs = training_inputs(&model, 80);
    train(
        &mut model,
        &inputs,
        &RiskTrainConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model.clone()),
        ServeConfig::default().with_threads(1),
    ));
    // A slow-refill bucket so the burst is the whole budget for this test.
    let server = ScoreServer::start(
        executor,
        ServerConfig {
            rate_limit: Some(RateLimitConfig::new(0.001, 3.0)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let expected = ScoringEngine::new(model).score_batch(&serving_requests(1));
    let body = serde::json::to_string(&serving_requests(1)[0]);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // Client A spends its whole burst; every allowed response is still
    // bit-identical to the in-process engine (admission control must not
    // touch scoring).
    let a = [("X-Client-Id", "client-a")];
    for i in 0..3 {
        let ok = http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&body), &a).expect("round trip");
        assert_eq!(ok.status, 200, "burst request {i}: {}", ok.body);
        let (_, scores) = parse_score_response(&ok.body).expect("body");
        assert_eq!(scores[0].to_bits(), expected[0].to_bits());
    }

    // The over-budget request bounces with the rate-limit shape — 429 plus
    // all three X-RateLimit-* headers and a non-zero Retry-After, which is
    // exactly what distinguishes it from a queue-full 429 — and the
    // connection itself survives the rejection.
    let limited =
        http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&body), &a).expect("still a response");
    assert_eq!(limited.status, 429, "{}", limited.body);
    assert_eq!(limited.header("x-ratelimit-limit"), Some("3"));
    assert_eq!(limited.header("x-ratelimit-remaining"), Some("0"));
    assert!(limited.header("x-ratelimit-reset").is_some(), "{:?}", limited.headers);
    assert!(
        limited.header("retry-after").is_some_and(|v| v != "0"),
        "rate-limit Retry-After must be the real refill time, got {:?}",
        limited.headers
    );

    // Client B shares the TCP connection and peer IP but presents its own
    // identity: its bucket is untouched.
    let b = [("X-Client-Id", "client-b")];
    let ok = http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&body), &b).expect("round trip");
    assert_eq!(ok.status, 200, "{}", ok.body);

    // The rejection is attributed in the exposition: one rate-limited
    // admission, zero queue-full ones, and only the four allowed requests
    // reached the scoring path.
    let scrape = http_roundtrip(&mut stream, "GET", "/metrics", None).expect("scrape");
    assert_eq!(scrape.status, 200);
    let samples = parse_exposition(&scrape.body).expect("exposition parses");
    let value = |name: &str| samples.iter().filter(|s| s.name == name).map(|s| s.value).sum::<f64>();
    let rejected = |cause: &str| {
        samples
            .iter()
            .filter(|s| s.name == "er_serve_rejected_total" && s.labels.iter().any(|(k, v)| k == "cause" && v == cause))
            .map(|s| s.value)
            .sum::<f64>()
    };
    assert_eq!(rejected("rate_limited"), 1.0);
    assert_eq!(rejected("queue_full"), 0.0);
    assert_eq!(value("er_serve_score_requests_total"), 4.0);

    server.shutdown();
}

/// Builds a small trained server for the degradation tests below.
fn trained_server(config: ServerConfig) -> (ScoreServer, LearnRiskModel) {
    let mut model = untrained_model();
    let inputs = training_inputs(&model, 80);
    train(
        &mut model,
        &inputs,
        &RiskTrainConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model.clone()),
        ServeConfig::default().with_threads(1),
    ));
    (ScoreServer::start(executor, config).expect("bind"), model)
}

#[test]
fn deadline_header_edge_cases_are_parsed_leniently_over_the_wire() {
    // A missing, zero, garbage, or absurdly huge X-Deadline-Ms must all
    // degrade to "no deadline" — a lenient header parse must never turn
    // into a spurious 504 or a 400.
    let (server, model) = trained_server(ServerConfig::default());
    let expected = ScoringEngine::new(model).score_batch(&serving_requests(1));
    let body = serde::json::to_string(&serving_requests(1)[0]);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let cases: [&[(&str, &str)]; 4] = [
        &[],                                          // missing header
        &[("X-Deadline-Ms", "0")],                    // zero is "unset", not "already dead"
        &[("X-Deadline-Ms", "soon")],                 // garbage is "unset" too
        &[("X-Deadline-Ms", "18446744073709551615")], // u64::MAX saturates to "no deadline"
    ];
    for headers in cases {
        let ok =
            http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&body), headers).expect("still a response");
        assert_eq!(ok.status, 200, "headers {headers:?}: {}", ok.body);
        let (_, scores) = parse_score_response(&ok.body).expect("body");
        assert_eq!(scores[0].to_bits(), expected[0].to_bits(), "headers {headers:?}");
    }
    server.shutdown();
}

#[test]
fn retry_backoff_stays_within_the_capped_exponential_envelope() {
    // The bundled client's backoff schedule is deterministic per
    // (seed, attempt) and every delay sits in [cap/2, cap] where cap is the
    // capped exponential — bounded jitter, no thundering herd, no runaway.
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 5,
        max_backoff_ms: 80,
        seed: 7,
    };
    for attempt in 0..8u32 {
        let cap = (policy.base_backoff_ms << attempt.min(31))
            .min(policy.max_backoff_ms)
            .max(1);
        let floor = cap / 2;
        let delay = policy.backoff_ms(attempt);
        assert!(
            delay >= floor && delay <= cap,
            "attempt {attempt}: {delay}ms outside [{floor}, {cap}]"
        );
        assert_eq!(delay, policy.backoff_ms(attempt), "backoff must be deterministic");
    }
    // Different seeds de-synchronize concurrent clients: at least one
    // attempt draws a different jitter.
    let other = RetryPolicy { seed: 8, ..policy };
    assert!(
        (0..8).any(|a| policy.backoff_ms(a) != other.backoff_ms(a)),
        "two seeds produced identical schedules"
    );
}

#[test]
fn batcher_panic_is_a_500_then_the_recovered_server_scores_bit_exactly() {
    // A panic inside the batcher poisons nothing the handlers can see: the
    // in-flight request gets a deterministic 500 on a connection that stays
    // open, the supervisor restarts the batcher, and the very next request
    // on the SAME connection scores bit-identically to the in-process
    // engine. The bundled retry client turns that 500 → 200 sequence into
    // one successful call.
    let plan = Arc::new(FaultPlan::parse("batcher_panic@0,2").expect("spec"));
    let (server, model) = trained_server(ServerConfig {
        fault_plan: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    });
    let expected = ScoringEngine::new(model).score_batch(&serving_requests(1));
    let body = serde::json::to_string(&serving_requests(1)[0]);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let failed = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("still a response");
    assert_eq!(failed.status, 500, "{}", failed.body);
    assert!(failed.body.contains("panic"), "{}", failed.body);

    let ok = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("connection survived the panic");
    assert_eq!(ok.status, 200, "{}", ok.body);
    let (_, scores) = parse_score_response(&ok.body).expect("body");
    assert_eq!(
        scores[0].to_bits(),
        expected[0].to_bits(),
        "restart must not drift scores"
    );

    // The second injected panic (occurrence 2) is absorbed by the retry
    // client without the caller ever seeing the 500.
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff_ms: 1,
        max_backoff_ms: 4,
        seed: 1,
    };
    let (retried, attempts) =
        er_serve::server::http_roundtrip_with_retry(server.local_addr(), "POST", "/score", Some(&body), &[], &policy)
            .expect("retry client");
    assert_eq!(retried.status, 200, "{}", retried.body);
    assert_eq!(
        attempts, 2,
        "initial try plus exactly one retry after the injected panic"
    );
    let (_, scores) = parse_score_response(&retried.body).expect("body");
    assert_eq!(scores[0].to_bits(), expected[0].to_bits());

    // Both panics are attributed in the exposition.
    let scrape = http_roundtrip(&mut stream, "GET", "/metrics", None).expect("scrape");
    let samples = parse_exposition(&scrape.body).expect("exposition parses");
    let role_total = |name: &str| {
        samples
            .iter()
            .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "role" && v == "batcher"))
            .map(|s| s.value)
            .sum::<f64>()
    };
    assert_eq!(role_total("er_serve_worker_panics_total"), 2.0);
    server.shutdown();
}

#[test]
fn a_stalled_batch_does_not_freeze_the_readiness_loop() {
    // An injected scoring stall holds its batch on a timer: the driver keeps
    // serving other connections meanwhile, then scores the held request
    // bit-exactly once the stall expires.
    let plan = Arc::new(FaultPlan::parse("score_stall@0:400ms").expect("spec"));
    let (server, model) = trained_server(ServerConfig {
        fault_plan: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    });
    let expected = ScoringEngine::new(model).score_batch(&serving_requests(1));
    let body = serde::json::to_string(&serving_requests(1)[0]);
    let addr = server.local_addr();
    let stalled = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let sent = std::time::Instant::now();
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("stalled response");
        (response, sent.elapsed())
    });
    let fired_by = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while plan.fired(er_serve::FaultKind::ScoreStall) == 0 {
        assert!(std::time::Instant::now() < fired_by, "the stall never fired");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut probe = TcpStream::connect(addr).expect("connect probe");
    let asked = std::time::Instant::now();
    let health = http_roundtrip(&mut probe, "GET", "/healthz", None).expect("health during the stall");
    let answered_in = asked.elapsed();
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(
        answered_in < std::time::Duration::from_millis(200),
        "/healthz took {answered_in:?} behind a stalled batch"
    );
    let (response, took) = stalled.join().expect("stalled client");
    assert_eq!(response.status, 200, "{}", response.body);
    let (_, scores) = parse_score_response(&response.body).expect("body");
    assert_eq!(scores[0].to_bits(), expected[0].to_bits());
    assert!(
        took >= std::time::Duration::from_millis(350),
        "the stall must hold the request, yet it returned in {took:?}"
    );
    server.shutdown();
}

#[test]
fn resuming_intake_scores_queued_jobs_without_waiting_for_the_poll_tick() {
    // Resume wakes the driver: a job queued while paused is answered within
    // a few milliseconds, well before the loop's 100 ms poll tick would
    // have let it notice on its own.
    let (server, model) = trained_server(ServerConfig::default());
    let expected = ScoringEngine::new(model).score_batch(&serving_requests(1));
    let body = serde::json::to_string(&serving_requests(1)[0]);
    let addr = server.local_addr();
    server.pause_intake();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("response")
    });
    let queued_by = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.queued_jobs() < 1 {
        assert!(std::time::Instant::now() < queued_by, "the job was never queued");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // The driver is now asleep in a poll of up to one tick; resume partway
    // into it.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let resumed = std::time::Instant::now();
    server.resume_intake();
    let response = client.join().expect("client");
    let answered_in = resumed.elapsed();
    assert_eq!(response.status, 200, "{}", response.body);
    let (_, scores) = parse_score_response(&response.body).expect("body");
    assert_eq!(scores[0].to_bits(), expected[0].to_bits());
    assert!(
        answered_in < std::time::Duration::from_millis(50),
        "resume took {answered_in:?} to score a queued job"
    );
    assert_eq!(server.queued_jobs(), 0);
    server.shutdown();
}

#[test]
fn coalesced_jobs_answer_their_own_connections() {
    // Four connections park distinct jobs — two single objects and two
    // arrays of different lengths — behind paused intake, so resuming
    // scores all of them in one coalesced batch. Each connection must get
    // exactly its own scores back.
    let (server, model) = trained_server(ServerConfig::default());
    let requests = serving_requests(10);
    let expected = ScoringEngine::new(model).score_batch(&requests);
    let slices = [0..1, 1..4, 4..9, 9..10];
    let bodies: Vec<String> = slices
        .iter()
        .map(|range| match range.len() {
            1 => serde::json::to_string(&requests[range.start]),
            _ => serde::json::to_string(&requests[range.clone()].to_vec()),
        })
        .collect();
    let batches = |server: &ScoreServer| {
        let samples = parse_exposition(&server.metrics().render()).expect("exposition parses");
        samples
            .iter()
            .filter(|s| s.name == "er_serve_batches_total")
            .map(|s| s.value)
            .sum::<f64>()
    };
    let batches_before = batches(&server);
    server.pause_intake();
    let addr = server.local_addr();
    let clients: Vec<_> = bodies
        .into_iter()
        .map(|body| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("response")
            })
        })
        .collect();
    let queued_by = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.queued_jobs() < 4 {
        assert!(std::time::Instant::now() < queued_by, "the jobs were never queued");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    server.resume_intake();
    for (client, range) in clients.into_iter().zip(slices) {
        let response = client.join().expect("client");
        assert_eq!(response.status, 200, "{}", response.body);
        let (_, scores) = parse_score_response(&response.body).expect("body");
        let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        let expected_bits: Vec<u64> = expected[range.clone()].iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, expected_bits, "connection for requests {range:?}");
    }
    assert_eq!(
        batches(&server) - batches_before,
        1.0,
        "the four jobs coalesce into one batch"
    );
    server.shutdown();
}

#[test]
fn chaos_under_live_traffic_is_supervised_reconciled_and_sheds_expired_work() {
    // A fixed-seed plan fires at exact occurrences, so every count below is
    // an equality: 3 shard-worker panics, 2 batcher panics, a 150 ms scoring
    // stall, a 100 ms slow client write, then a torn and an invalid reload.
    const REQUESTS: u64 = 300;
    let spec = "seed=2020; shard_worker_panic@0,40,80; batcher_panic@20,120; \
                score_stall@60:150ms; client_write_stall@100:100ms; \
                artifact_read_torn@0; reload_validate_fail@0";
    let plan = Arc::new(FaultPlan::parse(spec).expect("spec"));
    let model = untrained_model();
    let dir = std::env::temp_dir().join(format!("er-serve-chaos-{}", std::process::id()));
    let artifact = dir.join("model.json");
    ModelArtifact::new(model.clone())
        .save(&artifact)
        .expect("save artifact");
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model.clone()),
        ServeConfig::default().with_threads(2),
    ));
    let server = ScoreServer::start(
        Arc::clone(&executor),
        ServerConfig {
            queue_capacity: 16,
            trace_capacity: 0,
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    // Distinct pairs: every request misses the cache and reaches a shard
    // worker, so the worker panics fire at fixed requests.
    let requests = serving_requests(REQUESTS);
    let expected = ScoringEngine::new(model).score_batch(&requests);
    let policy = RetryPolicy {
        max_attempts: 6,
        base_backoff_ms: 5,
        max_backoff_ms: 100,
        seed: 2020,
    };
    let reload_body = format!(
        "{{\"path\": {}}}",
        serde::json::to_string(&artifact.display().to_string())
    );

    // One retrying client. A panicked batch answers 500 on a connection that
    // stays open; a transport error is a severed connection.
    let mut severed = 0u32;
    let mut retried = 0u64;
    let mut reloads_refused = 0;
    let mut stream = TcpStream::connect(addr).expect("connect");
    for (i, (request, expected)) in requests.iter().zip(&expected).enumerate() {
        if i as u64 == REQUESTS / 3 || i as u64 == 2 * REQUESTS / 3 {
            let refused = http_roundtrip(&mut stream, "POST", "/reload", Some(&reload_body)).expect("reload");
            assert_eq!(refused.status, 409, "{}", refused.body);
            reloads_refused += 1;
        }
        let body = serde::json::to_string(request);
        let mut attempt = 0;
        loop {
            match http_roundtrip(&mut stream, "POST", "/score", Some(&body)) {
                Ok(response) if response.status == 200 => {
                    let (version, scores) = parse_score_response(&response.body).expect("score body");
                    assert_eq!(version, 1, "a refused reload leaked");
                    assert_eq!(scores.len(), 1);
                    assert_eq!(
                        scores[0].to_bits(),
                        expected.to_bits(),
                        "pair {i} drifted across a recovery"
                    );
                    break;
                }
                Ok(response) => assert!(
                    matches!(response.status, 429 | 500 | 503),
                    "request {i}: {} {}",
                    response.status,
                    response.body
                ),
                Err(_) => {
                    severed += 1;
                    stream = TcpStream::connect(addr).expect("reconnect");
                }
            }
            attempt += 1;
            assert!(attempt < policy.max_attempts, "request {i} exhausted its attempts");
            std::thread::sleep(std::time::Duration::from_millis(policy.backoff_ms(attempt - 1)));
        }
        retried += u64::from(attempt > 0);
    }
    assert_eq!(severed, 0, "supervision must never sever a connection");
    let shard_panics = plan.fired(FaultKind::ShardWorkerPanic);
    let batcher_panics = plan.fired(FaultKind::BatcherPanic);
    assert_eq!((shard_panics, batcher_panics), (3, 2));
    assert!(retried >= batcher_panics, "{retried} retried");
    assert_eq!(plan.fired(FaultKind::ArtifactReadTorn), 1);
    assert_eq!(plan.fired(FaultKind::ReloadValidateFail), 1);
    assert_eq!(reloads_refused, 2);
    assert_eq!(executor.version(), 1);

    // Deadline tranche: park 8 jobs whose 5 ms budget expires in the queue;
    // on resume every one is shed with a 504 within 500 ms, not scored.
    const TRANCHE: usize = 8;
    server.pause_intake();
    let body = serde::json::to_string(&requests[0]);
    let tranche: Vec<_> = (0..TRANCHE)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&body), &[("X-Deadline-Ms", "5")])
                    .expect("tranche round trip")
            })
        })
        .collect();
    let queued_by = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.queued_jobs() < TRANCHE {
        assert!(std::time::Instant::now() < queued_by, "the tranche never queued");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    let resumed = std::time::Instant::now();
    server.resume_intake();
    for handle in tranche {
        let response = handle.join().expect("tranche client");
        assert_eq!(response.status, 504, "{}", response.body);
    }
    let shed_in = resumed.elapsed();
    assert!(
        shed_in < std::time::Duration::from_millis(500),
        "shedding {TRANCHE} jobs took {shed_in:?}"
    );

    // The scrape reconciles with the plan's own counts.
    let scrape = http_roundtrip(&mut stream, "GET", "/metrics", None).expect("scrape");
    let samples = parse_exposition(&scrape.body).expect("exposition parses");
    let total = |name: &str, label: Option<(&str, &str)>| {
        samples
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value as u64)
            .sum::<u64>()
    };
    assert_eq!(
        total("er_serve_worker_panics_total", None),
        shard_panics + batcher_panics
    );
    assert_eq!(
        total("er_serve_rejected_total", Some(("cause", "deadline"))),
        TRANCHE as u64
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
