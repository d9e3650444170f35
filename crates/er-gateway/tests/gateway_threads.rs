//! The gateway's connection model, measured from inside its process: one
//! readiness loop owns every downstream connection, so the thread count
//! does not grow with connections, and `io_timeout` still closes a
//! connection that sends nothing. A test binary of its own, so no other
//! suite's threads perturb the count; the tests in it take turns.

use er_base::Label;
use er_gateway::{GatewayConfig, GatewayServer};
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{
    http_roundtrip, parse_score_response, ReloadableExecutor, ScoreRequest, ScoreServer, ScoringEngine, ServeConfig,
    ServerConfig,
};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The tests in this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny_model() -> LearnRiskModel {
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

fn backend(max_connections: usize) -> ScoreServer {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(tiny_model()),
        ServeConfig::default().with_threads(1),
    ));
    let config = ServerConfig {
        max_connections,
        ..ServerConfig::default()
    };
    ScoreServer::start(executor, config).expect("bind backend")
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

#[test]
fn threads_do_not_grow_with_connections() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let backend = backend(512);
    let gateway = GatewayServer::start(GatewayConfig {
        backends: vec![backend.local_addr()],
        ..GatewayConfig::default()
    })
    .expect("bind gateway");
    let engine = ScoringEngine::new(tiny_model());
    let before = threads();

    let mut conns = Vec::with_capacity(256);
    for pair_id in 0..256u64 {
        let x = (pair_id % 10) as f64 / 10.0;
        let request = ScoreRequest {
            pair_id,
            metric_row: vec![x, 1.0 - x],
            classifier_output: x,
            machine_says_match: x >= 0.5,
        };
        let mut conn = TcpStream::connect(gateway.local_addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let response =
            http_roundtrip(&mut conn, "POST", "/score", Some(&serde::json::to_string(&request))).expect("score");
        assert_eq!(response.status, 200, "{}", response.body);
        let (_, scores) = parse_score_response(&response.body).expect("score body");
        let expected = engine.score_batch(std::slice::from_ref(&request));
        assert_eq!(scores[0].to_bits(), expected[0].to_bits(), "pair {pair_id} drifted");
        conns.push(conn);
    }
    let during = threads();
    assert!(
        during <= before + 4,
        "256 open connections grew the process from {before} to {during} threads"
    );
    // Every connection is still alive.
    for conn in &mut conns {
        let health = http_roundtrip(conn, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200);
    }
}

#[test]
fn io_timeout_closes_silent_and_stalled_connections() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let backend = backend(256);
    let gateway = GatewayServer::start(GatewayConfig {
        backends: vec![backend.local_addr()],
        io_timeout: Duration::from_millis(300),
        ..GatewayConfig::default()
    })
    .expect("bind gateway");
    let started = Instant::now();
    let mut silent = TcpStream::connect(gateway.local_addr()).expect("connect");
    let mut stalled = TcpStream::connect(gateway.local_addr()).expect("connect");
    stalled
        .write_all(b"POST /score HTTP/1.1\r\nHost: t\r\n")
        .expect("half a head");
    for (name, conn) in [("silent", &mut silent), ("stalled", &mut stalled)] {
        conn.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let mut byte = [0u8; 1];
        match conn.read(&mut byte) {
            Ok(0) => {}
            Ok(_) => panic!("{name}: the gateway answered a request it never received"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "{name}: still open after {:?}",
                started.elapsed()
            ),
        }
    }
    assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
}
