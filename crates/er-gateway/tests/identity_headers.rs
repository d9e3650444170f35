//! The gateway forwards the client's identity to the backend. Every case
//! runs over a raw socket against a [`GatewayServer`] in front of one bare
//! [`ScoreServer`]:
//! - `X-Client-Id` reaches the backend, so per-client rate limiting keeps
//!   one bucket per client instead of collapsing onto the gateway's address;
//! - `X-Request-Id` reaches the backend (a generated one when the client
//!   sent none or an invalid one) and is echoed to the client, so one id
//!   names the request in the client's logs and in the backend's traces.

use er_base::Label;
use er_gateway::{GatewayConfig, GatewayServer};
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{
    http_roundtrip, http_roundtrip_with_headers, valid_trace_id, RateLimitConfig, ReloadableExecutor, ScoreServer,
    ScoringEngine, ServeConfig, ServerConfig,
};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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

/// A backend with `config`, and a gateway in front of it that never hedges
/// (a hedge would send the backend a second copy of the request).
fn gateway_over(config: ServerConfig) -> (ScoreServer, GatewayServer) {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(tiny_model()),
        ServeConfig::default().with_threads(1),
    ));
    let backend = ScoreServer::start(executor, config).expect("bind backend");
    let gateway = GatewayServer::start(GatewayConfig {
        backends: vec![backend.local_addr()],
        hedge_after: None,
        ..GatewayConfig::default()
    })
    .expect("bind gateway");
    (backend, gateway)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
}

fn score_body(pair_id: u64) -> String {
    format!(
        r#"{{"pair_id": {pair_id}, "metric_row": [0.1, 0.9], "classifier_output": 0.1, "machine_says_match": false}}"#
    )
}

#[test]
fn clients_behind_one_gateway_keep_separate_rate_limit_buckets() {
    // Burst of 2, negligible refill: a client's third request bounces.
    let (_backend, gateway) = gateway_over(ServerConfig {
        rate_limit: Some(RateLimitConfig::new(0.001, 2.0)),
        ..ServerConfig::default()
    });
    let mut stream = connect(gateway.local_addr());
    let a = [("X-Client-Id", "client-a")];
    for pair_id in 0..2 {
        let ok =
            http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&score_body(pair_id)), &a).expect("score");
        assert_eq!(ok.status, 200, "{}", ok.body);
    }
    let limited =
        http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&score_body(2)), &a).expect("response");
    assert_eq!(limited.status, 429, "{}", limited.body);
    // The backend's back-off advice survives the hop, so the client can
    // tell its own empty bucket from a saturated queue.
    assert_eq!(limited.header("x-ratelimit-limit"), Some("2"), "{:?}", limited.headers);
    assert_eq!(
        limited.header("x-ratelimit-remaining"),
        Some("0"),
        "{:?}",
        limited.headers
    );
    assert!(limited.header("retry-after").is_some(), "{:?}", limited.headers);
    // A second client through the same gateway (same peer address at the
    // backend) still has its whole burst.
    let mut other = connect(gateway.local_addr());
    let b = [("X-Client-Id", "client-b")];
    for pair_id in 3..5 {
        let ok =
            http_roundtrip_with_headers(&mut other, "POST", "/score", Some(&score_body(pair_id)), &b).expect("score");
        assert_eq!(ok.status, 200, "client-b was limited by client-a's bucket: {}", ok.body);
    }
}

#[test]
fn the_request_id_reaches_the_backend_trace_and_returns_to_the_client() {
    let (backend, gateway) = gateway_over(ServerConfig::default());
    let mut stream = connect(gateway.local_addr());
    let supplied = [("X-Request-Id", "analyst-7.pair_42")];
    let ok =
        http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&score_body(42)), &supplied).expect("score");
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert_eq!(ok.header("x-request-id"), Some("analyst-7.pair_42"));

    // No id, or one the backend would refuse: the gateway mints a valid id,
    // echoes it, and forwards it.
    let minted = http_roundtrip(&mut stream, "POST", "/score", Some(&score_body(43))).expect("score");
    let minted_id = minted.header("x-request-id").expect("generated id").to_string();
    assert!(valid_trace_id(&minted_id), "{minted_id:?}");
    let hostile = [("X-Request-Id", "evil id\"<script>")];
    let replaced =
        http_roundtrip_with_headers(&mut stream, "POST", "/score", Some(&score_body(44)), &hostile).expect("score");
    let replaced_id = replaced.header("x-request-id").expect("replacement id").to_string();
    assert!(
        valid_trace_id(&replaced_id) && replaced_id != minted_id,
        "{replaced_id:?}"
    );
    // Gateway-level errors carry the id too.
    let missing = http_roundtrip_with_headers(&mut stream, "GET", "/nope", None, &supplied).expect("response");
    assert_eq!(missing.status, 404);
    assert_eq!(missing.header("x-request-id"), Some("analyst-7.pair_42"));

    let mut direct = connect(backend.local_addr());
    let traces = http_roundtrip(&mut direct, "GET", "/debug/traces", None).expect("traces");
    assert_eq!(traces.status, 200, "{}", traces.body);
    for id in ["analyst-7.pair_42", minted_id.as_str(), replaced_id.as_str()] {
        assert!(
            traces.body.contains(&format!("\"trace_id\":\"{id}\"")),
            "backend traces lack {id}: {}",
            traces.body
        );
    }
}
