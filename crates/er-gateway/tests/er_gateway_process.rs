//! The `er-gateway` binary as its own OS process, in front of in-process
//! `er-serve` backends: the hop crosses a real process boundary.
//!
//! - a Zipf replay through one and then two backends answers every request
//!   200 with the in-process engine's score bit for bit, and with two
//!   backends both serve part of the keyspace;
//! - with one backend stalling every score, requests aimed at it are won by
//!   the hedge, bit-exactly;
//! - the binary boots healthy and stable, with one artifact digest across
//!   its backends, and frames requests with `er_serve::http` (a conflicting
//!   `Content-Length` is a 400, HTTP/1.0 closes).

use er_base::Label;
use er_gateway::{GatewayConfig, HashRing};
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{
    http_roundtrip, parse_score_response, read_http_response, zipf_stream, FaultPlan, ModelArtifact,
    ReloadableExecutor, ReplayConfig, ScoreRequest, ScoreServer, ScoringEngine, ServeConfig, ServerConfig,
};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
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

/// The baseline artifact the gateway binary requires, in a directory of its
/// own per test that is removed when the test ends.
struct Baseline(PathBuf);

impl Baseline {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("er-gateway-process-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ModelArtifact::new(tiny_model())
            .save(dir.join("baseline.json"))
            .expect("save artifact");
        Baseline(dir)
    }

    fn path(&self) -> String {
        self.0.join("baseline.json").to_string_lossy().into_owned()
    }
}

impl Drop for Baseline {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn backend(fault_plan: Option<&str>) -> ScoreServer {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(tiny_model()),
        ServeConfig::default().with_threads(1),
    ));
    let config = ServerConfig {
        fault_plan: fault_plan.map(|spec| Arc::new(FaultPlan::parse(spec).expect("fault spec parses"))),
        ..ServerConfig::default()
    };
    ScoreServer::start(executor, config).expect("bind backend")
}

/// One spawned `er-gateway`; killed on drop. Its stdout stays open so the
/// process never writes into a closed pipe.
struct GatewayProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Drop for GatewayProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the gateway binary in front of `backends` and reads the bound
/// address from its `LISTENING <addr> backends=<n>` banner.
fn spawn_gateway(backends: &[SocketAddr], baseline: &str, flags: &[&str]) -> GatewayProcess {
    let mut command = Command::new(env!("CARGO_BIN_EXE_er-gateway"));
    for backend in backends {
        command.arg("--backend").arg(backend.to_string());
    }
    let mut child = command
        .args([
            "--baseline",
            baseline,
            "--listen",
            "127.0.0.1:0",
            "--health-interval-ms",
            "100",
        ])
        .args(flags)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn er-gateway");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let mut words = banner.split_whitespace();
    assert_eq!(words.next(), Some("LISTENING"), "banner {banner:?}");
    let addr = words.next().and_then(|a| a.parse().ok()).expect("banner address");
    assert_eq!(words.next(), Some(format!("backends={}", backends.len()).as_str()));
    GatewayProcess {
        child,
        _stdout: stdout,
        addr,
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
}

fn get_json(addr: SocketAddr, path: &str) -> serde::Value {
    let response = http_roundtrip(&mut connect(addr), "GET", path, None).expect(path);
    assert_eq!(response.status, 200, "{path}: {}", response.body);
    serde::json::parse(&response.body).expect("JSON body")
}

fn stats_u64s(stats: &serde::Value, key: &str) -> Vec<u64> {
    serde::from_value(stats.get(key).unwrap_or_else(|| panic!("stats lack {key}"))).expect("u64 list")
}

fn stat(stats: &serde::Value, key: &str) -> u64 {
    serde::from_value(stats.get(key).unwrap_or_else(|| panic!("stats lack {key}"))).expect("u64")
}

/// A Zipf(1.1) stream over 200 pairs, as an analyst's re-scoring loop skews
/// toward contested pairs.
fn stream(requests: usize) -> Vec<ScoreRequest> {
    let pool: Vec<ScoreRequest> = (0..200u64)
        .map(|pair_id| {
            let x = (pair_id as f64 * 0.618_033_988_749_895).fract();
            ScoreRequest {
                pair_id,
                metric_row: vec![x, 1.0 - x],
                classifier_output: x,
                machine_says_match: x >= 0.5,
            }
        })
        .collect();
    zipf_stream(
        &pool,
        &ReplayConfig {
            requests,
            zipf_exponent: 1.1,
            seed: 2020,
        },
    )
}

/// Sends `requests` one at a time on one keep-alive connection and asserts
/// every answer is a 200 carrying `engine`'s score bit for bit.
fn assert_scores_bit_exact(addr: SocketAddr, requests: &[ScoreRequest], engine: &ScoringEngine) {
    let expected = engine.score_batch(requests);
    let mut stream = connect(addr);
    for (request, expected) in requests.iter().zip(expected) {
        let body = serde::json::to_string(request);
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("connection dropped");
        assert_eq!(response.status, 200, "pair {}: {}", request.pair_id, response.body);
        let (_, scores) = parse_score_response(&response.body).expect("score body");
        assert_eq!(
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            [expected.to_bits()],
            "pair {} diverged through the gateway process",
            request.pair_id
        );
    }
}

#[test]
fn a_spawned_gateway_relays_a_replay_bit_exactly_through_one_and_two_backends() {
    const CLIENTS: usize = 4;
    let baseline = Baseline::new("series");
    let engine = ScoringEngine::new(tiny_model());
    let replay = stream(800);
    for n in [1usize, 2] {
        let backends: Vec<ScoreServer> = (0..n).map(|_| backend(None)).collect();
        let addrs: Vec<SocketAddr> = backends.iter().map(ScoreServer::local_addr).collect();
        let gateway = spawn_gateway(&addrs, &baseline.path(), &[]);
        std::thread::scope(|scope| {
            for chunk in replay.chunks(replay.len() / CLIENTS) {
                scope.spawn(|| assert_scores_bit_exact(gateway.addr, chunk, &engine));
            }
        });
        let stats = get_json(gateway.addr, "/gateway/stats");
        assert_eq!(stat(&stats, "responses_2xx"), replay.len() as u64, "{n} backends");
        assert_eq!(stat(&stats, "responses_non_2xx"), 0, "{n} backends");
        let served = stats_u64s(&stats, "served_by_backend");
        assert_eq!(served.iter().sum::<u64>(), replay.len() as u64, "{served:?}");
        assert!(
            served.iter().all(|&count| count > 0),
            "every backend serves part of the keyspace: {served:?}"
        );
        for backend in backends {
            backend.shutdown();
        }
    }
}

#[test]
fn a_spawned_gateway_hedges_around_a_stalled_backend_bit_exactly() {
    let baseline = Baseline::new("hedge");
    // Backend 1 stalls its first 16 scores by 300 ms each.
    let backends = [
        backend(None),
        backend(Some("seed=7; score_stall@0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15:300ms")),
    ];
    let addrs: Vec<SocketAddr> = backends.iter().map(ScoreServer::local_addr).collect();
    let gateway = spawn_gateway(&addrs, &baseline.path(), &["--hedge-after-ms", "25"]);
    // The binary's ring has the library's default vnodes.
    let ring = HashRing::new(2, GatewayConfig::default().vnodes);
    let stalled: Vec<ScoreRequest> = stream(400)
        .into_iter()
        .filter(|request| ring.route(request.pair_id, |_| true) == Some(1))
        .take(8)
        .collect();
    assert_eq!(stalled.len(), 8, "too few requests route to the stalled backend");
    assert_scores_bit_exact(gateway.addr, &stalled, &ScoringEngine::new(tiny_model()));
    let stats = get_json(gateway.addr, "/gateway/stats");
    assert!(stat(&stats, "hedges_won") >= 1, "no hedge won: {stats:?}");
    assert!(stat(&stats, "hedges_launched") >= stat(&stats, "hedges_won"));
}

#[test]
fn a_spawned_gateway_boots_healthy_and_frames_with_the_shared_codec() {
    let baseline = Baseline::new("wiring");
    let backends = [backend(None), backend(None)];
    let addrs: Vec<SocketAddr> = backends.iter().map(ScoreServer::local_addr).collect();
    let gateway = spawn_gateway(&addrs, &baseline.path(), &["--canary", "1"]);

    let health = get_json(gateway.addr, "/healthz");
    assert_eq!(
        health.get("healthy_backends"),
        Some(&serde::Value::UInt(2)),
        "{health:?}"
    );
    let stats = get_json(gateway.addr, "/gateway/stats");
    let phase = stats
        .get("canary")
        .and_then(|c| c.get("phase"))
        .and_then(|p| p.as_str());
    assert_eq!(phase, Some("stable"), "{stats:?}");
    let digests: std::collections::BTreeSet<_> = stats
        .get("backends")
        .and_then(|b| b.as_seq())
        .expect("backends")
        .iter()
        .map(|b| b.get("model_digest").and_then(|d| d.as_str()).unwrap_or("").to_string())
        .collect();
    assert_eq!(
        digests.len(),
        1,
        "backends disagree on the artifact digest: {digests:?}"
    );

    let exchange = |request: &[u8]| {
        let mut stream = connect(gateway.addr);
        stream.write_all(request).expect("write");
        let response = read_http_response(&mut stream).expect("response");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("the gateway closes");
        assert!(rest.is_empty(), "bytes after a closing response: {rest:?}");
        response
    };
    let conflicting = exchange(
        b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 3\r\nConnection: close\r\n\r\n{}",
    );
    assert_eq!(conflicting.status, 400, "{}", conflicting.body);
    let http10 = exchange(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
    assert_eq!(http10.status, 200, "{}", http10.body);
    assert_eq!(http10.header("connection"), Some("close"));
}
