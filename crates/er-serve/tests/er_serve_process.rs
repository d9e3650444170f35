//! The `er-serve` binary as its own OS process: booted from an artifact
//! file, it announces its address, version and digest, serves a Zipf replay
//! over several keep-alive connections with the in-process engine's scores
//! bit for bit, hot-reloads to a second artifact, takes its fault plan from
//! `ER_FAULT_PLAN`, and frames requests with `er_serve::http` (a conflicting
//! `Content-Length` is a 400, HTTP/1.0 closes).

use er_base::Label;
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{
    http_roundtrip, model_digest, parse_score_response, read_http_response, zipf_stream, ModelArtifact, ReplayConfig,
    ScoreRequest, ScoringEngine,
};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn model(weight0: f64) -> LearnRiskModel {
    let rules = vec![
        Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 20, 0.97),
        Rule::new(vec![Condition::new(1, CmpOp::Le, 0.3)], Label::Equivalent, 15, 0.93),
    ];
    let feature_set = RiskFeatureSet {
        rules,
        metrics: vec![],
        expectations: vec![0.05, 0.92],
        support: vec![20, 15],
    };
    let mut model = LearnRiskModel::new(feature_set, RiskModelConfig::default());
    model.rule_weights[0] = weight0;
    model
}

/// A directory of its own per test, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("er-serve-process-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    /// Writes `model` as the artifact `name` and returns its path.
    fn artifact(&self, name: &str, model: &LearnRiskModel) -> PathBuf {
        let path = self.0.join(name);
        ModelArtifact::new(model.clone()).save(&path).expect("save artifact");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One spawned `er-serve`; killed on drop. Its stdout stays open so the
/// process never writes into a closed pipe.
struct ServeProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// The rest of the `LISTENING <addr> ...` banner.
    banner: String,
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn(artifact: &Path, fault_plan: Option<&str>) -> ServeProcess {
    let mut command = Command::new(env!("CARGO_BIN_EXE_er-serve"));
    command
        .arg("--artifact")
        .arg(artifact)
        .args(["--listen", "127.0.0.1:0", "--threads", "1"])
        .stdout(Stdio::piped())
        .env_remove("ER_FAULT_PLAN");
    if let Some(plan) = fault_plan {
        // Keep the injected panics' reports out of the test output.
        command.env("ER_FAULT_PLAN", plan).stderr(Stdio::null());
    }
    let mut child = command.spawn().expect("spawn er-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let rest = banner
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("banner {banner:?}"));
    let (addr, rest) = rest.trim().split_once(' ').expect("banner fields");
    ServeProcess {
        child,
        _stdout: stdout,
        addr: addr.parse().expect("banner address"),
        banner: rest.to_string(),
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
}

/// A Zipf(1.1) stream over 200 pairs.
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
/// every answer is a 200 tagged `version` carrying `engine`'s score bit for
/// bit.
fn assert_scores(addr: SocketAddr, requests: &[ScoreRequest], engine: &ScoringEngine, version: u64) {
    let expected = engine.score_batch(requests);
    let mut stream = connect(addr);
    for (request, expected) in requests.iter().zip(expected) {
        let body = serde::json::to_string(request);
        let response = http_roundtrip(&mut stream, "POST", "/score", Some(&body)).expect("connection dropped");
        assert_eq!(response.status, 200, "pair {}: {}", request.pair_id, response.body);
        let (served_version, scores) = parse_score_response(&response.body).expect("score body");
        assert_eq!(served_version, version);
        assert_eq!(
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            [expected.to_bits()],
            "pair {} diverged in the er-serve process",
            request.pair_id
        );
    }
}

#[test]
fn a_spawned_er_serve_scores_a_replay_bit_exactly_and_hot_reloads() {
    const CLIENTS: usize = 4;
    let (v1, v2) = (model(1.3), model(0.6));
    let scratch = Scratch::new("replay");
    let v1_path = scratch.artifact("v1.json", &v1);
    let v2_path = scratch.artifact("v2.json", &v2);
    let process = spawn(&v1_path, None);
    assert_eq!(
        process.banner,
        format!("version=1 digest={}", model_digest(&v1)),
        "the banner names the booted artifact"
    );
    let replay = stream(800);
    let v1_engine = ScoringEngine::new(v1);
    std::thread::scope(|scope| {
        for chunk in replay.chunks(replay.len() / CLIENTS) {
            scope.spawn(|| assert_scores(process.addr, chunk, &v1_engine, 1));
        }
    });

    let body = format!(
        "{{\"path\": {}}}",
        serde::json::to_string(&v2_path.display().to_string())
    );
    let reloaded = http_roundtrip(&mut connect(process.addr), "POST", "/reload", Some(&body)).expect("reload");
    assert_eq!(reloaded.status, 200, "{}", reloaded.body);
    assert_scores(process.addr, &replay[..200], &ScoringEngine::new(v2), 2);
}

#[test]
fn a_spawned_er_serve_takes_its_fault_plan_from_the_environment() {
    let v1 = model(1.3);
    let scratch = Scratch::new("faults");
    let process = spawn(&scratch.artifact("v1.json", &v1), Some("batcher_panic@0"));
    let requests = stream(4);
    let body = serde::json::to_string(&requests[0]);
    let failed = http_roundtrip(&mut connect(process.addr), "POST", "/score", Some(&body)).expect("a response");
    assert_eq!(failed.status, 500, "{}", failed.body);
    // The process survives the supervised panic and scores bit-exactly.
    assert_scores(process.addr, &requests, &ScoringEngine::new(v1), 1);
}

#[test]
fn a_spawned_er_serve_frames_with_the_shared_codec() {
    let scratch = Scratch::new("wiring");
    let process = spawn(&scratch.artifact("v1.json", &model(1.3)), None);
    let exchange = |request: &[u8]| {
        let mut stream = connect(process.addr);
        stream.write_all(request).expect("write");
        let response = read_http_response(&mut stream).expect("response");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("the server closes");
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
