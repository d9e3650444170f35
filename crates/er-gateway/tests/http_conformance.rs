//! HTTP/1.1 conformance of both processes. Every case runs over a raw socket
//! against a bare [`ScoreServer`] and against a [`GatewayServer`] in front
//! of one. Both frame messages with `er_serve::http`; this suite proves each
//! process is wired to it:
//! - framing violations (conflicting or malformed `Content-Length`,
//!   whitespace before a colon, obs-fold, `Transfer-Encoding`, unknown
//!   protocols, oversized heads and bodies, EOF mid-request) get their
//!   400/413/431 with a stable message and `Connection: close`, then EOF,
//!   never a second response parsed out of the leftovers;
//! - `Connection` is a token list, `close` survives a later header, HTTP/1.0
//!   defaults to close unless it asks for `keep-alive`, and every response
//!   after which the server closes says `Connection: close`;
//! - identical `Content-Length` repeats are tolerated;
//! - `Expect: 100-continue` gets exactly one interim response per request.
//!
//! The client half, [`read_http_response`], applies the same rules to
//! responses.

use er_base::Label;
use er_gateway::{GatewayConfig, GatewayServer};
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::http::{self, Progress};
use er_serve::{
    http_roundtrip, parse_score_response, read_http_response, ReloadableExecutor, ScoreServer, ScoringEngine,
    ServeConfig, ServerConfig,
};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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

/// Runs `case` against a bare backend, then against a gateway in front of
/// it; the first argument names the process for failure messages.
fn against_both(case: impl Fn(&str, SocketAddr)) {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(tiny_model()),
        ServeConfig::default().with_threads(1),
    ));
    let backend = ScoreServer::start(executor, ServerConfig::default()).expect("bind backend");
    let gateway = GatewayServer::start(GatewayConfig {
        backends: vec![backend.local_addr()],
        ..GatewayConfig::default()
    })
    .expect("bind gateway");
    case("er-serve", backend.local_addr());
    case("er-gateway", gateway.local_addr());
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn score_body() -> &'static str {
    r#"{"pair_id": 1, "metric_row": [0.1, 0.9], "classifier_output": 0.1, "machine_says_match": false}"#
}

/// Reads the stream to EOF, which must hold exactly one response.
fn read_until_close(stream: &mut TcpStream, process: &str) -> http::Response {
    let mut bytes = Vec::new();
    if let Err(e) = stream.read_to_end(&mut bytes) {
        panic!("{process}: no EOF after {:?}: {e}", String::from_utf8_lossy(&bytes));
    }
    match http::parse_response(&bytes, usize::MAX) {
        Ok(Progress::Complete(response, len)) if len == bytes.len() => response,
        other => panic!(
            "{process}: expected one response then EOF, got {other:?} from {:?}",
            String::from_utf8_lossy(&bytes)
        ),
    }
}

#[test]
fn framing_violations_get_their_status_then_close() {
    let body = score_body();
    let mut oversized_head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized_head.resize(http::MAX_HEAD_BYTES, b'a');
    let over_limit = format!("exceeds the {}-byte limit", http::MAX_BODY_BYTES);
    // (request, half-close after writing it, status, message substring)
    let cases: Vec<(Vec<u8>, bool, u16, &str)> = vec![
        (
            format!(
                "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len(),
                body.len() + 2
            )
            .into_bytes(),
            false,
            400,
            "conflicting Content-Length",
        ),
        // Framed by its (absent) Content-Length, the chunk payload would be
        // re-parsed as a smuggled second request.
        (
            b"POST /score HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
              1c\r\nPOST /score HTTP/1.1\r\n\r\n\r\n0\r\n\r\n"
                .to_vec(),
            false,
            400,
            "chunked bodies are not supported",
        ),
        (
            b"GET /healthz HTTP/2.0\r\nHost: t\r\n\r\n".to_vec(),
            false,
            400,
            "unsupported protocol",
        ),
        (
            b"GET /healthz\r\nHost: t\r\n\r\n".to_vec(),
            false,
            400,
            "malformed request line",
        ),
        (
            b"GET /h\xffz HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
            false,
            400,
            "request head is not UTF-8",
        ),
        // RFC 7230 §3.3.2: digits only, though `+2` parses as a `usize`.
        (
            b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: +2\r\n\r\n{}".to_vec(),
            false,
            400,
            "bad Content-Length",
        ),
        // §3.2.4: no whitespace between a field name and its colon.
        (
            b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length : 2\r\n\r\n{}".to_vec(),
            false,
            400,
            "its colon",
        ),
        // §3.2.4: an obs-fold line is refused, not read as a field of its own.
        (
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Note: a\r\n Content-Length: 0\r\n\r\n".to_vec(),
            false,
            400,
            "line folding",
        ),
        (
            b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: 1073741824\r\n\r\n".to_vec(),
            false,
            413,
            "request body of 1073741824 bytes",
        ),
        // One byte past the limit both processes share.
        (
            format!(
                "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                http::MAX_BODY_BYTES + 1
            )
            .into_bytes(),
            false,
            413,
            &over_limit,
        ),
        (oversized_head, false, 431, "request head too large"),
        (
            b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n{}".to_vec(),
            true,
            400,
            "connection closed mid-request",
        ),
    ];
    against_both(|process, addr| {
        for (request, half_close, status, needle) in &cases {
            let mut stream = connect(addr);
            stream.write_all(request).expect("write");
            if *half_close {
                stream.shutdown(Shutdown::Write).expect("half-close");
            }
            let response = read_until_close(&mut stream, process);
            let text = String::from_utf8_lossy(&response.body);
            assert_eq!(response.status, *status, "{process}: {text}");
            assert!(text.contains(needle), "{process}: {text}");
            assert_eq!(response.header("connection"), Some("close"), "{process}: {text}");
        }
    });
}

#[test]
fn a_refusal_reaches_the_client_while_request_bytes_still_arrive() {
    // The head is refused while 4 MiB of body follow it. A server that
    // closed with those bytes unread would reset the connection, and the
    // reset can destroy the 400 before the client reads it; the race loses
    // only now and then, hence the repeats.
    const ATTEMPTS: usize = 20;
    let mut request = b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n".to_vec();
    request.resize(request.len() + (4 << 20), b'x');
    against_both(|process, addr| {
        let mut resets = 0;
        for _ in 0..ATTEMPTS {
            let mut stream = connect(addr);
            let mut writer = stream.try_clone().expect("clone");
            let mut bytes = Vec::new();
            let read = std::thread::scope(|scope| {
                scope.spawn(|| {
                    // A server that stops reading fails this write; the
                    // read below is what the case judges.
                    if writer.write_all(&request).is_ok() {
                        let _ = writer.shutdown(Shutdown::Write);
                    }
                });
                stream.read_to_end(&mut bytes)
            });
            if read.is_err() {
                resets += 1;
                continue;
            }
            let response = match http::parse_response(&bytes, usize::MAX) {
                Ok(Progress::Complete(response, len)) if len == bytes.len() => response,
                other => panic!("{process}: expected one response then EOF, got {other:?}"),
            };
            let text = String::from_utf8_lossy(&response.body);
            assert_eq!(response.status, 400, "{process}: {text}");
            assert!(text.contains("conflicting Content-Length"), "{process}: {text}");
            assert_eq!(response.header("connection"), Some("close"), "{process}: {text}");
        }
        assert_eq!(resets, 0, "{process}: {resets} of {ATTEMPTS} attempts reset");
    });
}

#[test]
fn connections_that_close_say_so() {
    let requests = [
        "GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n",
        "GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive, close\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close, x-custom\r\n\r\n",
        // Last-wins parsing would let the second header un-set close.
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n",
    ];
    against_both(|process, addr| {
        for request in requests {
            let mut stream = connect(addr);
            stream.write_all(request.as_bytes()).expect("write");
            let response = read_until_close(&mut stream, process);
            assert_eq!(response.status, 200, "{process}: {request:?}");
            assert_eq!(response.header("connection"), Some("close"), "{process}: {request:?}");
        }
    });
}

#[test]
fn kept_alive_connections_serve_request_after_request() {
    let requests = [
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
        // RFC 7230 §3.3.3: identical repeats frame the body unambiguously.
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
    ];
    against_both(|process, addr| {
        let mut stream = connect(addr);
        for request in requests {
            stream.write_all(request.as_bytes()).expect("write");
            let response = read_http_response(&mut stream).unwrap_or_else(|e| panic!("{process}: {request:?}: {e}"));
            assert_eq!(response.status, 200, "{process}: {}", response.body);
            assert_eq!(response.header("connection"), None, "{process}: {request:?}");
        }
    });
}

#[test]
fn expect_continue_gets_one_interim_response_per_request() {
    let body = score_body();
    let head = format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    against_both(|process, addr| {
        let mut stream = connect(addr);
        // Two requests on one connection: the interim response is owed once
        // to each, however the body trickles in.
        for _ in 0..2 {
            stream.write_all(head.as_bytes()).expect("write head");
            // A conforming client waits for the interim response before
            // sending the body; without it this read times out.
            let interim = read_http_response(&mut stream).unwrap_or_else(|e| panic!("{process}: {e}"));
            assert_eq!(interim.status, 100, "{process}");
            for piece in body.as_bytes().chunks(24) {
                stream.write_all(piece).expect("write body");
                std::thread::sleep(Duration::from_millis(5));
            }
            let response = read_http_response(&mut stream).unwrap_or_else(|e| panic!("{process}: {e}"));
            assert_eq!(
                response.status, 200,
                "{process}: a second interim leaked or: {}",
                response.body
            );
            assert!(response.body.contains("scores"), "{process}: {}", response.body);
        }
    });
}

#[test]
fn an_empty_batch_is_an_empty_200_with_its_version() {
    against_both(|process, addr| {
        let mut stream = connect(addr);
        let response =
            http_roundtrip(&mut stream, "POST", "/score", Some("[]")).unwrap_or_else(|e| panic!("{process}: {e}"));
        assert_eq!(response.status, 200, "{process}: {}", response.body);
        let (version, scores) =
            parse_score_response(&response.body).unwrap_or_else(|e| panic!("{process}: {e}: {}", response.body));
        assert!(scores.is_empty(), "{process}: {}", response.body);
        let header = version.to_string();
        assert_eq!(
            response.header("x-model-version"),
            Some(header.as_str()),
            "{process}: the header names the body's version"
        );
    });
}

/// Serves one canned response to the first connection.
fn canned(response: &'static [u8]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.write_all(response).expect("write");
    });
    (addr, server)
}

#[test]
fn the_client_applies_the_same_rules_to_responses() {
    let rejected: [(&'static [u8], &str); 5] = [
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nokay!",
            "conflicting Content-Length",
        ),
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: +4\r\n\r\nokay",
            "bad Content-Length",
        ),
        (b"HTTP/1.1 200 OK\r\nContent-Length : 4\r\n\r\nokay", "its colon"),
        (
            b"HTTP/1.1 200 OK\r\nX-A: b\r\n c\r\nContent-Length: 4\r\n\r\nokay",
            "line folding",
        ),
        (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nokay\r\n0\r\n\r\n",
            "chunked",
        ),
    ];
    for (raw, needle) in rejected {
        let (addr, server) = canned(raw);
        let mut stream = TcpStream::connect(addr).expect("connect");
        let err = read_http_response(&mut stream).expect_err(&String::from_utf8_lossy(raw));
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(needle), "{err}");
        server.join().expect("canned server");
    }
    let (addr, server) = canned(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nokay");
    let mut stream = TcpStream::connect(addr).expect("connect");
    let response = read_http_response(&mut stream).expect("identical repeats are unambiguous");
    assert_eq!((response.status, response.body.as_str()), (200, "okay"));
    server.join().expect("canned server");
}
