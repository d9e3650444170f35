//! Properties of the shared HTTP/1.1 codec (`er_serve::http`):
//! - segmentation: a request, a pipelined pair of requests and a response
//!   parse identically however the bytes are split into reads;
//! - robustness: a seeded byte-mutation loop over valid messages yields
//!   either a valid parse or a 400/413/431 (`InvalidData` for responses),
//!   never a panic.

use er_serve::http::{self, Progress};
use proptest::prelude::*;

/// Body limit for the segmentation properties: generated bodies fit.
const LIMIT: usize = 1024;

/// One parsed message (or the error that ended the stream), owned so the
/// split and unsplit runs can be compared.
#[derive(Debug, PartialEq)]
enum Outcome {
    Request {
        method: String,
        target: String,
        close: bool,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    },
    Response {
        status: u16,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    },
    Error(u16, String),
}

fn request(buf: &[u8]) -> Result<Progress<Outcome>, http::Error> {
    Ok(match http::parse_request(buf, LIMIT)? {
        Progress::Complete(request, len) => {
            let outcome = Outcome::Request {
                method: request.method.to_string(),
                target: request.target.to_string(),
                close: request.close,
                headers: request
                    .headers()
                    .map(|(name, value)| (name.to_string(), value.to_string()))
                    .collect(),
                body: request.body.to_vec(),
            };
            Progress::Complete(outcome, len)
        }
        Progress::Partial { expect_continue } => Progress::Partial { expect_continue },
    })
}

fn response(buf: &[u8]) -> Result<Progress<Outcome>, http::Error> {
    Ok(match http::parse_response(buf, LIMIT)? {
        Progress::Complete(response, len) => {
            let outcome = Outcome::Response {
                status: response.status,
                headers: response.headers,
                body: response.body,
            };
            Progress::Complete(outcome, len)
        }
        Progress::Partial { expect_continue } => Progress::Partial { expect_continue },
    })
}

/// Feeds `bytes` to `parse` the way a connection driver sees them: split at
/// `cuts` (taken modulo the length), each segment appended to a buffer that
/// is then drained of every complete message. The first error ends the
/// stream.
fn feed(bytes: &[u8], cuts: &[usize], parse: fn(&[u8]) -> Result<Progress<Outcome>, http::Error>) -> Vec<Outcome> {
    let mut ends: Vec<usize> = cuts.iter().map(|cut| cut % (bytes.len() + 1)).collect();
    ends.push(bytes.len());
    ends.sort_unstable();
    let mut buffer = Vec::new();
    let mut outcomes = Vec::new();
    let mut from = 0;
    for end in ends {
        buffer.extend_from_slice(&bytes[from..end]);
        from = end;
        loop {
            match parse(&buffer) {
                Ok(Progress::Complete(outcome, len)) => {
                    outcomes.push(outcome);
                    buffer.drain(..len);
                }
                Ok(Progress::Partial { .. }) => break,
                Err(error) => {
                    outcomes.push(Outcome::Error(error.status, error.message));
                    return outcomes;
                }
            }
        }
    }
    outcomes
}

/// A request assembled from generated parts.
fn build_request(method: usize, target: &str, options: (usize, usize, bool), value: &str, body: &str) -> Vec<u8> {
    let (version, connection, expect) = options;
    let method = ["GET", "POST", "PUT"][method];
    let version = ["HTTP/1.0", "HTTP/1.1"][version];
    let mut head = format!("{method} {target} {version}\r\nHost: t\r\nX-Note: {value}\r\n");
    head.push_str(["", "Connection: close\r\n", "Connection: x, keep-alive\r\n"][connection]);
    if expect {
        head.push_str("Expect: 100-continue\r\n");
    }
    format!("{head}Content-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_request_parses_the_same_however_it_is_split(
        method in 0usize..3,
        parts in ("/[a-z]{1,8}", "[a-zA-Z0-9 ]{0,12}", "[a-z0-9 ,:{}]{0,40}"),
        options in (0usize..2, 0usize..3, 0u8..2),
        cuts in proptest::collection::vec(0usize..400, 0..8),
    ) {
        let (target, value, body) = &parts;
        let bytes = build_request(method, target, (options.0, options.1, options.2 == 1), value, body);
        let whole = feed(&bytes, &[], request);
        prop_assert_eq!(whole.len(), 1);
        prop_assert_eq!(feed(&bytes, &cuts, request), whole);
    }

    #[test]
    fn a_pipelined_pair_parses_the_same_however_it_is_split(
        methods in (0usize..3, 0usize..3),
        bodies in ("[a-z0-9 ,:{}]{0,40}", "[a-z0-9 ,:{}]{0,40}"),
        options in (0usize..2, 0usize..3, 0u8..2),
        cuts in proptest::collection::vec(0usize..600, 0..10),
    ) {
        let options = (options.0, options.1, options.2 == 1);
        let mut bytes = build_request(methods.0, "/score", options, "first", &bodies.0);
        bytes.extend(build_request(methods.1, "/healthz", options, "second", &bodies.1));
        let whole = feed(&bytes, &[], request);
        prop_assert_eq!(whole.len(), 2);
        prop_assert_eq!(feed(&bytes, &cuts, request), whole);
    }

    #[test]
    fn a_response_parses_the_same_however_it_is_split(
        status in 0usize..4,
        value in "[a-zA-Z0-9 ]{0,12}",
        body in "[a-z0-9 ,:{}]{0,60}",
        cuts in proptest::collection::vec(0usize..300, 0..8),
    ) {
        let status = [100, 200, 429, 503][status];
        let bytes = format!(
            "HTTP/1.1 {status} Whatever\r\nX-Model-Version: {value}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let whole = feed(&bytes, &[], response);
        prop_assert_eq!(whole.len(), 1);
        prop_assert_eq!(feed(&bytes, &cuts, response), whole);
    }
}

/// The valid messages the mutation loop starts from.
const CORPUS: [&[u8]; 5] = [
    b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\nX-Request-Id: r1\r\n\r\n{\"pair\": 1}",
    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /stats HTTP/1.1\r\n\r\n",
    b"POST /score HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n[]",
    b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Model-Version: 3\r\n\r\nhello",
    b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
];

/// Byte strings the mutator splices in: framing punctuation, lengths at and
/// past the address-space limit, and header lines that change framing.
const TOKENS: [&[u8]; 17] = [
    b"\r\n",
    b"\r\n\r\n",
    b":",
    b" ",
    b"\t",
    b"\xff",
    b"0",
    b"+1",
    b"18446744073709551615",
    b"18446744073709551612",
    b"99999999999999999999",
    b"Content-Length: 18446744073709551615\r\n",
    b"Content-Length: 3\r\n",
    b"Transfer-Encoding: chunked\r\n",
    b"Connection: close\r\n",
    b"\r\n folded",
    b"HTTP/1.0",
];

/// splitmix64: the fixed-seed stream behind the mutation loop.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one to four random edits to a corpus message.
fn mutate(rng: &mut SplitMix) -> Vec<u8> {
    let mut bytes = CORPUS[rng.below(CORPUS.len())].to_vec();
    for _ in 0..=rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        let token = TOKENS[rng.below(TOKENS.len())];
        match rng.below(6) {
            0 if at < bytes.len() => bytes[at] = rng.next() as u8,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => {
                bytes.splice(at..at, token.iter().copied());
            }
            3 => {
                // Overwrite a run, as when a number is replaced by another.
                let end = (at + rng.below(8)).min(bytes.len());
                bytes.splice(at..end, token.iter().copied());
            }
            4 => bytes.truncate(at),
            _ => {
                let end = (at + rng.below(40)).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes
}

/// Fixed so failures reproduce; bounded so the loop takes well under 2 s
/// in a debug build.
const SEED: u64 = 0x6874_7470;
const ITERATIONS: usize = 20_000;

#[test]
fn mutated_messages_parse_or_fail_with_a_status_never_panic() {
    let mut rng = SplitMix(SEED);
    for _ in 0..ITERATIONS {
        let bytes = mutate(&mut rng);
        let input = String::from_utf8_lossy(&bytes);
        for limit in [64, usize::MAX] {
            match http::parse_request(&bytes, limit) {
                Ok(Progress::Complete(request, len)) => {
                    assert!(len <= bytes.len() && request.body.len() <= limit, "{input:?}");
                    assert!(request.headers().all(|(name, _)| !name.is_empty()), "{input:?}");
                }
                Ok(Progress::Partial { .. }) => {}
                Err(error) => assert!(matches!(error.status, 400 | 413 | 431), "{error:?} for {input:?}"),
            }
            match http::parse_response(&bytes, limit) {
                Ok(Progress::Complete(response, len)) => {
                    assert!(len <= bytes.len() && response.body.len() <= limit, "{input:?}");
                }
                Ok(Progress::Partial { .. }) => {}
                Err(error) => {
                    assert!(matches!(error.status, 400 | 413 | 431), "{error:?} for {input:?}");
                    let error = std::io::Error::from(error);
                    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{input:?}");
                }
            }
        }
    }
}
