//! The one HTTP/1.1 codec behind every framing site: the `er-serve`
//! request parser, the blocking client's response reader, and
//! `er-gateway`'s downstream request and upstream response parsers. The
//! rules it enforces are listed in `docs/OPERATIONS.md` (HTTP conformance).
//!
//! Parsing is incremental and never consumes input: a caller accumulates
//! bytes and parses again after each read. A valid prefix is
//! [`Progress::Partial`]; a complete message reports how many bytes it spans,
//! and the caller drains them, leaving any pipelined successor in place. A
//! framing violation is an [`Error`] carrying the status a server answers
//! with (400, 413 or 431); a client turns it into `InvalidData`.

use std::io::{self, Write};

/// Upper bound on a message head: start line, header fields and the blank
/// line that ends them.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The largest request body either server accepts; both answer 413 beyond
/// it.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// The interim response that answers `Expect: 100-continue`.
pub const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// A framing violation: the status a server answers it with, and the message
/// for the error body.
#[derive(Debug)]
pub struct Error {
    /// 400, 413 or 431.
    pub status: u16,
    /// What was wrong, for the error body.
    pub message: String,
}

impl Error {
    /// An error answered with `status`.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

impl From<Error> for io::Error {
    fn from(error: Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, error.message)
    }
}

/// How far the bytes accumulated so far get.
#[derive(Debug)]
pub enum Progress<T> {
    /// One complete message, and how many bytes of the buffer it spans.
    Complete(T, usize),
    /// A valid prefix: read more. `expect_continue` is set once the head is
    /// complete, asks for `100-continue`, and the body has not arrived.
    Partial {
        /// The client waits for [`CONTINUE`] before sending the body.
        expect_continue: bool,
    },
}

/// A complete request, borrowed from the caller's buffer.
#[derive(Debug)]
pub struct Request<'a> {
    /// The request method.
    pub method: &'a str,
    /// The request target (path and query).
    pub target: &'a str,
    /// The connection closes after the response.
    pub close: bool,
    /// The body, exactly `Content-Length` bytes.
    pub body: &'a [u8],
    fields: &'a str,
}

impl<'a> Request<'a> {
    /// The header fields in wire order: names as sent, values without
    /// surrounding whitespace.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        fields(self.fields).flatten()
    }
}

/// A complete response, copied out of the caller's buffer.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Lower-cased header names with trimmed values, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body bytes exactly as framed.
    pub body: Vec<u8>,
}

impl Response {
    /// The first value of a header, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Parses one request off the front of `buf`, refusing a body over
/// `max_body` bytes.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<Progress<Request<'_>>, Error> {
    let Some(head) = frame_head(buf, max_body, "request")? else {
        return Ok(Progress::Partial { expect_continue: false });
    };
    let mut parts = head.start.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version), None)
            if is_token(method) && !target.is_empty() && !target.bytes().any(|b| b.is_ascii_control()) =>
        {
            (method, target, version)
        }
        _ => return Err(Error::new(400, "malformed request line")),
    };
    if !matches!(version, "HTTP/1.0" | "HTTP/1.1") {
        return Err(Error::new(400, format!("unsupported protocol {version}")));
    }
    if buf.len() < head.end {
        return Ok(Progress::Partial {
            expect_continue: head.expect_continue,
        });
    }
    let request = Request {
        method,
        target,
        close: head.close || (version == "HTTP/1.0" && !head.keep_alive),
        body: &buf[head.len..head.end],
        fields: head.fields,
    };
    Ok(Progress::Complete(request, head.end))
}

/// The length of the request at the front of `buf`, head and body, once
/// its head has arrived and frames a body within [`MAX_BODY_BYTES`]: how
/// much buffer a reader needs for the whole message.
pub fn request_len(buf: &[u8]) -> Option<usize> {
    frame_head(buf, MAX_BODY_BYTES, "request")
        .ok()
        .flatten()
        .map(|head| head.end)
}

/// Parses one response off the front of `buf`, refusing a body over
/// `max_body` bytes.
pub fn parse_response(buf: &[u8], max_body: usize) -> Result<Progress<Response>, Error> {
    let Some(head) = frame_head(buf, max_body, "response")? else {
        return Ok(Progress::Partial { expect_continue: false });
    };
    let mut parts = head.start.split(' ');
    let status = match (parts.next(), parts.next()) {
        (Some("HTTP/1.0" | "HTTP/1.1"), Some(code)) if code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()) => {
            code.parse().ok()
        }
        _ => None,
    };
    let Some(status) = status else {
        return Err(Error::new(400, format!("bad status line {:?}", head.start)));
    };
    if buf.len() < head.end {
        return Ok(Progress::Partial { expect_continue: false });
    }
    let response = Response {
        status,
        headers: fields(head.fields)
            .flatten()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
            .collect(),
        body: buf[head.len..head.end].to_vec(),
    };
    Ok(Progress::Complete(response, head.end))
}

/// The first line of a message [`write_message`] serializes.
pub enum StartLine<'a> {
    /// `method target HTTP/1.1`.
    Request {
        /// The request method.
        method: &'a str,
        /// The request target.
        target: &'a str,
    },
    /// `HTTP/1.1 status reason`.
    Response(u16),
}

/// Appends one message to `out`: the start line, `Content-Length`, then
/// `headers` in order, the blank line and the body.
pub fn write_message<'h>(
    out: &mut Vec<u8>,
    start: StartLine<'_>,
    headers: impl IntoIterator<Item = (&'h str, &'h str)>,
    body: &[u8],
) {
    write_head(out, start, headers, body.len());
    out.extend_from_slice(body);
}

/// [`write_message`] with a body that `write_body` appends to `out` itself,
/// so it is encoded in place rather than into a buffer of its own. The
/// head, which needs the body's length, is written after it and rotated in
/// front of it.
pub fn write_message_with<'h>(
    out: &mut Vec<u8>,
    start: StartLine<'_>,
    headers: impl IntoIterator<Item = (&'h str, &'h str)>,
    write_body: impl FnOnce(&mut Vec<u8>),
) {
    let at = out.len();
    write_body(out);
    let body_len = out.len() - at;
    write_head(out, start, headers, body_len);
    out[at..].rotate_left(body_len);
}

fn write_head<'h>(
    out: &mut Vec<u8>,
    start: StartLine<'_>,
    headers: impl IntoIterator<Item = (&'h str, &'h str)>,
    body_len: usize,
) {
    // Formatting into a `Vec` cannot fail.
    let _ = match start {
        StartLine::Request { method, target } => write!(out, "{method} {target} HTTP/1.1\r\n"),
        StartLine::Response(status) => write!(out, "HTTP/1.1 {status} {}\r\n", status_reason(status)),
    };
    let _ = write!(out, "Content-Length: {body_len}\r\n");
    for (name, value) in headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

fn status_reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// What a complete head says about framing.
struct Head<'a> {
    start: &'a str,
    fields: &'a str,
    /// Head bytes, blank line included.
    len: usize,
    /// Head and body bytes.
    end: usize,
    close: bool,
    keep_alive: bool,
    expect_continue: bool,
}

/// Validates the head at the front of `buf`; `Ok(None)` until its blank
/// line arrives. `kind` names the message in error texts.
fn frame_head<'a>(buf: &'a [u8], max_body: usize, kind: &str) -> Result<Option<Head<'a>>, Error> {
    // Only the first `MAX_HEAD_BYTES` are searched, so the verdict does not
    // depend on how the bytes were split into reads.
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let Some(head_end) = window.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(Error::new(431, format!("{kind} head too large")));
        }
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| Error::new(400, format!("{kind} head is not UTF-8")))?;
    let (start, fields_block) = head.split_once("\r\n").unwrap_or((head, ""));
    let mut content_length: Option<usize> = None;
    let (mut close, mut keep_alive, mut expect_continue) = (false, false, false);
    for field in fields(fields_block) {
        let (name, value) = field?;
        if name.eq_ignore_ascii_case("content-length") {
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(Error::new(400, format!("bad Content-Length {value:?}")));
            }
            // Digits only, so the parse can fail only by overflow: a length
            // beyond any body limit.
            let length = value.parse().unwrap_or(usize::MAX);
            if let Some(previous) = content_length.filter(|previous| *previous != length) {
                return Err(Error::new(
                    400,
                    format!("conflicting Content-Length headers ({previous} then {length})"),
                ));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(Error::new(400, "chunked bodies are not supported; send Content-Length"));
        } else if name.eq_ignore_ascii_case("connection") {
            close |= has_token(value, "close");
            keep_alive |= has_token(value, "keep-alive");
        } else if name.eq_ignore_ascii_case("expect") {
            expect_continue |= has_token(value, "100-continue");
        }
    }
    let content_length = content_length.unwrap_or(0);
    let len = head_end + 4;
    // The limit is checked first; the addition is still checked because the
    // caller's limit may be `usize::MAX`.
    let end = if content_length <= max_body {
        len.checked_add(content_length)
    } else {
        None
    };
    let Some(end) = end else {
        return Err(Error::new(
            413,
            format!("{kind} body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    };
    Ok(Some(Head {
        start,
        fields: fields_block,
        len,
        end,
        close,
        keep_alive,
        expect_continue,
    }))
}

/// The header fields of a head, each checked against the field grammar.
fn fields(block: &str) -> impl Iterator<Item = Result<(&str, &str), Error>> {
    block.split("\r\n").filter(|line| !line.is_empty()).map(|line| {
        if line.starts_with([' ', '\t']) {
            return Err(Error::new(400, "obsolete line folding is not supported"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Error::new(400, "malformed header field"));
        };
        if name.ends_with([' ', '\t']) {
            return Err(Error::new(400, "whitespace between a header field name and its colon"));
        }
        let value = value.trim_matches([' ', '\t']);
        if !is_token(name) || value.bytes().any(|b| b.is_ascii_control() && b != b'\t') {
            return Err(Error::new(400, "malformed header field"));
        }
        Ok((name, value))
    })
}

/// Whether `s` is a non-empty RFC 7230 token.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Whether the comma-separated list `value` holds `token`, compared
/// case-insensitively.
fn has_token(value: &str, token: &str) -> bool {
    value.split(',').any(|t| t.trim().eq_ignore_ascii_case(token))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(raw: &[u8]) -> Result<Progress<Request<'_>>, Error> {
        parse_request(raw, 1024)
    }

    #[test]
    fn a_complete_request_reports_its_length_and_leaves_the_successor() {
        let raw = b"POST /score HTTP/1.1\r\nX-Client-Id:  a \r\nContent-Length: 2\r\n\r\n{}GET /next";
        let Ok(Progress::Complete(parsed, len)) = request(raw) else {
            panic!("expected a complete request");
        };
        assert_eq!(
            (parsed.method, parsed.target, parsed.body),
            ("POST", "/score", &b"{}"[..])
        );
        assert!(!parsed.close);
        assert_eq!(&raw[len..], b"GET /next");
        let headers: Vec<_> = parsed.headers().collect();
        assert_eq!(headers, [("X-Client-Id", "a"), ("Content-Length", "2")]);
    }

    #[test]
    fn connection_rules_combine_version_and_tokens() {
        let close = |raw: &[u8]| match request(raw) {
            Ok(Progress::Complete(parsed, _)) => parsed.close,
            other => panic!("{other:?}"),
        };
        assert!(close(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(!close(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
        assert!(!close(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(close(b"GET / HTTP/1.1\r\nConnection: x, close\r\n\r\n"));
        assert!(close(
            b"GET / HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n"
        ));
    }

    #[test]
    fn expect_continue_is_reported_only_while_the_body_is_missing() {
        let head = b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        assert!(matches!(
            request(&head[..10]),
            Ok(Progress::Partial { expect_continue: false })
        ));
        assert!(matches!(request(head), Ok(Progress::Partial { expect_continue: true })));
        let whole = [&head[..], b"{}"].concat();
        assert!(matches!(request(&whole), Ok(Progress::Complete(..))));
    }

    #[test]
    fn framing_violations_carry_their_status() {
        let cases: &[(&[u8], u16, &str)] = &[
            (
                b"GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
                400,
                "conflicting",
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: +1\r\n\r\nx",
                400,
                "bad Content-Length",
            ),
            (b"GET / HTTP/1.1\r\nContent-Length : 1\r\n\r\nx", 400, "colon"),
            (b"GET / HTTP/1.1\r\nA: b\r\n c\r\n\r\n", 400, "folding"),
            (b"GET / HTTP/1.1\r\nno colon\r\n\r\n", 400, "malformed header field"),
            (b"GET / HTTP/1.1\r\nA: b\x01\r\n\r\n", 400, "malformed header field"),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400, "chunked"),
            (b"GET / HTTP/2.0\r\n\r\n", 400, "unsupported protocol"),
            (b"GET  / HTTP/1.1\r\n\r\n", 400, "malformed request line"),
            (b"GET /\xff HTTP/1.1\r\n\r\n", 400, "not UTF-8"),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 1025\r\n\r\n",
                413,
                "exceeds the 1024-byte limit",
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
                413,
                "exceeds",
            ),
        ];
        for (raw, status, needle) in cases {
            let error = request(raw).expect_err(&String::from_utf8_lossy(raw));
            assert_eq!(error.status, *status, "{error:?}");
            assert!(error.message.contains(needle), "{error:?}");
        }
        let unterminated = vec![b'a'; MAX_HEAD_BYTES];
        assert_eq!(request(&unterminated).expect_err("431").status, 431);
        assert!(matches!(request(&unterminated[1..]), Ok(Progress::Partial { .. })));
    }

    #[test]
    fn a_response_length_at_the_address_space_limit_is_refused_not_wrapped() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nhello";
        let error = parse_response(raw, usize::MAX).expect_err("must not frame");
        assert_eq!(io::Error::from(error).kind(), io::ErrorKind::InvalidData);
        assert_eq!(parse_response(raw, 1 << 20).expect_err("413").status, 413);
    }

    #[test]
    fn a_body_written_in_place_gives_the_bytes_of_a_buffered_one() {
        let headers = [("Content-Type", "application/json"), ("X-Request-Id", "r1")];
        let mut buffered = b"HTTP/1.1 100 Continue\r\n\r\n".to_vec();
        let mut in_place = buffered.clone();
        write_message(&mut buffered, StartLine::Response(200), headers, b"{\"scores\":[0.5]}");
        write_message_with(&mut in_place, StartLine::Response(200), headers, |out| {
            out.extend_from_slice(b"{\"scores\":[0.5]}")
        });
        assert_eq!(in_place, buffered);
    }

    #[test]
    fn the_request_length_is_known_once_the_head_is() {
        let raw = b"POST /score HTTP/1.1\r\nContent-Length: 12\r\n\r\n";
        assert_eq!(request_len(&raw[..20]), None);
        assert_eq!(request_len(raw), Some(raw.len() + 12));
        assert_eq!(request_len(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n"), None);
    }

    #[test]
    fn written_messages_parse_back() {
        let mut wire = Vec::new();
        let headers = [("X-Request-Id", "r1"), ("Connection", "close")];
        write_message(&mut wire, StartLine::Response(429), headers, b"{}");
        assert!(wire.starts_with(b"HTTP/1.1 429 Too Many Requests\r\n"));
        let Ok(Progress::Complete(response, len)) = parse_response(&wire, 1024) else {
            panic!("{}", String::from_utf8_lossy(&wire));
        };
        assert_eq!(
            (response.status, len, response.body.as_slice()),
            (429, wire.len(), &b"{}"[..])
        );
        assert_eq!(response.header("x-request-id"), Some("r1"));
        wire.clear();
        write_message(
            &mut wire,
            StartLine::Request {
                method: "GET",
                target: "/healthz",
            },
            [],
            b"",
        );
        assert_eq!(wire, b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    }
}
