//! The connection half of a readiness-loop driver, shared by
//! [`crate::server`] and `er-gateway`. Each driver owns a poller, a table of
//! [`Conn`]s, its routes and its timers; a [`Conn`] carries one accepted
//! socket through read → parse → `100 Continue` → respond → flush →
//! keep-alive or close. A close that may leave request bytes unread shuts
//! down the write side after the response and lingers, discarding input,
//! until the peer's EOF.
//!
//! The driver calls [`Conn::advance`] until it returns [`Step::Wait`] (then
//! [`Conn::park`], or [`Conn::hold`]) or [`Step::Close`]. On
//! [`Step::Request`] it reads the body where it lies ([`Conn::body`]) and
//! answers with [`Conn::respond`] or [`Conn::respond_with`], at once or
//! after parking the connection on its own work. [`Step::Sent`] hands back
//! the ticket given to `respond` once the bytes left, so per-response
//! bookkeeping commits after the flush. A connection whose
//! [`Conn::deadline`] passed is re-driven, and `advance` applies the timer.

use crate::http::{self, Progress, StartLine};
use crate::readiness::{Interest, Poller, Token};
use crate::trace::valid_trace_id;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The most read-buffer capacity a connection keeps once a request is
/// answered. A buffer grown past it for one large body is released, so idle
/// keep-alive connections cannot each hold up to [`http::MAX_BODY_BYTES`].
const KEPT_READ_CAPACITY: usize = 64 * 1024;

/// The least free space a read offers the kernel while the length of the
/// request is not yet known.
const READ_CHUNK: usize = 4096;

/// Once the head gives the request's length, the read buffer grows toward
/// it to at most this many times the bytes received, so a head that claims
/// a large body commits memory only as the body arrives. A 32-pair array
/// (about 8.5 KB) still takes one resize after its first 4 KiB.
const READ_GROWTH: usize = 4;

/// How long a connection that answered its last request with request bytes
/// possibly unread keeps reading and discarding what its peer still sends,
/// waiting for the peer's EOF. Closing with request bytes unread makes the
/// kernel reset the connection, and the reset can destroy the response
/// before the client has read it.
const LINGER: Duration = Duration::from_secs(2);

/// The budgets a driver gives every connection it accepts. Every connection
/// refuses a body over [`http::MAX_BODY_BYTES`] with a 413.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// A connection whose peer accepts no response bytes for this long is
    /// closed (the nonblocking analog of `SO_SNDTIMEO`).
    pub write_timeout: Duration,
    /// A connection that delivers no request bytes for this long while
    /// reading is closed without a response (the analog of `SO_RCVTIMEO`).
    pub read_timeout: Option<Duration>,
    /// A keep-alive connection is closed, after answering its in-flight
    /// request, once it has been open this long.
    pub lifetime: Option<Duration>,
}

/// One parsed request: what routing needs, copied out of the read buffer.
/// The body stays in the buffer ([`Conn::body`]).
#[derive(Debug)]
pub struct Request {
    /// The request method.
    pub method: String,
    /// The request target.
    pub path: String,
    /// The connection closes after this response.
    pub close: bool,
    /// The `X-Client-Id` header, the rate limiter's preferred client key.
    pub client_id: Option<String>,
    /// The `X-Request-Id` header (see [`request_id`]).
    pub request_id: Option<String>,
    /// The `X-Deadline-Ms` header when it is a positive integer.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// Copies out what routing needs; only the header values kept are
    /// allocated. Every route takes JSON, so the body must be UTF-8.
    fn new(request: &http::Request<'_>) -> Result<Self, http::Error> {
        if std::str::from_utf8(request.body).is_err() {
            return Err(http::Error::new(400, "request body is not UTF-8"));
        }
        let mut parsed = Self {
            method: request.method.to_string(),
            path: request.target.to_string(),
            close: request.close,
            client_id: None,
            request_id: None,
            deadline_ms: None,
        };
        for (name, value) in request.headers() {
            if name.eq_ignore_ascii_case("x-client-id") && !value.is_empty() {
                parsed.client_id = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("x-request-id") && !value.is_empty() {
                parsed.request_id = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("x-deadline-ms") {
                // Lenient by design: zero or garbage reads as "no usable
                // deadline" rather than a 400 — a client bug in deadline
                // bookkeeping should degrade, not break, its requests.
                parsed.deadline_ms = value.parse::<u64>().ok().filter(|ms| *ms > 0);
            }
        }
        Ok(parsed)
    }
}

/// The id a response echoes as `X-Request-Id`: the client's when it is
/// well-formed (see [`valid_trace_id`]), else `{prefix}-{seq:08x}`.
pub fn request_id(supplied: Option<&str>, prefix: &str, seq: &AtomicU64) -> String {
    match supplied {
        Some(id) if valid_trace_id(id) => id.to_string(),
        _ => format!("{prefix}-{:08x}", seq.fetch_add(1, Ordering::Relaxed)),
    }
}

/// What [`Conn::advance`] needs from the driver next.
pub enum Step<T> {
    /// A complete request, or the codec's refusal of one (the connection
    /// closes after answering it). The connection waits on the driver until
    /// [`Conn::respond`].
    Request(Result<Request, http::Error>),
    /// A response's flush ended: its ticket, and whether every byte left.
    Sent(T, bool),
    /// Nothing to do until an event, a timer or the driver's own work.
    Wait,
    /// The connection is finished.
    Close,
}

enum State<T> {
    Reading,
    /// A request is with the driver. The descriptor is deregistered once
    /// parked ([`Conn::park`]), so a pipelining client cannot spin the
    /// level-triggered poller.
    Awaiting,
    /// Draining `write_buf`; the ticket returns with [`Step::Sent`].
    Flushing(T),
    /// The last response was delivered and the write side shut down: what
    /// the peer still sends is discarded until its EOF or the instant.
    Lingering(Instant),
    Closed,
}

enum Flush {
    Done,
    Pending,
    Failed,
}

/// One connection owned by a readiness loop: a few hundred bytes of state
/// instead of a parked thread. `T` is the ticket each response carries.
pub struct Conn<T> {
    token: Token,
    stream: TcpStream,
    peer: String,
    limits: Limits,
    state: State<T>,
    /// Received bytes are `read_buf[..filled]`; the rest is initialized
    /// room for the next read.
    read_buf: Vec<u8>,
    filled: usize,
    /// The length of the request with the driver, at the front of
    /// `read_buf`; dropped from the buffer when it is answered.
    taken: usize,
    /// Where that request's body lies in `read_buf`, checked to be UTF-8.
    body: std::ops::Range<usize>,
    /// The peer half-closed its write side.
    eof: bool,
    /// Unsent bytes: an interim `100 Continue` while reading, then the
    /// response (which follows any unsent interim tail on the wire).
    write_buf: Vec<u8>,
    written: usize,
    /// `100 Continue` went out for the request being received, so a
    /// trickling body cannot elicit a storm of interim responses.
    continue_sent: bool,
    close_after_flush: bool,
    /// Linger before closing even with nothing buffered ([`Self::linger`]).
    linger: bool,
    expires: Option<Instant>,
    read_deadline: Option<Instant>,
    /// Reset on every partial write.
    write_deadline: Option<Instant>,
    /// Hold the response unsent until then ([`Self::hold_flush`]).
    stall_until: Option<Instant>,
    /// The interest the descriptor is registered for.
    interest: Option<Interest>,
}

impl<T> Conn<T> {
    /// Takes an accepted socket: nonblocking, `TCP_NODELAY`, budgets armed.
    pub fn new(token: Token, stream: TcpStream, limits: Limits) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let peer = stream
            .peer_addr()
            .map(|addr| addr.ip().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let now = Instant::now();
        Ok(Self {
            token,
            stream,
            peer,
            limits,
            state: State::Reading,
            read_buf: Vec::new(),
            filled: 0,
            taken: 0,
            body: 0..0,
            eof: false,
            write_buf: Vec::new(),
            written: 0,
            continue_sent: false,
            close_after_flush: false,
            linger: false,
            expires: limits.lifetime.and_then(|lifetime| now.checked_add(lifetime)),
            read_deadline: limits.read_timeout.and_then(|timeout| now.checked_add(timeout)),
            write_deadline: None,
            stall_until: None,
            interest: None,
        })
    }

    /// The token the connection registers under.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The peer's IP address (`"unknown"` if the socket would not say).
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Owed nothing and flushing nothing: a draining driver closes it. A
    /// lingering connection is not reading; it runs out its bounded linger.
    pub fn is_reading(&self) -> bool {
        matches!(self.state, State::Reading)
    }

    /// Makes the close after the next response linger even when no request
    /// bytes are buffered: for a response sent before any request was read.
    pub fn linger(&mut self) {
        self.linger = true;
    }

    /// The body of the request with the driver (empty when there is none).
    pub fn body(&self) -> &str {
        let bytes = &self.read_buf[self.body.clone()];
        // SAFETY: `parse` checked these bytes to be UTF-8 when it handed the
        // request over, and `read_buf` changes only from `filled` on, past
        // them, until `respond` drops the request and empties the range.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Pulls what the kernel has for a reading connection straight into
    /// the read buffer, or discards it for a lingering one, capped per pass
    /// so one firehose client cannot monopolize the loop (the
    /// level-triggered poller re-reports the rest). A read that leaves room
    /// in the buffer drained the socket, and a full buffer that holds the
    /// whole request needs no more, so either ends the pass.
    pub fn read(&mut self) {
        if matches!(self.state, State::Lingering(_)) && !self.eof {
            return self.discard_input();
        }
        if !matches!(self.state, State::Reading) || self.eof {
            return;
        }
        let cap = http::MAX_BODY_BYTES + http::MAX_HEAD_BYTES;
        while self.filled < cap {
            if self.filled == self.read_buf.len() {
                // Grow by a chunk until the head is in, then toward the
                // request's end ([`READ_GROWTH`]).
                let len = match http::request_len(&self.read_buf[..self.filled]) {
                    Some(request) if request <= self.filled => return,
                    Some(request) => request.min(self.filled * READ_GROWTH),
                    None => self.filled + READ_CHUNK,
                };
                self.read_buf.resize(len.min(cap), 0);
            }
            let room = self.read_buf.len() - self.filled;
            match self.stream.read(&mut self.read_buf[self.filled..]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.filled += n;
                    self.read_deadline = self.limits.read_timeout.and_then(|t| Instant::now().checked_add(t));
                    if n == room {
                        continue;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => self.state = State::Closed,
            }
            return;
        }
    }

    /// Reads and drops what a lingering connection's peer still sends.
    fn discard_input(&mut self) {
        let cap = http::MAX_BODY_BYTES + http::MAX_HEAD_BYTES;
        let mut chunk = [0u8; 4096];
        let mut discarded = 0;
        while discarded < cap {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    discarded += n;
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => self.state = State::Closed,
            }
            return;
        }
    }

    /// Runs the state machine until the driver has something to do.
    pub fn advance(&mut self) -> Step<T> {
        match std::mem::replace(&mut self.state, State::Closed) {
            State::Closed => Step::Close,
            State::Awaiting => {
                self.state = State::Awaiting;
                Step::Wait
            }
            State::Reading => self.parse(),
            State::Lingering(until) if !self.eof && Instant::now() < until => {
                self.state = State::Lingering(until);
                Step::Wait
            }
            State::Lingering(_) => Step::Close,
            State::Flushing(ticket) => match self.flush() {
                Flush::Pending => {
                    self.state = State::Flushing(ticket);
                    Step::Wait
                }
                flushed => {
                    let delivered = matches!(flushed, Flush::Done);
                    let now = Instant::now();
                    self.write_deadline = None;
                    if delivered && !self.close_after_flush && self.expires.is_none_or(|at| now < at) {
                        self.read_deadline = self.limits.read_timeout.and_then(|t| now.checked_add(t));
                        self.state = State::Reading;
                    } else if delivered && (self.linger || self.filled > 0) {
                        // The peer may still be sending (a refused request's
                        // body, a pipelined request): end the response with
                        // a FIN and drain, so the close does not reset it. A
                        // fully read exchange closes at once.
                        let _ = self.stream.shutdown(Shutdown::Write);
                        self.read_buf = Vec::new();
                        self.filled = 0;
                        self.state = State::Lingering(now + LINGER);
                    }
                    Step::Sent(ticket, delivered)
                }
            },
        }
    }

    fn parse(&mut self) -> Step<T> {
        let request = match http::parse_request(&self.read_buf[..self.filled], http::MAX_BODY_BYTES) {
            Ok(Progress::Complete(request, len)) => {
                // The body ends the message.
                self.body = len - request.body.len()..len;
                self.taken = len;
                self.continue_sent = false;
                let request = Request::new(&request);
                if request.is_err() {
                    self.body = 0..0;
                }
                request
            }
            // Clean close: EOF between requests.
            Ok(Progress::Partial { .. }) if self.eof && self.filled == 0 => return Step::Close,
            Ok(Progress::Partial { .. }) if self.eof => Err(http::Error::new(400, "connection closed mid-request")),
            Ok(Progress::Partial { expect_continue }) => {
                let now = Instant::now();
                if [self.expires, self.read_deadline].iter().flatten().any(|at| now >= *at) {
                    return Step::Close;
                }
                // RFC 7231 §5.1.1: a conforming client pauses after the head
                // until it sees `100 Continue`; send it once per request.
                if expect_continue && !self.continue_sent {
                    self.continue_sent = true;
                    self.write_buf.extend_from_slice(http::CONTINUE);
                }
                if matches!(self.flush(), Flush::Failed) {
                    return Step::Close;
                }
                self.state = State::Reading;
                return Step::Wait;
            }
            Err(failure) => Err(failure),
        };
        // A refused request closes the connection after its response.
        self.close_after_flush = request.as_ref().map_or(true, |request| request.close);
        self.state = State::Awaiting;
        Step::Request(request)
    }

    /// Queues a response: status line, `Content-Length`, `headers`, then
    /// `Connection: close` when the connection closes after it — the
    /// request asked, the codec refused it, `close` is set (the driver is
    /// draining), or the lifetime has passed.
    pub fn respond<'h>(
        &mut self,
        status: u16,
        headers: impl IntoIterator<Item = (&'h str, &'h str)>,
        body: &[u8],
        ticket: T,
        close: bool,
    ) {
        self.respond_with(status, headers, |out| out.extend_from_slice(body), ticket, close);
    }

    /// [`Self::respond`] with a body that `write_body` encodes straight into
    /// the write buffer. The request being answered leaves the read buffer.
    pub fn respond_with<'h>(
        &mut self,
        status: u16,
        headers: impl IntoIterator<Item = (&'h str, &'h str)>,
        write_body: impl FnOnce(&mut Vec<u8>),
        ticket: T,
        close: bool,
    ) {
        if close || self.expires.is_some_and(|at| Instant::now() >= at) {
            self.close_after_flush = true;
        }
        self.drop_request();
        self.write_buf.drain(..self.written);
        self.written = 0;
        let close = self.close_after_flush.then_some(("Connection", "close"));
        let start = StartLine::Response(status);
        http::write_message_with(&mut self.write_buf, start, headers.into_iter().chain(close), write_body);
        self.write_deadline = None;
        self.stall_until = None;
        self.state = State::Flushing(ticket);
    }

    /// Drops the answered request from the read buffer, keeping any
    /// pipelined bytes behind it, and releases a buffer grown past
    /// [`KEPT_READ_CAPACITY`] once nothing is left in it.
    fn drop_request(&mut self) {
        self.body = 0..0;
        self.read_buf.copy_within(self.taken..self.filled, 0);
        self.filled -= self.taken;
        self.taken = 0;
        if self.filled == 0 && self.read_buf.len() > KEPT_READ_CAPACITY {
            self.read_buf = Vec::new();
        }
    }

    /// Holds the queued response unsent until `until`, as if the client had
    /// stopped draining its receive window (fault injection).
    pub fn hold_flush(&mut self, until: Option<Instant>) {
        self.stall_until = until;
    }

    fn flush(&mut self) -> Flush {
        let now = Instant::now();
        if self.stall_until.is_some_and(|at| at > now) {
            return Flush::Pending;
        }
        self.stall_until = None;
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Flush::Failed,
                Ok(n) => {
                    self.written += n;
                    self.write_deadline = Some(Instant::now() + self.limits.write_timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let deadline = *self.write_deadline.get_or_insert(now + self.limits.write_timeout);
                    return if now >= deadline { Flush::Failed } else { Flush::Pending };
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Flush::Failed,
            }
        }
        self.write_buf.clear();
        self.written = 0;
        Flush::Done
    }

    /// When the connection's next timer fires: the lifetime or read budget
    /// while reading, the held flush or write budget while flushing, the
    /// end of the linger.
    pub fn deadline(&self) -> Option<Instant> {
        let (a, b) = match self.state {
            State::Reading => (self.expires, self.read_deadline),
            State::Flushing(_) => (self.stall_until, self.write_deadline),
            State::Lingering(until) => (Some(until), None),
            State::Awaiting | State::Closed => return None,
        };
        a.into_iter().chain(b).min()
    }

    /// [`Self::park`], except that a connection whose request is with the
    /// driver keeps its registration: for a driver that usually answers
    /// within the same readiness pass, and parks what it did not answer at
    /// the end of the pass. That spares a deregistration and a
    /// registration per request.
    pub fn hold(&mut self, poller: &Poller) {
        if !matches!(self.state, State::Awaiting) {
            self.park(poller);
        }
    }

    /// Registers the interest the connection's state needs.
    pub fn park(&mut self, poller: &Poller) {
        let want = match self.state {
            // An unsent `100 Continue` tail needs send-buffer space too.
            State::Reading if self.written < self.write_buf.len() => Some(Interest::BOTH),
            State::Reading | State::Lingering(_) => Some(Interest::READABLE),
            // A held flush resumes on its timer.
            State::Flushing(_) if self.stall_until.is_some_and(|at| at > Instant::now()) => None,
            State::Flushing(_) => Some(Interest::WRITABLE),
            State::Awaiting | State::Closed => None,
        };
        self.set_interest(poller, want);
    }

    /// Deregisters and closes the connection.
    pub fn close(mut self, poller: &Poller) {
        self.set_interest(poller, None);
    }

    fn set_interest(&mut self, poller: &Poller, want: Option<Interest>) {
        if self.interest == want {
            return;
        }
        let fd = self.stream.as_raw_fd();
        let result = match (self.interest, want) {
            (None, Some(interest)) => poller.register(fd, self.token, interest),
            (Some(_), Some(interest)) => poller.reregister(fd, self.token, interest),
            (Some(_), None) => poller.deregister(fd),
            (None, None) => Ok(()),
        };
        if result.is_ok() {
            self.interest = want;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connection on one end of a loopback socket, the client on the other.
    fn pair() -> (Conn<()>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_end, _) = listener.accept().expect("accept");
        let limits = Limits {
            write_timeout: Duration::from_secs(5),
            read_timeout: None,
            lifetime: None,
        };
        (Conn::new(Token(1), server_end, limits).expect("conn"), client)
    }

    /// Reads until `sent` bytes are in, checking after every read that the
    /// buffer holds at most [`READ_GROWTH`] times what has arrived.
    fn read_all(conn: &mut Conn<()>, sent: usize) {
        let give_up = Instant::now() + Duration::from_secs(5);
        while conn.filled < sent {
            assert!(Instant::now() < give_up, "read {} of {sent} bytes", conn.filled);
            conn.read();
            assert!(conn.read_buf.len() <= READ_GROWTH * conn.filled.max(READ_CHUNK));
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_claimed_body_commits_memory_only_as_it_arrives() {
        let (mut conn, mut client) = pair();
        let head = format!(
            "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            http::MAX_BODY_BYTES
        );
        client.write_all(head.as_bytes()).expect("head");
        client.write_all(&[b'1'; 4096]).expect("part of the body");
        read_all(&mut conn, head.len() + 4096);
        assert!(matches!(conn.advance(), Step::Wait));
        let held = conn.read_buf.capacity();
        assert!(held <= 32 * 1024, "{held} bytes held for {} received", conn.filled);
    }

    #[test]
    fn a_request_longer_than_a_chunk_fills_a_buffer_of_its_own_length() {
        let (mut conn, mut client) = pair();
        let body = format!("[{}0]", "0.5,".repeat(2100));
        let request = format!("POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        client.write_all(request.as_bytes()).expect("request");
        read_all(&mut conn, request.len());
        // The read that filled the buffer ended the pass: no chunk was added
        // for a read with nothing left to return.
        assert_eq!(conn.read_buf.len(), request.len());
        let Step::Request(Ok(parsed)) = conn.advance() else {
            panic!("expected a request")
        };
        assert_eq!(parsed.path, "/score");
        assert_eq!(conn.body(), body);
    }
}
