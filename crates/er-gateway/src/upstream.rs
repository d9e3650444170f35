//! Nonblocking upstream I/O: one driver thread owns every in-flight
//! backend request through the readiness loop (`er_serve::readiness`, the
//! same `Poller` the backend's front-end runs on).
//!
//! A submission opens a fresh connection (connect is blocking but
//! local-network fast; everything after is nonblocking), hands the socket
//! to the driver, and returns a [`ResponseSlot`] the caller parks on.
//! Hedging falls out of the shape for free: submit the same bytes twice and
//! wait on both slots — the first completion wins and the loser's slot is
//! [cancelled](ResponseSlot::cancel), which tells the driver to discard the
//! straggler's response instead of buffering it for nobody. Responses are
//! framed by [`er_serve::http`]; a framing violation completes the slot
//! with `InvalidData`.

use er_serve::http::{self, Progress};
use er_serve::readiness::{Events, Interest, Poller, Token, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Token reserved for the driver's wake eventfd/pipe.
const WAKER: Token = Token(u64::MAX);
/// Largest response body the driver will buffer from a backend.
const MAX_RESPONSE_BYTES: usize = 8 << 20;

/// One complete backend response, body kept as raw bytes so the gateway can
/// relay it downstream bit-exactly.
pub type UpstreamResponse = http::Response;

enum SlotState {
    Pending,
    Done(io::Result<UpstreamResponse>),
    Taken,
}

/// Where a submission's response lands. One waiter takes the result; the
/// slot can be [cancelled](Self::cancel) to tell the driver nobody is
/// waiting anymore (the race loser in a hedged pair).
pub struct ResponseSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    cancelled: AtomicBool,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
        })
    }

    fn complete(&self, result: io::Result<UpstreamResponse>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Done(result);
            self.cv.notify_all();
        }
    }

    /// Blocks until the response lands or `timeout` passes. `None` means
    /// still pending — the caller may keep waiting (or launch a hedge).
    /// The result is taken: a second call returns a `BrokenPipe` error.
    pub fn take_timeout(&self, timeout: Duration) -> Option<io::Result<UpstreamResponse>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Done(result) => return Some(result),
                SlotState::Taken => {
                    return Some(Err(io::Error::new(io::ErrorKind::BrokenPipe, "response already taken")))
                }
                SlotState::Pending => {
                    *state = SlotState::Pending;
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (next, _) = self
                        .cv
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    state = next;
                }
            }
        }
    }

    /// Has a result landed (without taking it)?
    pub fn is_done(&self) -> bool {
        !matches!(
            *self.state.lock().unwrap_or_else(|e| e.into_inner()),
            SlotState::Pending
        )
    }

    /// Marks the slot as abandoned: the driver drops the in-flight request
    /// (and its connection) at the next opportunity instead of finishing a
    /// read nobody will consume.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

struct Submission {
    stream: TcpStream,
    request: Vec<u8>,
    slot: Arc<ResponseSlot>,
    deadline: Instant,
}

enum Direction {
    Sending,
    Receiving,
}

struct InFlight {
    stream: TcpStream,
    request: Vec<u8>,
    written: usize,
    buffer: Vec<u8>,
    direction: Direction,
    slot: Arc<ResponseSlot>,
    deadline: Instant,
    interest: Interest,
}

/// The upstream driver: submissions go in, completed [`ResponseSlot`]s come
/// out, one readiness loop in between.
pub struct UpstreamPool {
    inject: Arc<Mutex<Vec<Submission>>>,
    waker: Arc<Waker>,
    shutdown: Arc<AtomicBool>,
    driver: Option<std::thread::JoinHandle<()>>,
    connect_timeout: Duration,
}

impl UpstreamPool {
    /// Starts the driver thread. `connect_timeout` bounds the one blocking
    /// step (TCP connect) of each submission.
    pub fn new(connect_timeout: Duration) -> io::Result<Self> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, WAKER)?);
        let inject = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let driver = {
            let inject = Arc::clone(&inject);
            let waker = Arc::clone(&waker);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("gw-upstream".to_string())
                .spawn(move || drive(poller, waker, inject, shutdown))?
        };
        Ok(Self {
            inject,
            waker,
            shutdown,
            driver: Some(driver),
            connect_timeout,
        })
    }

    /// Sends `request` (full wire bytes, head + body) to `addr` on a fresh
    /// connection. Returns immediately with the slot the response will land
    /// in; connection failures land in the slot too, so callers have one
    /// wait path.
    pub fn submit(&self, addr: SocketAddr, request: Vec<u8>, timeout: Duration) -> Arc<ResponseSlot> {
        let slot = ResponseSlot::new();
        let stream = match TcpStream::connect_timeout(&addr, self.connect_timeout) {
            Ok(stream) => stream,
            Err(e) => {
                slot.complete(Err(e));
                return slot;
            }
        };
        if let Err(e) = stream.set_nonblocking(true) {
            slot.complete(Err(e));
            return slot;
        }
        let _ = stream.set_nodelay(true);
        self.inject.lock().unwrap_or_else(|e| e.into_inner()).push(Submission {
            stream,
            request,
            slot: Arc::clone(&slot),
            deadline: Instant::now() + timeout,
        });
        let _ = self.waker.wake();
        slot
    }
}

impl Drop for UpstreamPool {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
    }
}

/// The driver loop: registers injected submissions, pumps nonblocking
/// writes then reads, completes slots, expires deadlines.
fn drive(poller: Poller, waker: Arc<Waker>, inject: Arc<Mutex<Vec<Submission>>>, shutdown: Arc<AtomicBool>) {
    let mut events = Events::with_capacity(128);
    let mut flights: HashMap<u64, InFlight> = HashMap::new();
    let mut next_token: u64 = 0;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            for (_, flight) in flights.drain() {
                flight
                    .slot
                    .complete(Err(io::Error::new(io::ErrorKind::Interrupted, "gateway shutting down")));
                let _ = poller.deregister(flight.stream.as_raw_fd());
            }
            return;
        }
        // Adopt new submissions: register for WRITABLE and try an eager
        // write — small requests usually fit the socket buffer in one shot.
        let submissions: Vec<Submission> = std::mem::take(&mut *inject.lock().unwrap_or_else(|e| e.into_inner()));
        for submission in submissions {
            let token = next_token;
            next_token = next_token.wrapping_add(1);
            let mut flight = InFlight {
                stream: submission.stream,
                request: submission.request,
                written: 0,
                buffer: Vec::with_capacity(1024),
                direction: Direction::Sending,
                slot: submission.slot,
                deadline: submission.deadline,
                interest: Interest::WRITABLE,
            };
            if poller
                .register(flight.stream.as_raw_fd(), Token(token), Interest::WRITABLE)
                .is_err()
            {
                flight
                    .slot
                    .complete(Err(io::Error::other("cannot register upstream socket")));
                continue;
            }
            if step(&poller, Token(token), &mut flight) {
                flights.insert(token, flight);
            } else {
                let _ = poller.deregister(flight.stream.as_raw_fd());
            }
        }
        // Deadline scan; also drops cancelled stragglers.
        let now = Instant::now();
        let mut closest: Option<Instant> = None;
        flights.retain(|_, flight| {
            if flight.slot.is_cancelled() {
                let _ = poller.deregister(flight.stream.as_raw_fd());
                return false;
            }
            if now >= flight.deadline {
                flight.slot.complete(Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "upstream deadline expired",
                )));
                let _ = poller.deregister(flight.stream.as_raw_fd());
                return false;
            }
            closest = Some(closest.map_or(flight.deadline, |c| c.min(flight.deadline)));
            true
        });
        let timeout = closest.map(|deadline| deadline.saturating_duration_since(Instant::now()));
        if poller.poll(&mut events, timeout).is_err() {
            continue;
        }
        let mut finished: Vec<u64> = Vec::new();
        for event in events.iter() {
            let Token(token) = event.token();
            if Token(token) == WAKER {
                waker.drain();
                continue;
            }
            let Some(flight) = flights.get_mut(&token) else {
                continue;
            };
            if !step(&poller, Token(token), flight) {
                finished.push(token);
            }
        }
        for token in finished {
            if let Some(flight) = flights.remove(&token) {
                let _ = poller.deregister(flight.stream.as_raw_fd());
            }
        }
    }
}

/// Pumps one in-flight request as far as the socket allows. Returns `false`
/// when the flight is finished (completed or failed) and should be dropped.
fn step(poller: &Poller, token: Token, flight: &mut InFlight) -> bool {
    if flight.slot.is_cancelled() {
        return false;
    }
    if matches!(flight.direction, Direction::Sending) {
        while flight.written < flight.request.len() {
            match flight.stream.write(&flight.request[flight.written..]) {
                Ok(0) => {
                    flight.slot.complete(Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "upstream closed during send",
                    )));
                    return false;
                }
                Ok(n) => flight.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    flight.slot.complete(Err(e));
                    return false;
                }
            }
        }
        flight.direction = Direction::Receiving;
        if flight.interest != Interest::READABLE {
            flight.interest = Interest::READABLE;
            let _ = poller.reregister(flight.stream.as_raw_fd(), token, Interest::READABLE);
        }
    }
    let mut chunk = [0u8; 4096];
    loop {
        match flight.stream.read(&mut chunk) {
            Ok(0) => {
                flight.slot.complete(Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "upstream closed before a full response",
                )));
                return false;
            }
            Ok(n) => {
                flight.buffer.extend_from_slice(&chunk[..n]);
                match http::parse_response(&flight.buffer, MAX_RESPONSE_BYTES) {
                    Ok(Progress::Complete(response, _)) => {
                        flight.slot.complete(Ok(response));
                        return false;
                    }
                    Ok(Progress::Partial { .. }) => {}
                    Err(e) => {
                        flight.slot.complete(Err(e.into()));
                        return false;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                flight.slot.complete(Err(e));
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn serve_once(response: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                // Drain the request head before answering.
                let mut buffer = Vec::new();
                let mut chunk = [0u8; 1024];
                while !buffer.ends_with(b"\r\n\r\n") {
                    match stream.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => buffer.extend_from_slice(&chunk[..n]),
                        Err(_) => break,
                    }
                }
                let _ = stream.write_all(response);
            }
        });
        addr
    }

    #[test]
    fn submit_round_trips_a_response() {
        let addr = serve_once(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Model-Version: 3\r\n\r\nhello");
        let pool = UpstreamPool::new(Duration::from_secs(2)).expect("pool");
        let slot = pool.submit(addr, b"GET / HTTP/1.1\r\n\r\n".to_vec(), Duration::from_secs(5));
        let response = slot.take_timeout(Duration::from_secs(5)).expect("done").expect("ok");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"hello");
        assert_eq!(response.header("x-model-version"), Some("3"));
    }

    #[test]
    fn malformed_upstream_framing_fails_its_slot_and_the_driver_survives() {
        let responses: [&'static [u8]; 6] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 7\r\n\r\nhello!!",
            // Framing a chunked response by its (absent) Content-Length would
            // relay the chunk metadata as body bytes.
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nX-Model-Version: 3\r\n Content-Length: 5\r\n\r\nhello",
            // A length at the address-space limit must fail the slot, not
            // overflow the framing arithmetic on the driver thread.
            b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nhello",
        ];
        let pool = UpstreamPool::new(Duration::from_secs(2)).expect("pool");
        for response in responses {
            let slot = pool.submit(
                serve_once(response),
                b"GET / HTTP/1.1\r\n\r\n".to_vec(),
                Duration::from_secs(5),
            );
            let err = slot
                .take_timeout(Duration::from_secs(5))
                .expect("the driver completes the slot")
                .expect_err("must reject");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        let addr = serve_once(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
        let slot = pool.submit(addr, b"GET / HTTP/1.1\r\n\r\n".to_vec(), Duration::from_secs(5));
        let response = slot.take_timeout(Duration::from_secs(5)).expect("done").expect("ok");
        assert_eq!(response.body, b"ok");
    }

    #[test]
    fn deadline_expiry_surfaces_as_timed_out() {
        // A listener that accepts and then never answers.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let hold = std::thread::spawn(move || {
            listener.accept().map(|(s, _)| {
                std::thread::sleep(Duration::from_millis(800));
                drop(s);
            })
        });
        let pool = UpstreamPool::new(Duration::from_secs(2)).expect("pool");
        let slot = pool.submit(addr, b"GET / HTTP/1.1\r\n\r\n".to_vec(), Duration::from_millis(120));
        let err = slot
            .take_timeout(Duration::from_secs(5))
            .expect("done")
            .expect_err("must time out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let _ = hold.join();
    }

    #[test]
    fn connect_refused_lands_in_the_slot() {
        // Bind then drop: the port is (very likely) unbound afterwards.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let pool = UpstreamPool::new(Duration::from_millis(500)).expect("pool");
        let slot = pool.submit(addr, b"GET / HTTP/1.1\r\n\r\n".to_vec(), Duration::from_secs(1));
        let result = slot.take_timeout(Duration::from_secs(5)).expect("done");
        assert!(result.is_err(), "connect to an unbound port must fail");
    }

    #[test]
    fn two_submissions_race_and_the_loser_can_be_cancelled() {
        let slow = serve_once(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nslow");
        let fast = serve_once(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nfast");
        let pool = UpstreamPool::new(Duration::from_secs(2)).expect("pool");
        let slow_slot = pool.submit(slow, b"GET / HTTP/1.1\r\n\r\n".to_vec(), Duration::from_secs(5));
        let fast_slot = pool.submit(fast, b"GET / HTTP/1.1\r\n\r\n".to_vec(), Duration::from_secs(5));
        let winner = fast_slot
            .take_timeout(Duration::from_secs(5))
            .expect("done")
            .expect("ok");
        assert_eq!(winner.body, b"fast");
        slow_slot.cancel();
        // Cancellation is advisory: the driver drops the flight; the slot
        // never completes for a waiter, which is fine — nobody waits.
    }
}
