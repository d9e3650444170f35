//! Nonblocking upstream I/O on the gateway's readiness loop: one [`Flight`]
//! per backend request, registered on the same `Poller` as the downstream
//! connections (`er_serve::readiness`, the loop the backend's front-end
//! runs on too).
//!
//! A flight opens a fresh connection with a nonblocking
//! [`connect`](er_serve::readiness::connect), so a backend that drops SYNs
//! costs a timer, never a stalled loop. The driver [steps](Flight::step) it
//! on every readiness event for its token: connect completion, then the
//! write of the request bytes, then the read of one response framed by
//! [`er_serve::http`] (a framing violation fails the flight with
//! `InvalidData`). Hedging falls out of the shape: the driver starts a
//! second flight with the same bytes and closes the loser.

use er_serve::http::{self, Progress};
use er_serve::readiness::{self, Interest, Poller, Token};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Largest response body a flight will buffer from a backend.
const MAX_RESPONSE_BYTES: usize = 8 << 20;

/// One complete backend response, body kept as raw bytes so the gateway can
/// relay it downstream bit-exactly.
pub type UpstreamResponse = http::Response;

enum Phase {
    Connecting,
    Sending,
    Receiving,
}

/// One backend request in flight on the driver's poller.
pub struct Flight {
    stream: TcpStream,
    request: Vec<u8>,
    written: usize,
    buffer: Vec<u8>,
    phase: Phase,
    /// The TCP handshake must settle by then.
    connect_by: Instant,
    /// The whole exchange must finish by then; `None` leaves the bound to
    /// the caller.
    deadline: Option<Instant>,
}

impl Flight {
    /// Starts connecting to `addr` without blocking and registers the
    /// socket under `token`; `request` (full wire bytes, head + body) goes
    /// out once the handshake completes.
    pub fn start(
        poller: &Poller,
        token: Token,
        addr: SocketAddr,
        request: Vec<u8>,
        connect_timeout: Duration,
        deadline: Option<Instant>,
    ) -> io::Result<Self> {
        let stream = readiness::connect(&addr)?;
        let _ = stream.set_nodelay(true);
        poller.register(stream.as_raw_fd(), token, Interest::WRITABLE)?;
        Ok(Self {
            stream,
            request,
            written: 0,
            buffer: Vec::with_capacity(1024),
            phase: Phase::Connecting,
            connect_by: Instant::now() + connect_timeout,
            deadline,
        })
    }

    /// When the flight times out: the connect budget while the handshake is
    /// in flight, then the overall deadline.
    pub fn deadline(&self) -> Option<Instant> {
        match self.phase {
            Phase::Connecting => Some(self.deadline.map_or(self.connect_by, |at| at.min(self.connect_by))),
            _ => self.deadline,
        }
    }

    /// The error a flight fails with once its [deadline](Self::deadline)
    /// passes.
    pub fn timed_out(&self) -> io::Error {
        let message = match self.phase {
            Phase::Connecting => "upstream connect timed out",
            _ => "upstream deadline expired",
        };
        io::Error::new(io::ErrorKind::TimedOut, message)
    }

    /// Deregisters and closes the socket.
    pub fn close(self, poller: &Poller) {
        let _ = poller.deregister(self.stream.as_raw_fd());
    }

    /// Pumps the flight as far as the socket allows: `None` while it is
    /// still in flight, the response or the failure once it is finished
    /// (the caller then [closes](Self::close) it).
    pub fn step(&mut self, poller: &Poller, token: Token) -> Option<io::Result<UpstreamResponse>> {
        if matches!(self.phase, Phase::Connecting) {
            match self.stream.take_error() {
                Ok(Some(e)) | Err(e) => return Some(Err(e)),
                Ok(None) => {}
            }
            match self.stream.peer_addr() {
                Ok(_) => self.phase = Phase::Sending,
                // The handshake is still in flight.
                Err(e) if e.kind() == io::ErrorKind::NotConnected => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        if matches!(self.phase, Phase::Sending) {
            while self.written < self.request.len() {
                match self.stream.write(&self.request[self.written..]) {
                    Ok(0) => {
                        return Some(Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "upstream closed during send",
                        )))
                    }
                    Ok(n) => self.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Some(Err(e)),
                }
            }
            self.phase = Phase::Receiving;
            if let Err(e) = poller.reregister(self.stream.as_raw_fd(), token, Interest::READABLE) {
                return Some(Err(e));
            }
        }
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Some(Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "upstream closed before a full response",
                    )))
                }
                Ok(n) => {
                    self.buffer.extend_from_slice(&chunk[..n]);
                    match http::parse_response(&self.buffer, MAX_RESPONSE_BYTES) {
                        Ok(Progress::Complete(response, _)) => return Some(Ok(response)),
                        Ok(Progress::Partial { .. }) => {}
                        Err(e) => return Some(Err(e.into())),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_serve::readiness::Events;
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

    /// Drives one flight on its own poller until it finishes or its
    /// deadline passes — the driver's loop, for a single token.
    fn fly(addr: SocketAddr, connect_timeout: Duration, deadline: Duration) -> io::Result<UpstreamResponse> {
        let poller = Poller::new().expect("poller");
        let token = Token(7);
        let mut flight = Flight::start(
            &poller,
            token,
            addr,
            b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            connect_timeout,
            Some(Instant::now() + deadline),
        )?;
        let mut events = Events::with_capacity(4);
        loop {
            let Some(at) = flight.deadline() else {
                unreachable!("every test flight has a deadline")
            };
            if Instant::now() >= at {
                let error = flight.timed_out();
                flight.close(&poller);
                return Err(error);
            }
            poller
                .poll(&mut events, Some(at.saturating_duration_since(Instant::now())))
                .expect("poll");
            if !events.is_empty() {
                if let Some(result) = flight.step(&poller, token) {
                    flight.close(&poller);
                    return result;
                }
            }
        }
    }

    #[test]
    fn a_flight_round_trips_a_response() {
        let addr = serve_once(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Model-Version: 3\r\n\r\nhello");
        let response = fly(addr, Duration::from_secs(2), Duration::from_secs(5)).expect("ok");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"hello");
        assert_eq!(response.header("x-model-version"), Some("3"));
    }

    #[test]
    fn malformed_upstream_framing_fails_the_flight() {
        let responses: [&'static [u8]; 6] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 7\r\n\r\nhello!!",
            // Framing a chunked response by its (absent) Content-Length would
            // relay the chunk metadata as body bytes.
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nX-Model-Version: 3\r\n Content-Length: 5\r\n\r\nhello",
            // A length at the address-space limit must fail the flight, not
            // overflow the framing arithmetic on the driver thread.
            b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nhello",
        ];
        for response in responses {
            let err =
                fly(serve_once(response), Duration::from_secs(2), Duration::from_secs(5)).expect_err("must reject");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
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
        let err = fly(addr, Duration::from_secs(2), Duration::from_millis(120)).expect_err("must time out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let _ = hold.join();
    }

    #[test]
    fn connect_refused_fails_the_flight() {
        // Bind then drop: the port is (very likely) unbound afterwards.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let result = fly(addr, Duration::from_millis(500), Duration::from_secs(1));
        assert!(result.is_err(), "connect to an unbound port must fail");
    }
}
