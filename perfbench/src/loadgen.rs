//! The load generator: one thread driving a few keep-alive connections over
//! nonblocking sockets.
//!
//! Open loop: every request has a due time and is sent when it falls due,
//! whatever the server is doing; its latency runs from the due time to the
//! last byte of its response. Requests on one connection are pipelined up
//! to [`OPEN_WINDOW`] in flight; a request the window holds back keeps its
//! due time, so the wait shows in its latency. Closed loop: a connection
//! sends its next request when the previous response is in, and latency
//! runs from the send.
//!
//! The thread sleeps in `ppoll(2)`, whose timeout has nanosecond
//! resolution (`epoll_wait` and socket timeouts round to milliseconds), with
//! the thread's timer slack cut to 1 ns while a phase runs.

use crate::stats;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Most requests one connection has in flight under open-loop load. Two
/// connections stay well inside the backend's 256-job admission queue, so
/// an overloaded rung queues in the client (and shows as latency) instead of
/// drawing 429s.
pub const OPEN_WINDOW: usize = 64;

/// A phase fails when no response arrives for this long.
const STALL: Duration = Duration::from_secs(20);

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            wbuf: Vec::with_capacity(1 << 16),
            wpos: 0,
        })
    }

    fn pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.pending_write() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped reading")),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.pending_write() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads whatever the socket holds; `Ok(false)` when the peer closed.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A complete request on the wire.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses one complete response at the start of `buf`: its status, the
/// byte range of its body and its total length. `Ok(None)` while it is
/// still arriving.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, Range<usize>, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((status, body_start..body_start + length, body_start + length)))
}

/// How one response was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Answered, but not 2xx.
    Refused,
    /// 2xx, but the scores were not the expected bits.
    Mismatch,
}

/// One request of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Which connection sends it.
    pub conn: usize,
    /// Open loop: when it falls due (ns after the phase start). Closed loop:
    /// `None`, sent as soon as the connection's previous response is in.
    pub due_ns: Option<u64>,
    /// Index into the phase's request table.
    pub wire: usize,
}

/// What a phase measured, per item in item order.
#[derive(Debug, Default)]
pub struct Phase {
    /// Due-time latency (open loop) or send-to-response latency (closed
    /// loop), in ns.
    pub latency_ns: Vec<u64>,
    /// How late each send ran (see [`stats::send_lag_ns`]); 0 in closed loop.
    pub lag_ns: Vec<u64>,
    pub verdicts: Vec<Verdict>,
    /// Last response time, ns after the phase start.
    pub end_ns: u64,
}

impl Phase {
    pub fn count(&self, verdict: Verdict) -> usize {
        self.verdicts.iter().filter(|&&v| v == verdict).count()
    }

    pub fn failed(&self) -> usize {
        self.verdicts.len() - self.count(Verdict::Ok)
    }

    pub fn latency_us(&self) -> Vec<f64> {
        self.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    }
}

/// Open-loop items for a schedule, dealt round-robin across `conns`.
pub fn open_loop(due: &[u64], conns: usize, wire_of: impl Fn(usize) -> usize) -> Vec<Item> {
    due.iter()
        .enumerate()
        .map(|(i, &d)| Item {
            conn: i % conns,
            due_ns: Some(d),
            wire: wire_of(i),
        })
        .collect()
}

/// Closed-loop items: request `i` goes to connection `i % conns`.
pub fn closed_loop(count: usize, conns: usize, wire_of: impl Fn(usize) -> usize) -> Vec<Item> {
    (0..count)
        .map(|i| Item {
            conn: i % conns,
            due_ns: None,
            wire: wire_of(i),
        })
        .collect()
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Cuts the calling thread's timer slack to 1 ns for its lifetime and
/// restores the default on drop, so children spawned later keep the usual
/// slack.
struct TightTimers;

impl TightTimers {
    fn new() -> Self {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
        // only the calling thread's scheduling attributes.
        unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
        TightTimers
    }
}

impl Drop for TightTimers {
    fn drop(&mut self) {
        // SAFETY: as above; 0 restores the thread's default slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 0u64) };
    }
}

/// Waits until a descriptor is ready or `timeout` passes; fills `revents`.
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd records and its length is passed alongside; `ts` outlives the
    // call; a null sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Runs one phase: sends `items` over `conns` (open or closed loop per
/// item), judges every response with `judge(item, status, body)`, and
/// returns per-item timings. A transport error or a stall fails the phase.
pub fn drive(
    conns: &mut [Conn],
    items: &[Item],
    wires: &[Vec<u8>],
    mut judge: impl FnMut(usize, u16, &[u8]) -> Verdict,
) -> io::Result<Phase> {
    let _timers = TightTimers::new();
    let n = items.len();
    let mut phase = Phase {
        latency_ns: vec![0; n],
        lag_ns: vec![0; n],
        verdicts: vec![Verdict::Ok; n],
        end_ns: 0,
    };
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns.len()];
    for (i, item) in items.iter().enumerate() {
        queues[item.conn].push_back(i);
    }
    let windows: Vec<usize> = queues
        .iter()
        .map(|q| match q.front() {
            Some(&i) if items[i].due_ns.is_some() => OPEN_WINDOW,
            _ => 1,
        })
        .collect();
    let mut inflight: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); conns.len()];
    let mut window_open = vec![0u64; conns.len()];
    let mut remaining = n;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut last_progress = 0u64;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    while remaining > 0 {
        let mut next_due: Option<u64> = None;
        for (c, conn) in conns.iter_mut().enumerate() {
            let now = now_ns();
            while let Some(&i) = queues[c].front() {
                if inflight[c].len() >= windows[c] {
                    break;
                }
                let due = items[i].due_ns.unwrap_or(now);
                if due > now {
                    next_due = Some(next_due.map_or(due, |d: u64| d.min(due)));
                    break;
                }
                conn.wbuf.extend_from_slice(&wires[items[i].wire]);
                if items[i].due_ns.is_some() {
                    phase.lag_ns[i] = stats::send_lag_ns(due, window_open[c], now);
                }
                inflight[c].push_back((i, now));
                queues[c].pop_front();
            }
            conn.flush()?;
        }
        let timeout = match next_due {
            Some(due) => Duration::from_nanos(due.saturating_sub(now_ns())),
            None => Duration::from_millis(50),
        };
        if timeout.is_zero() {
            continue;
        }
        for (fd, conn) in fds.iter_mut().zip(conns.iter()) {
            fd.events = if conn.pending_write() { POLLIN | POLLOUT } else { POLLIN };
            fd.revents = 0;
        }
        wait(&mut fds, timeout)?;
        let t = now_ns();
        for (c, conn) in conns.iter_mut().enumerate() {
            let revents = fds[c].revents;
            if revents == 0 {
                continue;
            }
            if revents & POLLOUT != 0 {
                conn.flush()?;
            }
            if revents & !POLLOUT != 0 {
                let open = conn.fill()?;
                let mut consumed = 0;
                while let Some((status, body, len)) = parse_response(&conn.rbuf[consumed..])? {
                    let Some((i, sent)) = inflight[c].pop_front() else {
                        return Err(io::Error::new(io::ErrorKind::InvalidData, "response to no request"));
                    };
                    if inflight[c].len() + 1 == windows[c] {
                        window_open[c] = t;
                    }
                    let body = &conn.rbuf[consumed + body.start..consumed + body.end];
                    phase.verdicts[i] = judge(i, status, body);
                    phase.latency_ns[i] = match items[i].due_ns {
                        Some(due) => stats::due_latency_ns(due, t),
                        None => t - sent,
                    };
                    consumed += len;
                    remaining -= 1;
                    last_progress = t;
                    phase.end_ns = t;
                }
                conn.rbuf.drain(..consumed);
                if !open && (!inflight[c].is_empty() || !queues[c].is_empty()) {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server closed a connection mid-phase",
                    ));
                }
            }
        }
        if t.saturating_sub(last_progress) > STALL.as_nanos() as u64 && inflight.iter().any(|q| !q.is_empty()) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no response for too long"));
        }
    }
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_one_at_a_time() {
        let two = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 429 Too Many\r\nContent-Length: 0\r\n\r\n";
        let (status, body, len) = parse_response(two).unwrap().unwrap();
        assert_eq!((status, &two[body], len), (200, &b"ok"[..], 40));
        let (status, body, _) = parse_response(&two[len..]).unwrap().unwrap();
        assert_eq!((status, body.len()), (429, 0));
        assert!(parse_response(&two[..30]).unwrap().is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn open_loop_deals_round_robin_and_keeps_due_times() {
        let items = open_loop(&[0, 10, 20], 2, |i| i * 7);
        assert_eq!(items.iter().map(|i| i.conn).collect::<Vec<_>>(), vec![0, 1, 0]);
        assert_eq!(items[2].due_ns, Some(20));
        assert_eq!(items[2].wire, 14);
        assert!(closed_loop(2, 2, |i| i).iter().all(|i| i.due_ns.is_none()));
    }
}
