//! A hand-rolled readiness facility: `epoll` behind one `mio`-shaped API.
//! Linux only — both drivers rely on its nonblocking [`connect`], whose
//! `sockaddr` layout and errno values are per-platform ABI.
//!
//! The offline build environment vendors every dependency, so instead of
//! pulling in `mio` this module declares the handful of kernel entry points
//! it needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`) directly
//! — `std` already links libc — and exposes the familiar shape on top:
//! a [`Poller`] you [`register`](Poller::register) file descriptors with
//! under a caller-chosen [`Token`] and an [`Interest`], an [`Events`]
//! buffer [`poll`](Poller::poll) fills, and a [`Waker`] (an `eventfd`) that
//! lets other threads interrupt a blocked `poll` — how reload workers, resumed intake and shutdown reach
//! the connection drivers of [`crate::server`] and `er-gateway`, usually
//! through a [`Mailbox`]. [`connect`] opens an outbound TCP connection
//! without blocking, so a driver can own upstream sockets on the same loop
//! as its accepted ones.
//!
//! Readiness is **level-triggered**: as long as a registered descriptor is
//! readable/writable it keeps showing up in every poll, so the driver never
//! needs to drain a socket to exhaustion before polling again. The flip
//! side: stop reading a readable connection (e.g. while a request is in
//! flight) by [`deregister`](Poller::deregister)ing it, or the poller will
//! spin on the un-consumed readiness.
//!
//! # Example
//!
//! ```
//! use er_serve::readiness::{Events, Interest, Poller, Token, Waker};
//! use std::time::Duration;
//!
//! # fn main() -> std::io::Result<()> {
//! let poller = Poller::new()?;
//! let waker = Waker::new(&poller, Token(0))?;
//!
//! // Nothing is ready: poll times out with no events.
//! let mut events = Events::with_capacity(8);
//! poller.poll(&mut events, Some(Duration::from_millis(1)))?;
//! assert!(events.is_empty());
//!
//! // A wake from any thread makes poll return the waker's token.
//! waker.wake()?;
//! poller.poll(&mut events, Some(Duration::from_secs(5)))?;
//! assert_eq!(events.iter().count(), 1);
//! for event in events.iter() {
//!     assert_eq!(event.token(), Token(0));
//!     assert!(event.is_readable());
//! }
//! waker.drain(); // level-triggered: consume the wake before polling again
//! # Ok(()) }
//! ```

use std::sync::Mutex;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("er-serve's readiness loop is built on epoll and needs Linux");

pub use imp::{connect, Events, Poller, Waker};

/// The raw file-descriptor type descriptors are registered by.
pub type Fd = std::os::fd::RawFd;

/// Caller-chosen identifier attached to a registration; [`Poller::poll`]
/// reports readiness by token, so the driver can map events back to
/// connections without a descriptor lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which readiness directions a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Readable readiness (incoming bytes, an accepted connection queued on
    /// a listener, or EOF).
    pub const READABLE: Interest = Interest(0b01);
    /// Writable readiness (socket send buffer has room).
    pub const WRITABLE: Interest = Interest(0b10);
    /// Both directions at once.
    pub const BOTH: Interest = Interest(0b11);

    /// Does this interest include the readable direction?
    pub fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// Does this interest include the writable direction?
    pub fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness notification out of [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    closed: bool,
}

impl Event {
    /// The token the ready descriptor was registered under.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The descriptor is readable (for sockets this includes EOF — a read
    /// must still be attempted to observe it).
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// The descriptor is writable.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The peer closed or errored the descriptor (`EPOLLHUP`/`EPOLLERR`).
    /// The next read or write will surface the exact
    /// error.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// Converts an optional poll timeout to the millisecond form the kernel
/// takes: `None` blocks forever (-1), sub-millisecond waits round *up* so a
/// 200µs timeout never busy-spins as 0.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
            ms.min(i32::MAX as u128) as i32
        }
    }
}

/// Results other threads post to the thread that polls: a queue plus the
/// [`Waker`] that interrupts its poll, so a posted item is picked up on the
/// next pass instead of at the next timer tick.
pub struct Mailbox<T> {
    queue: Mutex<Vec<T>>,
    waker: Waker,
}

impl<T> Mailbox<T> {
    /// An empty mailbox whose waker fires `token` in `poller`.
    pub fn new(poller: &Poller, token: Token) -> std::io::Result<Self> {
        Ok(Self {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new(poller, token)?,
        })
    }

    /// Queues `item` and wakes the polling thread.
    pub fn post(&self, item: T) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).push(item);
        let _ = self.waker.wake();
    }

    /// Everything posted since the last call.
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The waker: drain it on its token's event; wake it to interrupt the
    /// poll without posting anything (shutdown, resumed intake).
    pub fn waker(&self) -> &Waker {
        &self.waker
    }
}

mod imp {
    //! One `epoll` instance, a `Waker` backed by an `eventfd`.

    use super::{timeout_ms, Event, Fd, Interest, Token};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::FromRawFd;
    use std::time::Duration;

    // epoll constants from <sys/epoll.h>; the event struct is packed on
    // x86-64 (a kernel ABI quirk) and naturally aligned elsewhere.
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    // Socket constants from <sys/socket.h>, <netinet/in.h> and <errno.h>.
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const EINPROGRESS: i32 = 115;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
        #[link_name = "connect"]
        fn connect_raw(fd: i32, addr: *const u8, len: u32) -> i32;
    }

    /// Starts a TCP connection to `addr` without blocking: the socket comes
    /// back nonblocking with the handshake possibly still in flight. It
    /// turns writable once the handshake settles; then
    /// [`TcpStream::take_error`] reports a refused or unreachable peer and
    /// [`TcpStream::peer_addr`] succeeds on success.
    pub fn connect(addr: &SocketAddr) -> io::Result<TcpStream> {
        let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: socket has no memory preconditions.
        let fd = cvt(unsafe { socket(i32::from(family), SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
        // SAFETY: fd is a fresh socket owned by nobody else; the stream
        // closes it on every path below.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        // `struct sockaddr_in` / `sockaddr_in6`: family (native order),
        // then port, flow info and address in network order, then the scope.
        let mut raw = [0u8; 28];
        raw[..2].copy_from_slice(&family.to_ne_bytes());
        raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
        let len = match addr {
            SocketAddr::V4(v4) => {
                raw[4..8].copy_from_slice(&v4.ip().octets());
                16
            }
            SocketAddr::V6(v6) => {
                raw[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                raw[8..24].copy_from_slice(&v6.ip().octets());
                raw[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        };
        // SAFETY: `raw` is a live, correctly laid out sockaddr of `len`
        // bytes for the duration of the call.
        let ret = unsafe { connect_raw(fd, raw.as_ptr(), len) };
        if ret < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINPROGRESS) && err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(stream)
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.is_readable() {
            bits |= EPOLLIN;
        }
        if interest.is_writable() {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// A buffer [`Poller::poll`] fills with readiness notifications.
    pub struct Events {
        raw: Vec<EpollEvent>,
        ready: Vec<Event>,
    }

    impl Events {
        /// A buffer returning at most `capacity` events per poll.
        pub fn with_capacity(capacity: usize) -> Self {
            let capacity = capacity.max(1);
            Self {
                raw: vec![EpollEvent { events: 0, data: 0 }; capacity],
                ready: Vec::with_capacity(capacity),
            }
        }

        /// The events the last poll produced.
        pub fn iter(&self) -> impl Iterator<Item = &Event> {
            self.ready.iter()
        }

        /// Number of events the last poll produced.
        pub fn len(&self) -> usize {
            self.ready.len()
        }

        /// Did the last poll produce no events (timeout or spurious wake)?
        pub fn is_empty(&self) -> bool {
            self.ready.is_empty()
        }
    }

    /// The `epoll` instance. See the [module docs](super) for the model.
    pub struct Poller {
        epfd: Fd,
    }

    impl Poller {
        /// Creates a fresh `epoll` instance (close-on-exec).
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 has no memory preconditions.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self { epfd })
        }

        fn ctl(&self, op: i32, fd: Fd, event: Option<EpollEvent>) -> io::Result<()> {
            let mut event = event;
            let ptr = event.as_mut().map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is either null (only for EPOLL_CTL_DEL, where
            // the kernel ignores it) or points at a live EpollEvent on this
            // stack frame for the duration of the call.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, ptr) })?;
            Ok(())
        }

        /// Subscribes `fd` under `token`. The registration is
        /// level-triggered; peer-close is always reported (as
        /// [`Event::is_closed`]) even with no interest bits beyond it.
        pub fn register(&self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                Some(EpollEvent {
                    events: interest_bits(interest),
                    data: token.0,
                }),
            )
        }

        /// Replaces the interest (and token) of an already-registered `fd`.
        pub fn reregister(&self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                Some(EpollEvent {
                    events: interest_bits(interest),
                    data: token.0,
                }),
            )
        }

        /// Removes `fd` from the poller. Safe to call for descriptors that
        /// are about to be closed; closing also deregisters implicitly.
        pub fn deregister(&self, fd: Fd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until at least one registered descriptor is ready, the
        /// timeout elapses (`events` comes back empty), or a [`Waker`]
        /// fires. A `None` timeout blocks indefinitely.
        pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
            events.ready.clear();
            let capacity = events.raw.len() as i32;
            // SAFETY: `raw` is a live, properly sized buffer for up to
            // `capacity` events; the kernel writes `n <= capacity` entries.
            let n = match cvt(unsafe { epoll_wait(self.epfd, events.raw.as_mut_ptr(), capacity, timeout_ms(timeout)) })
            {
                Ok(n) => n,
                // A signal interrupting the wait is not an error; the
                // driver's loop re-polls with a recomputed timeout.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for raw in &events.raw[..n as usize] {
                let bits = raw.events;
                events.ready.push(Event {
                    token: Token(raw.data),
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: we own epfd and close it exactly once.
            unsafe { close(self.epfd) };
        }
    }

    /// Interrupts a blocked [`Poller::poll`] from another thread, backed by
    /// an `eventfd`. Cloneable across threads via `Arc`; `Send + Sync`.
    pub struct Waker {
        fd: Fd,
    }

    impl Waker {
        /// Creates the eventfd and registers it with `poller` under
        /// `token`; a [`wake`](Self::wake) makes that token readable.
        pub fn new(poller: &Poller, token: Token) -> io::Result<Self> {
            // SAFETY: eventfd has no memory preconditions.
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            if let Err(e) = poller.register(fd, token, Interest::READABLE) {
                // SAFETY: fd was just created and is owned here.
                unsafe { close(fd) };
                return Err(e);
            }
            Ok(Self { fd })
        }

        /// Makes the waker's token readable in the owning poller. Cheap,
        /// async-signal-safe, callable from any thread.
        pub fn wake(&self) -> io::Result<()> {
            let value: u64 = 1;
            // SAFETY: writes 8 bytes from a live u64; eventfd reads exactly 8.
            let n = unsafe { write(self.fd, (&value as *const u64).cast(), 8) };
            if n == 8 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            // The counter is saturated from previous wakes: the poller is
            // already guaranteed to wake, which is all a waker promises.
            if err.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            Err(err)
        }

        /// Consumes pending wakes so the level-triggered registration stops
        /// reporting readiness. Call once per observed waker event.
        pub fn drain(&self) {
            let mut value: u64 = 0;
            // SAFETY: reads 8 bytes into a live u64; EAGAIN (nothing
            // pending) is fine and ignored.
            unsafe { read(self.fd, (&mut value as *mut u64).cast(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: we own fd and close it exactly once (closing also
            // removes it from any epoll set).
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    const LISTENER: Token = Token(1);
    const CONN: Token = Token(2);
    const WAKER: Token = Token(9);

    #[test]
    fn a_timeout_poll_returns_empty() {
        let poller = Poller::new().expect("poller");
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        poller.poll(&mut events, Some(Duration::from_millis(5))).expect("poll");
        assert!(events.is_empty());
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn a_pending_connection_makes_the_listener_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller
            .register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
            .expect("register");

        let mut events = Events::with_capacity(4);
        poller.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
        assert!(events.is_empty(), "no client yet");

        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        poller.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        let event = events.iter().next().expect("listener ready");
        assert_eq!(event.token(), LISTENER);
        assert!(event.is_readable());
        // Level-triggered: the un-accepted connection keeps the listener
        // readable on the next poll too.
        poller.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        assert!(events.iter().any(|e| e.token() == LISTENER));
    }

    #[test]
    fn reregistering_swaps_interest_and_deregistering_silences() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_end, _) = listener.accept().expect("accept");
        server_end.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        let mut events = Events::with_capacity(4);
        // Readable interest on an idle connection: silent.
        poller
            .register(server_end.as_raw_fd(), CONN, Interest::READABLE)
            .expect("register");
        poller.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
        assert!(events.is_empty());

        // Swap to writable: an idle socket's send buffer has room.
        poller
            .reregister(server_end.as_raw_fd(), CONN, Interest::WRITABLE)
            .expect("reregister");
        poller.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        let event = events.iter().next().expect("writable");
        assert_eq!(event.token(), CONN);
        assert!(event.is_writable());

        // Back to readable, and bytes arrive.
        poller
            .reregister(server_end.as_raw_fd(), CONN, Interest::READABLE)
            .expect("reregister");
        (&client).write_all(b"ping").expect("client write");
        poller.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        assert!(events.iter().any(|e| e.token() == CONN && e.is_readable()));

        // Deregistered: the pending bytes no longer wake the poller.
        poller.deregister(server_end.as_raw_fd()).expect("deregister");
        poller.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
        assert!(events.is_empty());
    }

    #[test]
    fn peer_close_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_end, _) = listener.accept().expect("accept");
        server_end.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        poller
            .register(server_end.as_raw_fd(), CONN, Interest::READABLE)
            .expect("register");
        drop(client);
        let mut events = Events::with_capacity(4);
        poller.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        let event = events.iter().find(|e| e.token() == CONN).expect("close event");
        assert!(
            event.is_closed() || event.is_readable(),
            "close surfaces as readable/closed"
        );
    }

    #[test]
    fn a_waker_interrupts_a_blocked_poll_from_another_thread() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let waker = Arc::new(Waker::new(&poller, WAKER).expect("waker"));

        let wake_from_thread = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            wake_from_thread.wake().expect("wake");
        });
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        poller.poll(&mut events, Some(Duration::from_secs(10))).expect("poll");
        assert!(
            start.elapsed() < Duration::from_secs(9),
            "the wake must interrupt the poll early"
        );
        let event = events.iter().next().expect("waker event");
        assert_eq!(event.token(), WAKER);
        assert!(event.is_readable());
        handle.join().expect("join");

        // Drained, the waker goes quiet; woken again, it fires again.
        waker.drain();
        poller.poll(&mut events, Some(Duration::from_millis(10))).expect("poll");
        assert!(events.is_empty(), "drained waker is silent");
        waker.wake().expect("wake");
        waker.wake().expect("coalesced second wake");
        poller.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        assert_eq!(events.iter().filter(|e| e.token() == WAKER).count(), 1);
        waker.drain();
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_to_zero() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(200))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
        assert!(timeout_ms(Some(Duration::from_secs(u64::MAX))) == i32::MAX);
    }
}
