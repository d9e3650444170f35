//! Exact heap-allocation budgets of a `/score` relayed through the gateway.
//!
//! This test binary installs a counting global allocator and runs a
//! [`GatewayServer`] in front of one [`ScoreServer`], both in this process,
//! so every allocation of a relayed request is counted: the gateway's
//! downstream parse, its upstream connection and request, the backend's
//! answer, and the relay of that answer. A client that allocates nothing
//! sends one cached `/score` of a single pair or of a 32-pair array at a
//! time over a keep-alive connection to the gateway. Hedging is off and the
//! health monitor probes only at start, so nothing else runs in the
//! measured window; the backend serves on one lane and on two.
//!
//! Each bound is the ceiling of the mean count over the window when the
//! bounds were set. A change that removes allocations lowers them; one that
//! adds them must justify the new bound. The file holds one `#[test]`, so
//! no other test allocates inside a measured window.

use er_base::Label;
use er_gateway::{GatewayConfig, GatewayServer};
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{ReloadableExecutor, ScoreRequest, ScoreServer, ScoringEngine, ServeConfig, ServerConfig};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts every allocation and reallocation, on every thread.
struct Counting;

/// A statistic that publishes no other data, so increments are `Relaxed`;
/// [`settled_count`] reads it only once it has stopped moving.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// so `System`'s contract is the caller's; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per relayed cached single-pair `/score`, both processes'
/// worth.
const RELAYED_PAIR_ALLOCS: u64 = 50;
/// Allocations per relayed cached 32-pair array `/score`.
const RELAYED_ARRAY_ALLOCS: u64 = 53;
/// Pairs in an array request.
const ARRAY_PAIRS: u64 = 32;

const WARM_UP: u64 = 300;
const MEASURED: u64 = 500;

fn model() -> LearnRiskModel {
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
    LearnRiskModel::new(feature_set, RiskModelConfig::default())
}

/// The request with pair id `pair_id`.
fn request(pair_id: u64) -> ScoreRequest {
    let x = (pair_id as f64 * 0.618_033_988_749_895).fract();
    ScoreRequest {
        pair_id,
        metric_row: vec![x, 1.0 - x],
        classifier_output: x,
        machine_says_match: x >= 0.5,
    }
}

/// One `POST /score` of `pairs` pairs on a keep-alive connection, written
/// from and read into buffers allocated before the measured window.
struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    buffer: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr, pairs: u64) -> Self {
        let body = match pairs {
            1 => serde::json::to_string(&request(7)),
            _ => serde::json::to_string(&(0..pairs).map(request).collect::<Vec<_>>()),
        };
        let head = format!(
            "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        Client {
            stream,
            request: [head.as_bytes(), body.as_bytes()].concat(),
            buffer: vec![0; 4096],
        }
    }

    /// Sends the request and reads the whole `200` response, allocating
    /// nothing.
    fn send(&mut self) {
        self.stream.write_all(&self.request).expect("write request");
        let mut filled = 0;
        loop {
            let n = self.stream.read(&mut self.buffer[filled..]).expect("read response");
            assert!(n > 0, "the gateway closed the connection or the buffer is full");
            filled += n;
            let response = &self.buffer[..filled];
            let Some(head_end) = response.windows(4).position(|w| w == b"\r\n\r\n") else {
                continue;
            };
            assert!(response.starts_with(b"HTTP/1.1 200 "), "not a 200");
            if filled >= head_end + 4 + content_length(&response[..head_end]) {
                return;
            }
        }
    }
}

fn content_length(head: &[u8]) -> usize {
    let key = b"content-length:";
    head.split(|&b| b == b'\n')
        .find(|line| line.len() > key.len() && line[..key.len()].eq_ignore_ascii_case(key))
        .map(|line| {
            line[key.len()..]
                .iter()
                .filter(|d| d.is_ascii_digit())
                .fold(0, |n, d| n * 10 + usize::from(d - b'0'))
        })
        .expect("Content-Length header")
}

/// The allocation count once both servers have finished the bookkeeping
/// they do after the last response: read until two reads 5 ms apart agree.
fn settled_count() -> u64 {
    let mut last = ALLOCATIONS.load(Ordering::SeqCst);
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = ALLOCATIONS.load(Ordering::SeqCst);
        if now == last {
            return now;
        }
        last = now;
    }
}

/// Allocations of [`MEASURED`] relayed cached requests of `pairs` pairs
/// each, through a fresh gateway to a fresh backend on `lanes` lanes.
fn relayed_allocations(lanes: usize, pairs: u64) -> u64 {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model()),
        ServeConfig::default().with_threads(lanes),
    ));
    let backend = ScoreServer::start(
        executor,
        ServerConfig {
            fault_plan: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind backend");
    let gateway = GatewayServer::start(GatewayConfig {
        backends: vec![backend.local_addr()],
        hedge_after: None,
        health_interval: Duration::from_secs(3600),
        ..GatewayConfig::default()
    })
    .expect("bind gateway");
    let mut client = Client::new(gateway.local_addr(), pairs);
    for _ in 0..WARM_UP {
        client.send();
    }
    let before = settled_count();
    for _ in 0..MEASURED {
        client.send();
    }
    let total = settled_count() - before;
    gateway.shutdown();
    backend.shutdown();
    total
}

#[test]
fn relayed_scores_stay_within_their_allocation_budgets() {
    for lanes in [1, 2] {
        for (what, pairs, budget) in [
            ("single pair", 1, RELAYED_PAIR_ALLOCS),
            ("32-pair array", ARRAY_PAIRS, RELAYED_ARRAY_ALLOCS),
        ] {
            let total = relayed_allocations(lanes, pairs);
            let per_request = total as f64 / MEASURED as f64;
            println!("backend on {lanes} lane(s), relayed {what}, allocations per request: {per_request:.3}");
            assert!(
                total <= budget * MEASURED,
                "relayed {what}: {per_request:.3} allocations per request, budget {budget} ({lanes} lanes)"
            );
        }
    }
}
