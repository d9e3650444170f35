//! Exact per-request heap-allocation budgets of the backend's `/score` path.
//!
//! Wall-clock ratios cannot resolve a small cost on a shared machine; heap
//! allocations can be counted exactly. This test binary installs a counting
//! global allocator, starts an in-process [`ScoreServer`], and drives one
//! cached single-pair `/score` at a time over a keep-alive connection from a
//! client that allocates nothing, so every allocation in the measured window
//! is the server's. It holds:
//!
//! * metrics on against off: the same count (the registry costs nothing);
//! * tracing on against off: at most [`TRACING_ALLOCS`] more;
//! * each configuration at most its count when these bounds were set.
//!
//! A change that removes allocations lowers the bounds; one that adds them
//! must justify the new bound. The file holds one `#[test]`, so no other test
//! allocates inside a measured window.

use er_base::Label;
use er_rulegen::{CmpOp, Condition, Rule};
use er_serve::{ReloadableExecutor, ScoreRequest, ScoreServer, ScoringEngine, ServeConfig, ServerConfig};
use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// Allocations per cached single-pair `/score` with metrics and tracing on.
const METRICS_AND_TRACING_ALLOCS: u64 = 25;
/// The same with tracing off.
const TRACING_OFF_ALLOCS: u64 = 20;
/// The same with metrics and tracing off.
const METRICS_AND_TRACING_OFF_ALLOCS: u64 = 20;
/// What tracing may add per request.
const TRACING_ALLOCS: u64 = 5;

const WARM_UP: u64 = 600;
const MEASURED: u64 = 1_000;

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

/// One `POST /score` on a keep-alive connection, written from and read into
/// buffers allocated before the measured window.
struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    buffer: Vec<u8>,
}

impl Client {
    fn new(server: &ScoreServer) -> Self {
        let body = serde::json::to_string(&ScoreRequest {
            pair_id: 7,
            metric_row: vec![0.7, 0.2],
            classifier_output: 0.7,
            machine_says_match: true,
        });
        let head = format!(
            "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
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
    fn score(&mut self) {
        self.stream.write_all(&self.request).expect("write request");
        let mut filled = 0;
        loop {
            let n = self.stream.read(&mut self.buffer[filled..]).expect("read response");
            assert!(n > 0, "the server closed the connection");
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

/// The allocation count once the server has finished the bookkeeping it
/// does after writing its last response (trace commit, histogram): read
/// until two reads 5 ms apart agree.
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

/// Allocations of [`MEASURED`] cached single-pair requests against a fresh
/// server on `lanes` scoring lanes.
fn allocations(lanes: usize, metrics_enabled: bool, trace_capacity: usize) -> u64 {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model()),
        ServeConfig::default().with_threads(lanes),
    ));
    let server = ScoreServer::start(
        executor,
        ServerConfig {
            metrics_enabled,
            trace_capacity,
            fault_plan: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::new(&server);
    // The first request fills the cache; the warm-up also fills the trace
    // ring, so the window sees its steady state.
    for _ in 0..WARM_UP {
        client.score();
    }
    let before = settled_count();
    for _ in 0..MEASURED {
        client.score();
    }
    let total = settled_count() - before;
    server.shutdown();
    total
}

#[test]
fn cached_single_pair_scores_stay_within_their_allocation_budgets() {
    let tracing = ServerConfig::default().trace_capacity;
    for lanes in [1, 2] {
        let all_on = allocations(lanes, true, tracing);
        let tracing_off = allocations(lanes, true, 0);
        let all_off = allocations(lanes, false, 0);
        let per_request = |total: u64| total as f64 / MEASURED as f64;
        println!(
            "{lanes} lane(s), allocations per request: metrics + tracing {:.3}, tracing off {:.3}, both off {:.3}",
            per_request(all_on),
            per_request(tracing_off),
            per_request(all_off)
        );
        assert_eq!(tracing_off, all_off, "metrics must add no allocation ({lanes} lanes)");
        assert!(
            all_on <= tracing_off + TRACING_ALLOCS * MEASURED,
            "tracing added {:.3} allocations per request, budget {TRACING_ALLOCS} ({lanes} lanes)",
            per_request(all_on.saturating_sub(tracing_off))
        );
        for (label, total, budget) in [
            ("metrics + tracing", all_on, METRICS_AND_TRACING_ALLOCS),
            ("tracing off", tracing_off, TRACING_OFF_ALLOCS),
            ("metrics and tracing off", all_off, METRICS_AND_TRACING_OFF_ALLOCS),
        ] {
            assert!(
                total <= budget * MEASURED,
                "{label}: {:.3} allocations per request, budget {budget} ({lanes} lanes)",
                per_request(total)
            );
        }
    }
}
