//! Exact per-request heap-allocation budgets of the backend's `/score` path
//! and of a `/metrics` scrape.
//!
//! Wall-clock ratios cannot resolve a small cost on a shared machine; heap
//! allocations can be counted exactly. This test binary installs a counting
//! global allocator, starts an in-process [`ScoreServer`], and drives one
//! cached `/score` of a single pair or of a 32-pair array (or one
//! `GET /metrics`) at a time over a keep-alive connection from a client that
//! allocates nothing, so every allocation in the measured window is the
//! server's. On one lane and on two it holds:
//!
//! * each configuration at most its count when these bounds were set. The
//!   metrics registry is always on and adds no allocation to a `/score`;
//! * a 32-pair array at most [`ARRAY_OVER_PAIR_ALLOCS`] more than a single
//!   pair, tracing on and off: a warm loop decodes into the request lists
//!   and rows of answered requests, scores into its own buffers and encodes
//!   the answer into the connection's write buffer, so no allocation
//!   follows the pair count;
//! * an uncached 32-pair array (a server whose cache holds nothing, so
//!   every pair is scored) at most [`UNCACHED_ARRAY_ALLOCS`];
//! * tracing on against off: at most [`TRACING_ALLOCS`] more;
//! * a scrape at most [`SCRAPE_ALLOCS`].
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

/// Allocations per cached single-pair `/score` with tracing on.
const PAIR_ALLOCS: u64 = 9;
/// The same with tracing off.
const PAIR_TRACING_OFF_ALLOCS: u64 = 4;
/// Allocations per cached 32-pair array `/score` with tracing on.
const ARRAY_ALLOCS: u64 = 9;
/// The same with tracing off.
const ARRAY_TRACING_OFF_ALLOCS: u64 = 4;
/// Allocations per uncached 32-pair array `/score` with tracing on.
const UNCACHED_ARRAY_ALLOCS: u64 = 9;
/// What a 32-pair array may allocate beyond a single pair.
const ARRAY_OVER_PAIR_ALLOCS: u64 = 2;
/// Pairs in an array request.
const ARRAY_PAIRS: u64 = 32;
/// What tracing may add per request.
const TRACING_ALLOCS: u64 = 5;
/// Allocations per `GET /metrics` scrape of a server that has scored.
const SCRAPE_ALLOCS: u64 = 8;

const WARM_UP: u64 = 600;
const MEASURED: u64 = 1_000;
const MEASURED_SCRAPES: u64 = 200;

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

/// One request on a keep-alive connection, written from and read into
/// buffers allocated before the measured window.
struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    buffer: Vec<u8>,
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

impl Client {
    /// A client that sends one `POST /score` of a single pair (`pairs` 1)
    /// or of an array of `pairs` pairs; after the first, every pair is a
    /// cache hit.
    fn score(server: &ScoreServer, pairs: u64) -> Self {
        let body = match pairs {
            1 => serde::json::to_string(&request(7)),
            _ => serde::json::to_string(&(0..pairs).map(request).collect::<Vec<_>>()),
        };
        let head = format!(
            "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        Self::new(server, [head.as_bytes(), body.as_bytes()].concat(), 4096)
    }

    /// A client that sends `GET /metrics`.
    fn scrape(server: &ScoreServer) -> Self {
        Self::new(server, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(), 1 << 16)
    }

    fn new(server: &ScoreServer, request: Vec<u8>, buffer_len: usize) -> Self {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        Client {
            stream,
            request,
            buffer: vec![0; buffer_len],
        }
    }

    /// Sends the request and reads the whole `200` response, allocating
    /// nothing.
    fn send(&mut self) {
        self.stream.write_all(&self.request).expect("write request");
        let mut filled = 0;
        loop {
            let n = self.stream.read(&mut self.buffer[filled..]).expect("read response");
            assert!(n > 0, "the server closed the connection or the buffer is full");
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

/// Allocations of [`MEASURED`] requests of `pairs` pairs each against a
/// fresh server on `lanes` scoring lanes, with a score cache of
/// `cache_capacity` (0: every pair is scored).
fn allocations(lanes: usize, pairs: u64, trace_capacity: usize, cache_capacity: usize) -> u64 {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model()),
        ServeConfig::default()
            .with_threads(lanes)
            .with_cache_capacity(cache_capacity),
    ));
    let server = ScoreServer::start(
        executor,
        ServerConfig {
            trace_capacity,
            fault_plan: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::score(&server, pairs);
    // The first request fills the cache; the warm-up also fills the trace
    // ring, so the window sees its steady state.
    for _ in 0..WARM_UP {
        client.send();
    }
    let before = settled_count();
    for _ in 0..MEASURED {
        client.send();
    }
    let total = settled_count() - before;
    server.shutdown();
    total
}

/// Allocations of [`MEASURED_SCRAPES`] `/metrics` scrapes of a default
/// server on `lanes` scoring lanes that has scored [`WARM_UP`] requests.
fn scrape_allocations(lanes: usize) -> u64 {
    let executor = Arc::new(ReloadableExecutor::new(
        ScoringEngine::new(model()),
        ServeConfig::default().with_threads(lanes),
    ));
    let server = ScoreServer::start(executor, ServerConfig::default()).expect("bind");
    let mut scorer = Client::score(&server, 1);
    for _ in 0..WARM_UP {
        scorer.send();
    }
    let mut client = Client::scrape(&server);
    for _ in 0..WARM_UP / 10 {
        client.send();
    }
    let before = settled_count();
    for _ in 0..MEASURED_SCRAPES {
        client.send();
    }
    let total = settled_count() - before;
    server.shutdown();
    total
}

#[test]
fn cached_scores_and_scrapes_stay_within_their_allocation_budgets() {
    let tracing = ServerConfig::default().trace_capacity;
    let cache = ServeConfig::default().cache_capacity;
    let per_request = |total: u64| total as f64 / MEASURED as f64;
    for lanes in [1, 2] {
        let mut pair_counts = (0, 0);
        for (what, pairs, on_budget, off_budget) in [
            ("single pair", 1, PAIR_ALLOCS, PAIR_TRACING_OFF_ALLOCS),
            ("32-pair array", ARRAY_PAIRS, ARRAY_ALLOCS, ARRAY_TRACING_OFF_ALLOCS),
        ] {
            let on = allocations(lanes, pairs, tracing, cache);
            let off = allocations(lanes, pairs, 0, cache);
            println!(
                "{lanes} lane(s), {what}, allocations per request: tracing on {:.3}, tracing off {:.3}",
                per_request(on),
                per_request(off)
            );
            assert!(
                on <= off + TRACING_ALLOCS * MEASURED,
                "{what}: tracing added {:.3} allocations per request, budget {TRACING_ALLOCS} ({lanes} lanes)",
                per_request(on.saturating_sub(off))
            );
            for (tracing, total, budget) in [("on", on, on_budget), ("off", off, off_budget)] {
                assert!(
                    total <= budget * MEASURED,
                    "{what}, tracing {tracing}: {:.3} allocations per request, budget {budget} ({lanes} lanes)",
                    per_request(total)
                );
            }
            if pairs == 1 {
                pair_counts = (on, off);
            } else {
                for (tracing, pair, array) in [("on", pair_counts.0, on), ("off", pair_counts.1, off)] {
                    assert!(
                        array <= pair + ARRAY_OVER_PAIR_ALLOCS * MEASURED,
                        "tracing {tracing}: a 32-pair array took {:.3} allocations more than a single pair, \
                         budget {ARRAY_OVER_PAIR_ALLOCS} ({lanes} lanes)",
                        per_request(array.saturating_sub(pair))
                    );
                }
            }
        }

        let uncached = allocations(lanes, ARRAY_PAIRS, tracing, 0);
        println!(
            "{lanes} lane(s), uncached 32-pair array, allocations per request: {:.3}",
            per_request(uncached)
        );
        assert!(
            uncached <= UNCACHED_ARRAY_ALLOCS * MEASURED,
            "uncached 32-pair array: {:.3} allocations per request, budget {UNCACHED_ARRAY_ALLOCS} ({lanes} lanes)",
            per_request(uncached)
        );

        let scrapes = scrape_allocations(lanes);
        let per_scrape = scrapes as f64 / MEASURED_SCRAPES as f64;
        println!("{lanes} lane(s), allocations per /metrics scrape: {per_scrape:.3}");
        assert!(
            scrapes <= SCRAPE_ALLOCS * MEASURED_SCRAPES,
            "{per_scrape:.3} allocations per scrape, budget {SCRAPE_ALLOCS} ({lanes} lanes)"
        );
    }
}
