//! Dependency-free end-to-end request tracing.
//!
//! Every request handled by [`crate::ScoreServer`] gets a trace id (accepted
//! from an `X-Request-Id` header or generated) and an [`ActiveTrace`] that
//! accumulates monotonic enter/exit timestamps for the fixed stage set
//! `parse → ratelimit → admission_queue → score (per-shard) → serialize →
//! write` as the request moves from the connection driver to the executor
//! shards and back. Hot reloads record their own
//! `load → validate → probe → swap` timeline through the same machinery.
//!
//! Recording is lock-cheap: spans are pushed onto a plain `Vec` owned by
//! whichever thread currently holds the trace, as raw [`Instant`] pairs — no
//! clock math, no allocation beyond the `Vec`, and no shared state. The single
//! [`Tracer`] mutex is taken once per request, at commit, when the finished
//! timeline is converted to microsecond offsets against the tracer's epoch and
//! inserted into a fixed-capacity ring with **tail-biased retention**: a FIFO
//! window of the most recent traces plus a reserved slice that always keeps
//! the slowest-N traces seen so far, so the requests worth debugging survive
//! wrap-around.
//!
//! Completed traces are exported by [`Tracer::chrome_trace_json`] as Chrome
//! trace-event JSON (loadable in `chrome://tracing` or Perfetto; served by
//! `GET /debug/traces`), every span included, so the slowest requests the
//! reserve keeps are the exemplars behind the latency histograms' tail
//! buckets.

use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Value;

/// The fixed stage taxonomy. Request stages appear in pipeline order;
/// `Load..=Swap` belong to the hot-reload timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// HTTP head + JSON body parsing on the connection handler.
    Parse,
    /// Token-bucket admission check (present only when rate limiting is on).
    Ratelimit,
    /// Admission → scoring start: queueing behind paused intake, an
    /// injected stall, or the batches ahead of it.
    AdmissionQueue,
    /// Model evaluation; one span per executor shard that scored the batch.
    Score,
    /// Response-body serialization on the connection handler.
    Serialize,
    /// Writing the response bytes to the socket.
    Write,
    /// Supervision: re-scoring work a panicked worker abandoned (present
    /// only when a panic was caught and the chunk was restarted).
    Recover,
    /// Reload: artifact load + parse from disk.
    Load,
    /// Reload: structural validation of the candidate model.
    Validate,
    /// Reload: round-trip bit-exactness probes.
    Probe,
    /// Reload: executor rebuild + atomic swap.
    Swap,
}

impl Stage {
    /// Stable wire name of the stage, used in exports and exemplars.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Ratelimit => "ratelimit",
            Stage::AdmissionQueue => "admission_queue",
            Stage::Score => "score",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
            Stage::Recover => "recover",
            Stage::Load => "load",
            Stage::Validate => "validate",
            Stage::Probe => "probe",
            Stage::Swap => "swap",
        }
    }
}

/// One recorded stage interval, still as raw monotonic instants.
#[derive(Clone, Copy, Debug)]
struct RawSpan {
    stage: Stage,
    shard: Option<u32>,
    start: Instant,
    end: Instant,
}

/// A detached set of spans recorded away from the owning [`ActiveTrace`] —
/// e.g. the batch-level spans the executor records once per micro-batch and
/// the driver replays into every coalesced request's trace.
#[derive(Clone, Debug, Default)]
pub struct SpanSet {
    spans: Vec<RawSpan>,
}

impl SpanSet {
    /// An empty span set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one stage interval.
    pub fn record(&mut self, stage: Stage, start: Instant, end: Instant) {
        self.spans.push(RawSpan {
            stage,
            shard: None,
            start,
            end,
        });
    }

    /// Record one stage interval attributed to an executor shard.
    pub fn record_shard(&mut self, stage: Stage, shard: u32, start: Instant, end: Instant) {
        self.spans.push(RawSpan {
            stage,
            shard: Some(shard),
            start,
            end,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drop all recorded spans, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// An in-flight trace: the trace id plus every span recorded so far. Owned by
/// exactly one thread at a time and handed across threads by value (a reload
/// worker receives it with the job and posts it back with the completion),
/// so recording never takes a lock.
#[derive(Debug)]
pub struct ActiveTrace {
    trace_id: String,
    route: &'static str,
    started: Instant,
    spans: Vec<RawSpan>,
}

impl ActiveTrace {
    /// The trace id (client-supplied `X-Request-Id` or generated).
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Record one stage interval.
    pub fn record(&mut self, stage: Stage, start: Instant, end: Instant) {
        self.spans.push(RawSpan {
            stage,
            shard: None,
            start,
            end,
        });
    }

    /// Record one stage interval attributed to an executor shard.
    pub fn record_shard(&mut self, stage: Stage, shard: u32, start: Instant, end: Instant) {
        self.spans.push(RawSpan {
            stage,
            shard: Some(shard),
            start,
            end,
        });
    }

    /// Replay a detached [`SpanSet`] (e.g. batch-level spans) into this trace.
    pub fn extend_from(&mut self, set: &SpanSet) {
        self.spans.extend_from_slice(&set.spans);
    }
}

/// One completed span: stage, optional shard, and microsecond offsets against
/// the owning tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Which pipeline stage this interval covers.
    pub stage: Stage,
    /// Executor shard index for `score` spans fanned across threads.
    pub shard: Option<u32>,
    /// Start offset in microseconds since the tracer epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// A finished request (or reload) timeline as stored in the ring.
#[derive(Clone, Debug)]
pub struct CompletedTrace {
    /// Trace id; echoed to the client as `X-Request-Id`.
    pub trace_id: String,
    /// Route label the request resolved to (e.g. `/score`).
    pub route: &'static str,
    /// Final HTTP status (0 for non-HTTP timelines such as reloads).
    pub status: u16,
    /// Commit sequence number, unique and monotone per tracer.
    pub seq: u64,
    /// Trace-window start in microseconds since the tracer epoch.
    pub start_us: u64,
    /// Whole-trace duration in microseconds (begin → commit).
    pub total_us: u64,
    /// Recorded stage spans, in recording order.
    pub spans: Vec<Span>,
}

/// Heap entry keyed by `(total_us, seq)` so the heap's minimum is the fastest
/// retained slow trace — the one a new slower trace evicts first.
struct SlowEntry {
    total_us: u64,
    seq: u64,
    trace: Arc<CompletedTrace>,
}

impl PartialEq for SlowEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.total_us, self.seq) == (other.total_us, other.seq)
    }
}
impl Eq for SlowEntry {}
impl PartialOrd for SlowEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SlowEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.total_us, self.seq).cmp(&(other.total_us, other.seq))
    }
}

/// Fixed-capacity trace store with tail-biased retention: a FIFO window of
/// the most recent `capacity - slow_reserve` traces plus a min-heap keeping
/// the `slow_reserve` slowest traces ever inserted, so the slowest-N always
/// survive wrap-around.
struct TraceRing {
    capacity: usize,
    slow_reserve: usize,
    recent: VecDeque<Arc<CompletedTrace>>,
    slowest: BinaryHeap<std::cmp::Reverse<SlowEntry>>,
}

impl TraceRing {
    fn new(capacity: usize, slow_reserve: usize) -> Self {
        let slow_reserve = slow_reserve.min(capacity);
        Self {
            capacity,
            slow_reserve,
            recent: VecDeque::with_capacity(capacity - slow_reserve),
            slowest: BinaryHeap::with_capacity(slow_reserve.saturating_add(1)),
        }
    }

    fn insert(&mut self, trace: Arc<CompletedTrace>) {
        if self.capacity == 0 {
            return;
        }
        if self.slow_reserve > 0 {
            let entry = SlowEntry {
                total_us: trace.total_us,
                seq: trace.seq,
                trace: Arc::clone(&trace),
            };
            if self.slowest.len() < self.slow_reserve {
                self.slowest.push(std::cmp::Reverse(entry));
            } else if self.slowest.peek().is_some_and(|min| entry.total_us > min.0.total_us) {
                self.slowest.pop();
                self.slowest.push(std::cmp::Reverse(entry));
            }
        }
        let recent_capacity = self.capacity - self.slow_reserve;
        if recent_capacity > 0 {
            if self.recent.len() == recent_capacity {
                self.recent.pop_front();
            }
            self.recent.push_back(trace);
        }
    }

    /// Every retained trace — recent window plus slowest reserve — deduped by
    /// commit sequence number and sorted by it.
    fn snapshot(&self) -> Vec<Arc<CompletedTrace>> {
        let mut by_seq: std::collections::BTreeMap<u64, Arc<CompletedTrace>> = std::collections::BTreeMap::new();
        for trace in &self.recent {
            by_seq.insert(trace.seq, Arc::clone(trace));
        }
        for entry in &self.slowest {
            by_seq.insert(entry.0.seq, Arc::clone(&entry.0.trace));
        }
        by_seq.into_values().collect()
    }
}

/// The per-server trace collector: hands out [`ActiveTrace`]s, converts them
/// to epoch-relative [`CompletedTrace`]s at commit, and retains them in a
/// tail-biased ring (see the retention discussion on the module page).
pub struct Tracer {
    epoch: Instant,
    seq: AtomicU64,
    committed: AtomicU64,
    ring: Mutex<TraceRing>,
}

impl Tracer {
    /// A tracer retaining up to `capacity` traces, with one eighth of the
    /// capacity (at least one slot, when capacity allows) reserved for the
    /// slowest traces seen. `capacity == 0` disables retention entirely —
    /// commits still count, but nothing is stored.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            ring: Mutex::new(TraceRing::new(capacity, (capacity / 8).max(1))),
        }
    }

    /// Total ring capacity this tracer was built with.
    pub fn capacity(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).capacity
    }

    /// Start a trace. Recording happens on the returned value without any
    /// shared state; nothing is visible to exports until [`Tracer::commit`].
    pub fn begin(&self, trace_id: String, route: &'static str) -> ActiveTrace {
        ActiveTrace {
            trace_id,
            route,
            started: Instant::now(),
            spans: Vec::with_capacity(8),
        }
    }

    /// Finish a trace with its final HTTP status and insert it into the ring.
    pub fn commit(&self, trace: ActiveTrace, status: u16) {
        let ended = Instant::now();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let start_us = self.offset_us(trace.started);
        let total_us = self.offset_us(ended).saturating_sub(start_us);
        let spans = trace
            .spans
            .iter()
            .map(|raw| {
                let span_start = self.offset_us(raw.start);
                Span {
                    stage: raw.stage,
                    shard: raw.shard,
                    start_us: span_start,
                    dur_us: self.offset_us(raw.end).saturating_sub(span_start),
                }
            })
            .collect();
        let completed = Arc::new(CompletedTrace {
            trace_id: trace.trace_id,
            route: trace.route,
            status,
            seq,
            start_us,
            total_us,
            spans,
        });
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).insert(completed);
        self.committed.fetch_add(1, Ordering::Release);
    }

    /// How many traces have been committed over the tracer's lifetime
    /// (independent of how many the ring still retains).
    pub fn committed_total(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Every retained trace, sorted by commit sequence number.
    pub fn snapshot(&self) -> Vec<Arc<CompletedTrace>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).snapshot()
    }

    /// Render every retained trace as a Chrome trace-event JSON document
    /// (the `{"traceEvents": [...]}` object format; timestamps are
    /// microseconds since the tracer epoch, one `tid` lane per trace).
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_document(&self.snapshot(), self.committed_total())
    }

    fn offset_us(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch).map_or(0, |d| d.as_micros() as u64)
    }
}

/// True when `id` is acceptable as a client-supplied `X-Request-Id`:
/// 1–64 characters from `[A-Za-z0-9._-]` (no escaping needed in JSON logs
/// or the Chrome export).
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Build a Chrome trace-event JSON document from completed traces. Each trace
/// gets its own `tid` lane holding one whole-request event plus one event per
/// stage span; `committed_total` lands in `otherData` so consumers can tell
/// how many traces the ring has seen versus retained.
pub fn chrome_trace_document(traces: &[Arc<CompletedTrace>], committed_total: u64) -> String {
    let mut events = Vec::new();
    for (lane, trace) in traces.iter().enumerate() {
        let tid = lane as u64 + 1;
        events.push(chrome_event(
            trace.route,
            "request",
            trace.start_us,
            trace.total_us,
            tid,
            vec![
                ("trace_id".to_string(), Value::Str(trace.trace_id.clone())),
                ("status".to_string(), Value::UInt(u64::from(trace.status))),
                ("seq".to_string(), Value::UInt(trace.seq)),
            ],
        ));
        for span in &trace.spans {
            let mut args = vec![("trace_id".to_string(), Value::Str(trace.trace_id.clone()))];
            if let Some(shard) = span.shard {
                args.push(("shard".to_string(), Value::UInt(u64::from(shard))));
            }
            events.push(chrome_event(
                span.stage.name(),
                "stage",
                span.start_us,
                span.dur_us,
                tid,
                args,
            ));
        }
    }
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        (
            "otherData".to_string(),
            Value::Map(vec![
                ("committed_total".to_string(), Value::UInt(committed_total)),
                ("retained".to_string(), Value::UInt(traces.len() as u64)),
            ]),
        ),
    ]);
    serde::json::to_string(&doc)
}

fn chrome_event(name: &str, cat: &str, ts_us: u64, dur_us: u64, tid: u64, args: Vec<(String, Value)>) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("cat".to_string(), Value::Str(cat.to_string())),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), Value::UInt(ts_us)),
        ("dur".to_string(), Value::UInt(dur_us)),
        ("pid".to_string(), Value::UInt(1)),
        ("tid".to_string(), Value::UInt(tid)),
        ("args".to_string(), Value::Map(args)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn synthetic(seq: u64, total_us: u64) -> Arc<CompletedTrace> {
        Arc::new(CompletedTrace {
            trace_id: format!("t-{seq}"),
            route: "/score",
            status: 200,
            seq,
            start_us: seq * 1_000,
            total_us,
            spans: vec![Span {
                stage: Stage::Score,
                shard: Some(0),
                start_us: seq * 1_000,
                dur_us: total_us,
            }],
        })
    }

    #[test]
    fn slowest_n_survive_wrap_around() {
        // Capacity 8 with 4 reserved slow slots; recent window holds 4.
        let mut ring = TraceRing::new(8, 4);
        // 100 inserts; the slowest are seqs 10, 20, 30, 40 (totals 9010..9040),
        // everything else is fast and long since evicted from the window.
        for seq in 0..100u64 {
            let total = if seq % 10 == 0 && (10..=40).contains(&seq) {
                9_000 + seq
            } else {
                100
            };
            ring.insert(synthetic(seq, total));
        }
        let snap = ring.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|t| t.seq).collect();
        // 4 most recent plus the 4 slowest, no duplicates.
        assert_eq!(seqs, vec![10, 20, 30, 40, 96, 97, 98, 99]);
        for slow_seq in [10u64, 20, 30, 40] {
            let t = snap.iter().find(|t| t.seq == slow_seq).unwrap();
            assert_eq!(t.total_us, 9_000 + slow_seq);
        }
    }

    #[test]
    fn zero_capacity_records_nothing_but_still_counts() {
        let tracer = Tracer::new(0);
        for i in 0..10 {
            let trace = tracer.begin(format!("z-{i}"), "/score");
            tracer.commit(trace, 200);
        }
        assert_eq!(tracer.committed_total(), 10);
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn capacity_one_keeps_the_slowest_trace() {
        // capacity 1 → the whole ring is the slow reserve.
        let mut ring = TraceRing::new(1, 1);
        ring.insert(synthetic(0, 50));
        ring.insert(synthetic(1, 5_000)); // the slowest
        ring.insert(synthetic(2, 70));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].seq, 1);
        assert_eq!(snap[0].total_us, 5_000);
    }

    #[test]
    fn reserve_is_clamped_and_recent_window_fills_the_rest() {
        let mut ring = TraceRing::new(4, 100); // reserve clamps to 4
        for seq in 0..10 {
            ring.insert(synthetic(seq, 1_000 - seq));
        }
        // All slots are slow reserve; earliest traces were the slowest.
        let seqs: Vec<u64> = ring.snapshot().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_recorders_all_commit() {
        let tracer = Arc::new(Tracer::new(4_096));
        let threads = 8;
        let per_thread = 64;
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let tracer = Arc::clone(&tracer);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let mut trace = tracer.begin(format!("w{worker}-{i}"), "/score");
                        let start = Instant::now();
                        let end = start + Duration::from_micros(10);
                        trace.record(Stage::Parse, start, end);
                        trace.record_shard(Stage::Score, worker as u32, start, end);
                        tracer.commit(trace, 200);
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        assert_eq!(tracer.committed_total(), total);
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), total as usize);
        // seq must be unique and every trace id distinct.
        let mut ids: Vec<&str> = snap.iter().map(|t| t.trace_id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total as usize);
        for t in &snap {
            assert_eq!(t.spans.len(), 2);
        }
    }

    #[test]
    fn chrome_export_is_wellformed_trace_event_json() {
        let tracer = Tracer::new(64);
        for i in 0..3 {
            let mut trace = tracer.begin(format!("c-{i}"), "/score");
            let start = Instant::now();
            trace.record(Stage::Parse, start, start + Duration::from_micros(5));
            trace.record_shard(Stage::Score, 1, start, start + Duration::from_micros(9));
            tracer.commit(trace, 200);
        }
        let text = tracer.chrome_trace_json();
        let doc = serde::json::parse(&text).expect("chrome export must parse as JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_seq())
            .expect("traceEvents array");
        // 3 traces × (1 request event + 2 stage events).
        assert_eq!(events.len(), 9);
        for event in events {
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(event.get(key).is_some(), "event missing {key}");
            }
            assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
            let args = event.get("args").expect("args");
            assert!(args.get("trace_id").is_some());
        }
        assert_eq!(doc.get("displayTimeUnit").and_then(|v| v.as_str()), Some("ms"));
        assert_eq!(
            doc.get("otherData").and_then(|v| v.get("committed_total")),
            Some(&Value::UInt(3))
        );
    }

    #[test]
    fn trace_id_validation() {
        assert!(valid_trace_id("abc-123_X.y"));
        assert!(valid_trace_id("a"));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id("quote\"inside"));
        assert!(!valid_trace_id(&"x".repeat(65)));
        assert!(valid_trace_id(&"x".repeat(64)));
    }
}
