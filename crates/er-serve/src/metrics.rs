//! A lock-cheap metrics registry with Prometheus text exposition.
//!
//! The registry holds everything the server observes about itself, and
//! `GET /metrics` renders it in the Prometheus text format (v0.0.4). Every
//! primitive is built on [`AtomicU64`]:
//!
//! * [`Counter`] — monotonic `u64` (`inc`/`add`); [`Counter::store`] exists
//!   only to mirror counters owned elsewhere (the executor's reload
//!   outcomes) into the exposition at scrape time.
//! * [`Gauge`] — an `f64` stored as bits (queue depth, model version).
//! * [`Histogram`] — fixed bucket bounds with **exclusive** upper bounds: an
//!   observation equal to a bound lands in the *next* bucket (the bucket
//!   whose half-open range `[lower, upper)` starts at that bound), plus an
//!   implicit `+Inf` overflow bucket and atomically maintained `sum`/`count`.
//!   Exposition is cumulative `le`-labeled, as Prometheus expects; the
//!   exclusive-vs-inclusive distinction is only observable for values
//!   exactly on a bound, which for continuous latencies is measure-zero.
//! * [`Family`] — a labeled family of one [`Series`] kind
//!   ([`CounterVec`] / [`GaugeVec`] / [`HistogramVec`]: per route, per
//!   artifact version, per reload outcome). Label lookup takes one short
//!   mutex on a `BTreeMap`; the returned `Arc` handle then observes
//!   lock-free, so hot paths can cache it. A scrape writes each child's
//!   sample lines while it holds that lock, so it copies no label set.
//!
//! The per-artifact-version families are bounded: only the serving version
//! and the one it replaced keep series of their own ([`KEPT_VERSIONS`]).
//! [`MetricsRegistry::retire_versions`] folds every older version's counters
//! and histograms into one `version="retired"` series per family and drops
//! its gauges, so reloads never grow the registry or the scrape, and the
//! sum over `version` of every counter and histogram count stays the exact
//! total since boot. A series folds only once no handle outside the registry
//! holds it, so a count still in flight on an old version is never lost.
//!
//! The module also ships the consumer side, [`parse_exposition`], which
//! perfbench and the tests use to read a scrape back. The tests below
//! reconcile a traced socket replay against its scrape: the request
//! counters equal the replay's request count, and the request-duration
//! histogram's percentile buckets hold the server's own trace totals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — only for mirroring a counter owned elsewhere
    /// (e.g. the executor's cache counters) into the registry at scrape time.
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous `f64` value (stored as bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with exclusive upper bounds (see the
/// [module docs](self)) plus a `+Inf` overflow bucket and `sum`/`count`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Arc<[f64]>,
    /// `bounds.len() + 1` buckets; the last one is the `+Inf` overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given strictly increasing, finite bucket bounds.
    pub fn new(bounds: Arc<[f64]>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Self {
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            bounds,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation. Bounds are exclusive: `value` lands in the
    /// first bucket whose upper bound is strictly greater than it.
    pub fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|b| value >= *b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(value);
    }

    fn add_sum(&self, value: f64) {
        // A CAS loop instead of a lock: histogram observation stays wait-free
        // in the common uncontended case.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    /// Per-bucket counts (not cumulative), `+Inf` overflow last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// A kind of series a [`Family`] holds: how a child is made and read, what
/// becomes of it when its version retires, and its exposition lines.
pub trait Series: std::fmt::Debug {
    /// What every child of a family is made from: nothing, or a
    /// histogram's bucket bounds.
    type Spec: std::fmt::Debug;
    /// What [`Family::snapshot`] reports of a child.
    type Value;
    /// The exposition's `# TYPE`.
    const KIND: &'static str;
    /// Whether a retired version's child folds into the family's
    /// `version="retired"` child ([`Series::absorb`]) rather than dropping.
    const FOLDS: bool;

    /// A new child.
    fn make(spec: &Self::Spec) -> Self;

    /// The child's current value.
    fn value(&self) -> Self::Value;

    /// Adds a retired child's counts into this one.
    fn absorb(&self, retired: &Self);

    /// Appends the child's sample lines under `name` and `labels`.
    fn write(&self, out: &mut String, name: &str, labels: &[(&'static str, String)]);
}

impl Series for Counter {
    type Spec = ();
    type Value = u64;
    const KIND: &'static str = "counter";
    const FOLDS: bool = true;

    fn make(_: &()) -> Self {
        Self::default()
    }

    fn value(&self) -> u64 {
        self.get()
    }

    fn absorb(&self, retired: &Self) {
        self.add(retired.get());
    }

    fn write(&self, out: &mut String, name: &str, labels: &[(&'static str, String)]) {
        write_sample(out, name, "", labels, None, self.get());
    }
}

impl Series for Gauge {
    type Spec = ();
    type Value = f64;
    const KIND: &'static str = "gauge";
    /// A retired version's gauge describes nothing that still exists.
    const FOLDS: bool = false;

    fn make(_: &()) -> Self {
        Self::default()
    }

    fn value(&self) -> f64 {
        self.get()
    }

    fn absorb(&self, _: &Self) {}

    fn write(&self, out: &mut String, name: &str, labels: &[(&'static str, String)]) {
        write_sample(out, name, "", labels, None, Value(self.get()));
    }
}

impl Series for Histogram {
    type Spec = Arc<[f64]>;
    /// The observation count.
    type Value = u64;
    const KIND: &'static str = "histogram";
    const FOLDS: bool = true;

    fn make(bounds: &Arc<[f64]>) -> Self {
        Self::new(Arc::clone(bounds))
    }

    fn value(&self) -> u64 {
        self.count()
    }

    /// Adds `retired`'s buckets, sum and count (same bounds) into this one.
    fn absorb(&self, retired: &Self) {
        for (bucket, theirs) in self.buckets.iter().zip(&retired.buckets) {
            bucket.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(retired.count(), Ordering::Relaxed);
        self.add_sum(retired.sum());
    }

    /// Cumulative `le` buckets, `+Inf` last, then `_sum` and `_count`.
    fn write(&self, out: &mut String, name: &str, labels: &[(&'static str, String)]) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            write_sample(out, name, "_bucket", labels, Some(le), cumulative);
        }
        write_sample(out, name, "_sum", labels, None, Value(self.sum()));
        write_sample(out, name, "_count", labels, None, self.count());
    }
}

/// A resolved label set: `(name, value)` pairs in declaration order.
pub type LabelPairs = Vec<(&'static str, String)>;

fn label_key(labels: &[(&'static str, &str)]) -> LabelPairs {
    labels.iter().map(|(n, v)| (*n, v.to_string())).collect()
}

/// The child of `children` whose label set equals `labels`.
fn find<'m, S>(children: &'m BTreeMap<LabelPairs, Arc<S>>, labels: &[(&'static str, &str)]) -> Option<&'m Arc<S>> {
    children
        .iter()
        .find(|(key, _)| key.iter().map(|(n, v)| (*n, v.as_str())).eq(labels.iter().copied()))
        .map(|(_, child)| child)
}

/// How many artifact versions keep series of their own in the
/// `version`-labelled families: the serving one and the one it replaced.
pub const KEPT_VERSIONS: u64 = 2;

/// A labeled family of one [`Series`] kind.
#[derive(Debug)]
pub struct Family<S: Series> {
    spec: S::Spec,
    children: Mutex<BTreeMap<LabelPairs, Arc<S>>>,
}

/// A labeled family of [`Counter`]s.
pub type CounterVec = Family<Counter>;
/// A labeled family of [`Gauge`]s.
pub type GaugeVec = Family<Gauge>;
/// A labeled family of [`Histogram`]s sharing one set of bucket bounds.
pub type HistogramVec = Family<Histogram>;

impl<S: Series<Spec = ()>> Default for Family<S> {
    fn default() -> Self {
        Self::new(())
    }
}

impl<S: Series> Family<S> {
    /// A family whose children are all made from `spec`.
    pub fn new(spec: S::Spec) -> Self {
        Self {
            spec,
            children: Mutex::new(BTreeMap::new()),
        }
    }

    fn children(&self) -> std::sync::MutexGuard<'_, BTreeMap<LabelPairs, Arc<S>>> {
        self.children.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The child for this label set, created on first use. An existing
    /// child is found by comparing the borrowed labels (a family holds a
    /// handful of series), so only an insert builds an owned key.
    pub fn with(&self, labels: &[(&'static str, &str)]) -> Arc<S> {
        let mut children = self.children();
        let child = match find(&children, labels) {
            Some(child) => child,
            None => children
                .entry(label_key(labels))
                .or_insert_with(|| Arc::new(S::make(&self.spec))),
        };
        Arc::clone(child)
    }

    /// Makes `child` the child for this label set unless it has one: the
    /// family then exposes a series owned elsewhere, which counts on and
    /// cannot retire while its owner holds it.
    pub fn adopt(&self, labels: &[(&'static str, &str)], child: &Arc<S>) {
        let mut children = self.children();
        if find(&children, labels).is_none() {
            children.insert(label_key(labels), Arc::clone(child));
        }
    }

    /// Takes out every child whose `version` label names a version below
    /// `oldest_kept` and that no handle outside the family still holds (the
    /// lock is held throughout, so none can be cloned meanwhile), and folds
    /// each into the `retired` child if its kind folds, so the family's
    /// total never falls.
    fn retire_versions(&self, oldest_kept: u64) {
        let mut children = self.children();
        let mut taken = Vec::new();
        children.retain(|labels, child| {
            let version = labels.iter().find(|(name, _)| *name == "version");
            let old = version
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .is_some_and(|v| v < oldest_kept);
            let retire = old && Arc::strong_count(child) == 1;
            if retire {
                taken.push(Arc::clone(child));
            }
            !retire
        });
        if S::FOLDS && !taken.is_empty() {
            let retired = children
                .entry(label_key(&[("version", "retired")]))
                .or_insert_with(|| Arc::new(S::make(&self.spec)));
            taken.iter().for_each(|child| retired.absorb(child));
        }
    }

    /// Every child's label set and current value.
    pub fn snapshot(&self) -> Vec<(LabelPairs, S::Value)> {
        self.children().iter().map(|(k, v)| (k.clone(), v.value())).collect()
    }

    /// Appends the family's header and every child's sample lines.
    fn render(&self, out: &mut String, name: &str, help: &str) {
        header(out, name, S::KIND, help);
        for (labels, child) in self.children().iter() {
            child.write(out, name, labels);
        }
    }
}

impl CounterVec {
    /// Sum across all children.
    pub fn total(&self) -> u64 {
        self.children().values().map(|c| c.get()).sum()
    }
}

/// Latency bucket bounds in seconds: 25µs doubling to ~3.3s. Sized for
/// socket round trips through the readiness loop (hundreds of µs on
/// loopback) while keeping resolution at the tails.
pub fn latency_bounds() -> Arc<[f64]> {
    let mut bounds = vec![25e-6, 50e-6];
    let mut b = 100e-6;
    while b < 4.0 {
        bounds.push(b);
        b *= 2.0;
    }
    bounds.into()
}

/// Micro-batch size bucket bounds (exclusive, so a bound of 2 separates
/// singleton batches from coalesced ones).
pub fn batch_size_bounds() -> Arc<[f64]> {
    vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0].into()
}

/// The server's metric registry; see the [module docs](self). Field names
/// map 1:1 onto the exposition's `er_serve_*` metric names.
///
/// # Examples
///
/// ```
/// use er_serve::MetricsRegistry;
///
/// let metrics = MetricsRegistry::new();
/// metrics.responses.with(&[("route", "/score"), ("status", "200")]).inc();
/// metrics.request_duration.with(&[("route", "/score")]).observe(0.0007);
///
/// // Rendered as Prometheus text exposition (what `GET /metrics` serves):
/// let text = metrics.render();
/// assert!(text.contains("# TYPE er_serve_responses_total counter"));
/// assert!(text.contains(r#"er_serve_responses_total{route="/score",status="200"} 1"#));
///
/// // And parsed back by the bundled scrape-side parser:
/// let samples = er_serve::parse_exposition(&text).unwrap_or_default();
/// assert!(samples.iter().any(|s| s.name == "er_serve_responses_total"));
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    /// `er_serve_responses_total{route,status}` — every HTTP response.
    pub responses: CounterVec,
    /// `er_serve_request_duration_seconds{route}` — wall time from a parsed
    /// request to its response being written.
    pub request_duration: HistogramVec,
    /// `er_serve_score_requests_total{version}` — scoring requests answered
    /// with scores, labeled by the artifact version that scored them.
    pub score_requests: CounterVec,
    /// `er_serve_score_duration_seconds{version}` — `/score` admission →
    /// reply latency per artifact version.
    pub score_duration: HistogramVec,
    /// `er_serve_batches_total` — micro-batches scored.
    pub batches: Counter,
    /// `er_serve_batched_requests_total` — requests coalesced across all
    /// micro-batches.
    pub batched_requests: Counter,
    /// `er_serve_batch_size` — requests per micro-batch.
    pub batch_size: Histogram,
    /// `er_serve_queue_depth` — admitted-but-unscored jobs (scrape-time).
    pub queue_depth: Gauge,
    /// `er_serve_model_version` — currently serving artifact version.
    pub model_version: Gauge,
    /// `er_serve_rejected_total{cause}` — shed requests split by cause:
    /// `cause="rate_limited"` (429, per-client token bucket: this client must
    /// slow down), `cause="queue_full"` (429, admission-queue overflow: the
    /// server is momentarily saturated), `cause="deadline"` (504, the job's
    /// `X-Deadline-Ms` budget expired before scoring started), and
    /// `cause="overloaded"` (503, the accept loop is at its connection cap) —
    /// so dashboards can tell admission pressure from client abuse without
    /// parsing response headers.
    pub rejected: CounterVec,
    /// `er_serve_reloads_total{outcome}` — hot-reload outcomes
    /// (`applied` / `refused`), copied from the executor at scrape time.
    pub reloads: CounterVec,
    /// `er_serve_cache_hits_total{version}` — executor score-cache hits: each
    /// version's series is its executor's own counter.
    pub cache_hits: CounterVec,
    /// `er_serve_cache_misses_total{version}` — executor score-cache misses,
    /// likewise.
    pub cache_misses: CounterVec,
    /// `er_serve_cache_hit_rate{version}` — hits / (hits + misses).
    pub cache_hit_rate: GaugeVec,
    /// `er_serve_cache_entries{version}` — live entries in the score cache.
    pub cache_entries: GaugeVec,
    /// `er_serve_worker_panics_total{role}` — panics caught by supervision,
    /// by worker role (`batcher` vs `shard`). Every count here is a request
    /// that got a deterministic 500 (batcher) or a transparently re-scored
    /// chunk (shard) instead of a severed connection.
    pub worker_panics: CounterVec,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with the default bucket layouts.
    pub fn new() -> Self {
        Self {
            responses: CounterVec::default(),
            request_duration: HistogramVec::new(latency_bounds()),
            score_requests: CounterVec::default(),
            score_duration: HistogramVec::new(latency_bounds()),
            batches: Counter::default(),
            batched_requests: Counter::default(),
            batch_size: Histogram::new(batch_size_bounds()),
            queue_depth: Gauge::default(),
            model_version: Gauge::default(),
            rejected: CounterVec::default(),
            reloads: CounterVec::default(),
            cache_hits: CounterVec::default(),
            cache_misses: CounterVec::default(),
            cache_hit_rate: GaugeVec::default(),
            cache_entries: GaugeVec::default(),
            worker_panics: CounterVec::default(),
        }
    }

    /// Bounds every `version`-labelled family to the versions from
    /// `serving − KEPT_VERSIONS + 1` up (see the [module docs](self)): an
    /// older version's counters and histograms fold into its family's
    /// `version="retired"` series and its gauges are dropped, each once no
    /// handle outside the registry holds it.
    pub fn retire_versions(&self, serving: u64) {
        let oldest_kept = serving.saturating_sub(KEPT_VERSIONS - 1);
        self.score_requests.retire_versions(oldest_kept);
        self.score_duration.retire_versions(oldest_kept);
        self.cache_hits.retire_versions(oldest_kept);
        self.cache_misses.retire_versions(oldest_kept);
        self.cache_hit_rate.retire_versions(oldest_kept);
        self.cache_entries.retire_versions(oldest_kept);
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut text = String::with_capacity(4096);
        let out = &mut text;
        self.responses
            .render(out, "er_serve_responses_total", "HTTP responses by route and status.");
        self.request_duration.render(
            out,
            "er_serve_request_duration_seconds",
            "Request handling time by route.",
        );
        self.score_requests.render(
            out,
            "er_serve_score_requests_total",
            "Scoring requests answered with scores, by artifact version.",
        );
        self.score_duration.render(
            out,
            "er_serve_score_duration_seconds",
            "Score admission-to-reply latency by artifact version.",
        );
        render_series(out, "er_serve_batches_total", "Micro-batches scored.", &self.batches);
        render_series(
            out,
            "er_serve_batched_requests_total",
            "Requests coalesced across all micro-batches.",
            &self.batched_requests,
        );
        render_series(
            out,
            "er_serve_batch_size",
            "Requests per micro-batch.",
            &self.batch_size,
        );
        render_series(
            out,
            "er_serve_queue_depth",
            "Admitted-but-unscored jobs in the admission queue.",
            &self.queue_depth,
        );
        render_series(
            out,
            "er_serve_model_version",
            "Artifact version currently serving.",
            &self.model_version,
        );
        self.rejected.render(
            out,
            "er_serve_rejected_total",
            "Requests shed, by cause (rate_limited, queue_full, deadline, overloaded).",
        );
        self.reloads
            .render(out, "er_serve_reloads_total", "Hot-reload outcomes.");
        self.cache_hits.render(
            out,
            "er_serve_cache_hits_total",
            "Score-cache hits by artifact version.",
        );
        self.cache_misses.render(
            out,
            "er_serve_cache_misses_total",
            "Score-cache misses by artifact version.",
        );
        self.cache_hit_rate.render(
            out,
            "er_serve_cache_hit_rate",
            "Score-cache hit rate by artifact version.",
        );
        self.cache_entries.render(
            out,
            "er_serve_cache_entries",
            "Live score-cache entries by artifact version.",
        );
        self.worker_panics.render(
            out,
            "er_serve_worker_panics_total",
            "Panics caught by worker supervision, by role (batcher vs shard).",
        );
        text
    }
}

// ---------------------------------------------------------------------------
// Exposition rendering
// ---------------------------------------------------------------------------

/// An f64 formatted the way Prometheus text exposition expects (shortest
/// round-trip; integral values without a trailing `.0`).
struct Value(f64);

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.0;
        if v == v.trunc() && v.abs() < 1e15 {
            write!(f, "{}", v as i64)
        } else {
            write!(f, "{v}")
        }
    }
}

/// Appends a label value between its quotes, escaping `\`, `"` and newline
/// as the text format requires — the escapes [`parse_exposition`] undoes.
fn write_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends one sample line, `<name><suffix>{<labels>} <value>`, with a final
/// `le` label when `le` is set (`+Inf` for infinity) and no braces when
/// there is no label at all.  Writing into a `String` cannot fail.
fn write_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(&'static str, String)],
    le: Option<f64>,
    value: impl std::fmt::Display,
) {
    out.push_str(name);
    out.push_str(suffix);
    let mut separator = '{';
    for (label, value) in labels {
        out.push(separator);
        out.push_str(label);
        out.push_str("=\"");
        write_label_value(out, value);
        out.push('"');
        separator = ',';
    }
    if let Some(le) = le {
        out.push(separator);
        let _ = match le {
            f64::INFINITY => write!(out, "le=\"+Inf\""),
            le => write!(out, "le=\"{}\"", Value(le)),
        };
        separator = ',';
    }
    if separator == ',' {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// Appends an unlabeled series with its header.
fn render_series<S: Series>(out: &mut String, name: &str, help: &str, series: &S) {
    header(out, name, S::KIND, help);
    series.write(out, name, &[]);
}

// ---------------------------------------------------------------------------
// Exposition parsing (the consumer side: perfbench and tests)
// ---------------------------------------------------------------------------

/// One sample line of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (for histograms: `<base>_bucket` / `_sum` / `_count`).
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Whether this sample carries every `(name, value)` pair in `filter`.
    pub fn matches(&self, filter: &[(&str, &str)]) -> bool {
        filter
            .iter()
            .all(|(n, v)| self.labels.iter().any(|(ln, lv)| ln == n && lv == v))
    }

    /// The value of label `name`, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit()))
}

/// Parses a Prometheus text exposition into samples, rejecting any line that
/// is neither a comment nor a well-formed `name{labels} value` sample.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parse_line = |line: &str| -> Option<Sample> {
            let (name_part, rest) = match line.find('{') {
                Some(brace) => {
                    let close = line.rfind('}')?;
                    (&line[..brace], Some((&line[brace + 1..close], &line[close + 1..])))
                }
                None => {
                    let space = line.find(' ')?;
                    (&line[..space], None)
                }
            };
            if !valid_metric_name(name_part) {
                return None;
            }
            let (labels, value_part) = match rest {
                Some((label_part, value_part)) => {
                    let mut labels = Vec::new();
                    for pair in split_label_pairs(label_part)? {
                        labels.push(pair);
                    }
                    (labels, value_part)
                }
                None => (Vec::new(), &line[name_part.len()..]),
            };
            let value: f64 = value_part.trim().parse().ok()?;
            Some(Sample {
                name: name_part.to_string(),
                labels,
                value,
            })
        };
        match parse_line(line) {
            Some(sample) => samples.push(sample),
            None => return Err(format!("exposition line {} is malformed: {line:?}", lineno + 1)),
        }
    }
    Ok(samples)
}

/// Splits `a="x",b="y"` into pairs, honoring `\"` and `\\` escapes.
fn split_label_pairs(s: &str) -> Option<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let name = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        if chars.next()?.1 != '"' {
            return None;
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end?;
        pairs.push((name, value));
        rest = after[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram reconstructed from exposition samples.
    #[derive(Debug, Clone)]
    struct ParsedHistogram {
        /// Finite bucket upper bounds, ascending (the `+Inf` bucket is implied).
        bounds: Vec<f64>,
        /// Cumulative counts per bucket, `+Inf` last (equals `count`).
        cumulative: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    }

    impl ParsedHistogram {
        /// The half-open bucket range `[lower, upper)` containing the
        /// `q`-quantile observation under the replay harness's percentile
        /// definition (`rank = round(q × (count − 1))`, 0-based), widened by
        /// `widen` buckets on each side. `upper` is `+Inf` when the range
        /// reaches the overflow bucket. Returns `None` on an empty histogram.
        fn quantile_bounds(&self, q: f64, widen: usize) -> Option<(f64, f64)> {
            if self.count == 0 {
                return None;
            }
            let rank = (q * (self.count - 1) as f64).round() as u64 + 1; // 1-based
            let idx = self.cumulative.partition_point(|&c| c < rank);
            let lower_idx = idx.saturating_sub(widen);
            let upper_idx = idx + widen;
            let lower = if lower_idx == 0 {
                0.0
            } else {
                self.bounds[lower_idx - 1]
            };
            let upper = if upper_idx < self.bounds.len() {
                self.bounds[upper_idx]
            } else {
                f64::INFINITY
            };
            Some((lower, upper))
        }
    }

    /// Reconstructs the histogram `base_name` (its `_bucket`/`_sum`/`_count`
    /// samples) whose labels carry every pair in `filter`. Validates the
    /// cumulative bucket counts are monotone and consistent with `_count`.
    fn extract_histogram(samples: &[Sample], base_name: &str, filter: &[(&str, &str)]) -> Option<ParsedHistogram> {
        let bucket_name = format!("{base_name}_bucket");
        let mut buckets: Vec<(f64, u64)> = samples
            .iter()
            .filter(|s| s.name == bucket_name && s.matches(filter))
            .filter_map(|s| {
                let le = s.label("le")?;
                let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
                Some((le, s.value as u64))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let find = |suffix: &str| {
            samples
                .iter()
                .find(|s| s.name == format!("{base_name}{suffix}") && s.matches(filter))
                .map(|s| s.value)
        };
        let sum = find("_sum")?;
        let count = find("_count")? as u64;
        let (bounds, cumulative): (Vec<f64>, Vec<u64>) = buckets.into_iter().unzip();
        if bounds.last() != Some(&f64::INFINITY)
            || cumulative.windows(2).any(|w| w[0] > w[1])
            || cumulative.last() != Some(&count)
        {
            return None;
        }
        Some(ParsedHistogram {
            bounds: bounds[..bounds.len() - 1].to_vec(),
            cumulative,
            sum,
            count,
        })
    }

    #[test]
    fn histogram_upper_bounds_are_exclusive() {
        // Bounds [1, 2, 4]: an observation exactly at a bound must land in
        // the bucket *starting* at that bound, not the one ending there.
        let h = Histogram::new(vec![1.0, 2.0, 4.0].into());
        h.observe(0.5); // [0, 1)
        h.observe(1.0); // [1, 2) — exclusive: not in the first bucket
        h.observe(2.0); // [2, 4)
        h.observe(3.9); // [2, 4)
        assert_eq!(h.bucket_counts(), vec![1, 1, 2, 0]);
    }

    #[test]
    fn histogram_overflow_lands_in_the_inf_bucket() {
        let h = Histogram::new(vec![1.0, 2.0].into());
        h.observe(2.0); // exactly the last finite bound → +Inf bucket
        h.observe(100.0);
        assert_eq!(h.bucket_counts(), vec![0, 0, 2]);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_sum_and_count_stay_consistent() {
        let h = Histogram::new(latency_bounds());
        let values = [0.0001, 0.0035, 0.12, 7.5, 0.0];
        for v in values {
            h.observe(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
        assert!((h.sum() - values.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        Histogram::new(vec![2.0, 1.0].into());
    }

    #[test]
    fn labeled_families_isolate_children() {
        let vec = CounterVec::default();
        vec.with(&[("route", "/score"), ("status", "200")]).add(3);
        vec.with(&[("route", "/score"), ("status", "429")]).inc();
        vec.with(&[("route", "/healthz"), ("status", "200")]).inc();
        assert_eq!(vec.with(&[("route", "/score"), ("status", "200")]).get(), 3);
        assert_eq!(vec.total(), 5);
        assert_eq!(vec.snapshot().len(), 3);
    }

    #[test]
    fn a_held_series_outlives_its_retirement_and_folds_once_released() {
        let registry = MetricsRegistry::new();
        fn version(v: &str) -> [(&'static str, &str); 1] {
            [("version", v)]
        }
        for v in 1..=5u64 {
            let label = v.to_string();
            registry.score_requests.with(&version(&label)).add(v);
            registry.score_duration.with(&version(&label)).observe(v as f64 * 1e-3);
            registry.cache_hit_rate.with(&version(&label)).set(0.5);
        }
        let held = registry.score_requests.with(&version("2"));
        let held_histogram = registry.score_duration.with(&version("2"));
        let labels = |snapshot: Vec<(LabelPairs, u64)>| -> Vec<String> {
            snapshot.into_iter().map(|(labels, _)| labels[0].1.clone()).collect()
        };

        // Versions 1 and 3 fold; 2 stays while its handles are held; 4 and
        // 5 are live. The total never falls.
        registry.retire_versions(5);
        assert_eq!(labels(registry.score_requests.snapshot()), ["2", "4", "5", "retired"]);
        assert_eq!(registry.score_requests.with(&version("retired")).get(), 1 + 3);
        assert_eq!(registry.score_requests.total(), 15);

        // A count through the still-held handle is kept, then folds with
        // the rest once the handle drops.
        held.add(10);
        held_histogram.observe(0.5);
        registry.retire_versions(5);
        assert_eq!(registry.score_requests.total(), 25);
        drop((held, held_histogram));
        registry.retire_versions(5);
        assert_eq!(labels(registry.score_requests.snapshot()), ["4", "5", "retired"]);
        assert_eq!(registry.score_requests.with(&version("retired")).get(), 1 + 2 + 3 + 10);
        assert_eq!(registry.score_requests.total(), 25);

        // Histograms fold buckets, sum and count alike.
        let retired = registry.score_duration.with(&version("retired"));
        assert_eq!(retired.count(), 4);
        assert_eq!(retired.bucket_counts().iter().sum::<u64>(), 4);
        assert!((retired.sum() - (1e-3 + 2e-3 + 3e-3 + 0.5)).abs() < 1e-12);
        assert_eq!(registry.score_duration.snapshot().len(), 3);
        let gauges: Vec<String> = registry
            .cache_hit_rate
            .snapshot()
            .into_iter()
            .map(|(l, _)| l[0].1.clone())
            .collect();
        assert_eq!(gauges, ["4", "5"], "a retired version's gauges drop, not fold");
    }

    #[test]
    fn an_adopted_counter_counts_on_and_retires_with_its_final_count() {
        let registry = MetricsRegistry::new();
        let owned = Arc::new(Counter::default());
        registry.cache_misses.adopt(&[("version", "1")], &owned);
        owned.add(5);
        registry.retire_versions(3);
        assert_eq!(registry.cache_misses.snapshot().len(), 1, "its owner still holds it");
        owned.add(2);
        drop(owned);
        registry.retire_versions(3);
        assert_eq!(registry.cache_misses.with(&[("version", "retired")]).get(), 7);
        assert_eq!(registry.cache_misses.total(), 7);
    }

    #[test]
    fn render_parse_round_trip() {
        let registry = MetricsRegistry::new();
        registry
            .responses
            .with(&[("route", "/score"), ("status", "200")])
            .add(7);
        registry.request_duration.with(&[("route", "/score")]).observe(0.0003);
        registry.score_requests.with(&[("version", "1")]).add(7);
        registry.batches.add(2);
        registry.batch_size.observe(3.0);
        registry.queue_depth.set(4.0);
        registry.model_version.set(1.0);
        registry.reloads.with(&[("outcome", "applied")]).inc();
        registry.rejected.with(&[("cause", "rate_limited")]).add(2);
        registry.rejected.with(&[("cause", "queue_full")]).inc();

        let text = registry.render();
        let samples = parse_exposition(&text).expect("rendered exposition must parse");
        let find = |name: &str, filter: &[(&str, &str)]| {
            samples
                .iter()
                .find(|s| s.name == name && s.matches(filter))
                .unwrap_or_else(|| panic!("missing {name} {filter:?} in:\n{text}"))
                .value
        };
        assert_eq!(
            find("er_serve_responses_total", &[("route", "/score"), ("status", "200")]),
            7.0
        );
        assert_eq!(find("er_serve_score_requests_total", &[("version", "1")]), 7.0);
        assert_eq!(find("er_serve_batches_total", &[]), 2.0);
        assert_eq!(find("er_serve_queue_depth", &[]), 4.0);
        assert_eq!(find("er_serve_reloads_total", &[("outcome", "applied")]), 1.0);
        assert_eq!(find("er_serve_rejected_total", &[("cause", "rate_limited")]), 2.0);
        assert_eq!(find("er_serve_rejected_total", &[("cause", "queue_full")]), 1.0);
        assert_eq!(
            find("er_serve_request_duration_seconds_count", &[("route", "/score")]),
            1.0
        );
        // Cumulative +Inf bucket equals the count.
        assert_eq!(
            find(
                "er_serve_request_duration_seconds_bucket",
                &[("route", "/score"), ("le", "+Inf")]
            ),
            1.0
        );
    }

    /// Every family populated, a version folded into `version="retired"`, an
    /// adopted counter and a label value holding `\`, `"` and a newline,
    /// rendered and compared byte for byte.
    #[test]
    fn a_populated_registry_renders_byte_for_byte() {
        let registry = MetricsRegistry::new();
        let odd = "a\\b\"c\nd";
        registry
            .responses
            .with(&[("route", "/score"), ("status", "200")])
            .add(5);
        registry.responses.with(&[("route", odd), ("status", "404")]).inc();
        registry.request_duration.with(&[("route", odd)]).observe(0.0003);
        for (version, n, seconds) in [("1", 2u64, 0.0004), ("2", 1, 0.002), ("4", 3, 0.003)] {
            let label = [("version", version)];
            registry.score_requests.with(&label).add(n);
            registry.score_duration.with(&label).observe(seconds);
            registry.cache_hits.with(&label).add(n + 1);
            registry.cache_hit_rate.with(&label).set(0.25);
            registry.cache_entries.with(&label).set(4.0);
        }
        let misses = Arc::new(Counter::default());
        registry.cache_misses.adopt(&[("version", "4")], &misses);
        misses.add(6);
        registry.batches.add(2);
        registry.batched_requests.add(5);
        registry.batch_size.observe(1.0);
        registry.batch_size.observe(4.0);
        registry.queue_depth.set(1.0);
        registry.model_version.set(4.0);
        registry.rejected.with(&[("cause", "queue_full")]).inc();
        registry.reloads.with(&[("outcome", "applied")]).store(2);
        registry.worker_panics.with(&[("role", "shard")]).inc();
        registry.retire_versions(4);
        assert_eq!(registry.render(), GOLDEN_EXPOSITION);
    }

    const GOLDEN_EXPOSITION: &str = r##"# HELP er_serve_responses_total HTTP responses by route and status.
# TYPE er_serve_responses_total counter
er_serve_responses_total{route="/score",status="200"} 5
er_serve_responses_total{route="a\\b\"c\nd",status="404"} 1
# HELP er_serve_request_duration_seconds Request handling time by route.
# TYPE er_serve_request_duration_seconds histogram
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.000025"} 0
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.00005"} 0
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0001"} 0
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0002"} 0
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0004"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0008"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0016"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0032"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0064"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0128"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0256"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.0512"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.1024"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.2048"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.4096"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="0.8192"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="1.6384"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="3.2768"} 1
er_serve_request_duration_seconds_bucket{route="a\\b\"c\nd",le="+Inf"} 1
er_serve_request_duration_seconds_sum{route="a\\b\"c\nd"} 0.0003
er_serve_request_duration_seconds_count{route="a\\b\"c\nd"} 1
# HELP er_serve_score_requests_total Scoring requests answered with scores, by artifact version.
# TYPE er_serve_score_requests_total counter
er_serve_score_requests_total{version="4"} 3
er_serve_score_requests_total{version="retired"} 3
# HELP er_serve_score_duration_seconds Score admission-to-reply latency by artifact version.
# TYPE er_serve_score_duration_seconds histogram
er_serve_score_duration_seconds_bucket{version="4",le="0.000025"} 0
er_serve_score_duration_seconds_bucket{version="4",le="0.00005"} 0
er_serve_score_duration_seconds_bucket{version="4",le="0.0001"} 0
er_serve_score_duration_seconds_bucket{version="4",le="0.0002"} 0
er_serve_score_duration_seconds_bucket{version="4",le="0.0004"} 0
er_serve_score_duration_seconds_bucket{version="4",le="0.0008"} 0
er_serve_score_duration_seconds_bucket{version="4",le="0.0016"} 0
er_serve_score_duration_seconds_bucket{version="4",le="0.0032"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.0064"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.0128"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.0256"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.0512"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.1024"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.2048"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.4096"} 1
er_serve_score_duration_seconds_bucket{version="4",le="0.8192"} 1
er_serve_score_duration_seconds_bucket{version="4",le="1.6384"} 1
er_serve_score_duration_seconds_bucket{version="4",le="3.2768"} 1
er_serve_score_duration_seconds_bucket{version="4",le="+Inf"} 1
er_serve_score_duration_seconds_sum{version="4"} 0.003
er_serve_score_duration_seconds_count{version="4"} 1
er_serve_score_duration_seconds_bucket{version="retired",le="0.000025"} 0
er_serve_score_duration_seconds_bucket{version="retired",le="0.00005"} 0
er_serve_score_duration_seconds_bucket{version="retired",le="0.0001"} 0
er_serve_score_duration_seconds_bucket{version="retired",le="0.0002"} 0
er_serve_score_duration_seconds_bucket{version="retired",le="0.0004"} 0
er_serve_score_duration_seconds_bucket{version="retired",le="0.0008"} 1
er_serve_score_duration_seconds_bucket{version="retired",le="0.0016"} 1
er_serve_score_duration_seconds_bucket{version="retired",le="0.0032"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.0064"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.0128"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.0256"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.0512"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.1024"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.2048"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.4096"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="0.8192"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="1.6384"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="3.2768"} 2
er_serve_score_duration_seconds_bucket{version="retired",le="+Inf"} 2
er_serve_score_duration_seconds_sum{version="retired"} 0.0024000000000000002
er_serve_score_duration_seconds_count{version="retired"} 2
# HELP er_serve_batches_total Micro-batches scored.
# TYPE er_serve_batches_total counter
er_serve_batches_total 2
# HELP er_serve_batched_requests_total Requests coalesced across all micro-batches.
# TYPE er_serve_batched_requests_total counter
er_serve_batched_requests_total 5
# HELP er_serve_batch_size Requests per micro-batch.
# TYPE er_serve_batch_size histogram
er_serve_batch_size_bucket{le="2"} 1
er_serve_batch_size_bucket{le="4"} 1
er_serve_batch_size_bucket{le="8"} 2
er_serve_batch_size_bucket{le="16"} 2
er_serve_batch_size_bucket{le="32"} 2
er_serve_batch_size_bucket{le="64"} 2
er_serve_batch_size_bucket{le="128"} 2
er_serve_batch_size_bucket{le="256"} 2
er_serve_batch_size_bucket{le="+Inf"} 2
er_serve_batch_size_sum 5
er_serve_batch_size_count 2
# HELP er_serve_queue_depth Admitted-but-unscored jobs in the admission queue.
# TYPE er_serve_queue_depth gauge
er_serve_queue_depth 1
# HELP er_serve_model_version Artifact version currently serving.
# TYPE er_serve_model_version gauge
er_serve_model_version 4
# HELP er_serve_rejected_total Requests shed, by cause (rate_limited, queue_full, deadline, overloaded).
# TYPE er_serve_rejected_total counter
er_serve_rejected_total{cause="queue_full"} 1
# HELP er_serve_reloads_total Hot-reload outcomes.
# TYPE er_serve_reloads_total counter
er_serve_reloads_total{outcome="applied"} 2
# HELP er_serve_cache_hits_total Score-cache hits by artifact version.
# TYPE er_serve_cache_hits_total counter
er_serve_cache_hits_total{version="4"} 4
er_serve_cache_hits_total{version="retired"} 5
# HELP er_serve_cache_misses_total Score-cache misses by artifact version.
# TYPE er_serve_cache_misses_total counter
er_serve_cache_misses_total{version="4"} 6
# HELP er_serve_cache_hit_rate Score-cache hit rate by artifact version.
# TYPE er_serve_cache_hit_rate gauge
er_serve_cache_hit_rate{version="4"} 0.25
# HELP er_serve_cache_entries Live score-cache entries by artifact version.
# TYPE er_serve_cache_entries gauge
er_serve_cache_entries{version="4"} 4
# HELP er_serve_worker_panics_total Panics caught by worker supervision, by role (batcher vs shard).
# TYPE er_serve_worker_panics_total counter
er_serve_worker_panics_total{role="shard"} 1
"##;

    #[test]
    fn label_values_are_escaped_once_and_parse_back() {
        let value = "a\\b\"c\nd";
        let registry = MetricsRegistry::new();
        registry.responses.with(&[("route", value), ("status", "200")]).add(3);
        registry.request_duration.with(&[("route", value)]).observe(0.0003);
        let text = registry.render();
        assert!(
            text.contains("er_serve_responses_total{route=\"a\\\\b\\\"c\\nd\",status=\"200\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("er_serve_request_duration_seconds_bucket{route=\"a\\\\b\\\"c\\nd\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        let samples = parse_exposition(&text).expect("rendered exposition must parse");
        for name in [
            "er_serve_responses_total",
            "er_serve_request_duration_seconds_count",
            "er_serve_request_duration_seconds_sum",
        ] {
            let sample = samples.iter().find(|s| s.name == name).expect(name);
            assert_eq!(sample.label("route"), Some(value), "{name}");
        }
        let buckets = samples
            .iter()
            .filter(|s| s.name == "er_serve_request_duration_seconds_bucket");
        assert!(buckets.clone().count() > 1);
        assert!(buckets.clone().all(|s| s.label("route") == Some(value)));
    }

    #[test]
    fn malformed_exposition_lines_are_rejected() {
        assert!(parse_exposition("ok_metric 1\n# comment\n").is_ok());
        assert!(parse_exposition("not a metric line\n").is_err());
        assert!(parse_exposition("bad{unclosed=\"x\" 1\n").is_err());
        assert!(parse_exposition("1leading_digit 2\n").is_err());
    }

    #[test]
    fn extract_histogram_validates_cumulative_counts() {
        let h = Histogram::new(vec![0.001, 0.01].into());
        for v in [0.0005, 0.002, 0.5] {
            h.observe(v);
        }
        let mut out = String::new();
        h.write(&mut out, "m", &[("route", "/score".into())]);
        let samples = parse_exposition(&out).expect("parse");
        let parsed = extract_histogram(&samples, "m", &[("route", "/score")]).expect("extract");
        assert_eq!(parsed.count, 3);
        assert_eq!(parsed.cumulative, vec![1, 2, 3]);
        assert_eq!(parsed.bounds, vec![0.001, 0.01]);
        assert!((parsed.sum - 0.5025).abs() < 1e-12);
        // A filter that matches nothing extracts nothing.
        assert!(extract_histogram(&samples, "m", &[("route", "/other")]).is_none());
    }

    #[test]
    fn quantile_bounds_bracket_the_observations() {
        let h = Histogram::new(vec![0.001, 0.01, 0.1].into());
        for _ in 0..90 {
            h.observe(0.0005); // [0, 0.001)
        }
        for _ in 0..10 {
            h.observe(0.05); // [0.01, 0.1)
        }
        let mut out = String::new();
        render_series(&mut out, "m", "h", &h);
        let parsed = extract_histogram(&parse_exposition(&out).expect("parse"), "m", &[]).expect("extract");
        assert_eq!(parsed.quantile_bounds(0.5, 0), Some((0.0, 0.001)));
        let (lo, hi) = parsed.quantile_bounds(0.95, 0).expect("p95");
        assert_eq!((lo, hi), (0.01, 0.1));
        // Widening by one bucket relaxes both sides.
        assert_eq!(parsed.quantile_bounds(0.95, 1), Some((0.001, f64::INFINITY)));
    }

    /// The nearest-rank `q`-percentile of sorted nanosecond samples, in µs:
    /// the sample at index `round(q × (n − 1))`, as
    /// [`ParsedHistogram::quantile_bounds`] ranks observations.
    fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
        sorted_ns[(q * (sorted_ns.len() - 1) as f64).round() as usize] as f64 / 1e3
    }

    const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

    /// Whether the p50/p95/p99 `trace_us` lie inside the histogram's bucket
    /// ranges for the same quantiles, widened by one bucket each side.
    fn histogram_brackets(histogram: &ParsedHistogram, trace_us: [f64; 3]) -> bool {
        QUANTILES.into_iter().zip(trace_us).all(|(q, us)| {
            let (lo, hi) = histogram.quantile_bounds(q, 1).expect("non-empty histogram");
            (lo..=hi).contains(&(us * 1e-6))
        })
    }

    #[test]
    fn histogram_brackets_its_own_trace_totals_but_not_four_times_them() {
        // Trace totals of 80–275 µs, as whole microseconds.
        let totals_ns: Vec<u64> = (0..400).map(|i| (80 + (i % 40) * 5) * 1_000).collect();
        let mut sorted = totals_ns.clone();
        sorted.sort_unstable();
        let trace_us = QUANTILES.map(|q| percentile_us(&sorted, q));
        let observed = |scale: f64| {
            let registry = MetricsRegistry::new();
            let histogram = registry.request_duration.with(&[("route", "/score")]);
            for ns in &totals_ns {
                histogram.observe(*ns as f64 * 1e-9 * scale);
            }
            let samples = parse_exposition(&registry.render()).expect("exposition parses");
            extract_histogram(&samples, "er_serve_request_duration_seconds", &[("route", "/score")]).expect("histogram")
        };
        assert!(histogram_brackets(&observed(1.0), trace_us));
        assert!(!histogram_brackets(&observed(4.0), trace_us));
    }

    /// A socket replay from four keep-alive clients against a server that
    /// retains every trace, reconciled four ways: the committed `/score`
    /// traces, the scraped score counter and the replay agree on the count;
    /// every stage span nests inside its request and every scored request
    /// covers parse, score, serialize and write; the trace totals sit at or
    /// below the client's socket timings at p50/p95/p99; and the scraped
    /// request-duration histogram holds the trace-total percentiles within
    /// one bucket. The Chrome export carries one request event per request.
    #[test]
    fn a_traced_socket_replay_reconciles_with_its_traces_scrape_and_export() {
        use crate::server::{http_roundtrip, parse_score_response, ScoreServer, ServerConfig};
        use crate::trace::Stage;
        use crate::{ReloadableExecutor, ReplayConfig, ScoreRequest, ScoringEngine, ServeConfig};
        use er_base::Label;
        use er_rulegen::{CmpOp, Condition, Rule};
        use learnrisk_core::{LearnRiskModel, RiskFeatureSet, RiskModelConfig};
        use std::net::TcpStream;
        use std::time::{Duration, Instant};

        const REQUESTS: usize = 400;
        const CLIENTS: usize = 4;
        // Offsets round to whole microseconds independently, so a span may
        // end a hair after its trace.
        const ROUNDING_SLACK_US: u64 = 2;
        // The client's window also holds the wire both ways.
        const WIRE_SLACK_US: f64 = 500.0;

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
        let engine = ScoringEngine::new(LearnRiskModel::new(feature_set, RiskModelConfig::default()));
        let executor = Arc::new(ReloadableExecutor::new(
            engine.clone(),
            ServeConfig::default().with_threads(2),
        ));
        let server = ScoreServer::start(
            executor,
            ServerConfig {
                queue_capacity: 16,
                // Twice the replay: the ring never wraps, so every request
                // is reconciled, not a survivor set.
                trace_capacity: 2 * REQUESTS,
                fault_plan: None,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let pool: Vec<ScoreRequest> = (0..100u64)
            .map(|pair_id| {
                let x = (pair_id as f64 * 0.618_033_988_749_895).fract();
                ScoreRequest {
                    pair_id,
                    metric_row: vec![x, 1.0 - x],
                    classifier_output: x,
                    machine_says_match: x >= 0.5,
                }
            })
            .collect();
        let stream = crate::zipf_stream(
            &pool,
            &ReplayConfig {
                requests: REQUESTS,
                zipf_exponent: 1.1,
                seed: 2020,
            },
        );
        let expected = engine.score_batch(&stream);

        let mut client_ns: Vec<u64> = std::thread::scope(|scope| {
            let clients: Vec<_> = stream
                .chunks(REQUESTS / CLIENTS)
                .zip(expected.chunks(REQUESTS / CLIENTS))
                .map(|(requests, expected)| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
                        let mut latencies = Vec::with_capacity(requests.len());
                        for (request, expected) in requests.iter().zip(expected) {
                            let body = serde::json::to_string(request);
                            let t0 = Instant::now();
                            let response = http_roundtrip(&mut conn, "POST", "/score", Some(&body)).expect("score");
                            latencies.push(t0.elapsed().as_nanos() as u64);
                            assert_eq!(response.status, 200, "{}", response.body);
                            let (_, scores) = parse_score_response(&response.body).expect("score body");
                            assert_eq!(
                                scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                                [expected.to_bits()]
                            );
                        }
                        latencies
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("client")).collect()
        });
        client_ns.sort_unstable();

        // A trace is committed after its response is written: wait for the
        // last ones (bounded).
        let tracer = server.tracer().expect("tracing on");
        let settle_by = Instant::now() + Duration::from_secs(5);
        while tracer.committed_total() < REQUESTS as u64 && Instant::now() < settle_by {
            std::thread::sleep(Duration::from_millis(1));
        }
        let traces = tracer.snapshot();
        let scored: Vec<_> = traces
            .iter()
            .filter(|t| t.route == "/score" && t.status == 200)
            .collect();
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        let scrape = http_roundtrip(&mut conn, "GET", "/metrics", None).expect("scrape");
        assert_eq!(scrape.status, 200, "{}", scrape.body);
        let samples = parse_exposition(&scrape.body).expect("every scraped line parses");
        let score_requests: f64 = samples
            .iter()
            .filter(|s| s.name == "er_serve_score_requests_total")
            .map(|s| s.value)
            .sum();
        assert_eq!(
            (scored.len(), score_requests),
            (REQUESTS, REQUESTS as f64),
            "span counts"
        );

        for trace in &scored {
            let end = trace.start_us + trace.total_us + ROUNDING_SLACK_US;
            for span in &trace.spans {
                assert!(
                    span.start_us >= trace.start_us && span.start_us + span.dur_us <= end,
                    "{:?} span leaves its trace: {trace:?}",
                    span.stage
                );
            }
            for stage in [Stage::Parse, Stage::Score, Stage::Serialize, Stage::Write] {
                assert!(
                    trace.spans.iter().any(|s| s.stage == stage),
                    "no {stage:?} span: {trace:?}"
                );
            }
        }

        let mut totals_ns: Vec<u64> = scored.iter().map(|t| t.total_us * 1_000).collect();
        totals_ns.sort_unstable();
        let trace_us = QUANTILES.map(|q| percentile_us(&totals_ns, q));
        for (q, server_us) in QUANTILES.into_iter().zip(trace_us) {
            let client_us = percentile_us(&client_ns, q);
            assert!(
                server_us <= client_us + WIRE_SLACK_US,
                "p{}: trace total {server_us} µs exceeds the socket's {client_us} µs",
                q * 100.0
            );
        }

        let histogram = extract_histogram(&samples, "er_serve_request_duration_seconds", &[("route", "/score")])
            .expect("request-duration histogram present and consistent");
        assert_eq!(histogram.count, REQUESTS as u64);
        assert!(
            histogram_brackets(&histogram, trace_us),
            "the histogram does not hold the trace totals {trace_us:?}: {histogram:?}"
        );

        let export = http_roundtrip(&mut conn, "GET", "/debug/traces", None).expect("/debug/traces");
        assert_eq!(export.status, 200, "{}", export.body);
        let doc = serde::json::parse(&export.body).expect("Chrome trace-event JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_seq()).expect("traceEvents");
        let field = |event: &serde::Value, key: &str| event.get(key).and_then(|v| v.as_str()).map(str::to_string);
        assert!(events.iter().all(|e| field(e, "ph").as_deref() == Some("X")));
        let requests = events
            .iter()
            .filter(|e| field(e, "cat").as_deref() == Some("request"))
            .count();
        assert_eq!(requests, REQUESTS, "one request event per replayed request");
        server.shutdown();
    }
}
