//! A lock-cheap metrics registry with Prometheus text exposition.
//!
//! The registry is the **single source of truth** for everything the server
//! observes about itself: the `/stats` JSON counters are re-derived from it
//! and `GET /metrics` renders it in the Prometheus text format (v0.0.4), so
//! the two endpoints can never disagree. Every primitive is built on
//! [`AtomicU64`]:
//!
//! * [`Counter`] — monotonic `u64` (`inc`/`add`); [`Counter::store`] exists
//!   only to mirror counters owned elsewhere (the executor's cache hit/miss
//!   totals) into the exposition at scrape time.
//! * [`Gauge`] — an `f64` stored as bits (queue depth, model version).
//! * [`Histogram`] — fixed bucket bounds with **exclusive** upper bounds: an
//!   observation equal to a bound lands in the *next* bucket (the bucket
//!   whose half-open range `[lower, upper)` starts at that bound), plus an
//!   implicit `+Inf` overflow bucket and atomically maintained `sum`/`count`.
//!   Exposition is cumulative `le`-labeled, as Prometheus expects; the
//!   exclusive-vs-inclusive distinction is only observable for values
//!   exactly on a bound, which for continuous latencies is measure-zero.
//! * [`CounterVec`] / [`GaugeVec`] / [`HistogramVec`] — labeled families
//!   (per route, per artifact version, per reload outcome). Label lookup
//!   takes one short mutex on a `BTreeMap`; the returned `Arc` handle then
//!   observes lock-free, so hot paths can cache it.
//!
//! The module also ships the consumer side — [`parse_exposition`] and
//! [`extract_histogram`] — used by `serve_bench` and the smoke tiers to
//! prove the scrape parses, that `er_serve_score_requests_total` reconciles
//! with the replay's own request count, and that histogram-derived
//! percentiles bracket the replay harness's measured ones.

use std::collections::BTreeMap;
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
        // A CAS loop instead of a lock: histogram observation stays wait-free
        // in the common uncontended case.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
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

/// A resolved label set: `(name, value)` pairs in declaration order.
pub type LabelPairs = Vec<(&'static str, String)>;

fn label_key(labels: &[(&'static str, &str)]) -> LabelPairs {
    labels.iter().map(|(n, v)| (*n, v.to_string())).collect()
}

/// A labeled family of [`Counter`]s.
#[derive(Debug, Default)]
pub struct CounterVec {
    children: Mutex<BTreeMap<LabelPairs, Arc<Counter>>>,
}

impl CounterVec {
    /// The child for this label set, created on first use.
    pub fn with(&self, labels: &[(&'static str, &str)]) -> Arc<Counter> {
        let mut children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(children.entry(label_key(labels)).or_default())
    }

    /// Every child's label set and current value.
    pub fn snapshot(&self) -> Vec<(LabelPairs, u64)> {
        let children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        children.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Sum across all children.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().map(|(_, v)| v).sum()
    }
}

/// A labeled family of [`Gauge`]s.
#[derive(Debug, Default)]
pub struct GaugeVec {
    children: Mutex<BTreeMap<LabelPairs, Arc<Gauge>>>,
}

impl GaugeVec {
    /// The child for this label set, created on first use.
    pub fn with(&self, labels: &[(&'static str, &str)]) -> Arc<Gauge> {
        let mut children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(children.entry(label_key(labels)).or_default())
    }

    fn snapshot(&self) -> Vec<(LabelPairs, f64)> {
        let children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        children.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }
}

/// A labeled family of [`Histogram`]s sharing one set of bucket bounds.
#[derive(Debug)]
pub struct HistogramVec {
    bounds: Arc<[f64]>,
    children: Mutex<BTreeMap<LabelPairs, Arc<Histogram>>>,
}

impl HistogramVec {
    /// A family whose children all use `bounds`.
    pub fn new(bounds: Arc<[f64]>) -> Self {
        Self {
            bounds,
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// The child for this label set, created on first use.
    pub fn with(&self, labels: &[(&'static str, &str)]) -> Arc<Histogram> {
        let mut children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            children
                .entry(label_key(labels))
                .or_insert_with(|| Arc::new(Histogram::new(Arc::clone(&self.bounds)))),
        )
    }

    fn snapshot(&self) -> Vec<(LabelPairs, Arc<Histogram>)> {
        let children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        children.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
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
    /// `er_serve_cache_hits_total{version}` — executor score-cache hits,
    /// mirrored at scrape time.
    pub cache_hits: CounterVec,
    /// `er_serve_cache_misses_total{version}` — executor score-cache misses,
    /// mirrored at scrape time.
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

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        render_counter_vec(
            &mut out,
            "er_serve_responses_total",
            "HTTP responses by route and status.",
            &self.responses,
        );
        render_histogram_vec(
            &mut out,
            "er_serve_request_duration_seconds",
            "Request handling time by route.",
            &self.request_duration,
        );
        render_counter_vec(
            &mut out,
            "er_serve_score_requests_total",
            "Scoring requests answered with scores, by artifact version.",
            &self.score_requests,
        );
        render_histogram_vec(
            &mut out,
            "er_serve_score_duration_seconds",
            "Score admission-to-reply latency by artifact version.",
            &self.score_duration,
        );
        render_counter(
            &mut out,
            "er_serve_batches_total",
            "Micro-batches scored.",
            &self.batches,
        );
        render_counter(
            &mut out,
            "er_serve_batched_requests_total",
            "Requests coalesced across all micro-batches.",
            &self.batched_requests,
        );
        render_histogram(
            &mut out,
            "er_serve_batch_size",
            "Requests per micro-batch.",
            &[],
            &self.batch_size,
            true,
        );
        render_gauge(
            &mut out,
            "er_serve_queue_depth",
            "Admitted-but-unscored jobs in the admission queue.",
            self.queue_depth.get(),
        );
        render_gauge(
            &mut out,
            "er_serve_model_version",
            "Artifact version currently serving.",
            self.model_version.get(),
        );
        render_counter_vec(
            &mut out,
            "er_serve_rejected_total",
            "Requests shed, by cause (rate_limited, queue_full, deadline, overloaded).",
            &self.rejected,
        );
        render_counter_vec(
            &mut out,
            "er_serve_reloads_total",
            "Hot-reload outcomes.",
            &self.reloads,
        );
        render_counter_vec(
            &mut out,
            "er_serve_cache_hits_total",
            "Score-cache hits by artifact version.",
            &self.cache_hits,
        );
        render_counter_vec(
            &mut out,
            "er_serve_cache_misses_total",
            "Score-cache misses by artifact version.",
            &self.cache_misses,
        );
        render_gauge_vec(
            &mut out,
            "er_serve_cache_hit_rate",
            "Score-cache hit rate by artifact version.",
            &self.cache_hit_rate,
        );
        render_gauge_vec(
            &mut out,
            "er_serve_cache_entries",
            "Live score-cache entries by artifact version.",
            &self.cache_entries,
        );
        render_counter_vec(
            &mut out,
            "er_serve_worker_panics_total",
            "Panics caught by worker supervision, by role (batcher vs shard).",
            &self.worker_panics,
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Exposition rendering
// ---------------------------------------------------------------------------

/// Formats an f64 the way Prometheus text exposition expects (shortest
/// round-trip; integral values without a trailing `.0`).
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_labels(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(n, v)| format!("{n}={:?}", v.replace('\\', "\\\\").replace('\n', "\\n")))
        .collect();
    if let Some((n, v)) = extra {
        parts.push(format!("{n}={v:?}"));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn render_counter(out: &mut String, name: &str, help: &str, counter: &Counter) {
    header(out, name, "counter", help);
    out.push_str(&format!("{name} {}\n", counter.get()));
}

fn render_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    header(out, name, "gauge", help);
    out.push_str(&format!("{name} {}\n", fmt_value(value)));
}

fn render_counter_vec(out: &mut String, name: &str, help: &str, vec: &CounterVec) {
    header(out, name, "counter", help);
    for (labels, value) in vec.snapshot() {
        out.push_str(&format!("{name}{} {value}\n", fmt_labels(&labels, None)));
    }
}

fn render_gauge_vec(out: &mut String, name: &str, help: &str, vec: &GaugeVec) {
    header(out, name, "gauge", help);
    for (labels, value) in vec.snapshot() {
        out.push_str(&format!("{name}{} {}\n", fmt_labels(&labels, None), fmt_value(value)));
    }
}

fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&'static str, String)],
    histogram: &Histogram,
    with_header: bool,
) {
    if with_header {
        header(out, name, "histogram", help);
    }
    let counts = histogram.bucket_counts();
    let mut cumulative = 0u64;
    for (i, count) in counts.iter().enumerate() {
        cumulative += count;
        let le = if i < histogram.bounds().len() {
            fmt_value(histogram.bounds()[i])
        } else {
            "+Inf".to_string()
        };
        out.push_str(&format!(
            "{name}_bucket{} {cumulative}\n",
            fmt_labels(labels, Some(("le", &le)))
        ));
    }
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        fmt_labels(labels, None),
        fmt_value(histogram.sum())
    ));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        fmt_labels(labels, None),
        histogram.count()
    ));
}

fn render_histogram_vec(out: &mut String, name: &str, help: &str, vec: &HistogramVec) {
    header(out, name, "histogram", help);
    for (labels, histogram) in vec.snapshot() {
        render_histogram(out, name, help, &labels, &histogram, false);
    }
}

// ---------------------------------------------------------------------------
// Exposition parsing (the consumer side: serve_bench, smoke tiers, tests)
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

/// A histogram reconstructed from exposition samples.
#[derive(Debug, Clone)]
pub struct ParsedHistogram {
    /// Finite bucket upper bounds, ascending (the `+Inf` bucket is implied).
    pub bounds: Vec<f64>,
    /// Cumulative counts per bucket, `+Inf` last (equals `count`).
    pub cumulative: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl ParsedHistogram {
    /// The half-open bucket range `[lower, upper)` containing the
    /// `q`-quantile observation under the replay harness's percentile
    /// definition (`rank = round(q × (count − 1))`, 0-based), widened by
    /// `widen` buckets on each side. `upper` is `+Inf` when the range
    /// reaches the overflow bucket. Returns `None` on an empty histogram.
    pub fn quantile_bounds(&self, q: f64, widen: usize) -> Option<(f64, f64)> {
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
pub fn extract_histogram(samples: &[Sample], base_name: &str, filter: &[(&str, &str)]) -> Option<ParsedHistogram> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        render_histogram(&mut out, "m", "help", &[("route", "/score".into())], &h, true);
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
        render_histogram(&mut out, "m", "h", &[], &h, true);
        let parsed = extract_histogram(&parse_exposition(&out).expect("parse"), "m", &[]).expect("extract");
        assert_eq!(parsed.quantile_bounds(0.5, 0), Some((0.0, 0.001)));
        let (lo, hi) = parsed.quantile_bounds(0.95, 0).expect("p95");
        assert_eq!((lo, hi), (0.01, 0.1));
        // Widening by one bucket relaxes both sides.
        assert_eq!(parsed.quantile_bounds(0.95, 1), Some((0.001, f64::INFINITY)));
    }
}
