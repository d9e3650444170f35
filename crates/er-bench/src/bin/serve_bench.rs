//! `serve_bench` — correctness attestations for the `er-serve` online
//! engine and the `er-gateway` fleet in front of it.
//!
//! End to end: trains a LearnRisk model on a synthetic DS-style workload,
//! exports it as a versioned artifact, loads the artifact back, compiles the
//! scoring engine and verifies the round trip is bit-exact. It then replays a
//! Zipf-skewed request stream over real sockets through each serving layer
//! (front-end, hot reload, tracing, connection series, chaos, the
//! multi-process gateway) and attests that every served score matches the
//! in-process engine bit for bit. Results are printed and written as
//! machine-readable JSON (default `out/serve_bench.json`, override with
//! `SERVE_BENCH_JSON`; stream length via `SERVE_BENCH_REQUESTS`).
//!
//! Timing is perfbench's job (interleaved repeats, medians, per-metric
//! bounds). The replays here still report throughput and latency, but as
//! plain informational fields, each naming the perfbench row that times the
//! same layer. `bench_diff` gates the attestations, the three machine-local
//! ratios (`metrics_on_relative_throughput`,
//! `tracing_on_relative_throughput`, `gateway.scaling_2x`) and the
//! connection series' accept-to-first-byte percentiles.
//!
//! Usage: `cargo run -p er-bench --release --bin serve_bench [scale] [--threads 1,2,4]`
//! (the front-end serves with the largest `--threads` count).

use er_base::SplitRatio;
use er_bench::gate::{Attest, Latency, Ratio, Series};
use er_classifier::{MatcherKind, TrainConfig};
use er_datasets::{generate_benchmark, BenchmarkId};
use er_eval::{build_score_requests, export_and_load_engine, run_pipeline, verify_round_trip, PipelineConfig};
use er_gateway::{GatewayConfig, GatewayServer, HashRing};
use er_serve::{
    extract_histogram, http_roundtrip, http_roundtrip_with_headers, parse_exposition, parse_score_response,
    read_http_response, summarize_latencies, zipf_stream, LatencySummary, ModelArtifact, ParsedHistogram,
    ReloadableExecutor, ReplayConfig, ScoreRequest, ScoreServer, ScoringEngine, ServeConfig, ServerConfig, ServerStats,
    Stage,
};
use learnrisk_core::{LearnRiskModel, RiskTrainConfig};
use serde::Serialize;
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Machine-readable result of one `serve_bench` invocation. Every field
/// typed with an [`er_bench::gate`] leaf is gated by `bench_diff`.
#[derive(Debug, Serialize)]
struct ServeBenchSummary {
    scale: f64,
    seed: u64,
    /// CPUs available to the benchmarking process — lets perf-trajectory
    /// consumers tell single-CPU container runs apart from real multicore
    /// results.
    available_parallelism: usize,
    pool_pairs: usize,
    rule_count: usize,
    /// Length of the generated Zipf stream; each phase replays a prefix.
    requests: usize,
    zipf_exponent: f64,
    round_trip_bit_exact: Attest,
    /// HTTP front-end replays: socket round trips, a mid-replay hot reload,
    /// the metrics and tracing A/Bs, the connection series and chaos.
    frontend: FrontendBench,
    /// The multi-process gateway phase: `er-serve` child processes behind an
    /// `er-gateway` router — throughput scaling in backend count, hedging
    /// against an injected straggler, and the connection series through the
    /// hop. `None` only when the `er-serve` binary is not built (the gate
    /// hard-fails that absence once a baseline carries the phase).
    gateway: Option<GatewayBench>,
}

/// One entry of the gateway scaling series: the identical closed-loop
/// replay against `backends` freshly spawned `er-serve` processes. Its
/// throughput feeds `scaling_2x`; perfbench times the hop itself as
/// `layer.er_gateway_child_us.p50`, `gateway.self_us.p50` and
/// `gateway.cpu_us_per_req`.
#[derive(Debug, Serialize)]
struct GatewayScalingEntry {
    backends: usize,
    requests: usize,
    clients: usize,
    elapsed_secs: f64,
    throughput_rps: f64,
    latency: LatencySummary,
    non_2xx: u64,
    /// Every response through the hop was 2xx.
    all_2xx: Attest,
    /// Every relayed score matched the in-process engine bit for bit — the
    /// gateway forwards backend bodies byte-for-byte.
    bit_exact: Attest,
}

/// The hedging smoke: one backend stalls every score via an injected fault
/// plan; requests whose ring primary is the straggler must be answered by
/// the hedge instead, within budget and bit-exactly.
#[derive(Debug, Serialize)]
struct GatewayHedging {
    /// The `ER_FAULT_PLAN` injected into the stalled backend.
    fault_spec: String,
    hedge_after_ms: u64,
    /// Requests deliberately routed at the stalled backend.
    requests: usize,
    hedges_launched: u64,
    hedges_won: u64,
    /// At least one hedge raced and won.
    hedge_fired: Attest,
    all_2xx: Attest,
    bit_exact: Attest,
}

/// The multi-process gateway phase: see [`gateway_bench`].
#[derive(Debug, Serialize)]
struct GatewayBench {
    /// Backends are separate `er-serve` OS processes, not in-process
    /// executors — the scaling series crosses real process boundaries.
    multi_process: Attest,
    backend_binary: String,
    /// Keyed `backends=N`.
    series: Series<GatewayScalingEntry>,
    /// Aggregate throughput at 2 backends over 1 backend — the near-linear
    /// scaling claim.
    scaling_2x: Ratio,
    hedging: GatewayHedging,
    /// The high-connection-count series through a gateway in front of one
    /// in-process backend: the gateway's one readiness loop holds every
    /// connection, scores bit-exactly through the hop, severs none.
    connections: ConnectionBench,
}

/// One front-end socket replay: closed-loop clients posting the stream one
/// request at a time, with every response's score bit-compared against the
/// in-process engine of the version it reports. Throughput and latency are
/// informational; the field that holds a run names the perfbench row that
/// times its layer.
#[derive(Debug, Serialize)]
struct FrontendRun {
    clients: usize,
    requests: usize,
    elapsed_secs: f64,
    throughput_rps: f64,
    /// Socket round-trip (request write → response parsed) percentiles.
    latency: LatencySummary,
    non_2xx: u64,
    /// Every socket score matched the in-process engine bit for bit.
    bit_exact: Attest,
}

/// The latency-under-reload series: the same replay with hot reloads fired
/// at request-count milestones while traffic is in flight. perfbench times
/// reloads as `e2e.reload_ms` and `reload.in_process_ms`.
#[derive(Debug, Serialize)]
struct FrontendReload {
    clients: usize,
    requests: usize,
    /// Hot reloads applied mid-replay.
    reloads: u64,
    /// Distinct `model_version` tags observed across all responses.
    versions_observed: Vec<u64>,
    elapsed_secs: f64,
    throughput_rps: f64,
    latency: LatencySummary,
    non_2xx: u64,
    /// Every response's score matched a fresh engine of exactly the version
    /// it was tagged with (no torn batches, no stale cache hits).
    bit_exact_per_version: Attest,
}

/// The `/metrics` scrape taken right after the plain replay: the exposition
/// parses and its `er_serve_score_requests_total` equals the replay's own
/// request count. The `request_duration` histogram is reconciled in the
/// tracing phase, against the server's own trace totals
/// ([`TracingBench::histogram_reconciled`]).
#[derive(Debug, Serialize)]
struct FrontendMetrics {
    snapshot_path: String,
    scrape_parsed: Attest,
    /// Sum of `er_serve_score_requests_total` across versions at scrape time.
    score_requests_total: u64,
    /// `score_requests_total == replay.requests`.
    reconciles_with_replay: Attest,
}

/// The tracing A/B phase: the identical replay against a tracing-off control
/// server and a tracing-on server retaining *every* trace, with the span
/// timelines reconciled against both the replay's own measurements and the
/// metrics registry, and the Chrome trace-event export parsed and snapshotted.
#[derive(Debug, Serialize)]
struct TracingBench {
    /// Ring capacity of the tracing-on server — sized to `2 × requests` so
    /// no trace is evicted and the reconciliations below cover every request.
    trace_capacity: usize,
    /// The tracing-off control replay (`trace_capacity: 0`). perfbench times
    /// the tracing cost as `tracing.overhead_us.p50`.
    replay_trace_off: FrontendRun,
    /// The tracing-on replay.
    replay_trace_on: FrontendRun,
    /// Tracing-on throughput over tracing-off throughput; ~1.0 when span
    /// recording stays off the hot path's lock.
    tracing_on_relative_throughput: Ratio,
    /// Committed `/score` traces (status 200) — must equal both the replayed
    /// request count and the scraped `er_serve_score_requests_total`.
    committed_score_traces: u64,
    /// The three-way count reconciliation above held.
    span_counts_match: Attest,
    /// Every retained trace's stage spans nest inside its recorded total
    /// (no span ends after the request's own end).
    spans_nest_within_totals: Attest,
    /// Every scored trace covers the full stage taxonomy
    /// (`parse`, `score`, `serialize`, `write`).
    stage_taxonomy_complete: Attest,
    /// Server-side percentiles over trace totals sit at or below the
    /// client-measured socket percentiles (+wire slack): the server's
    /// `parse → write` window is physically contained in the client's
    /// write → parsed window.
    totals_bracket_replay: Attest,
    /// Server-side p50/p95/p99 over trace totals, for the trajectory.
    trace_latency: LatencySummary,
    /// The scraped `er_serve_request_duration_seconds{route="/score"}`
    /// histogram counts every replayed request, and its p50/p95/p99 buckets
    /// (±1 bucket) hold the trace-total percentiles: both time the same
    /// requests over the same server-side window.
    histogram_reconciled: Attest,
    /// `GET /debug/traces` parsed as Chrome trace-event JSON.
    chrome_export_parsed: Attest,
    /// Where the raw `/debug/traces` body was written.
    snapshot_path: String,
}

/// One entry of the high-connection-count series: `connections` keep-alive
/// connections opened and held mostly idle against one readiness loop,
/// probing accept-to-first-byte latency on the way in, scoring through the
/// parked set, then sweeping every connection on the way out to prove none
/// was severed.
#[derive(Debug, Serialize)]
struct ConnectionSeriesEntry {
    connections: usize,
    /// `connect()` → first response byte of the opening `/healthz` probe,
    /// over every connection in the set.
    accept_to_first_byte: Latency,
    /// `/score` round trips driven across the parked set while the rest of
    /// the connections idle.
    score_requests: usize,
    score_latency: LatencySummary,
    /// Every opening probe, score, and closing sweep answered 2xx.
    all_2xx: Attest,
    /// Zero transport errors across the entry — the readiness loop held
    /// every one of `connections` connections alive to the end.
    zero_severed: Attest,
    /// Every score matched the in-process engine bit for bit.
    bit_exact: Attest,
}

/// The high-connection-count phase (its own server with a raised
/// `max_connections`): the series proves the event-driven front-end holds
/// thousands of mostly-idle connections — a regime the old
/// thread-per-connection design could not enter — while still serving with
/// zero severed connections and bit-exact scores.
#[derive(Debug, Serialize)]
struct ConnectionBench {
    /// The `max_connections` the series server ran with.
    max_connections: usize,
    /// Keyed `connections=N`.
    series: Series<ConnectionSeriesEntry>,
}

/// The chaos phase (its own server, so the canonical phase counters stay
/// clean): a seeded [`er_serve::FaultPlan`] injects shard-worker panics, batcher
/// panics, a scoring stall, a slow client write, and torn/invalid artifact
/// reloads while a retrying client replays live traffic. Attested: zero
/// severed connections, panic counters reconciling with the plan's own
/// fired counts, bit-exact scores across every supervisor recovery, the old
/// version serving through every refused reload, and deadline shedding
/// answering an expired tranche promptly.
#[derive(Debug, Serialize)]
struct ChaosBench {
    /// The exact fault spec injected (fixed seed — the phase is replayable).
    fault_spec: String,
    requests: usize,
    /// Transport errors across every attempt of every request.
    severed_connections: u64,
    /// `severed_connections == 0` — the headline attestation.
    zero_severed_connections: Attest,
    /// Requests that needed more than one attempt (rode a panicked batch).
    retried_requests: u64,
    /// Shard-worker panics the plan fired (caught inside the executor).
    injected_shard_panics: u64,
    /// Batcher panics the plan fired (caught by batch supervision).
    injected_batcher_panics: u64,
    /// Scraped `er_serve_worker_panics_total` summed across roles…
    worker_panics_total: u64,
    /// …equal to the injected count, and non-zero.
    panics_reconciled: Attest,
    /// Every 200 score matched the v1 engine bit for bit, including the
    /// re-scored batches behind each recovery.
    bit_exact_across_restarts: Attest,
    /// Mid-replay reload attempts — all refused with 409 (torn artifact
    /// read, then an injected validation failure)…
    reloads_refused: u64,
    /// …while every response stayed tagged `model_version` 1.
    old_version_served_throughout: Attest,
    /// The parked tiny-deadline tranche: every job shed with a 504.
    deadline_504s: u64,
    /// All tranche 504s arrived within the shedding bound after resume —
    /// expired work is dropped in O(queue), not scored.
    deadline_shedding_bounds_p99: Attest,
    /// Per-request wall latency of the chaos replay, retries and injected
    /// stalls included (trajectory only — not latency-gated).
    latency: LatencySummary,
}

#[derive(Debug, Serialize)]
struct FrontendBench {
    threads: usize,
    queue_capacity: usize,
    max_batch: usize,
    /// perfbench times this layer as `layer.server_in_process_us.p50`,
    /// `p50_us.light`, `e2e.p90_us.light`, `e2e.p99_us.light` and
    /// `e2e.sustained_rps`.
    replay: FrontendRun,
    /// The same replay against a `metrics_enabled: false` server — the A/B
    /// control behind `metrics_on_relative_throughput`.
    replay_metrics_off: FrontendRun,
    /// Metrics-on throughput over metrics-off throughput; ~1.0 when the
    /// registry's atomics are free.
    metrics_on_relative_throughput: Ratio,
    metrics: FrontendMetrics,
    /// The high-connection-count series (256/1024/… mostly-idle keep-alive
    /// connections, `SERVE_BENCH_CONNECTIONS`).
    connections: ConnectionBench,
    /// The tracing-on/off A/B with span reconciliation and Chrome export.
    tracing: TracingBench,
    reload: FrontendReload,
    /// Fault injection under live traffic: supervision, retries, deadline
    /// shedding and reload refusal, attested end to end.
    chaos: ChaosBench,
    /// Final server counters; 4xx/5xx/429 must be zero (asserted before the
    /// JSON is written).
    statuses: ServerStats,
}

fn main() {
    let args = er_bench::parse_args(0.02);
    let requests = er_bench::env_usize("SERVE_BENCH_REQUESTS", 40_000);
    let json_path = PathBuf::from(std::env::var("SERVE_BENCH_JSON").unwrap_or_else(|_| "out/serve_bench.json".into()));

    // --- train ------------------------------------------------------------
    println!(
        "serve_bench: training on DS at scale {} (threads {:?}, {requests} requests)",
        args.config.scale, args.threads
    );
    let ds = generate_benchmark(BenchmarkId::DblpScholar, args.config.scale, args.config.seed);
    let pipeline = PipelineConfig {
        matcher: MatcherKind::Logistic,
        matcher_config: TrainConfig {
            epochs: 25,
            ..Default::default()
        },
        risk_train_config: RiskTrainConfig {
            epochs: 80,
            ..Default::default()
        },
        // The serving benchmark only needs the LearnRisk model; keep the
        // Uncertainty baseline's ensemble minimal.
        ensemble_members: 2,
        seed: args.config.seed,
        ..Default::default()
    };
    let (result, artifacts) = run_pipeline(&ds.workload, SplitRatio::new(3, 2, 5), &pipeline);
    println!(
        "serve_bench: trained model with {} rules (classifier F1 {:.3})",
        result.rule_count, result.classifier_f1
    );

    // --- export → load → verify -------------------------------------------
    let artifact_path = json_path.with_file_name("serve_model.json");
    let (_, engine) = export_and_load_engine(&artifacts, &artifact_path).unwrap_or_else(|e| {
        panic!("artifact round trip through {} failed: {e}", artifact_path.display());
    });
    let pool = build_score_requests(&artifacts.evaluator, &artifacts.matcher, ds.workload.pairs());
    let check = verify_round_trip(&artifacts.risk_model, &engine, &pool);
    match &check {
        Ok(()) => println!(
            "serve_bench: artifact round trip bit-exact on {} pairs ({})",
            pool.len(),
            artifact_path.display()
        ),
        Err((i, served, expected)) => {
            panic!("artifact round trip diverged on pair {i}: served {served}, expected {expected}")
        }
    }

    // --- request stream ---------------------------------------------------
    let stream = zipf_stream(
        &pool,
        &ReplayConfig {
            requests,
            zipf_exponent: 1.1,
            seed: args.config.seed,
        },
    );

    // --- HTTP front-end ---------------------------------------------------
    // The front-end replays a prefix of the stream (override with
    // SERVE_BENCH_FRONTEND_REQUESTS / SERVE_BENCH_CLIENTS).
    let frontend_requests = er_bench::env_usize("SERVE_BENCH_FRONTEND_REQUESTS", 4_000)
        .min(stream.len())
        .max(1);
    let clients = er_bench::env_usize("SERVE_BENCH_CLIENTS", 4).max(1);
    let frontend_threads = args.threads.iter().copied().max().unwrap_or(1);
    let frontend = frontend_bench(
        &engine,
        &artifact_path,
        &stream[..frontend_requests],
        clients,
        frontend_threads,
    );

    // --- multi-process gateway ---------------------------------------------
    let gateway_requests = er_bench::env_usize("SERVE_BENCH_GATEWAY_REQUESTS", 1_200)
        .min(stream.len())
        .max(1);
    let gateway = gateway_bench(&engine, &artifact_path, &stream[..gateway_requests], clients);

    let summary = ServeBenchSummary {
        scale: args.config.scale,
        seed: args.config.seed,
        available_parallelism: er_bench::available_parallelism(),
        pool_pairs: pool.len(),
        rule_count: result.rule_count,
        requests,
        zipf_exponent: 1.1,
        round_trip_bit_exact: Attest(check.is_ok()),
        frontend,
        gateway,
    };
    if let Some(parent) = json_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&json_path, serde::json::to_string_pretty(&summary)).expect("write serve_bench JSON");
    println!("serve_bench: wrote {}", json_path.display());
}

// ---------------------------------------------------------------------------
// HTTP front-end replay
// ---------------------------------------------------------------------------

/// A deterministic "retrained" variant of the served model: rule weights
/// nudged alternately up/down within their feasible range, standing in for
/// the next active-learning round's retrain. Scores differ from the original
/// on rule-covered pairs, which is what makes per-version bit-exactness a
/// real assertion during the reload replay.
fn retrained_variant(model: &LearnRiskModel) -> LearnRiskModel {
    let mut variant = model.clone();
    for (i, w) in variant.rule_weights.iter_mut().enumerate() {
        *w = (*w * if i % 2 == 0 { 1.07 } else { 0.93 }).clamp(1e-3, 1e3);
    }
    variant.validate().expect("perturbed model must stay valid");
    variant
}

#[derive(Serialize)]
struct ReloadBody {
    path: String,
}

struct ClientOutcome {
    latencies_ns: Vec<u64>,
    non_2xx: u64,
    bit_exact: bool,
    versions: BTreeSet<u64>,
}

impl Default for ClientOutcome {
    fn default() -> Self {
        Self {
            latencies_ns: Vec::new(),
            non_2xx: 0,
            bit_exact: true,
            versions: BTreeSet::new(),
        }
    }
}

struct SocketReplayOutcome {
    latency: LatencySummary,
    elapsed_secs: f64,
    throughput_rps: f64,
    non_2xx: u64,
    bit_exact: bool,
    versions: Vec<u64>,
}

impl FrontendRun {
    fn new(clients: usize, requests: usize, outcome: SocketReplayOutcome) -> Self {
        Self {
            clients,
            requests,
            elapsed_secs: outcome.elapsed_secs,
            throughput_rps: outcome.throughput_rps,
            latency: outcome.latency,
            non_2xx: outcome.non_2xx,
            bit_exact: Attest(outcome.bit_exact),
        }
    }
}

/// Replays `stream` against the server with closed-loop clients (one
/// keep-alive connection each), timing every socket round trip and
/// bit-comparing every score against the in-process expectation of the
/// version the response reports: odd versions carry the original model's
/// scores (`expected_odd`), even versions the retrained variant's
/// (`expected_even`) — reloads alternate the two artifacts.
fn run_socket_replay(
    addr: SocketAddr,
    stream: &[ScoreRequest],
    clients: usize,
    expected_odd: &[f64],
    expected_even: &[f64],
    progress: &AtomicUsize,
) -> SocketReplayOutcome {
    let start = Instant::now();
    let chunk = stream.len().div_ceil(clients.max(1));
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .chunks(chunk)
            .enumerate()
            .map(|(client_index, requests)| {
                let offset = client_index * chunk;
                scope.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("frontend: connect to the score server");
                    let mut out = ClientOutcome::default();
                    for (i, request) in requests.iter().enumerate() {
                        let body = serde::json::to_string(request);
                        let t0 = Instant::now();
                        // Any transport error is a dropped request — the
                        // zero-drop guarantee the front-end makes, so panic.
                        let response = http_roundtrip(&mut conn, "POST", "/score", Some(&body))
                            .expect("frontend: connection dropped mid-replay");
                        out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        if response.status != 200 {
                            out.non_2xx += 1;
                        } else {
                            let (version, scores) =
                                parse_score_response(&response.body).expect("frontend: malformed score body");
                            out.versions.insert(version);
                            let expected = if version % 2 == 1 { expected_odd } else { expected_even };
                            if scores.len() != 1 || scores[0].to_bits() != expected[offset + i].to_bits() {
                                out.bit_exact = false;
                            }
                        }
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("frontend client panicked"))
            .collect()
    });
    let elapsed_secs = start.elapsed().as_secs_f64();
    let mut latencies_ns = Vec::with_capacity(stream.len());
    let mut non_2xx = 0;
    let mut bit_exact = true;
    let mut versions = BTreeSet::new();
    for outcome in outcomes {
        latencies_ns.extend(outcome.latencies_ns);
        non_2xx += outcome.non_2xx;
        bit_exact &= outcome.bit_exact;
        versions.extend(outcome.versions);
    }
    SocketReplayOutcome {
        latency: summarize_latencies(&mut latencies_ns),
        elapsed_secs,
        throughput_rps: if elapsed_secs > 0.0 {
            stream.len() as f64 / elapsed_secs
        } else {
            0.0
        },
        non_2xx,
        bit_exact,
        versions: versions.into_iter().collect(),
    }
}

/// Runs the front-end phases: the metrics-off control, then against one live
/// [`ScoreServer`] the plain socket replay, its `/metrics` scrape and the
/// same replay with hot reloads fired mid-flight; then the connection
/// series, tracing and chaos phases, each on its own server. Panics (failing
/// the smoke tiers) on any unexpected non-2xx, any score-bit divergence, or
/// a dropped request.
fn frontend_bench(
    engine: &ScoringEngine,
    artifact_v1_path: &Path,
    stream: &[ScoreRequest],
    clients: usize,
    threads: usize,
) -> FrontendBench {
    const RELOADS: u64 = 3;
    // The retrained artifact the mid-replay reloads alternate with.
    let retrained = retrained_variant(engine.model());
    let artifact_v2_path = artifact_v1_path.with_file_name("serve_model_v2.json");
    ModelArtifact::new(retrained.clone())
        .save(&artifact_v2_path)
        .expect("save retrained artifact");
    let expected_v1 = engine.score_batch(stream);
    let expected_v2 = ScoringEngine::new(retrained).score_batch(stream);

    let server_config = ServerConfig {
        queue_capacity: 16,
        // Tracing off: the tracing phase below owns the tracing-on/off A/B.
        trace_capacity: 0,
        ..ServerConfig::default()
    };
    // Captured before the config moves into the server, so the JSON block
    // records the shape actually served (not `ServerConfig::default()`).
    let queue_capacity = server_config.queue_capacity;

    // Phase 0: the metrics-off control — the identical replay against its
    // own fresh server with every registry observation compiled out of the
    // hot path. Runs first so neither series inherits the other's warmup.
    let replay_metrics_off = {
        let executor = Arc::new(ReloadableExecutor::new(
            engine.clone(),
            ServeConfig::default().with_threads(threads),
        ));
        let server = ScoreServer::start(
            executor,
            ServerConfig {
                metrics_enabled: false,
                ..server_config.clone()
            },
        )
        .expect("bind metrics-off score server");
        println!();
        println!(
            "-- HTTP front-end on {} (metrics OFF control, {} requests, {clients} clients) --",
            server.local_addr(),
            stream.len()
        );
        let progress = AtomicUsize::new(0);
        let outcome = run_socket_replay(
            server.local_addr(),
            stream,
            clients,
            &expected_v1,
            &expected_v1,
            &progress,
        );
        assert_eq!(outcome.non_2xx, 0, "metrics-off replay must be all-2xx");
        assert!(outcome.bit_exact, "metrics-off socket scores diverged");
        println!(
            "frontend replay (metrics off): {:>10.0} req/s  p50 {:>7.1}µs  p95 {:>7.1}µs  p99 {:>7.1}µs",
            outcome.throughput_rps, outcome.latency.p50_us, outcome.latency.p95_us, outcome.latency.p99_us
        );
        server.shutdown();
        FrontendRun::new(clients, stream.len(), outcome)
    };

    let executor = Arc::new(ReloadableExecutor::new(
        engine.clone(),
        ServeConfig::default().with_threads(threads),
    ));
    let server = ScoreServer::start(Arc::clone(&executor), server_config).expect("bind score server");
    let addr = server.local_addr();
    println!();
    println!(
        "-- HTTP front-end on {addr} ({} requests, {clients} clients, {threads} executor threads) --",
        stream.len()
    );

    // Phase 1: plain socket replay, version constant.
    let progress = AtomicUsize::new(0);
    let outcome = run_socket_replay(addr, stream, clients, &expected_v1, &expected_v1, &progress);
    assert_eq!(outcome.non_2xx, 0, "front-end replay must be all-2xx");
    assert!(outcome.bit_exact, "socket scores diverged from in-process scoring");
    assert_eq!(outcome.versions, vec![1], "no reload happened yet");
    println!(
        "frontend replay: {:>10.0} req/s  p50 {:>7.1}µs  p95 {:>7.1}µs  p99 {:>7.1}µs",
        outcome.throughput_rps, outcome.latency.p50_us, outcome.latency.p95_us, outcome.latency.p99_us
    );
    let replay = FrontendRun::new(clients, stream.len(), outcome);
    let metrics_on_relative_throughput = replay.throughput_rps / replay_metrics_off.throughput_rps.max(1e-9);
    println!("frontend metrics on/off throughput ratio: {metrics_on_relative_throughput:.3}");

    // Scrape `/metrics` while the registry holds exactly the plain replay's
    // traffic, and reconcile it against what the replay itself measured.
    let metrics = scrape_and_reconcile(addr, replay.requests);

    // Phase 2: the same replay with RELOADS hot reloads fired at
    // request-count milestones while traffic is in flight.
    let progress = AtomicUsize::new(0);
    let outcome = std::thread::scope(|scope| {
        let progress = &progress;
        let total = stream.len();
        let v1 = artifact_v1_path.to_path_buf();
        let v2 = artifact_v2_path.clone();
        let controller = scope.spawn(move || {
            for k in 1..=RELOADS {
                let milestone = (k as usize * total) / (RELOADS as usize + 1);
                while progress.load(Ordering::Relaxed) < milestone {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                // Reload k produces version k+1: odd reloads promote the
                // retrained artifact (even versions), even reloads roll back.
                let path = if k % 2 == 1 { &v2 } else { &v1 };
                let body = serde::json::to_string(&ReloadBody {
                    path: path.display().to_string(),
                });
                let mut conn = TcpStream::connect(addr).expect("frontend: connect for reload");
                let response =
                    http_roundtrip(&mut conn, "POST", "/reload", Some(&body)).expect("frontend: reload round trip");
                assert_eq!(response.status, 200, "mid-replay reload {k} failed: {}", response.body);
            }
        });
        let outcome = run_socket_replay(addr, stream, clients, &expected_v1, &expected_v2, progress);
        controller.join().expect("reload controller panicked");
        outcome
    });
    assert_eq!(
        outcome.non_2xx, 0,
        "reload replay must be all-2xx (zero dropped requests)"
    );
    assert!(
        outcome.bit_exact,
        "a score did not match the artifact version it was tagged with"
    );
    assert_eq!(executor.version(), 1 + RELOADS, "every reload must have been applied");
    assert!(
        outcome.versions.iter().all(|v| (1..=1 + RELOADS).contains(v)),
        "impossible version tags: {:?}",
        outcome.versions
    );
    println!(
        "frontend reload: {:>10.0} req/s  p50 {:>7.1}µs  p95 {:>7.1}µs  p99 {:>7.1}µs  ({} reloads, versions {:?})",
        outcome.throughput_rps,
        outcome.latency.p50_us,
        outcome.latency.p95_us,
        outcome.latency.p99_us,
        RELOADS,
        outcome.versions
    );
    let reload = FrontendReload {
        clients,
        requests: stream.len(),
        reloads: RELOADS,
        versions_observed: outcome.versions,
        elapsed_secs: outcome.elapsed_secs,
        throughput_rps: outcome.throughput_rps,
        latency: outcome.latency,
        non_2xx: outcome.non_2xx,
        bit_exact_per_version: Attest(outcome.bit_exact),
    };

    let statuses = server.stats();
    assert_eq!(statuses.responses_4xx, 0, "unexpected 4xx responses: {statuses:?}");
    assert_eq!(statuses.responses_5xx, 0, "unexpected 5xx responses: {statuses:?}");
    assert_eq!(statuses.responses_429, 0, "unexpected 429 responses: {statuses:?}");
    server.shutdown();

    // The high-connection-count series gets its own server with a raised
    // connection cap.
    let connections = connection_series_bench(engine, stream, threads, &expected_v1);

    // The tracing A/B gets its own pair of servers.
    let tracing = tracing_bench(engine, stream, clients, threads, &expected_v1);

    // The chaos phase runs last, on its own server, with its own fault plan.
    let chaos = chaos_bench(engine, artifact_v1_path, stream, threads, &expected_v1);

    FrontendBench {
        threads,
        queue_capacity,
        max_batch: er_serve::server::MAX_BATCH,
        replay,
        replay_metrics_off,
        metrics_on_relative_throughput: Ratio(metrics_on_relative_throughput),
        metrics,
        connections,
        tracing,
        reload,
        chaos,
        statuses,
    }
}

/// The chaos phase: see [`ChaosBench`]. A fixed-seed [`er_serve::FaultPlan`] is
/// attached to a fresh server; a single closed-loop client replays `stream`
/// through it, retrying retryable statuses with [`er_serve::RetryPolicy`] backoff and
/// counting (it must never need to) reconnects; reload attempts are fired at
/// fixed milestones into the injected torn-read/validate failures; and a
/// parked tiny-deadline tranche proves shedding. Every attestation is
/// asserted here — the JSON flags exist so `bench_diff` can refuse a future
/// run that stops asserting them.
fn chaos_bench(
    engine: &ScoringEngine,
    artifact_v1_path: &Path,
    stream: &[ScoreRequest],
    threads: usize,
    expected_v1: &[f64],
) -> ChaosBench {
    let requests = er_bench::env_usize("SERVE_BENCH_CHAOS_REQUESTS", 300).clamp(1, stream.len());
    let stream = &stream[..requests];
    // Exact occurrence indices, fixed seed: the same faults fire at the same
    // points on every run, so the attestation counts are exact equalities.
    let fault_spec = "seed=2020; shard_worker_panic@0,40,80; batcher_panic@20,120; \
                      score_stall@60:150ms; client_write_stall@100:100ms; \
                      artifact_read_torn@0; reload_validate_fail@0"
        .to_string();
    let plan = Arc::new(er_serve::FaultPlan::parse(&fault_spec).expect("chaos fault spec parses"));
    let executor = Arc::new(ReloadableExecutor::new(
        engine.clone(),
        ServeConfig::default().with_threads(threads),
    ));
    let server = ScoreServer::start(
        Arc::clone(&executor),
        ServerConfig {
            queue_capacity: 16,
            trace_capacity: 0,
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
    )
    .expect("bind chaos score server");
    let addr = server.local_addr();
    println!();
    println!("-- HTTP front-end chaos on {addr} ({requests} requests) --");
    println!("chaos fault plan: {fault_spec}");
    // The injected panics are supervised, but the default panic hook would
    // still spray their backtraces across the bench output; keep the phase
    // readable. serve_bench is single-phase-at-a-time, so swapping the
    // process-global hook here cannot mislabel anyone else's panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        if msg.starts_with("injected ") {
            eprintln!("chaos: supervised {msg}");
        } else {
            eprintln!("chaos: unexpected panic: {msg}");
        }
    }));

    let policy = er_serve::RetryPolicy {
        max_attempts: 6,
        base_backoff_ms: 5,
        max_backoff_ms: 100,
        seed: 2020,
    };
    let mut severed = 0u64;
    let mut retried_requests = 0u64;
    let mut bit_exact = true;
    let mut versions = BTreeSet::new();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(requests);
    let mut reloads_refused = 0u64;
    let reload_body = serde::json::to_string(&ReloadBody {
        path: artifact_v1_path.display().to_string(),
    });
    let mut conn = TcpStream::connect(addr).expect("chaos: connect");
    for (i, request) in stream.iter().enumerate() {
        // Two reload attempts mid-replay: the first is torn mid-read, the
        // second fails injected validation — both must be refused while
        // traffic keeps scoring against the old version.
        if i == requests / 3 || i == (2 * requests) / 3 {
            let refused =
                http_roundtrip(&mut conn, "POST", "/reload", Some(&reload_body)).expect("chaos: reload round trip");
            assert_eq!(
                refused.status, 409,
                "a chaos reload attempt must be refused, got {}: {}",
                refused.status, refused.body
            );
            reloads_refused += 1;
        }
        let body = serde::json::to_string(request);
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            match http_roundtrip(&mut conn, "POST", "/score", Some(&body)) {
                Ok(response) if response.status == 200 => {
                    let (version, scores) = parse_score_response(&response.body).expect("chaos: malformed score body");
                    versions.insert(version);
                    if scores.len() != 1 || scores[0].to_bits() != expected_v1[i].to_bits() {
                        bit_exact = false;
                    }
                    break;
                }
                Ok(response) => {
                    // A panicked batch answers 500 on a still-healthy
                    // connection; back off and retry in place.
                    assert!(
                        matches!(response.status, 429 | 500 | 503),
                        "chaos: request {i} got unexpected status {}: {}",
                        response.status,
                        response.body
                    );
                    assert!(
                        attempt + 1 < policy.max_attempts,
                        "chaos: request {i} exhausted {} attempts on status {}",
                        policy.max_attempts,
                        response.status
                    );
                    std::thread::sleep(std::time::Duration::from_millis(policy.backoff_ms(attempt)));
                    attempt += 1;
                }
                Err(_) => {
                    // A severed connection — the thing the supervision
                    // guarantees away. Counted (the attestation requires 0)
                    // and reconnected so the replay itself can finish.
                    severed += 1;
                    assert!(
                        attempt + 1 < policy.max_attempts,
                        "chaos: request {i} exhausted {} attempts on transport errors",
                        policy.max_attempts
                    );
                    std::thread::sleep(std::time::Duration::from_millis(policy.backoff_ms(attempt)));
                    attempt += 1;
                    conn = TcpStream::connect(addr).expect("chaos: reconnect");
                }
            }
        }
        if attempt > 0 {
            retried_requests += 1;
        }
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let latency = summarize_latencies(&mut latencies_ns);

    // Deadline tranche: pause intake, admit jobs whose 5ms budget will
    // be long expired on resume, and require every one to shed with a 504.
    const DEADLINE_TRANCHE: usize = 8;
    server.pause_intake();
    let sample = serde::json::to_string(&stream[0]);
    let tranche: Vec<_> = (0..DEADLINE_TRANCHE)
        .map(|_| {
            let body = sample.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("chaos: tranche connect");
                http_roundtrip_with_headers(&mut conn, "POST", "/score", Some(&body), &[("X-Deadline-Ms", "5")])
                    .expect("chaos: tranche round trip")
            })
        })
        .collect();
    let queue_deadline = Instant::now() + std::time::Duration::from_secs(10);
    while server.queued_jobs() < DEADLINE_TRANCHE {
        assert!(
            Instant::now() < queue_deadline,
            "chaos: deadline tranche never queued ({} of {DEADLINE_TRANCHE})",
            server.queued_jobs()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Let every 5ms budget expire while parked, then resume and time the
    // shed: expired jobs are answered in O(queue), not scored.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let resumed = Instant::now();
    server.resume_intake();
    let mut deadline_504s = 0u64;
    for handle in tranche {
        let response = handle.join().expect("chaos: tranche client panicked");
        assert_eq!(
            response.status, 504,
            "an expired job must shed with 504, got {}: {}",
            response.status, response.body
        );
        deadline_504s += 1;
    }
    let shed_elapsed = resumed.elapsed();
    let deadline_shedding_bounds_p99 = shed_elapsed < std::time::Duration::from_millis(500);
    assert!(
        deadline_shedding_bounds_p99,
        "chaos: shedding {DEADLINE_TRANCHE} expired jobs took {shed_elapsed:?}"
    );

    // --- attestations -------------------------------------------------------
    let zero_severed_connections = severed == 0;
    assert!(zero_severed_connections, "chaos: {severed} connections were severed");
    assert!(bit_exact, "chaos: a score diverged from the v1 engine");
    let injected_shard_panics = plan.fired(er_serve::FaultKind::ShardWorkerPanic);
    let injected_batcher_panics = plan.fired(er_serve::FaultKind::BatcherPanic);
    assert_eq!(injected_shard_panics, 3, "shard panic injections drifted");
    assert_eq!(injected_batcher_panics, 2, "batcher panic injections drifted");
    assert!(
        retried_requests >= injected_batcher_panics,
        "every batcher panic must have forced a retry ({retried_requests} retried)"
    );
    assert_eq!(
        plan.fired(er_serve::FaultKind::ArtifactReadTorn),
        1,
        "torn-read injection drifted"
    );
    assert_eq!(
        plan.fired(er_serve::FaultKind::ReloadValidateFail),
        1,
        "validate-failure injection drifted"
    );
    assert_eq!(reloads_refused, 2);
    let old_version_served_throughout = versions.iter().all(|v| *v == 1) && executor.version() == 1;
    assert!(
        old_version_served_throughout,
        "chaos: versions {versions:?} observed, executor at {} — a refused reload leaked",
        executor.version()
    );

    let mut scrape_conn = TcpStream::connect(addr).expect("chaos: scrape connect");
    let scrape = http_roundtrip(&mut scrape_conn, "GET", "/metrics", None).expect("chaos: scrape round trip");
    assert_eq!(scrape.status, 200, "chaos scrape failed: {}", scrape.body);
    let samples = parse_exposition(&scrape.body).expect("chaos exposition parses");
    let worker_panics_total: u64 = samples
        .iter()
        .filter(|s| s.name == "er_serve_worker_panics_total")
        .map(|s| s.value as u64)
        .sum();
    let injected = injected_shard_panics + injected_batcher_panics;
    let panics_reconciled = worker_panics_total == injected && injected > 0;
    assert!(
        panics_reconciled,
        "er_serve_worker_panics_total {worker_panics_total} != {injected} injected panics"
    );
    let deadline_rejected: u64 = samples
        .iter()
        .filter(|s| {
            s.name == "er_serve_rejected_total" && s.labels.iter().any(|(k, v)| k == "cause" && v == "deadline")
        })
        .map(|s| s.value as u64)
        .sum();
    assert_eq!(
        deadline_rejected, deadline_504s,
        "rejected{{cause=\"deadline\"}} must equal the tranche's 504s"
    );
    server.shutdown();
    std::panic::set_hook(default_hook);

    println!(
        "frontend chaos: {requests} requests, 0 severed, {injected} injected panics reconciled, \
         {retried_requests} retried, {reloads_refused} reloads refused (version pinned at 1), \
         {deadline_504s} deadline 504s shed in {shed_elapsed:?}"
    );
    ChaosBench {
        fault_spec,
        requests,
        severed_connections: severed,
        zero_severed_connections: Attest(zero_severed_connections),
        retried_requests,
        injected_shard_panics,
        injected_batcher_panics,
        worker_panics_total,
        panics_reconciled: Attest(panics_reconciled),
        bit_exact_across_restarts: Attest(bit_exact),
        reloads_refused,
        old_version_served_throughout: Attest(old_version_served_throughout),
        deadline_504s,
        deadline_shedding_bounds_p99: Attest(deadline_shedding_bounds_p99),
        latency,
    }
}

/// The tracing phase: replay the identical stream against a tracing-off
/// control and a tracing-on server whose ring retains every trace, then
/// reconcile the span timelines four ways — counts (committed `/score`
/// traces == replayed requests == `er_serve_score_requests_total`), nesting
/// (every stage span ends inside its request's total), bracketing
/// (trace-total percentiles sit at or below the client-measured socket
/// percentiles) and the request-duration histogram (its percentile buckets
/// hold the trace-total percentiles) — and snapshot the Chrome trace-event
/// export.
fn tracing_bench(
    engine: &ScoringEngine,
    stream: &[ScoreRequest],
    clients: usize,
    threads: usize,
    expected: &[f64],
) -> TracingBench {
    let base_config = ServerConfig {
        queue_capacity: 16,
        ..ServerConfig::default()
    };
    let run = |label: &str, trace_capacity: usize| -> (FrontendRun, ScoreServer) {
        let executor = Arc::new(ReloadableExecutor::new(
            engine.clone(),
            ServeConfig::default().with_threads(threads),
        ));
        let server = ScoreServer::start(
            executor,
            ServerConfig {
                trace_capacity,
                ..base_config.clone()
            },
        )
        .expect("bind tracing-phase score server");
        let progress = AtomicUsize::new(0);
        let outcome = run_socket_replay(server.local_addr(), stream, clients, expected, expected, &progress);
        assert_eq!(outcome.non_2xx, 0, "tracing {label} replay must be all-2xx");
        assert!(outcome.bit_exact, "tracing {label} socket scores diverged");
        println!(
            "frontend replay (tracing {label}): {:>10.0} req/s  p50 {:>7.1}µs  p95 {:>7.1}µs  p99 {:>7.1}µs",
            outcome.throughput_rps, outcome.latency.p50_us, outcome.latency.p95_us, outcome.latency.p99_us
        );
        (FrontendRun::new(clients, stream.len(), outcome), server)
    };

    println!();
    // Control first, so the tracing-on series cannot inherit its warmup.
    let (replay_trace_off, control) = run("OFF control", 0);
    control.shutdown();

    // Retain everything: with capacity ≥ 2 × requests the ring never wraps,
    // so the reconciliations below see every request, not a survivor set.
    let trace_capacity = stream.len() * 2;
    let (replay_trace_on, server) = run("ON", trace_capacity);
    let tracing_on_relative_throughput = replay_trace_on.throughput_rps / replay_trace_off.throughput_rps.max(1e-9);
    println!("frontend tracing on/off throughput ratio: {tracing_on_relative_throughput:.3}");

    // --- reconciliation: counts --------------------------------------------
    // The server commits a trace and observes the request-duration histogram
    // after writing the response, so the replay can return before that
    // bookkeeping has run for its last requests: wait for it (bounded).
    let tracer = server.tracer().expect("tracing-on server has a tracer");
    let settle_deadline = Instant::now() + Duration::from_secs(5);
    while tracer.committed_total() < stream.len() as u64 && Instant::now() < settle_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let traces = tracer.snapshot();
    let score_traces: Vec<_> = traces
        .iter()
        .filter(|t| t.route == "/score" && t.status == 200)
        .collect();
    let committed_score_traces = score_traces.len() as u64;
    let mut conn = TcpStream::connect(server.local_addr()).expect("frontend: connect for tracing scrape");
    let scrape = http_roundtrip(&mut conn, "GET", "/metrics", None).expect("frontend: tracing scrape");
    assert_eq!(scrape.status, 200, "tracing scrape failed: {}", scrape.body);
    let samples = parse_exposition(&scrape.body).expect("tracing-phase exposition parses");
    let score_requests_total: u64 = samples
        .iter()
        .filter(|s| s.name == "er_serve_score_requests_total")
        .map(|s| s.value as u64)
        .sum();
    let span_counts_match =
        committed_score_traces == stream.len() as u64 && score_requests_total == stream.len() as u64;
    assert!(
        span_counts_match,
        "span-count reconciliation failed: {} committed /score traces, \
         er_serve_score_requests_total {}, {} replayed requests",
        committed_score_traces,
        score_requests_total,
        stream.len()
    );

    // --- reconciliation: span nesting and stage coverage -------------------
    // Offsets are rounded to whole microseconds independently, so a span's
    // end may exceed the trace's end by a hair of rounding.
    const ROUNDING_SLACK_US: u64 = 2;
    let mut spans_nest_within_totals = true;
    let mut stage_taxonomy_complete = true;
    for trace in &score_traces {
        let trace_end = trace.start_us + trace.total_us + ROUNDING_SLACK_US;
        for span in &trace.spans {
            spans_nest_within_totals &= span.start_us + span.dur_us <= trace_end && span.start_us >= trace.start_us;
        }
        for stage in [Stage::Parse, Stage::Score, Stage::Serialize, Stage::Write] {
            stage_taxonomy_complete &= trace.spans.iter().any(|s| s.stage == stage);
        }
    }
    assert!(
        spans_nest_within_totals,
        "a stage span ends outside its request's own timeline"
    );
    assert!(
        stage_taxonomy_complete,
        "a scored request is missing part of the parse/score/serialize/write taxonomy"
    );

    // --- reconciliation: totals bracket the replay -------------------------
    // The client measured request-write → response-parsed; the server's trace
    // covers parse → write inside that window, so at every percentile the
    // trace total must sit at or below the socket measurement (+wire slack).
    let mut totals_ns: Vec<u64> = score_traces.iter().map(|t| t.total_us * 1_000).collect();
    let trace_latency = summarize_latencies(&mut totals_ns);
    let slack_us = PERCENTILE_SLACK_SECS * 1e6;
    let mut totals_bracket_replay = true;
    for (label, server_us, client_us) in [
        ("p50", trace_latency.p50_us, replay_trace_on.latency.p50_us),
        ("p95", trace_latency.p95_us, replay_trace_on.latency.p95_us),
        ("p99", trace_latency.p99_us, replay_trace_on.latency.p99_us),
    ] {
        let ok = server_us <= client_us + slack_us;
        println!(
            "frontend tracing: {label} trace total {server_us:.1}µs vs socket {client_us:.1}µs — {}",
            if ok { "bracketed" } else { "DIVERGED" }
        );
        totals_bracket_replay &= ok;
    }
    assert!(
        totals_bracket_replay,
        "summed stage timelines exceed the client-measured socket latency"
    );

    // --- reconciliation: the request-duration histogram ---------------------
    // The histogram and the traces time the same requests over the same
    // server-side window, so the histogram's percentile buckets must hold
    // the trace-total percentiles. (Against the client's socket timings the
    // check would also measure client-side scheduling.)
    let histogram = extract_histogram(&samples, "er_serve_request_duration_seconds", &[("route", "/score")])
        .expect("request_duration{route=\"/score\"} histogram present and consistent");
    assert_eq!(histogram.count, stream.len() as u64, "histogram count mismatch");
    let histogram_reconciled = histogram_brackets(&histogram, &trace_latency);
    assert!(
        histogram_reconciled,
        "the request-duration histogram does not bracket the server's own trace totals"
    );

    // --- Chrome trace-event export -----------------------------------------
    let export = http_roundtrip(&mut conn, "GET", "/debug/traces", None).expect("frontend: /debug/traces round trip");
    assert_eq!(export.status, 200, "/debug/traces failed: {}", export.body);
    let doc = serde::json::parse(&export.body).unwrap_or_else(|e| panic!("/debug/traces body is not valid JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_seq())
        .expect("traceEvents array present");
    let chrome_export_parsed = !events.is_empty();
    assert!(chrome_export_parsed, "Chrome export retained no events");
    let snapshot_path =
        std::env::var("SERVE_BENCH_TRACE_SNAPSHOT").unwrap_or_else(|_| "out/trace-snapshot.json".into());
    if let Some(parent) = Path::new(&snapshot_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create trace snapshot directory");
        }
    }
    std::fs::write(&snapshot_path, &export.body).expect("write trace snapshot");
    println!(
        "frontend tracing: {} traces retained, {} Chrome events, snapshot at {snapshot_path}",
        traces.len(),
        events.len()
    );
    server.shutdown();

    TracingBench {
        trace_capacity,
        replay_trace_off,
        replay_trace_on,
        tracing_on_relative_throughput: Ratio(tracing_on_relative_throughput),
        committed_score_traces,
        span_counts_match: Attest(span_counts_match),
        spans_nest_within_totals: Attest(spans_nest_within_totals),
        stage_taxonomy_complete: Attest(stage_taxonomy_complete),
        totals_bracket_replay: Attest(totals_bracket_replay),
        trace_latency,
        histogram_reconciled: Attest(histogram_reconciled),
        chrome_export_parsed: Attest(chrome_export_parsed),
        snapshot_path,
    }
}

/// Absolute slack allowed when checking that a server-side trace-total
/// percentile sits at or below the client-measured socket percentile.
const PERCENTILE_SLACK_SECS: f64 = 500e-6;

/// Whether the server-side percentiles `server` lie inside the histogram's
/// p50/p95/p99 bucket ranges, widened by one bucket each side.
fn histogram_brackets(histogram: &ParsedHistogram, server: &LatencySummary) -> bool {
    let mut reconciled = true;
    for (q, measured_us) in [(0.50, server.p50_us), (0.95, server.p95_us), (0.99, server.p99_us)] {
        let (lo, hi) = histogram.quantile_bounds(q, 1).expect("non-empty histogram");
        let ok = (lo..=hi).contains(&(measured_us * 1e-6));
        println!(
            "frontend tracing: p{:.0} histogram bucket [{:.1}µs, {:.1}µs] vs trace total {measured_us:.1}µs — {}",
            q * 100.0,
            lo * 1e6,
            hi * 1e6,
            if ok { "reconciled" } else { "DIVERGED" }
        );
        reconciled &= ok;
    }
    reconciled
}

/// Scrapes `GET /metrics`, writes the raw exposition to
/// `SERVE_BENCH_METRICS_SNAPSHOT` (default `out/metrics-snapshot.prom`) for
/// the smoke tiers, and asserts that `er_serve_score_requests_total` counts
/// the `requests` the replay sent.
fn scrape_and_reconcile(addr: SocketAddr, requests: usize) -> FrontendMetrics {
    let mut conn = TcpStream::connect(addr).expect("frontend: connect for /metrics");
    let response = http_roundtrip(&mut conn, "GET", "/metrics", None).expect("frontend: scrape round trip");
    assert_eq!(response.status, 200, "scrape failed: {}", response.body);
    let snapshot_path =
        std::env::var("SERVE_BENCH_METRICS_SNAPSHOT").unwrap_or_else(|_| "out/metrics-snapshot.prom".into());
    if let Some(parent) = Path::new(&snapshot_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create snapshot directory");
        }
    }
    std::fs::write(&snapshot_path, &response.body).expect("write metrics snapshot");

    let samples = parse_exposition(&response.body)
        .unwrap_or_else(|e| panic!("scraped exposition does not parse: {e}\n{}", response.body));
    let score_requests_total: u64 = samples
        .iter()
        .filter(|s| s.name == "er_serve_score_requests_total")
        .map(|s| s.value as u64)
        .sum();
    let reconciles_with_replay = score_requests_total == requests as u64;
    assert!(
        reconciles_with_replay,
        "er_serve_score_requests_total {score_requests_total} != replayed requests {requests}"
    );
    println!(
        "frontend scrape: exposition parsed ({} samples), score_requests_total {score_requests_total} reconciled, snapshot at {snapshot_path}",
        samples.len()
    );
    FrontendMetrics {
        snapshot_path,
        scrape_parsed: Attest(true),
        score_requests_total,
        reconciles_with_replay: Attest(reconciles_with_replay),
    }
}

/// The high-connection-count series against one `er-serve` front-end: see
/// [`ConnectionBench`] and [`connection_series`].
fn connection_series_bench(
    engine: &ScoringEngine,
    stream: &[ScoreRequest],
    threads: usize,
    expected_v1: &[f64],
) -> ConnectionBench {
    let (series, max_connections) = connection_series_sizes();
    let server = connection_series_server(engine, threads, max_connections);
    let addr = server.local_addr();
    println!();
    println!("-- HTTP front-end connection series on {addr} (cap {max_connections}) --");
    let series = connection_series("frontend", addr, &series, stream, expected_v1);
    server.shutdown();
    ConnectionBench {
        max_connections,
        series,
    }
}

/// The same series through a [`GatewayServer`] in front of one in-process
/// `er-serve`: the gateway's single readiness loop must hold every
/// connection too. `max_connections` is the backend's cap.
fn gateway_connection_series_bench(
    engine: &ScoringEngine,
    stream: &[ScoreRequest],
    expected: &[f64],
) -> ConnectionBench {
    let (series, max_connections) = connection_series_sizes();
    let backend = connection_series_server(engine, 1, max_connections);
    let gateway = GatewayServer::start(GatewayConfig {
        backends: vec![backend.local_addr()],
        ..GatewayConfig::default()
    })
    .expect("start connection-series gateway");
    let addr = gateway.local_addr();
    println!("-- gateway connection series on {addr} (backend cap {max_connections}) --");
    let series = connection_series("gateway", addr, &series, stream, expected);
    gateway.shutdown();
    backend.shutdown();
    ConnectionBench {
        max_connections,
        series,
    }
}

/// The series' connection counts (`SERVE_BENCH_CONNECTIONS`, default
/// 256 and 1024) and the connection cap a server needs to hold the largest.
fn connection_series_sizes() -> (Vec<usize>, usize) {
    let series: Vec<usize> = std::env::var("SERVE_BENCH_CONNECTIONS")
        .unwrap_or_else(|_| "256,1024".into())
        .split(',')
        .filter_map(|n| n.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    let max_connections = series.iter().copied().max().unwrap_or(0) + 64;
    (series, max_connections)
}

fn connection_series_server(engine: &ScoringEngine, threads: usize, max_connections: usize) -> ScoreServer {
    let executor = Arc::new(ReloadableExecutor::new(
        engine.clone(),
        ServeConfig::default().with_threads(threads),
    ));
    ScoreServer::start(
        executor,
        ServerConfig {
            max_connections,
            trace_capacity: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind connection-series score server")
}

/// Drives the series against `addr`. Each entry opens `n` keep-alive
/// connections (probing accept-to-first-byte on the way in), holds them
/// idle while a stripe of them serves `/score` traffic, then sweeps every
/// connection with a final probe. Any transport error or non-2xx anywhere
/// in an entry fails the bench outright.
fn connection_series(
    label: &str,
    addr: SocketAddr,
    series: &[usize],
    stream: &[ScoreRequest],
    expected: &[f64],
) -> Series<ConnectionSeriesEntry> {
    let score_requests = er_bench::env_usize("SERVE_BENCH_CONNECTION_SCORES", 64).clamp(1, stream.len());
    let mut entries = Series(Vec::with_capacity(series.len()));
    for &n in series {
        // Open n keep-alive connections, timing connect() → first response
        // byte of an immediate /healthz probe on each (peek leaves the byte
        // for the normal response reader).
        let mut conns: Vec<TcpStream> = Vec::with_capacity(n);
        let mut accept_ns: Vec<u64> = Vec::with_capacity(n);
        let mut all_2xx = true;
        let probe = b"GET /healthz HTTP/1.1\r\nHost: er-serve\r\nContent-Length: 0\r\n\r\n";
        for i in 0..n {
            use std::io::Write as _;
            let t0 = Instant::now();
            let mut conn = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("connections[{n}]: connect {i} failed under load: {e}"));
            conn.write_all(probe)
                .unwrap_or_else(|e| panic!("connections[{n}]: probe write {i} failed: {e}"));
            let mut first = [0u8; 1];
            let got = conn
                .peek(&mut first)
                .unwrap_or_else(|e| panic!("connections[{n}]: probe peek {i} failed: {e}"));
            assert_eq!(got, 1, "connections[{n}]: probe {i} saw EOF before the response");
            accept_ns.push(t0.elapsed().as_nanos() as u64);
            let response =
                read_http_response(&mut conn).unwrap_or_else(|e| panic!("connections[{n}]: probe read {i}: {e}"));
            all_2xx &= response.status == 200;
            conns.push(conn);
        }

        // With the whole set parked, drive /score round trips across a
        // stripe of the connections (every stride-th one), bit-comparing
        // each response. The rest stay idle — the regime under test.
        let stride = (n / score_requests).max(1);
        let mut score_ns: Vec<u64> = Vec::with_capacity(score_requests);
        let mut bit_exact = true;
        for (k, request) in stream[..score_requests].iter().enumerate() {
            let conn = &mut conns[(k * stride) % n];
            let body = serde::json::to_string(request);
            let t0 = Instant::now();
            let response = http_roundtrip(conn, "POST", "/score", Some(&body))
                .unwrap_or_else(|e| panic!("connections[{n}]: score {k} severed: {e}"));
            score_ns.push(t0.elapsed().as_nanos() as u64);
            all_2xx &= response.status == 200;
            if response.status == 200 {
                let (_, scores) = parse_score_response(&response.body).expect("connections: malformed score body");
                bit_exact &= scores.len() == 1 && scores[0].to_bits() == expected[k].to_bits();
            }
        }

        // Closing sweep: every single connection must still answer — the
        // loop held all n alive through the entry, none severed.
        let mut severed = 0u64;
        for (i, conn) in conns.iter_mut().enumerate() {
            match http_roundtrip(conn, "GET", "/healthz", None) {
                Ok(response) => all_2xx &= response.status == 200,
                Err(e) => {
                    severed += 1;
                    eprintln!("connections[{n}]: sweep {i} severed: {e}");
                }
            }
        }
        assert_eq!(severed, 0, "connections[{n}]: {severed} connections severed");
        assert!(all_2xx, "connections[{n}]: non-2xx response in the series");
        assert!(bit_exact, "connections[{n}]: score drifted under connection load");
        let accept_to_first_byte = summarize_latencies(&mut accept_ns);
        let score_latency = summarize_latencies(&mut score_ns);
        println!(
            "{label} connections[{n}]: accept→first-byte p50 {:>7.1}µs p95 {:>7.1}µs p99 {:>7.1}µs  \
             {score_requests} scores p99 {:>7.1}µs  swept {n}, 0 severed",
            accept_to_first_byte.p50_us, accept_to_first_byte.p95_us, accept_to_first_byte.p99_us, score_latency.p99_us,
        );
        let entry = ConnectionSeriesEntry {
            connections: n,
            accept_to_first_byte: accept_to_first_byte.into(),
            score_requests,
            score_latency,
            all_2xx: Attest(all_2xx),
            zero_severed: Attest(severed == 0),
            bit_exact: Attest(bit_exact),
        };
        entries.0.push((format!("connections={n}"), entry));
    }
    entries
}

// ---------------------------------------------------------------------------
// Multi-process gateway phase
// ---------------------------------------------------------------------------

/// One spawned `er-serve` backend process; killed on drop.
struct BackendProcess {
    child: std::process::Child,
    addr: SocketAddr,
}

impl Drop for BackendProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `er-serve` binary next to this benchmark's own executable (both land
/// in the same cargo target directory when the workspace binaries are
/// built).
fn er_serve_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let mut candidates = vec![dir.join("er-serve")];
    if let Some(parent) = dir.parent() {
        candidates.push(parent.join("er-serve"));
    }
    candidates.into_iter().find(|c| c.is_file())
}

/// Spawns one backend process serving `artifact` on an ephemeral port and
/// scrapes its `LISTENING <addr>` banner for the bound address.
fn spawn_backend(binary: &Path, artifact: &Path, fault_plan: Option<&str>) -> BackendProcess {
    use std::io::BufRead;
    let mut command = std::process::Command::new(binary);
    command
        .arg("--artifact")
        .arg(artifact)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--threads")
        .arg("1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .env_remove("ER_FAULT_PLAN");
    if let Some(plan) = fault_plan {
        command.env("ER_FAULT_PLAN", plan);
    }
    let mut child = command
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", binary.display()));
    let stdout = child.stdout.take().expect("piped backend stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read backend banner");
    let addr: SocketAddr = banner
        .strip_prefix("LISTENING ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected backend banner: {banner:?}"));
    // Keep draining the pipe so a chatty backend can never block on it.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    BackendProcess { child, addr }
}

fn gateway_config(backends: &[BackendProcess], baseline: &Path) -> GatewayConfig {
    GatewayConfig {
        backends: backends.iter().map(|b| b.addr).collect(),
        baseline_artifact: baseline.display().to_string(),
        hedge_after: None,
        health_interval: Duration::from_millis(200),
        connect_timeout: Duration::from_secs(2),
        upstream_timeout: Duration::from_secs(10),
        ..GatewayConfig::default()
    }
}

/// The multi-process gateway phase: spawns real `er-serve` child processes
/// and routes through an in-process [`GatewayServer`] (the gateway *binary*
/// is the same library entry; `scripts/kick-tires.sh` exercises it as a
/// separate process). Three sub-phases, each on fresh backends:
///
/// 1. **Scaling series** — the identical closed-loop replay against 1 and 2
///    backends; aggregate throughput must scale with backend count.
/// 2. **Hedging** — one backend stalls every score via `ER_FAULT_PLAN`;
///    requests aimed at it must be won by the hedge, bit-exactly.
/// 3. **Connection series** — the front-end's high-connection-count series
///    through a gateway in front of an in-process backend.
///
/// The canary promotion and rollback cycles are workspace tests
/// (`er-gateway/tests/gateway_integration.rs`).
fn gateway_bench(
    engine: &ScoringEngine,
    artifact_v1_path: &Path,
    stream: &[ScoreRequest],
    clients: usize,
) -> Option<GatewayBench> {
    let Some(binary) = er_serve_binary() else {
        println!();
        println!(
            "gateway phase SKIPPED: er-serve binary not found next to this executable \
             (build it with `cargo build --release -p er-serve` first)"
        );
        return None;
    };
    let expected = engine.score_batch(stream);
    println!();
    println!(
        "-- gateway phase ({} requests, {clients} clients, backend binary {}) --",
        stream.len(),
        binary.display()
    );

    // Phase 1: scaling series.
    let mut series = Series(Vec::new());
    for n in [1usize, 2] {
        let backends: Vec<BackendProcess> = (0..n).map(|_| spawn_backend(&binary, artifact_v1_path, None)).collect();
        let gateway = GatewayServer::start(gateway_config(&backends, artifact_v1_path)).expect("start gateway");
        let progress = AtomicUsize::new(0);
        let outcome = run_socket_replay(gateway.local_addr(), stream, clients, &expected, &expected, &progress);
        assert_eq!(
            outcome.non_2xx, 0,
            "gateway scaling replay ({n} backends) must be all-2xx"
        );
        assert!(
            outcome.bit_exact,
            "gateway relay diverged from in-process scoring ({n} backends)"
        );
        println!(
            "gateway series[{n} backend{}]: {:>10.0} req/s  p50 {:>7.1}µs  p99 {:>7.1}µs",
            if n == 1 { "" } else { "s" },
            outcome.throughput_rps,
            outcome.latency.p50_us,
            outcome.latency.p99_us
        );
        let entry = GatewayScalingEntry {
            backends: n,
            requests: stream.len(),
            clients,
            elapsed_secs: outcome.elapsed_secs,
            throughput_rps: outcome.throughput_rps,
            latency: outcome.latency,
            non_2xx: outcome.non_2xx,
            all_2xx: Attest(outcome.non_2xx == 0),
            bit_exact: Attest(outcome.bit_exact),
        };
        series.0.push((format!("backends={n}"), entry));
        gateway.shutdown();
    }
    let scaling_2x = series.0[1].1.throughput_rps / series.0[0].1.throughput_rps.max(1e-9);
    println!("gateway scaling 2 backends / 1 backend: {scaling_2x:.2}x");

    // Phase 2: hedging against an injected straggler. Backend 1 stalls its
    // first 16 scores; requests whose ring primary is backend 1 must be
    // answered by the hedge to backend 0 instead.
    let hedging = {
        let fault_spec = "seed=7; score_stall@0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15:300ms".to_string();
        let hedge_after_ms = 25u64;
        let backends = vec![
            spawn_backend(&binary, artifact_v1_path, None),
            spawn_backend(&binary, artifact_v1_path, Some(&fault_spec)),
        ];
        let mut config = gateway_config(&backends, artifact_v1_path);
        config.hedge_after = Some(Duration::from_millis(hedge_after_ms));
        let gateway = GatewayServer::start(config).expect("start hedging gateway");
        let ring = HashRing::new(2, GatewayConfig::default().vnodes);
        let stalled: Vec<usize> = (0..stream.len())
            .filter(|&i| ring.route(stream[i].pair_id, |_| true) == Some(1))
            .take(8)
            .collect();
        assert!(
            !stalled.is_empty(),
            "no request in the stream routes to the stalled backend"
        );
        let mut conn = TcpStream::connect(gateway.local_addr()).expect("gateway: hedging connect");
        let mut all_2xx = true;
        let mut bit_exact = true;
        for &i in &stalled {
            let body = serde::json::to_string(&stream[i]);
            let response =
                http_roundtrip(&mut conn, "POST", "/score", Some(&body)).expect("gateway: hedged request severed");
            all_2xx &= response.status == 200;
            if response.status == 200 {
                let (_, scores) = parse_score_response(&response.body).expect("gateway: malformed hedged body");
                bit_exact &= scores.len() == 1 && scores[0].to_bits() == expected[i].to_bits();
            }
        }
        let stats = gateway.stats();
        let hedge_fired = stats.hedges_won >= 1;
        assert!(all_2xx, "a hedged request failed");
        assert!(bit_exact, "a hedged score diverged");
        assert!(
            hedge_fired,
            "no hedge won against a backend stalling every score: {stats:?}"
        );
        println!(
            "gateway hedging: {} stalled requests, {} hedges launched, {} won",
            stalled.len(),
            stats.hedges_launched,
            stats.hedges_won
        );
        GatewayHedging {
            fault_spec,
            hedge_after_ms,
            requests: stalled.len(),
            hedges_launched: stats.hedges_launched,
            hedges_won: stats.hedges_won,
            hedge_fired: Attest(hedge_fired),
            all_2xx: Attest(all_2xx),
            bit_exact: Attest(bit_exact),
        }
    };

    let connections = gateway_connection_series_bench(engine, stream, &expected);

    Some(GatewayBench {
        multi_process: Attest(true),
        backend_binary: binary.display().to_string(),
        series,
        scaling_2x: Ratio(scaling_2x),
        hedging,
        connections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_serve::MetricsRegistry;

    /// The `/score` request-duration histogram a server would expose after
    /// observing `seconds`, read back through the exposition.
    fn scraped_histogram(seconds: impl Iterator<Item = f64>) -> ParsedHistogram {
        let registry = MetricsRegistry::new();
        let histogram = registry.request_duration.with(&[("route", "/score")]);
        for s in seconds {
            histogram.observe(s);
        }
        let samples = parse_exposition(&registry.render()).expect("exposition parses");
        extract_histogram(&samples, "er_serve_request_duration_seconds", &[("route", "/score")]).expect("histogram")
    }

    #[test]
    fn histogram_brackets_its_own_trace_totals_but_not_four_times_them() {
        // Trace totals of 80–275 µs, as whole microseconds.
        let totals_us: Vec<u64> = (0..400).map(|i| 80 + (i % 40) * 5).collect();
        let trace_latency = summarize_latencies(&mut totals_us.iter().map(|us| us * 1_000).collect::<Vec<_>>());
        let observed = |scale: f64| scraped_histogram(totals_us.iter().map(move |&us| us as f64 * 1e-6 * scale));
        assert!(histogram_brackets(&observed(1.0), &trace_latency));
        assert!(!histogram_brackets(&observed(4.0), &trace_latency));
    }
}
