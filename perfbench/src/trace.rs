//! The traced run: a per-layer budget measured from outside the program.
//!
//! One fixed prefix of the workload's request stream is replayed through
//! each layer in turn, cumulatively: the engine, the executor with its cache
//! off and on, an in-process `ScoreServer`, the `er-serve` child and an
//! `er-gateway` child in front of it. A span is recorded around every call;
//! a layer's self time is its median minus the median of the layer below.
//! The spans are written out as Chrome trace-event JSON beside the
//! backend's own `/debug/traces`. The workload's main phase then runs with
//! the backend's `/metrics` and `/proc` counters read before and after it.

use crate::fleet::{self, metric_sum, Child};
use crate::loadgen::{self, Conn};
use crate::setup::{self, Model};
use crate::{judge, reload_body, rerank_rounds, rung, stats, zipf_indices, Args, Fleet, Run, Wires, RERANK_BATCH};
use er_serve::{ModelArtifact, ReloadableExecutor, ScoreServer, ServeConfig, ServerConfig, ShardedExecutor};
use std::io;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The layers, bottom first, as they appear in metric names.
const LAYERS: [&str; 6] = [
    "engine",
    "executor_cold",
    "executor_cached",
    "server_in_process",
    "er_serve_child",
    "er_gateway_child",
];
/// Requests of the Zipf stream replayed through every layer.
const REPLAY_REQUESTS: usize = 1600;
/// Passes the replay is split into, each followed by a stretch of the light
/// rung (on the re-rank workload, passes over the whole pool).
const REPLAY_PASSES: usize = 8;
/// How far the layer self times of `zipf-direct` may sum from its
/// end-to-end `p50_us.light`, as a share of it. Both are medians of single
/// requests that find the server idle, taken in alternating stretches, but
/// on a host whose speed drifts from one stretch to the next.
pub const BUDGET_TOLERANCE: f64 = 0.2;
/// Reloads timed in-process.
const RELOADS: usize = 10;
/// Fewest re-rank rounds in a traced run: enough arrays for one window of
/// the p99.
const TRACED_ROUNDS: usize = 40;

/// One span: `name` on lane `tid`, for request `req` of that lane.
struct Span {
    name: &'static str,
    tid: usize,
    req: usize,
    start_ns: u64,
    dur_ns: u64,
}

/// The benchmark's span recorder: spans in memory, written out at the end.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result.
    fn span<T>(&mut self, name: &'static str, tid: usize, req: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            tid,
            req,
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        });
        out
    }

    /// Records a span measured elsewhere (a socket round trip timed by the
    /// load generator), ending `end_ns` after `since`.
    fn record(&mut self, name: &'static str, tid: usize, req: usize, since: Instant, start_ns: u64, dur_ns: u64) {
        let base = (since - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            tid,
            req,
            start_ns: base + start_ns,
            dur_ns,
        });
    }

    /// Durations (ns) of the spans named `name`, in record order.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    fn chrome(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"req\": {}}}}}",
                    s.name,
                    s.tid,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.req
                )
            })
            .collect();
        format!(
            "{{\"traceEvents\": [{}], \"displayTimeUnit\": \"ns\"}}\n",
            events.join(",\n")
        )
    }
}

/// The replayed requests (pool ranges and their prebuilt wire index), in
/// passes. On the re-rank workload every pass is the whole pool on a fresh
/// cache, as after a reload; on the Zipf workload the passes are
/// consecutive stretches of one stream on a warm cache.
struct Replay {
    requests: Vec<(Range<usize>, usize)>,
    pass_len: usize,
    fresh_cache: bool,
    /// How the socket layers are replayed so that each is timed like the
    /// end-to-end number it is held against: paced at this many requests
    /// per second, so that every request finds the server idle as on the
    /// light rung, or (`None`) back to back, as the re-rank rounds run.
    pace_rps: Option<f64>,
}

impl Replay {
    fn new(args: &Args, model: &Model, wires: &Wires) -> Self {
        if args.workload.name == "rerank-after-reload" {
            let pass: Vec<(Range<usize>, usize)> = (0..wires.batches)
                .map(|k| (wires.pairs[wires.batch(k)].clone(), wires.batch(k)))
                .collect();
            let requests = pass.iter().cloned().cycle().take(pass.len() * REPLAY_PASSES).collect();
            Replay {
                requests,
                pass_len: pass.len(),
                fresh_cache: true,
                pace_rps: None,
            }
        } else {
            let requests: Vec<(Range<usize>, usize)> = zipf_indices(model, args.seed, REPLAY_REQUESTS)
                .into_iter()
                .map(|i| (i..i + 1, i))
                .collect();
            Replay {
                pass_len: requests.len() / REPLAY_PASSES,
                requests,
                fresh_cache: false,
                pace_rps: Some(crate::LADDER_RPS[0]),
            }
        }
    }
}

/// Replays through the in-process layers; returns per-pair engine times.
fn in_process_layers(model: &Model, replay: &Replay, rec: &mut Recorder) -> Vec<f64> {
    let engine = &model.engines[0];
    let config = ServeConfig::default();
    let mut scratch = engine.scratch();
    let mut per_pair = Vec::new();
    for (req, (range, _)) in replay.requests.iter().enumerate() {
        let pairs = &model.pool[range.clone()];
        rec.span(LAYERS[0], 0, req, || {
            for pair in pairs {
                std::hint::black_box(engine.score_request(pair, &mut scratch));
            }
        });
        for pair in pairs {
            let t = Instant::now();
            std::hint::black_box(engine.score_request(pair, &mut scratch));
            per_pair.push(t.elapsed().as_nanos() as f64);
        }
    }
    let cold = ShardedExecutor::new(engine.clone(), config.with_cache_capacity(0));
    for (req, (range, _)) in replay.requests.iter().enumerate() {
        let pairs = &model.pool[range.clone()];
        rec.span(LAYERS[1], 1, req, || std::hint::black_box(cold.try_score_batch(pairs)))
            .expect("pool pairs score");
    }
    let mut cached = ShardedExecutor::new(engine.clone(), config);
    for (req, (range, _)) in replay.requests.iter().enumerate() {
        if replay.fresh_cache && req % replay.pass_len == 0 {
            cached = ShardedExecutor::new(engine.clone(), config);
        }
        let pairs = &model.pool[range.clone()];
        rec.span(LAYERS[2], 2, req, || {
            std::hint::black_box(cached.try_score_batch(pairs))
        })
        .expect("pool pairs score");
    }
    per_pair
}

/// Replays one pass through one socket layer over one connection, paced or
/// back to back (see [`Replay::pace_rps`]). Returns how many requests
/// failed.
#[allow(clippy::too_many_arguments)]
fn socket_pass(
    layer: usize,
    addr: std::net::SocketAddr,
    pass: usize,
    chunk: &[(Range<usize>, usize)],
    pace_rps: Option<f64>,
    model: &Model,
    wires: &Wires,
    rec: &mut Recorder,
) -> io::Result<usize> {
    let mut conns = [Conn::connect(addr)?];
    let items = match pace_rps {
        Some(rate) => loadgen::open_loop(&stats::uniform_schedule(rate, chunk.len() as f64 / rate), 1, |i| {
            chunk[i].1
        }),
        None => loadgen::closed_loop(chunk.len(), 1, |i| chunk[i].1),
    };
    let since = Instant::now();
    let phase = loadgen::drive(&mut conns, &items, &wires.bytes, |i, status, body| {
        judge(model, &chunk[i].0, status, body)
    })?;
    // Span starts: the due time when paced; back to back, each request
    // starts when the one before it ends.
    let mut start = 0;
    for (i, (item, &ns)) in items.iter().zip(&phase.latency_ns).enumerate() {
        let begin = item.due_ns.unwrap_or(start);
        rec.record(LAYERS[layer], layer, pass * chunk.len() + i, since, begin, ns);
        start = begin + ns;
    }
    Ok(phase.failed())
}

/// The backend's counters, read before and after the workload's main phase.
struct Counters {
    cpu_us: f64,
    ctx: f64,
    batches: f64,
    batched: f64,
    rejected: [f64; 4],
}

const CAUSES: [&str; 4] = ["queue_full", "rate_limited", "deadline", "overloaded"];

fn read_counters(backend: &Child) -> io::Result<Counters> {
    let samples = backend.metrics()?;
    Ok(Counters {
        cpu_us: backend.cpu_us()?,
        ctx: backend.context_switches()? as f64,
        batches: metric_sum(&samples, "er_serve_batches_total", &[]),
        batched: metric_sum(&samples, "er_serve_batched_requests_total", &[]),
        rejected: CAUSES.map(|cause| metric_sum(&samples, "er_serve_rejected_total", &[("cause", cause)])),
    })
}

/// Hit and miss counts of the backend's current version.
fn cache_counts(backend: &Child) -> io::Result<(f64, f64)> {
    let samples = backend.metrics()?;
    let label = (metric_sum(&samples, "er_serve_model_version", &[]) as u64).to_string();
    Ok((
        metric_sum(&samples, "er_serve_cache_hits_total", &[("version", &label)]),
        metric_sum(&samples, "er_serve_cache_misses_total", &[("version", &label)]),
    ))
}

/// The gateway's CPU time and `/gateway/stats`, read around the replay.
struct GatewayCounters {
    cpu_us: f64,
    stats: serde::Value,
}

impl GatewayCounters {
    fn read(gateway: &Child) -> io::Result<Self> {
        Ok(Self {
            cpu_us: gateway.cpu_us()?,
            stats: gateway.gateway_stats()?,
        })
    }

    fn count(&self, key: &str) -> f64 {
        self.stats
            .get(key)
            .and_then(|v| serde::from_value::<u64>(v).ok())
            .unwrap_or(0) as f64
    }

    fn served(&self) -> Vec<f64> {
        self.stats
            .get("served_by_backend")
            .and_then(|v| serde::from_value::<Vec<u64>>(v).ok())
            .unwrap_or_default()
            .into_iter()
            .map(|n| n as f64)
            .collect()
    }
}

/// Gateway rows from counters taken around `requests` relayed requests, and
/// the reconciliation: the gateway served exactly the requests relayed
/// (hedge duplicates are counted apart, as `gateway.hedges_launched`).
fn gateway_rows(
    before: &GatewayCounters,
    after: &GatewayCounters,
    requests: usize,
    run: &mut Run,
    out: &mut Vec<(String, f64, &'static str)>,
) {
    let delta = |key: &str| after.count(key) - before.count(key);
    let launched = delta("hedges_launched");
    let per_backend: Vec<f64> = after.served().iter().zip(before.served()).map(|(a, b)| a - b).collect();
    let served: f64 = per_backend.iter().sum();
    if served as usize != requests {
        run.problems.push(format!(
            "gateway served_by_backend grew by {served}, benchmark relayed {requests}"
        ));
    }
    let mean = served / per_backend.len().max(1) as f64;
    let max = per_backend.iter().copied().fold(0.0, f64::max);
    out.push((
        "gateway.cpu_us_per_req".into(),
        (after.cpu_us - before.cpu_us) / requests.max(1) as f64,
        "us",
    ));
    out.push((
        "gateway.hedge_win_ratio".into(),
        if launched > 0.0 {
            delta("hedges_won") / launched
        } else {
            0.0
        },
        "ratio",
    ));
    out.push(("gateway.hedges_launched".into(), launched, "count"));
    out.push(("gateway.upstream_errors".into(), delta("upstream_errors"), "count"));
    out.push((
        "gateway.backend_skew".into(),
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    ));
}

pub fn per_layer(args: &Args) -> io::Result<bool> {
    let w = args.workload;
    let dir = args.out.join(format!("artifacts-{}-{}", w.name, std::process::id()));
    let t = Instant::now();
    let model = setup::train(setup::TRAIN_SEED, &dir)?;
    let spawn = Instant::now();
    let fleet = Fleet::spawn(args, &model)?;
    let spawn_s = spawn.elapsed().as_secs_f64();
    println!("setup: {:.3} s", t.elapsed().as_secs_f64());
    let wires = Wires::new(&model);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let mut conns = (0..nproc)
        .map(|_| Conn::connect(fleet.backend.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut run = Run {
        phases: Vec::new(),
        artifact: 0,
        problems: Vec::new(),
    };
    crate::verify_before_timing(&fleet, &mut conns, &model, &wires, &mut run)?;
    let mut rec = Recorder::new();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let timings = model.timings;
    for (name, value) in [
        ("setup.generate_s", timings.generate_s),
        ("setup.pipeline_s", timings.pipeline_s),
        ("setup.rulegen_s", timings.rulegen_s),
        ("setup.risk_train_s", timings.risk_train_s),
        ("setup.artifact_s", timings.artifact_s),
        ("setup.spawn_s", spawn_s),
    ] {
        metrics.push((name.into(), value, "s"));
    }

    // 1–3: the in-process layers.
    let replay = Replay::new(args, &model, &wires);
    let per_pair = in_process_layers(&model, &replay, &mut rec);
    let engine_ns = stats::summarize(&per_pair);
    let components: usize = replay
        .requests
        .iter()
        .flat_map(|(range, _)| &model.pool[range.clone()])
        .map(|pair| model.engines[0].index().matching_rules(&pair.metric_row).len())
        .sum();
    let pairs_replayed: usize = replay.requests.iter().map(|(r, _)| r.len()).sum();
    let cached_one: Vec<f64> = {
        let executor = ShardedExecutor::new(model.engines[0].clone(), ServeConfig::default());
        let mut scratch = model.engines[0].scratch();
        replay
            .requests
            .iter()
            .flat_map(|(range, _)| range.clone())
            .map(|i| {
                let t = Instant::now();
                std::hint::black_box(executor.score_one(&model.pool[i], &mut scratch));
                t.elapsed().as_nanos() as f64
            })
            .collect()
    };
    let cold_per_pair: Vec<f64> = {
        let executor = ShardedExecutor::new(model.engines[0].clone(), ServeConfig::default().with_cache_capacity(0));
        (0..5)
            .flat_map(|_| model.pool.chunks(RERANK_BATCH))
            .map(|batch| {
                let t = Instant::now();
                std::hint::black_box(executor.try_score_batch(batch)).expect("pool pairs score");
                t.elapsed().as_nanos() as f64 / batch.len() as f64
            })
            .collect()
    };

    // 4–6, interleaved with the light rung: an in-process ScoreServer with
    // the child's configuration, the er-serve child, and an er-gateway child
    // in front of it. Each pass of the replay goes through every socket
    // layer and is followed by a stretch of the light rung without and then
    // with a span per request, so the layer medians, the end-to-end median
    // and the tracing overhead are all taken under the same drift of the
    // host.
    let in_process = ScoreServer::start(
        Arc::new(ReloadableExecutor::new(
            model.engines[0].clone(),
            ServeConfig::default(),
        )),
        ServerConfig::default(),
    )?;
    let in_process_addr = in_process.local_addr();
    let gateway = Child::gateway(&args.gateway_bin, &fleet.backend, &model.artifacts[0])?;
    gateway.wait_healthy()?;
    let gateway_before = GatewayCounters::read(&gateway)?;
    let stream = zipf_indices(&model, args.seed ^ 0x5eed, 20_000);
    let mut cursor = 0;
    let rate = crate::LADDER_RPS[0];
    let light_s = w.light_share * args.seconds / REPLAY_PASSES as f64;
    let (mut untraced_us, mut traced_us, mut traced_lag) = (Vec::new(), Vec::new(), Vec::new());
    let mut light = stats::Rung {
        rate,
        planned: 0,
        succeeded: 0,
        failed: 0,
        latency_us: 0.0,
        achieved_rps: f64::INFINITY,
    };
    let mut in_process_artifact = 0;
    let mut failed = 0;
    for (pass, chunk) in replay.requests.chunks(replay.pass_len).enumerate() {
        if replay.fresh_cache && pass > 0 {
            in_process_artifact = 1 - in_process_artifact;
            fleet::call(
                in_process_addr,
                "POST",
                "/reload",
                Some(&reload_body(&model, in_process_artifact)),
            )?;
        }
        let pace = replay.pace_rps;
        failed += socket_pass(3, in_process_addr, pass, chunk, pace, &model, &wires, &mut rec)?;
        for (layer, addr) in [(4, fleet.backend.addr), (5, gateway.addr)] {
            if replay.fresh_cache {
                run.artifact = 1 - run.artifact;
                fleet.reload(&model, run.artifact)?;
            }
            failed += socket_pass(layer, addr, pass, chunk, pace, &model, &wires, &mut rec)?;
        }
        let (r, untraced) = rung(
            &format!("light-{pass}"),
            &mut conns,
            &model,
            &wires,
            &stream,
            &mut cursor,
            rate,
            light_s,
            &mut run,
        )?;
        untraced_us.extend(untraced.latency_us());
        light.planned += r.planned;
        light.succeeded += r.succeeded;
        light.failed += r.failed;
        light.achieved_rps = light.achieved_rps.min(r.achieved_rps);
        let since = Instant::now();
        let (_, traced) = rung(
            &format!("light-traced-{pass}"),
            &mut conns,
            &model,
            &wires,
            &stream,
            &mut cursor,
            rate,
            light_s,
            &mut run,
        )?;
        for (i, &ns) in traced.latency_ns.iter().enumerate() {
            rec.record("light_request", 7, i, since, (i as f64 * 1e9 / rate) as u64, ns);
        }
        traced_us.extend(traced.latency_us());
        traced_lag.extend(traced.lag_ns.iter().map(|&ns| ns as f64 / 1e3));
    }
    let gateway_after = GatewayCounters::read(&gateway)?;
    drop(gateway);
    drop(in_process);
    light.latency_us = stats::windowed_percentile(&untraced_us, crate::LIMIT_P).unwrap_or(f64::INFINITY);
    let sustained_rps = crate::climb(light, &mut conns, &model, &wires, &stream, &mut cursor, &mut run)?;
    metrics.push(("e2e.sustained_rps".into(), sustained_rps, "1/s"));
    if failed > 0 {
        run.problems
            .push(format!("{failed} replayed requests failed or were not bit-exact"));
    }

    let cumulative: Vec<f64> = LAYERS.iter().map(|l| stats::median(&rec.durations(l)) / 1e3).collect();
    let own = stats::self_times(&cumulative);
    for (layer, value) in LAYERS.iter().zip(&cumulative) {
        metrics.push((format!("layer.{layer}_us.p50"), *value, "us"));
    }
    metrics.push(("engine.score_ns.p50".into(), engine_ns.p50, "ns"));
    metrics.push(("engine.score_ns.p99".into(), engine_ns.p99, "ns"));
    metrics.push((
        "engine.components_per_pair".into(),
        components as f64 / pairs_replayed.max(1) as f64,
        "count",
    ));
    metrics.push(("executor.ns_per_pair.cold".into(), stats::median(&cold_per_pair), "ns"));
    metrics.push(("executor.score_ns.p50.cached".into(), stats::median(&cached_one), "ns"));
    metrics.push(("server.self_us.p50".into(), own[3], "us"));
    metrics.push(("process.self_us.p50".into(), own[4], "us"));
    metrics.push(("gateway.self_us.p50".into(), own[5], "us"));

    // Reload and artifact load, in-process.
    let reloadable = ReloadableExecutor::new(model.engines[0].clone(), ServeConfig::default());
    let mut reload_ms = Vec::new();
    let mut load_ms = Vec::new();
    for i in 0..RELOADS {
        let path = &model.artifacts[(i + 1) % 2];
        let t = Instant::now();
        rec.span("reload_from_path", 6, i, || reloadable.reload_from_path(path, &[]))
            .map_err(|e| io::Error::other(format!("in-process reload: {e}")))?;
        reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        rec.span("artifact_load", 6, i, || ModelArtifact::load(path))
            .map_err(|e| io::Error::other(format!("artifact load: {e}")))?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    metrics.push(("reload.in_process_ms".into(), stats::median(&reload_ms), "ms"));
    metrics.push(("artifact.load_ms".into(), stats::median(&load_ms), "ms"));

    // The workload's main phase with the backend's counters read around
    // it: the heavy rung on the Zipf workload, re-rank rounds on the other.
    let rerank = w.name == "rerank-after-reload";
    let s = args.seconds;
    let heavy_start = (
        read_counters(&fleet.backend)?,
        cache_counts(&fleet.backend)?,
        run.attempted(),
    );
    let (_, heavy) = rung(
        "heavy",
        &mut conns,
        &model,
        &wires,
        &stream,
        &mut cursor,
        crate::HEAVY_RPS,
        w.heavy_share * s,
        &mut run,
    )?;
    let heavy_end = (
        read_counters(&fleet.backend)?,
        cache_counts(&fleet.backend)?,
        run.attempted(),
    );
    let mut per_version = (0.0, 0.0);
    let rounds = rerank_rounds(
        &fleet,
        &mut conns,
        &model,
        &wires,
        (w.rounds / crate::CYCLES).max(TRACED_ROUNDS),
        &mut run,
        |fleet| {
            let (h, m) = cache_counts(&fleet.backend)?;
            per_version.0 += h;
            per_version.1 += m;
            Ok(())
        },
    )?;
    let rounds_end = read_counters(&fleet.backend)?;
    let (before, after, requests, (hits, misses)) = if rerank {
        let requests = run.attempted() - heavy_end.2;
        (heavy_end.0, rounds_end, requests as f64, per_version)
    } else {
        let cache = (heavy_end.1 .0 - heavy_start.1 .0, heavy_end.1 .1 - heavy_start.1 .1);
        (heavy_start.0, heavy_end.0, (heavy_end.2 - heavy_start.2) as f64, cache)
    };

    let lag: Vec<f64> = traced_lag
        .into_iter()
        .chain(heavy.lag_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    metrics.push(("generator.lag_us.p99".into(), stats::summarize(&lag).p99, "us"));
    for (name, values, p) in [
        ("e2e.p50_us.heavy", heavy.latency_us(), 50.0),
        ("e2e.batch_p90_ms", rounds.batch_ms.clone(), 90.0),
        ("e2e.p90_us.light", untraced_us.clone(), 90.0),
        ("e2e.p90_us.heavy", heavy.latency_us(), 90.0),
        ("e2e.p99_us.light", untraced_us.clone(), 99.0),
        ("e2e.p99_us.heavy", heavy.latency_us(), 99.0),
        ("e2e.batch_p99_ms", rounds.batch_ms.clone(), 99.0),
    ] {
        let tail = stats::windowed_percentile(&values, p).unwrap_or(f64::NAN);
        metrics.push((name.into(), tail, if name.ends_with("_ms") { "ms" } else { "us" }));
    }
    metrics.push(("e2e.reload_ms".into(), stats::median(&rounds.reload_ms), "ms"));
    metrics.push(("e2e.round_s".into(), stats::median(&rounds.round_s), "s"));
    metrics.push((
        "executor.cache_hit_rate".into(),
        hits / (hits + misses).max(1.0),
        "ratio",
    ));
    let batches = after.batches - before.batches;
    metrics.push((
        "server.batch_size.mean".into(),
        (after.batched - before.batched) / batches.max(1.0),
        "count",
    ));
    metrics.push(("server.batches".into(), batches, "count"));
    for (i, cause) in CAUSES.iter().enumerate() {
        metrics.push((
            format!("server.rejected.{cause}"),
            after.rejected[i] - before.rejected[i],
            "count",
        ));
    }
    metrics.push((
        "server.cpu_us_per_req".into(),
        (after.cpu_us - before.cpu_us) / requests,
        "us",
    ));
    metrics.push((
        "server.ctx_switches_per_req".into(),
        (after.ctx - before.ctx) / requests,
        "count",
    ));
    gateway_rows(
        &gateway_before,
        &gateway_after,
        replay.requests.len(),
        &mut run,
        &mut metrics,
    );

    // Budget: the layer self times against the end-to-end median of the
    // same kind of request (one pair on the Zipf workload, one array on the
    // re-rank one), and the cost of recording spans.
    let e2e_p50 = if rerank {
        stats::median(&rounds.batch_ms) * 1e3
    } else {
        stats::median(&untraced_us)
    };
    let traced_p50 = stats::median(&traced_us);
    // The light rung goes straight to er-serve: the layers up to it.
    let top = 4;
    let sum: f64 = own[..=top].iter().sum();
    let residual = (sum - e2e_p50) / e2e_p50;
    metrics.push(("budget.e2e_p50_us".into(), e2e_p50, "us"));
    metrics.push(("budget.residual_share".into(), residual, "ratio"));
    metrics.push((
        "tracing.overhead_us.p50".into(),
        traced_p50 - stats::median(&untraced_us),
        "us",
    ));
    println!("budget (self time per layer, us):");
    for (layer, value) in LAYERS.iter().zip(&own).take(top + 1) {
        println!("  {layer:<18} {value:>10.3}");
    }
    let within = stats::within(sum, e2e_p50, BUDGET_TOLERANCE);
    println!(
        "  sum {sum:.3} us vs end-to-end p50 {e2e_p50:.3} us: residual {:.1}% (tolerance {:.0}%, held on zipf-direct){}",
        residual * 100.0,
        BUDGET_TOLERANCE * 100.0,
        if within { "" } else { " EXCEEDED" }
    );
    if w.name == "zipf-direct" && !within {
        run.problems
            .push("layer self times do not sum to the end-to-end p50".into());
    }

    write_traces(args, &rec, &fleet)?;
    drop(conns);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    crate::emit(args, &run, &metrics)
}

/// The benchmark's spans and the backend's own trace ring, side by side.
fn write_traces(args: &Args, rec: &Recorder, fleet: &Fleet) -> io::Result<()> {
    let stem = format!("trace-{}-seed{}", args.workload.name, args.seed);
    let ours = args.out.join(format!("{stem}.json"));
    std::fs::create_dir_all(&args.out)?;
    std::fs::write(&ours, rec.chrome())?;
    let backend = fleet.backend.call("GET", "/debug/traces", None)?;
    std::fs::write(args.out.join(format!("{stem}-backend.json")), backend)?;
    println!("traces: {} spans in {}", rec.spans.len(), ours.display());
    Ok(())
}
