//! `perfbench` — end-to-end and per-layer benchmark of LearnRisk serving.
//!
//! Runs the shipped `er-serve` binary as a child process on an ephemeral
//! port and drives it from one load-generator thread over at most `nproc`
//! connections; the traced run adds an `er-gateway` child in front of it.
//! Every run trains a model on DS with a fixed seed, exports it (v1) plus a
//! retrained v2, spawns the backend, checks that socket scores are
//! bit-exact with the in-process `ScoringEngine` for both versions, and only
//! then times. The run's seed drives the request stream.
//!
//! ```text
//! perfbench --workload <zipf-direct|rerank-after-reload> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path> --gateway-bin <path>
//!           [--out <dir>] [--stamp key=value]...
//! ```
//!
//! `perfbench/run.py` builds everything and supplies the binary paths. The
//! last line of stdout is the result object; with `--trace 0` it carries
//! the end-to-end metrics, with `--trace 1` the per-layer budget (see
//! `trace.rs`).

mod fleet;
mod loadgen;
mod setup;
mod stats;
mod trace;

use fleet::{metric_sum, Child};
use loadgen::{Conn, Phase, Verdict};
use setup::Model;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The percentile a ladder rung is held to: the median, so that a rung
/// misses when the backend falls behind (a backlog drives every later
/// request's due-time latency up), not when the host stalls.
pub const LIMIT_P: f64 = 50.0;
/// Latency limit a ladder rung must meet at [`LIMIT_P`] to count as
/// sustained.
pub const LIMIT_US: f64 = 2000.0;
/// A rung keeps pace when its achieved throughput is at least this share of
/// the offered rate.
pub const KEEP_PACE: f64 = 0.97;
/// The open-loop rate ladder, requests per second. The first rung is
/// `light`: with evenly spaced sends on two connections every request finds
/// the server idle. Rungs are far apart because the backend's capacity
/// wanders with the host's speed (on a two-CPU box, mostly 5.5k–7k
/// requests/s at the seed commit, down to about 3.5k in slow stretches); a
/// rung inside that range makes the sustained rung flip from run to run,
/// which is why the traced run reports it (`e2e.sustained_rps`) rather
/// than the end-to-end set.
pub const LADDER_RPS: [f64; 9] = [
    1000.0, 1500.0, 2250.0, 5000.0, 7500.0, 11000.0, 17000.0, 25000.0, 38000.0,
];
/// The heavy rung: a ladder rung at a third to two thirds of the backend's
/// capacity on a two-CPU box, which wanders between about 3.5k and 7k
/// requests/s as the host's speed drifts. Nearer capacity, a slow stretch
/// of the host tips the rung into a backlog and its median jumps a hundred
/// fold.
pub const HEAVY_RPS: f64 = 2250.0;
/// Interleaved cycles of re-rank rounds and light rung per run.
/// The host's speed drifts by tens of percent over seconds; many short
/// cycles spread every metric's samples over the whole run.
pub const CYCLES: usize = 10;
/// Pairs per `/score` array when the pool is re-ranked.
pub const RERANK_BATCH: usize = 32;
/// Sets up this many times per run; `setup_s` is the median.
const SETUPS: usize = 5;
/// Fewest samples a rung may have: three windows of its tail.
const MIN_RUNG_SAMPLES: usize = 3 * stats::WINDOW;

/// One workload: how a run's seconds are shared between the open-loop
/// ladder and the analyst's re-rank rounds.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Shares of `--seconds` given to the light rung and, in the traced
    /// run, the heavy rung. Climb rungs run for [`MIN_RUNG_SAMPLES`]
    /// requests each.
    pub light_share: f64,
    pub heavy_share: f64,
    /// Re-rank rounds per run (each: reload, then the whole pool).
    pub rounds: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "zipf-direct",
        light_share: 0.3,
        heavy_share: 0.2,
        rounds: 200,
    },
    Workload {
        name: "rerank-after-reload",
        light_share: 0.2,
        heavy_share: 0.05,
        rounds: 800,
    },
];

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub gateway_bin: PathBuf,
    pub out: PathBuf,
    pub stamp: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve_bin, mut gateway_bin) = (None, None);
    let mut out = PathBuf::from("perfbench/out");
    let mut stamp = Vec::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--gateway-bin" => gateway_bin = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            "--stamp" => {
                let (k, v) = value.split_once('=').ok_or("--stamp takes key=value")?;
                stamp.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        gateway_bin: gateway_bin.ok_or("--gateway-bin is required")?,
        out,
        stamp,
    })
}

/// The process under test: one `er-serve` with the shipped defaults.
pub struct Fleet {
    pub backend: Child,
}

impl Fleet {
    pub fn spawn(args: &Args, model: &Model) -> io::Result<Fleet> {
        let backend = Child::serve(&args.serve_bin, &model.artifacts[0])?;
        backend.wait_healthy()?;
        Ok(Fleet { backend })
    }

    /// Reloads the backend onto `artifact`; returns the client-timed round
    /// trip in ms. Fails unless it answers with a version that maps to
    /// `artifact`.
    pub fn reload(&self, model: &Model, artifact: usize) -> io::Result<f64> {
        let t = Instant::now();
        let answer = self
            .backend
            .call("POST", "/reload", Some(&reload_body(model, artifact)))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let version = serde::json::parse(&answer)
            .ok()
            .and_then(|v| serde::from_value::<u64>(v.get("model_version")?).ok())
            .ok_or_else(|| io::Error::other(format!("reload answered {answer:?}")))?;
        if Model::artifact_of(version) != artifact {
            return Err(io::Error::other(format!(
                "reload to artifact {artifact} came back as version {version}"
            )));
        }
        Ok(ms)
    }
}

/// The `POST /reload` body that loads `artifact`.
pub fn reload_body(model: &Model, artifact: usize) -> String {
    format!(
        "{{\"path\": {}}}",
        json_str(&model.artifacts[artifact].display().to_string())
    )
}

/// The requests a run sends, prebuilt: entry `i < pool.len()` is the
/// single-pair `/score` of pool pair `i`; after them comes the pool in
/// `/score` arrays of [`RERANK_BATCH`].
pub struct Wires {
    pub bytes: Vec<Vec<u8>>,
    pub pairs: Vec<Range<usize>>,
    pub batches: usize,
}

impl Wires {
    pub fn new(model: &Model) -> Self {
        let n = model.pool.len();
        let mut bytes = Vec::new();
        let mut pairs = Vec::new();
        for (i, request) in model.pool.iter().enumerate() {
            bytes.push(loadgen::http_post("/score", &serde::json::to_string(request)));
            pairs.push(i..i + 1);
        }
        let mut start = 0;
        while start < n {
            let end = (start + RERANK_BATCH).min(n);
            bytes.push(loadgen::http_post(
                "/score",
                &serde::json::to_string(&model.pool[start..end]),
            ));
            pairs.push(start..end);
            start = end;
        }
        Wires {
            bytes,
            pairs,
            batches: n.div_ceil(RERANK_BATCH),
        }
    }

    pub fn batch(&self, k: usize) -> usize {
        self.bytes.len() - self.batches + k
    }
}

/// Judges a `/score` response against the expected scores of the version
/// it reports.
pub fn judge(model: &Model, pairs: &Range<usize>, status: u16, body: &[u8]) -> Verdict {
    if status != 200 {
        return Verdict::Refused;
    }
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|text| er_serve::parse_score_response(text).ok());
    let Some((version, scores)) = parsed else {
        return Verdict::Mismatch;
    };
    let expected = &model.expected[Model::artifact_of(version)][pairs.clone()];
    let exact = scores.len() == expected.len() && scores.iter().zip(expected).all(|(a, b)| a.to_bits() == b.to_bits());
    if exact {
        Verdict::Ok
    } else {
        Verdict::Mismatch
    }
}

/// Request counts of one phase, printed and kept in the result file.
#[derive(Debug, Clone)]
pub struct PhaseCount {
    pub name: String,
    pub sent: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub mismatched: usize,
    /// Pairs in requests that succeeded.
    pub pairs_ok: usize,
}

/// Everything a run accumulates.
pub struct Run {
    pub phases: Vec<PhaseCount>,
    /// Which artifact the fleet serves now.
    pub artifact: usize,
    pub problems: Vec<String>,
}

impl Run {
    pub fn record(&mut self, name: &str, phase: &Phase, items: &[loadgen::Item], wires: &Wires) {
        let pairs_ok = items
            .iter()
            .zip(&phase.verdicts)
            .filter(|(_, v)| **v == Verdict::Ok)
            .map(|(item, _)| wires.pairs[item.wire].len())
            .sum();
        let count = PhaseCount {
            name: name.to_string(),
            sent: items.len(),
            succeeded: phase.count(Verdict::Ok),
            failed: phase.failed(),
            mismatched: phase.count(Verdict::Mismatch),
            pairs_ok,
        };
        if count.mismatched > 0 {
            self.problems
                .push(format!("{name}: {} responses were not bit-exact", count.mismatched));
        }
        println!(
            "phase {name}: sent {} succeeded {} failed {} (mismatched {})",
            count.sent, count.succeeded, count.failed, count.mismatched
        );
        self.phases.push(count);
    }

    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn pairs_ok(&self) -> usize {
        self.phases.iter().map(|p| p.pairs_ok).sum()
    }
}

/// Sends the whole pool to the backend in arrays and checks every
/// score, once per artifact version; leaves the fleet on a freshly
/// reloaded v1 (cold cache).
pub fn verify_before_timing(
    fleet: &Fleet,
    conns: &mut [Conn],
    model: &Model,
    wires: &Wires,
    run: &mut Run,
) -> io::Result<()> {
    for (step, next) in [(0usize, 1usize), (1, 0)] {
        let items = loadgen::closed_loop(wires.batches, conns.len(), |k| wires.batch(k));
        let phase = loadgen::drive(conns, &items, &wires.bytes, |i, status, body| {
            judge(model, &wires.pairs[items[i].wire], status, body)
        })?;
        run.record(&format!("verify-v{}", step + 1), &phase, &items, wires);
        fleet.reload(model, next)?;
        run.artifact = next;
    }
    Ok(())
}

/// A Zipf(1.1) stream over the pool, as pool indices.
pub fn zipf_indices(model: &Model, seed: u64, len: usize) -> Vec<usize> {
    let config = er_serve::ReplayConfig {
        requests: len,
        zipf_exponent: 1.1,
        seed,
    };
    er_serve::zipf_stream(&model.pool, &config)
        .iter()
        .map(|r| r.pair_id as usize)
        .collect()
}

/// One open-loop rung: `rate` requests per second for `seconds`, drawing
/// pairs from `stream` starting at `*cursor`.
#[allow(clippy::too_many_arguments)]
pub fn rung(
    name: &str,
    conns: &mut [Conn],
    model: &Model,
    wires: &Wires,
    stream: &[usize],
    cursor: &mut usize,
    rate: f64,
    seconds: f64,
    run: &mut Run,
) -> io::Result<(stats::Rung, Phase)> {
    let due = stats::uniform_schedule(rate, seconds);
    let start = *cursor;
    let items = loadgen::open_loop(&due, conns.len(), |i| stream[(start + i) % stream.len()]);
    *cursor += items.len();
    let phase = loadgen::drive(conns, &items, &wires.bytes, |i, status, body| {
        judge(model, &wires.pairs[items[i].wire], status, body)
    })?;
    run.record(name, &phase, &items, wires);
    let summary = stats::summarize(&phase.latency_us());
    let succeeded = phase.count(Verdict::Ok);
    let rung = stats::Rung {
        rate,
        planned: items.len(),
        succeeded,
        failed: phase.failed(),
        latency_us: stats::windowed_percentile(&phase.latency_us(), LIMIT_P).unwrap_or(f64::INFINITY),
        achieved_rps: succeeded as f64 / (phase.end_ns.max(1) as f64 / 1e9),
    };
    let lag = stats::summarize(&phase.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
    println!(
        "  {rate:>6.0} rps: n {} p50 {:.1} us p99 {:.1} us achieved {:.0} rps, send lag p99 {:.1} us",
        summary.n, summary.p50, summary.p99, rung.achieved_rps, lag.p99
    );
    Ok((rung, phase))
}

/// The ladder climb above `light` (the light rung already measured):
/// rungs in order until one misses the limit, each that misses run once
/// more first, so a burst of host stalls does not end the climb on its own.
/// Returns the sustained rate: the achieved throughput of the highest rung
/// that met the limit, or of the light rung if none did.
#[allow(clippy::too_many_arguments)]
pub fn climb(
    light: stats::Rung,
    conns: &mut [Conn],
    model: &Model,
    wires: &Wires,
    stream: &[usize],
    cursor: &mut usize,
    run: &mut Run,
) -> io::Result<f64> {
    let mut rungs = vec![light];
    for &rate in &LADDER_RPS[1..] {
        let mut r = None;
        for attempt in ["", "-again"] {
            let (measured, _) = rung(
                &format!("climb-{rate}{attempt}"),
                conns,
                model,
                wires,
                stream,
                cursor,
                rate,
                MIN_RUNG_SAMPLES as f64 / rate,
                run,
            )?;
            r = Some(measured);
            if stats::rung_passes(&measured, LIMIT_US, KEEP_PACE) {
                break;
            }
        }
        let r = r.expect("a rung ran");
        rungs.push(r);
        if !stats::rung_passes(&r, LIMIT_US, KEEP_PACE) {
            break;
        }
    }
    let sustained = stats::sustained_rung(&rungs, LIMIT_US, KEEP_PACE).unwrap_or(0);
    Ok(rungs[sustained].achieved_rps)
}

/// What the re-rank rounds measured.
#[derive(Default)]
pub struct Rounds {
    pub round_s: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub reload_ms: Vec<f64>,
}

/// The analyst's loop: `count` rounds of reloading the other artifact, then re-scoring the whole pool in arrays over the load
/// connections (closed loop). `after_round` runs outside the timed part.
pub fn rerank_rounds(
    fleet: &Fleet,
    conns: &mut [Conn],
    model: &Model,
    wires: &Wires,
    count: usize,
    run: &mut Run,
    mut after_round: impl FnMut(&Fleet) -> io::Result<()>,
) -> io::Result<Rounds> {
    let mut out = Rounds::default();
    let items = loadgen::closed_loop(wires.batches, conns.len(), |k| wires.batch(k));
    let mut totals = Phase::default();
    for _ in 0..count {
        let t = Instant::now();
        let next = 1 - run.artifact;
        out.reload_ms.push(fleet.reload(model, next)?);
        run.artifact = next;
        let phase = loadgen::drive(conns, &items, &wires.bytes, |i, status, body| {
            judge(model, &wires.pairs[items[i].wire], status, body)
        })?;
        out.round_s.push(t.elapsed().as_secs_f64());
        out.batch_ms.extend(phase.latency_ns.iter().map(|&ns| ns as f64 / 1e6));
        totals.verdicts.extend(phase.verdicts);
        after_round(fleet)?;
    }
    let all_items: Vec<loadgen::Item> = items.iter().copied().cycle().take(totals.verdicts.len()).collect();
    run.record("rerank-rounds", &totals, &all_items, wires);
    Ok(out)
}

/// Counter reconciliation from outside the process: the backend scored
/// exactly the pairs the benchmark saw succeed, and its cache counted one
/// hit or miss per pair scored since the last reload.
pub fn reconcile(fleet: &Fleet, run: &mut Run, pairs_since_reload: usize) -> io::Result<()> {
    let samples = fleet.backend.metrics()?;
    let scored = metric_sum(&samples, "er_serve_score_requests_total", &[]) as usize;
    let sent_ok = run.pairs_ok();
    if scored != sent_ok {
        run.problems
            .push(format!("backend scored {scored} pairs, benchmark saw {sent_ok}"));
    }
    let label = (metric_sum(&samples, "er_serve_model_version", &[]) as u64).to_string();
    let cached = metric_sum(&samples, "er_serve_cache_hits_total", &[("version", &label)])
        + metric_sum(&samples, "er_serve_cache_misses_total", &[("version", &label)]);
    if cached as usize != pairs_since_reload {
        run.problems.push(format!(
            "cache counted {cached} pairs since the last reload, benchmark sent {pairs_since_reload}"
        ));
    }
    println!("reconcile: backend scored {scored} pairs, benchmark saw {sent_ok} succeed");
    Ok(())
}

/// The environment a result was measured in.
pub fn stamp(args: &Args) -> Vec<(String, String)> {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut stamp = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), cpu),
        (
            "kernel".to_string(),
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        ("seed".to_string(), args.seed.to_string()),
        ("workload".to_string(), args.workload.name.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("serve_bin".to_string(), args.serve_bin.display().to_string()),
        ("gateway_bin".to_string(), args.gateway_bin.display().to_string()),
    ];
    stamp.extend(args.stamp.iter().cloned());
    stamp
}

/// Writes the result line (and the same object, with the stamp and phase
/// counts, to `out`).
pub fn emit(args: &Args, run: &Run, metrics: &[(String, f64, &str)]) -> io::Result<bool> {
    let correct = run.problems.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    for problem in &run.problems {
        eprintln!("perfbench: {problem}");
    }
    let metrics_json = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        run.attempted().max(1),
        run.failed()
    );
    let stamp_json = stamp(args)
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let phases_json = run
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"mismatched\": {}}}",
                json_str(&p.name),
                p.sent,
                p.succeeded,
                p.failed,
                p.mismatched
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    std::fs::create_dir_all(&args.out)?;
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &file,
        format!("{{\"stamp\": {{{stamp_json}}}, \"phases\": [{phases_json}], \"result\": {line}}}\n"),
    )?;
    println!("stamp: {{{stamp_json}}}");
    println!("{line}");
    Ok(correct)
}

pub fn json_str(s: &str) -> String {
    serde::json::to_string(&s.to_string())
}

/// Sets up `SETUPS` times (train, export, round-trip check, spawn, first
/// healthy `/healthz`), keeping the last model and fleet; returns the
/// median wall time.
fn set_up(args: &Args, dir: &Path) -> io::Result<(Model, Fleet, f64)> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let model = setup::train(setup::TRAIN_SEED, dir)?;
        let fleet = Fleet::spawn(args, &model)?;
        walls.push(t.elapsed().as_secs_f64());
        last = Some((model, fleet));
    }
    let (model, fleet) = last.expect("at least one set-up");
    Ok((model, fleet, stats::median(&walls)))
}

fn end_to_end(args: &Args) -> io::Result<bool> {
    let w = args.workload;
    let dir = args.out.join(format!("artifacts-{}-{}", w.name, std::process::id()));
    let (model, fleet, setup_s) = set_up(args, &dir)?;
    println!(
        "setup: {} pool pairs, {} rules, median set-up {setup_s:.3} s over {SETUPS}",
        model.pool.len(),
        model.rule_count
    );
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
    verify_before_timing(&fleet, &mut conns, &model, &wires, &mut run)?;

    // The light rung and the re-rank rounds run in interleaved cycles, so
    // each metric samples the whole run and a stretch of host contention
    // touches only some of its samples.
    let stream = zipf_indices(&model, args.seed, 20_000);
    let mut cursor = 0;
    let s = args.seconds;
    let mut light_us = Vec::new();
    let mut batch_ms = Vec::new();
    let mut since_reload = 0;
    for cycle in 0..CYCLES {
        let more = rerank_rounds(&fleet, &mut conns, &model, &wires, w.rounds / CYCLES, &mut run, |_| {
            Ok(())
        })?;
        batch_ms.extend(more.batch_ms);
        let after_rounds = run.pairs_ok();
        let (_, phase) = rung(
            &format!("light-{cycle}"),
            &mut conns,
            &model,
            &wires,
            &stream,
            &mut cursor,
            LADDER_RPS[0],
            w.light_share * s / CYCLES as f64,
            &mut run,
        )?;
        light_us.extend(phase.latency_us());
        since_reload = model.pool.len() + run.pairs_ok() - after_rounds;
    }
    reconcile(&fleet, &mut run, since_reload)?;

    let attempted = run.attempted() as f64;
    let metrics = vec![
        ("p50_us.light".to_string(), stats::median(&light_us), "us"),
        ("batch_p50_ms".to_string(), stats::median(&batch_ms), "ms"),
        ("setup_s".to_string(), setup_s, "s"),
        (
            "ok_share".to_string(),
            (attempted - run.failed() as f64) / attempted,
            "ratio",
        ),
        ("peak_rss_mb".to_string(), fleet.backend.peak_rss_mb()?, "MiB"),
    ];
    drop(conns);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    emit(args, &run, &metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        trace::per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
