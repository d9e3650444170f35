//! Standalone gateway: consistent-hash routing, hedging and canary
//! promotion across a fleet of `er-serve` backends.
//!
//! ```text
//! er-gateway --backend 127.0.0.1:7101 --backend 127.0.0.1:7102 \
//!            --baseline out/model.json [--canary 1] [--listen 127.0.0.1:0] \
//!            [--hedge-after-ms 30] [--upstream-timeout-ms 10000] \
//!            [--health-interval-ms 500] [--eject-after 3] [--vnodes 128] \
//!            [--shadow-sample-bp 2000] [--min-samples 64] \
//!            [--divergence-threshold 1e-9] [--ladder 500,2500,5000] \
//!            [--no-auto-advance]
//! ```
//!
//! Prints a single machine-readable `LISTENING <addr> backends=<n>` line on
//! stdout once bound, then serves until killed. `--canary` takes a backend
//! *index* (repeatable) naming which backends hold candidate artifacts
//! during a canary; without it `/reload` refuses and the gateway is a plain
//! router. A flag without a value, or with one that does not parse, exits
//! with the usage and status 2; a `--baseline` that does not load as a model
//! artifact exits with status 1 before binding.

use er_gateway::{CanaryConfig, GatewayConfig, GatewayServer};
use er_serve::ModelArtifact;
use std::io::Write;
use std::str::FromStr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: er-gateway --backend <addr:port>... --baseline <model.json> \
         [--canary <backend-index>]... [--listen <addr:port>] [--hedge-after-ms <n|0>] \
         [--upstream-timeout-ms <n>] [--health-interval-ms <n>] [--eject-after <n>] \
         [--vnodes <n>] [--shadow-sample-bp <n>] [--min-samples <n>] [--divergence-threshold <f>] \
         [--ladder <bp,bp,...>] [--no-auto-advance]"
    );
    std::process::exit(2);
}

/// The value after `flag`, parsed; a missing or unparsable one exits through
/// [`usage`], naming the flag.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T::Err: std::fmt::Display,
{
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value");
        usage();
    };
    raw.parse().unwrap_or_else(|e| {
        eprintln!("bad {flag} {raw:?}: {e}");
        usage()
    })
}

fn parse_config() -> GatewayConfig {
    let mut config = GatewayConfig::default();
    let mut canary = CanaryConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let args = &mut args;
        match flag.as_str() {
            "--backend" => config.backends.push(value(args, "--backend")),
            "--canary" => config.canary_backends.push(value(args, "--canary")),
            "--baseline" => config.baseline_artifact = value(args, "--baseline"),
            "--listen" => config.listen = value(args, "--listen"),
            "--hedge-after-ms" => {
                let ms: u64 = value(args, "--hedge-after-ms");
                config.hedge_after = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--upstream-timeout-ms" => {
                config.upstream_timeout = Duration::from_millis(value::<u64>(args, "--upstream-timeout-ms").max(1))
            }
            "--health-interval-ms" => {
                config.health_interval = Duration::from_millis(value::<u64>(args, "--health-interval-ms").max(10))
            }
            "--eject-after" => config.eject_after = value(args, "--eject-after"),
            "--vnodes" => config.vnodes = value(args, "--vnodes"),
            "--shadow-sample-bp" => canary.shadow_sample_bp = value(args, "--shadow-sample-bp"),
            "--min-samples" => canary.min_samples = value(args, "--min-samples"),
            "--divergence-threshold" => canary.divergence_threshold = value(args, "--divergence-threshold"),
            "--ladder" => {
                let raw: String = value(args, "--ladder");
                let parsed: Option<Vec<u32>> = raw.split(',').map(|r| r.trim().parse().ok()).collect();
                match parsed {
                    Some(ladder) if !ladder.is_empty() => canary.ladder = ladder,
                    _ => {
                        eprintln!("bad --ladder {raw:?}: expected comma-separated basis points");
                        usage();
                    }
                }
            }
            "--no-auto-advance" => canary.auto_advance = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if config.backends.is_empty() {
        eprintln!("--backend is required (repeat once per er-serve process)");
        usage();
    }
    if config.baseline_artifact.is_empty() {
        eprintln!("--baseline is required (the artifact path rollbacks restore)");
        usage();
    }
    config.canary = canary;
    config
}

fn main() {
    let config = parse_config();
    // Rollbacks are the only readers of the baseline, so one that cannot be
    // loaded is refused here rather than at the first rollback.
    if let Err(e) = ModelArtifact::load(&config.baseline_artifact) {
        eprintln!("er-gateway: cannot start: baseline {}: {e}", config.baseline_artifact);
        std::process::exit(1);
    }
    let backends = config.backends.len();
    let server = match GatewayServer::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("er-gateway: cannot start: {e}");
            std::process::exit(1);
        }
    };
    // The one line a supervising parent scrapes to learn the bound port.
    println!("LISTENING {} backends={backends}", server.local_addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}
