//! Standalone scoring backend: one `er-serve` process serving one model
//! artifact over HTTP/1.1.
//!
//! This is the process `er-gateway` fans traffic out to. It boots from an
//! artifact file, binds (port `0` picks an ephemeral port), prints a single
//! machine-readable `LISTENING <addr>` line on stdout so a parent process
//! can scrape the bound address, and serves until killed.
//!
//! ```text
//! er-serve --artifact out/model.json --listen 127.0.0.1:0 [--threads N]
//!          [--queue-capacity N] [--max-connections N]
//! ```
//!
//! `--threads` sets the scoring lanes (default: the CPUs available): the
//! worker pool's lanes and as many readiness loops sharing the connections.
//! `--queue-capacity` and `--max-connections` bound the whole server, across
//! every loop. A flag without a value, or with one that does not parse,
//! exits with the usage and status 2.
//!
//! Fault injection is inherited from the `ER_FAULT_PLAN` environment
//! variable exactly as library-embedded servers do (see `er_serve::fault`).

use er_serve::{ModelArtifact, ReloadableExecutor, ScoreServer, ServeConfig, ServerConfig};
use std::io::Write;
use std::str::FromStr;
use std::sync::Arc;

struct Options {
    artifact: String,
    listen: String,
    threads: Option<usize>,
    queue_capacity: Option<usize>,
    max_connections: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: er-serve --artifact <model.json> [--listen <addr:port>] [--threads <n>] \
         [--queue-capacity <n>] [--max-connections <n>]\n\
         \n  --threads <n>          scoring lanes: worker-pool lanes and readiness loops (default: CPUs)\
         \n  --queue-capacity <n>   admitted-but-unscored jobs, server-wide (default 256)\
         \n  --max-connections <n>  concurrent connections, server-wide (default 256)"
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

fn parse_options() -> Options {
    let mut options = Options {
        artifact: String::new(),
        listen: "127.0.0.1:0".to_string(),
        threads: None,
        queue_capacity: None,
        max_connections: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let args = &mut args;
        match flag.as_str() {
            "--artifact" => options.artifact = value(args, "--artifact"),
            "--listen" => options.listen = value(args, "--listen"),
            "--threads" => options.threads = Some(value(args, "--threads")),
            "--queue-capacity" => options.queue_capacity = Some(value(args, "--queue-capacity")),
            "--max-connections" => options.max_connections = Some(value(args, "--max-connections")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if options.artifact.is_empty() {
        eprintln!("--artifact is required");
        usage();
    }
    options
}

fn main() {
    let options = parse_options();
    let artifact = match ModelArtifact::load(&options.artifact) {
        Ok(artifact) => artifact,
        Err(e) => {
            eprintln!("er-serve: cannot load artifact {:?}: {e}", options.artifact);
            std::process::exit(1);
        }
    };
    let mut serve_config = ServeConfig::default();
    if let Some(threads) = options.threads {
        serve_config = serve_config.with_threads(threads.max(1));
    }
    let executor = match ReloadableExecutor::from_artifact(artifact, serve_config) {
        Ok(executor) => Arc::new(executor),
        Err(e) => {
            eprintln!("er-serve: artifact refused: {e}");
            std::process::exit(1);
        }
    };
    let mut config = ServerConfig {
        addr: options.listen.clone(),
        ..ServerConfig::default()
    };
    if let Some(capacity) = options.queue_capacity {
        config.queue_capacity = capacity;
    }
    if let Some(max) = options.max_connections {
        config.max_connections = max;
    }
    let server = match ScoreServer::start(executor, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("er-serve: cannot bind {:?}: {e}", options.listen);
            std::process::exit(1);
        }
    };
    // The one line a supervising parent (gateway launcher, perfbench, the
    // spawned-binary tests) scrapes to learn the ephemeral port. Flushed
    // explicitly: the parent blocks on it before sending traffic. The digest
    // is the one the executor computed when it booted on the artifact.
    let boot = server.executor().snapshot();
    println!(
        "LISTENING {} version={} digest={}",
        server.local_addr(),
        boot.version,
        boot.digest
    );
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}
