//! The processes under test: `er-serve` and `er-gateway` children on
//! ephemeral ports, their control endpoints, and what `/proc` says about
//! them.
//!
//! Every child is killed and reaped when its [`Child`] drops, which covers
//! every exit path of the benchmark including a panic; each child also gets
//! `SIGKILL` from the kernel if the benchmark process dies first.

use er_serve::{http_roundtrip, parse_exposition, Sample};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// A running child process serving HTTP on `addr`.
pub struct Child {
    process: std::process::Child,
    pub addr: SocketAddr,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Child {
    pub fn pid(&self) -> u32 {
        self.process.id()
    }

    /// Spawns `command` and reads the `LISTENING <addr> ...` line both
    /// binaries print once bound.
    fn spawn(mut command: Command) -> io::Result<Self> {
        command
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .env_remove("ER_FAULT_PLAN");
        // SAFETY: the closure runs in the forked child before exec and only
        // makes the async-signal-safe prctl system call.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut process = command.spawn()?;
        let stdout = process.stdout.take().expect("stdout is piped");
        let mut child = Child {
            process,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: BufReader::new(stdout),
        };
        let mut banner = String::new();
        child._stdout.read_line(&mut banner)?;
        child.addr = banner
            .strip_prefix("LISTENING ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected banner {banner:?}")))?;
        Ok(child)
    }

    /// An `er-serve` backend serving `artifact`, every other setting as
    /// shipped.
    pub fn serve(binary: &Path, artifact: &Path) -> io::Result<Self> {
        let mut command = Command::new(binary);
        command
            .arg("--artifact")
            .arg(artifact)
            .arg("--listen")
            .arg("127.0.0.1:0");
        Self::spawn(command)
    }

    /// An `er-gateway` in front of `backend`, every other setting (hedging
    /// included) as shipped.
    pub fn gateway(binary: &Path, backend: &Child, baseline: &Path) -> io::Result<Self> {
        let mut command = Command::new(binary);
        command
            .arg("--backend")
            .arg(backend.addr.to_string())
            .arg("--baseline")
            .arg(baseline)
            .arg("--listen")
            .arg("127.0.0.1:0");
        Self::spawn(command)
    }

    /// Blocks until `GET /healthz` answers 200.
    pub fn wait_healthy(&self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let answered =
                TcpStream::connect(self.addr).and_then(|mut conn| http_roundtrip(&mut conn, "GET", "/healthz", None));
            match answered {
                Ok(response) if response.status == 200 => return Ok(()),
                _ if Instant::now() > deadline => {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "child never became healthy"))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// One control request to this child (see [`call`]).
    pub fn call(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<String> {
        call(self.addr, method, path, body)
    }

    /// `GET /metrics`, parsed.
    pub fn metrics(&self) -> io::Result<Vec<Sample>> {
        parse_exposition(&self.call("GET", "/metrics", None)?).map_err(io::Error::other)
    }

    /// `GET /gateway/stats`, parsed.
    pub fn gateway_stats(&self) -> io::Result<serde::Value> {
        serde::json::parse(&self.call("GET", "/gateway/stats", None)?).map_err(|e| io::Error::other(format!("{e:?}")))
    }

    /// CPU time (user + system, all threads) in microseconds.
    pub fn cpu_us(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap_or(0) + fields[12].parse::<u64>().unwrap_or(0);
        Ok(ticks as f64 * 1e6 / clock_ticks_per_second())
    }

    /// Voluntary plus involuntary context switches over all threads.
    pub fn context_switches(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let status = std::fs::read_to_string(task?.path().join("status")).unwrap_or_default();
            total += status
                .lines()
                .filter(|l| l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary_ctxt_switches"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>();
        }
        Ok(total)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kb = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

/// One control request on a fresh connection; the body on a 200.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    let response = http_roundtrip(&mut conn, method, path, body)?;
    if response.status != 200 {
        return Err(io::Error::other(format!(
            "{method} {path}: {} {}",
            response.status, response.body
        )));
    }
    Ok(response.body)
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a configuration constant and has no
    // preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Sum of a metric's samples whose labels include every `(name, value)` in
/// `labels`.
pub fn metric_sum(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            labels
                .iter()
                .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|s| s.value)
        .sum()
}
