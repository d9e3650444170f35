#!/usr/bin/env python3
"""Build the serving binaries and the benchmark from source, then run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload zipf-direct --seed 1 --seconds 30 --trace 0

Workloads: zipf-direct, rerank-after-reload. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer budget. The last line of stdout is
the result object; the same object, with the environment stamp and per-phase
request counts, is written to perfbench/out/. Builds go to $CARGO_TARGET_DIR
(default .bench_build). The benchmark's own tests:

    cargo test --offline --manifest-path perfbench/Cargo.toml
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 160


def source_digest(root):
    """SHA-256 over the sources the binaries are built from (stands in for a
    commit id where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(
            p
            for p in (root / top).rglob("*")
            if p.is_file() and not {"out", "target"} & set(p.relative_to(root).parts)
        )
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def command_output(args, root):
    try:
        return subprocess.run(args, cwd=root, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "er-serve").is_dir():
        print("perfbench: run from the repository root; the er-serve sources are missing", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "er-serve", "-p", "er-gateway", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for build in builds:
        if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: {' '.join(build)} failed", file=sys.stderr)
            return 1

    release = target / "release"
    command = [
        str(release / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", str(release / "er-serve"),
        "--gateway-bin", str(release / "er-gateway"),
        "--out", str(root / "perfbench" / "out"),
        "--stamp", "rustc=" + command_output(["rustc", "--version"], root),
        "--stamp", "commit=" + command_output(["git", "rev-parse", "HEAD"], root),
        "--stamp", "source_digest=" + source_digest(root),
    ]
    # A session of its own, so every process the run leaves behind can be
    # killed as a group whatever happens here.
    child = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
