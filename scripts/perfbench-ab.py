#!/usr/bin/env python3
"""A/B perfbench: alternating runs of a parent revision and the working tree.

Run from the repository root:

    scripts/perfbench-ab.py --parent HEAD~1 --seeds 1-10

The parent revision is checked out in a git worktree under --work (default
$TMPDIR/perfbench-ab), and each side builds into a CARGO_TARGET_DIR of its
own there, kept between invocations. For every seed and workload it runs
`python3 perfbench/run.py --trace 0` for BENCHMARK.json's `run_seconds` once
per side: odd seeds parent first,
even seeds change first, so drift over the session falls on both sides. It
then prints, per workload and end-to-end metric of BENCHMARK.json, both
medians, both interquartile ranges and in how many seed pairs the change was
better, followed by the bound verdict of perfbench/compare.py over the same
results. A run that reports `correct: false` or mismatched scores is named.

The worktree is removed on exit. The main checkout's tracked files are left
as they were: building perfbench rewrites perfbench/Cargo.lock when a path
dependency was added, and the script puts the file back.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("zipf-direct", "rerank-after-reload")
# Tracked files a perfbench build may rewrite.
REWRITTEN = ("perfbench/Cargo.lock",)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout.strip()


def run_side(side, root, target, workload, seed, seconds, results):
    """One perfbench run of `side`; copies its result file into `results`."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    print(f"[{side}] {workload} seed {seed}", file=sys.stderr, flush=True)
    if subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL).returncode != 0:
        print(f"[{side}] {workload} seed {seed}: run failed", file=sys.stderr)
        return None
    name = f"{workload}-seed{seed}-trace0.json"
    destination = results / side / name
    shutil.copyfile(root / "perfbench" / "out" / name, destination)
    return json.loads(destination.read_text())


def faults(result):
    """Why a run's scores cannot be trusted, or None."""
    mismatched = sum(phase.get("mismatched", 0) for phase in result.get("phases", []))
    if result["result"].get("correct") is False or mismatched:
        return f"correct={result['result'].get('correct')} mismatched={mismatched}"
    return None


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def report(spec, runs, workloads, seeds):
    print(f"{'workload':20s} {'metric':14s} {'parent':>10s} {'change':>10s} {'IQR parent':>11s} "
          f"{'IQR change':>11s} {'wins':>6s}")
    for workload in workloads:
        pairs = [(runs.get(("parent", workload, s)), runs.get(("change", workload, s))) for s in seeds]
        pairs = [(a, b) for a, b in pairs if a and b]
        if not pairs:
            continue
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = [(a["result"]["metrics"][name]["value"], b["result"]["metrics"][name]["value"]) for a, b in pairs]
            parent = [a for a, _ in values]
            change = [b for _, b in values]
            wins = sum((b < a) if lower else (b > a) for a, b in values)
            print(f"{workload:20s} {name:14s} {statistics.median(parent):10.4g} {statistics.median(change):10.4g} "
                  f"{iqr(parent):11.4g} {iqr(change):11.4g} {wins:3d}/{len(values)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default both")
    parser.add_argument("--seeds", default="1-10", type=seed_list, help="e.g. 1-10 or 1,3,5 (default 1-10)")
    parser.add_argument("--work", type=Path, default=Path(tempfile.gettempdir()) / "perfbench-ab")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench-ab: run from the repository root", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    work = args.work.resolve()
    worktree = work / "parent"
    results = work / "results"
    for side in ("parent", "change"):
        shutil.rmtree(results / side, ignore_errors=True)
        (results / side).mkdir(parents=True)
    kept = {path: (root / path).read_bytes() for path in REWRITTEN if (root / path).is_file()}
    revision = git(root, "rev-parse", "--verify", args.parent + "^{commit}")
    if worktree.exists():
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=root, capture_output=True)
    git(root, "worktree", "add", "--detach", str(worktree), revision)
    runs = {}
    trouble = []
    try:
        sides = {
            "parent": (worktree, work / "target-parent"),
            "change": (root, work / "target-change"),
        }
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    checkout, target = sides[side]
                    result = run_side(side, checkout, target, workload, seed, seconds, results)
                    if result is None:
                        trouble.append(f"{side} {workload} seed {seed}: run failed")
                        continue
                    if fault := faults(result):
                        trouble.append(f"{side} {workload} seed {seed}: {fault}")
                    runs[(side, workload, seed)] = result
    finally:
        for path, content in kept.items():
            (root / path).write_bytes(content)
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=root, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)

    print(f"parent {revision[:12]}, change = working tree; seeds {args.seeds[0]}..{args.seeds[-1]}, "
          f"{seconds:g} s, --trace 0")
    report(spec, runs, workloads, args.seeds)
    for line in trouble:
        print(f"TROUBLE: {line}")
    print("perfbench/compare.py:")
    compare = [sys.executable, "perfbench/compare.py", str(results / "parent"), str(results / "change")]
    verdict = subprocess.run(compare, cwd=root).returncode
    return 1 if trouble or verdict else 0


if __name__ == "__main__":
    sys.exit(main())
