#!/usr/bin/env python3
"""Build and run the end-to-end DALTA benchmark.

    python3 perfbench/run.py --workload table1_n9 --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35   # every gated workload
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is configured and built from
source under .bench_build/perfbench (CMake, Release) on every call; an
up-to-date build costs about a second. Build output goes to standard error,
so the last line of standard output is the benchmark's result object.
--trace 1 also writes the traced run's spans to
.bench_build/perfbench/spans/<workload>-seed<seed>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    step = ["cmake", "--build", str(BUILD_DIR), "--target", target,
            "--parallel", jobs]
    return subprocess.run(step, stdout=sys.stderr, env=env).returncode == 0


def commit_id():
    """The git commit, or a digest of the library sources outside git."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--span-check", action="store_true",
                        help="compare the decorator's solve p50 with the "
                             "library's own trace report (implies --trace 1)")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the measurement-code tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                              cwd=ROOT).returncode

    if not args.workload:
        parser.error("--workload is required")
    if not build("e2e_bench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    names = [args.workload]
    if args.workload == "all":
        with open(ROOT / "BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    trace = 1 if args.span_check else args.trace
    commit = commit_id()
    status = 0
    for name in names:
        cmd = [str(BUILD_DIR / "e2e_bench"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--commit", commit]
        if trace == 1:
            spans = BUILD_DIR / "spans" / f"{name}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans-out", str(spans)]
        if args.span_check:
            cmd.append("--span-check")
        sys.stdout.flush()
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
