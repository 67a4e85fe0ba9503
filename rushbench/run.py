#!/usr/bin/env python3
"""Build and run the closed-loop rushd benchmark (see README.md).

Run from the repository root:

    python3 rushbench/run.py --workload contended --seed 1 --seconds 25 --trace 0
    python3 rushbench/run.py --selftest

The first call configures and builds rushbench/ in Release into
$CARGO_TARGET_DIR (default .bench_build) under the repository root; later
calls rebuild incrementally.  Session files (WAL, snapshot) live in a
per-process directory inside the build directory and are removed on exit.
The benchmark's last stdout line is its JSON result; build output goes to
stderr.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "rushbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"rushbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "rushbench")


def build():
    """Configures on first use, then rebuilds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "daemon", "daemon.h")):
        fail(f"scheduler sources not found under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "rushbench")


def run(binary, args, capture=False):
    """Runs the benchmark in a private work directory; returns the process."""
    workdir = os.path.join(build_dir(), f"work-{os.getpid()}")
    try:
        return subprocess.run(
            [binary, *args, "--workdir", workdir],
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    """Tiny sessions: every metric named in BENCHMARK.json prints with its
    unit on every workload, two runs of one seed give the same digests and
    quality metrics, and a reply stream with one grant dropped fails the
    correctness gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    tiny = ["--scale", "0.05", "--seconds", "0", "--seed", "7"]
    quality = ("mean_utility", "budget_met_frac", "eta_coverage")
    for workload in [w["name"] for w in spec["workloads"]]:
        repeats = []
        for trace in ("0", "0", "1"):
            proc = run(binary, ["--workload", workload, "--trace", trace, *tiny], capture=True)
            result = last_json(proc.stdout)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not result or not result["correct"]:
                problems.append(f"{label}: exit {proc.returncode}, not correct")
                continue
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in metrics:
                    problems.append(f"{label}: metric {name} missing")
                elif metrics[name]["unit"] != unit:
                    problems.append(f"{label}: {name} unit {metrics[name]['unit']} != {unit}")
            if trace == "0":
                digest = [l for l in proc.stdout.splitlines() if l.startswith("digest ")]
                repeats.append((digest, [metrics.get(q, {}).get("value") for q in quality]))
        if len(repeats) == 2 and repeats[0] != repeats[1]:
            problems.append(f"{workload}: two runs of one seed differ: {repeats}")
    proc = run(binary, ["--workload", "contended", "--trace", "0", "--drop-grant", "5", *tiny],
               capture=True)
    result = last_json(proc.stdout)
    if proc.returncode == 0 or result is None or result["correct"]:
        problems.append("a reply stream with a dropped grant passed the correctness gate")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--selftest"]:
        return selftest(binary)
    try:
        return run(binary, args).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
