#!/usr/bin/env python3
"""Builds and runs the request-level benchmark (see README.md).

Run from the repository root:

  python3 reqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 reqbench/run.py --selftest

The first form builds reqbench/ (and the soctest library it links, from
src/) into $CARGO_TARGET_DIR/reqbench (default .bench_build/reqbench), runs
one workload and relays its output; the last stdout line is the result JSON.
--trace 1 also writes the span file under .bench_build/reqbench-spans/.

--selftest runs every workload briefly, traced and untraced, checks that
each metric BENCHMARK.json names is printed with its unit, and checks that a
deliberately corrupted answer is caught and counted.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cold_compile", "warm_search", "serve_variants")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"reqbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "CMakeLists.txt")):
        fail("soctest sources (src/) not found next to reqbench/")
    out = os.path.join(build_root(), "reqbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "reqbench")


def run(binary, workload, seed, seconds, trace, corrupt=None):
    """Runs one workload; returns (stdout lines, stderr text, result dict)."""
    work = os.path.join(build_root(), "reqbench-work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work]
    if trace:
        spans = os.path.join(build_root(), "reqbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-file", os.path.join(spans, f"{workload}-seed{seed}.json")]
    if corrupt is not None:
        cmd += ["--corrupt", str(corrupt)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not JSON: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    return lines, proc.stderr, result


def selftest(binary):
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, _, result = run(binary, workload, 1, 2, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: nothing attempted")
            print(f"selftest {workload} trace={trace}: {len(got)} metrics, "
                  f"attempted={result['attempted']} failed={result['failed']}")
        # One answer's schedule gets a segment one wire wider than scheduled.
        _, err, result = run(binary, workload, 1, 2, 0, corrupt=0)
        if result["correct"] or result["failed"] < 1 or "FAILED invalid" not in err:
            problems.append(f"{workload}: corrupted answer not caught")
        print(f"selftest {workload} corrupted: correct={result['correct']} "
              f"failed={result['failed']}")
    for problem in problems:
        print("selftest FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    lines, err, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stderr.write(err)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
