#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the root of a checkout:

    python3 campaign_bench/run.py --workload signoff_c2 --seed 1 \
        --seconds 40 --trace 0

Builds the CRVE libraries and the benchmark program Release into
.bench_build/campaign_bench, generates the workload's inputs from the seed,
runs the workload in a fresh process and prints its metrics. The last line
of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer ledger with --trace 1 (see campaign_bench/README.md).
Exits non-zero without a result line when the build, the input generation
or the benchmark program fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "campaign_bench")
PROGRAM = os.path.join(BUILD_DIR, "crve_campaign_bench")
WORKLOADS = ("signoff_c2", "sparse_functional", "bug_hunt", "warm_rerun")
RUN_LIMIT_S = 170  # the whole run, the build of a first run excepted


def log(msg):
    print(f"[campaign_bench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the program; returns False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "campaign_bench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "crve_campaign_bench",
               "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parses the program's result line and checks it against BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or result[k] < 0:
            raise ValueError(f"{k} is not a count")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            raise ValueError(f"metric {name} is not a number")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("build failed")
        return 1
    start = time.monotonic()
    work = os.path.join(BUILD_ROOT, "work",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        prep = subprocess.run(
            [PROGRAM, "prepare", "--workload", args.workload,
             "--seed", str(args.seed), "--dir", work],
            stdout=sys.stderr, timeout=RUN_LIMIT_S)
        if prep.returncode != 0:
            log(f"input generation failed ({prep.returncode})")
            return 1
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        run = subprocess.run(
            [PROGRAM, "run", "--dir", work, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, remaining))
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            sys.stdout.write(run.stdout)
            log(f"benchmark program failed ({run.returncode})")
            return 1
        for line in lines[:-1]:
            print(line)
        result = check_result(lines[-1], args.trace)
        if args.trace:
            results = os.path.join(BUILD_ROOT, "results")
            os.makedirs(results, exist_ok=True)
            spans = os.path.join(work, "spans.json")
            if os.path.exists(spans):
                dst = os.path.join(results,
                                   f"{args.workload}-s{args.seed}.spans.json")
                shutil.move(spans, dst)
                print(f"spans: {dst}")
        if not result["correct"]:
            log("WRONG VERDICTS: this run's timings are not valid")
        print(json.dumps(result))
        return 0
    except subprocess.TimeoutExpired:
        log("time limit exceeded")
        return 1
    except (ValueError, KeyError, OSError) as e:
        log(f"bad result: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
