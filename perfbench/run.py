#!/usr/bin/env python3
"""Build and run the file-to-file sort benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The benchmark binary is built from the
library's sources into $CARGO_TARGET_DIR (default .bench_build) with CMake;
scratch, input and output files live in a per-process directory under it and
are removed on exit. A traced run (--trace 1) also writes its spans as a
Chrome trace to <build dir>/trace-<workload>.json.

The binary prints one line per metric and, last, one JSON object. This
wrapper passes that output through after checking that the JSON names
exactly the metrics BENCHMARK.json lists for the mode; it exits non-zero,
printing no result, if the build, the run or that check fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    return os.path.join(build_dir, "perfbench")


def expected_names(args):
    """Metric names BENCHMARK.json lists for this mode. Smoke mode reports
    both lists for every workload, each name prefixed with "<workload>/"."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    names = lambda key: {m["name"] for m in spec[key]}
    if "--smoke" in args:
        both = names("end_to_end") | names("per_layer")
        return {f"{w['name']}/{n}" for w in spec["workloads"] for n in both}
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    return names("per_layer" if traced else "end_to_end")


def main():
    args = sys.argv[1:]
    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    names = expected_names(args)
    binary = build(build_dir)

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    extra = ["--scratch", scratch]
    if "--workload" in args:
        workload = args[args.index("--workload") + 1]
        extra += ["--trace-out", os.path.join(build_dir, f"trace-{workload}.json")]
    try:
        proc = subprocess.run([binary] + args + extra, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark binary printed no JSON result")
    if set(result["metrics"]) != names:
        missing = sorted(names - set(result["metrics"]))
        extra_names = sorted(set(result["metrics"]) - names)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unlisted {extra_names}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
