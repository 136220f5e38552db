#!/usr/bin/env python3
"""The repository benchmark: build zipr_perfbench, run one workload, check it.

Run from the repository root:

    python3 perfbench/run.py --workload <corpus|large|serve-mix|fuzz> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs rebuild incrementally. zipr_perfbench's
stdout is passed through -- host record, notes and the workload's named
figures -- and the last line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer ones plus a Chrome trace-event file
in .bench_out/ that Perfetto opens offline.

Before printing, the result is checked against BENCHMARK.json: every metric
named there is present with its unit, values are finite (end-to-end ones
non-zero), and a traced run's trace file parses. A failed self-check makes
the run incorrect.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "large", "serve-mix", "fuzz")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure (once) and build zipr_perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rewriter sources (src/) not found next to perfbench/")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "zipr_perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
        fail("build failed")
    return os.path.join(build_dir, "zipr_perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def self_check(result, spec, trace, trace_path):
    """Problems with a result, as strings; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(expected) | set(got)):
        if name not in got:
            problems.append(f"metric {name} missing")
        elif name not in expected:
            problems.append(f"metric {name} not in BENCHMARK.json")
        elif got[name].get("unit") != expected[name]:
            problems.append(f"metric {name} unit {got[name].get('unit')} != {expected[name]}")
        else:
            v = got[name].get("value")
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                problems.append(f"metric {name} value {v!r} not finite")
            elif not trace and v == 0:
                problems.append(f"end-to-end metric {name} is 0")
    if trace:
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                problems.append("trace file has no events")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"trace file {trace_path} does not parse: {e}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    binary = build(build_dir)

    work_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--work-dir={os.path.relpath(work_dir, ROOT)}", f"--commit={commit()}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"zipr_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("zipr_perfbench's last line is not JSON")

    trace_path = os.path.join(work_dir, f"trace-{args.workload}-{args.seed}.json")
    problems = self_check(result, spec, args.trace == 1, trace_path)
    for p in problems:
        print(f"perfbench: self-check: {p}", file=sys.stderr)
    if problems:
        result = {"correct": False, "attempted": int(result.get("attempted", 0)) + 1,
                  "failed": int(result.get("failed", 0)) + 1,
                  "metrics": result.get("metrics", {})}
    for line in lines[:-1]:
        print(line)
    if args.trace:
        print(f"trace {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
