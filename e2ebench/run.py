#!/usr/bin/env python3
"""End-to-end benchmark of the UniZK prover and proving service.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: prove-factorial, service-closed, service-open. BENCHMARK.json
lists the first two, with why each exists and what it stresses;
service-open runs the same way but is not part of that set (see
METRICS.md).

The script configures and builds this directory's CMake package, which
compiles the repository's src/ libraries and the benchmark binary, into
.bench_build/e2ebench, then runs the binary once. The binary's last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports every end-to-end metric, --trace 1 every
per-layer metric (and writes the run's spans to
.bench_build/e2ebench/traces/). This script checks that the metric names
are exactly those BENCHMARK.json declares before relaying that line,
and exits non-zero if the build, the run or any output check fails.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("prove-factorial", "service-closed", "service-open")

# Wall-clock cap on one binary run beyond its measured seconds; the
# set-up, reference proofs and drain of the slowest workload take well
# under a minute.
RUN_SLACK_S = 120


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def uint(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("not an unsigned integer: " + text)
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=uint)
    p.add_argument("--seconds", required=True, type=uint)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 3600:
        p.error("--seconds must be in [1, 3600]")
    return args


def build():
    """Configure once, then (re)build the binary; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no UniZK sources at " + str(ROOT / "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return BUILD / "e2ebench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_result(line, trace):
    """Validate the binary's result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("benchmark binary printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    want = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s has no finite value" % name)
        if m.get("unit") != want[name]:
            fail("metric %s has unit %r, BENCHMARK.json says %r" %
                 (name, m.get("unit"), want[name]))
    if result["attempted"] < 1 or not 0 <= result["failed"] <= \
            result["attempted"]:
        fail("bad attempted/failed counts")
    return result


def main(argv):
    args = parse_args(argv)
    binary = build()
    BUILD.mkdir(parents=True, exist_ok=True)
    # Sockets live in a per-run directory named relative to the
    # repository root, which keeps AF_UNIX paths short.
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--workdir", os.path.relpath(workdir, ROOT)]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / ("%s-seed%d.json" %
                                              (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, check=False,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary did not finish within %d s" %
             (args.seconds + RUN_SLACK_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = check_result(lines[-1], args.trace)
    print(lines[-1])
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        fail("an output check failed (benchmark binary exit code %d)" %
             proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
