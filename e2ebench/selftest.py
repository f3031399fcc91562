#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py [--no-smoke]

1. Schema: BENCHMARK.json has exactly the documented keys and limits
   (names, units, bounds, workload count, run length budget), and its
   workloads are the ones run.py accepts.
2. Smoke: each workload runs for one second untraced and traced; the
   result line must be well formed, correct, and carry exactly the
   declared metrics. The traced run of each workload is repeated with
   the same seed, and its exact work counts must repeat.
3. Bare directory: a copy holding only BENCHMARK.json and e2ebench/
   must exit non-zero without printing a result line.

Exits non-zero on the first failure.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the entry point's constants and checks)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
EXACT_COUNTS = ("hash.perms", "ntt.butterflies", "sim.cycles",
                "sim.kernel_ops")
# A full measurement campaign (4 + 22 x workloads runs and two builds)
# must fit in 3420 s. Upper estimates: one run's wall time
# beyond run_seconds (warm-up, set-up, reference proofs, process start;
# measured 9-12 s on a 4-vCPU host) and one cold build (measured
# 52-68 s there with 4 jobs).
RUN_OVERHEAD_S = 12
BUILD_S = 150


def expect(cond, msg):
    if not cond:
        print("selftest FAILED: " + msg, file=sys.stderr)
        sys.exit(1)


def check_schema():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    expect(len(raw) <= 64 * 1024, "BENCHMARK.json larger than 64 KiB")
    spec = json.loads(raw)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
           "top-level keys: %s" % sorted(spec))

    cmd = spec["command"]
    expect(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
           all(isinstance(a, str) and len(a) <= 200 for a in cmd),
           "command must be 1..32 strings of <= 200 characters")
    expect(not any(a.startswith("/") or ".." in a.split("/") for a in cmd),
           "command may not use absolute or parent paths")

    paths = spec["paths"]
    expect(isinstance(paths, list) and 1 <= len(paths) <= 16 and
           all(PATH.match(p) and ".." not in p.split("/") for p in paths),
           "paths must be 1..16 relative directories")
    for p in paths:
        expect((ROOT / p).is_dir(), "path %s is not a directory" % p)
        for f in (ROOT / p).rglob("*"):
            expect(not f.is_symlink(), "%s is a link" % f)
    expect(any(a.split("/")[0] in paths for a in cmd[1:]),
           "command must name its script inside paths")

    seconds = spec["run_seconds"]
    expect(isinstance(seconds, int) and 1 <= seconds <= 60,
           "run_seconds must be a whole number in [1, 60]")

    names = set()

    def unique(name):
        expect(isinstance(name, str) and NAME.match(name) is not None,
               "bad name %r" % name)
        expect(name not in names, "name %s used twice" % name)
        names.add(name)

    workloads = spec["workloads"]
    expect(2 <= len(workloads) <= 8, "2..8 workloads")
    for w in workloads:
        expect(set(w) == {"name", "why"}, "workload keys: %s" % sorted(w))
        unique(w["name"])
        expect(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and
               "\n" not in w["why"], "why of %s: one line, <= 200 chars" %
               w["name"])
    # run.py also runs service-open, which BENCHMARK.json leaves out
    # (see METRICS.md); every listed workload must be one run.py runs.
    expect({w["name"] for w in workloads} <= set(run.WORKLOADS),
           "BENCHMARK.json lists a workload run.py does not run")

    e2e = spec["end_to_end"]
    expect(1 <= len(e2e) <= 16, "1..16 end-to-end metrics")
    for m in e2e:
        expect(set(m) == {"name", "unit", "better", "bound"},
               "end-to-end keys: %s" % sorted(m))
        unique(m["name"])
        expect(UNIT.match(m["unit"]) is not None, "bad unit %r" % m["unit"])
        expect(m["better"] in ("higher", "lower"), "better of " + m["name"])
        expect(isinstance(m["bound"], (int, float)) and
               0 < m["bound"] <= 0.25, "bound of %s in (0, 0.25]" % m["name"])
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower", "setup_s (s, lower) is required")
    expect(setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s must have the largest bound")

    layers = spec["per_layer"]
    expect(1 <= len(layers) <= 128, "1..128 per-layer metrics")
    for m in layers:
        expect(set(m) == {"name", "unit", "better"},
               "per-layer keys: %s" % sorted(m))
        unique(m["name"])
        expect(UNIT.match(m["unit"]) is not None, "bad unit %r" % m["unit"])
        expect(m["better"] in ("higher", "lower"), "better of " + m["name"])

    runs = 4 + 22 * len(workloads)
    budget = 2 * BUILD_S + runs * (seconds + RUN_OVERHEAD_S)
    expect(budget <= 3420, "estimated campaign time %d s exceeds 3420 s" %
           budget)
    print("schema ok: %d workloads, %d end-to-end, %d per-layer metrics, "
          "estimated campaign time %d s" % (len(workloads), len(e2e),
                                          len(layers), budget))


def run_once(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, check=False)
    expect(proc.returncode == 0, "%s --trace %s exited %d:\n%s" %
           (workload, trace, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    expect(result["correct"] and result["failed"] == 0,
           "%s --trace %s reported failures" % (workload, trace))
    for name in result["metrics"]:
        expect(NAME.match(name) is not None, "bad metric name " + name)
    return result["metrics"]


def check_smoke():
    for workload in run.WORKLOADS:
        e2e = run_once(workload, "0")
        for name, m in e2e.items():
            expect(m["value"] != 0, "%s: %s is 0" % (workload, name))
        first = run_once(workload, "1")
        again = run_once(workload, "1")
        for name in EXACT_COUNTS:
            expect(first[name]["value"] == again[name]["value"],
                   "%s: %s differs between runs of one seed" %
                   (workload, name))
        print("smoke ok: %s" % workload)


def check_bare_directory():
    bare = run.BUILD.parent / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             run.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "bare directory run exited 0")
    expect('"metrics"' not in proc.stdout,
           "bare directory run printed a result")
    print("bare directory ok: exit %d, no result" % proc.returncode)


def main(argv):
    check_schema()
    check_bare_directory()
    if "--no-smoke" not in argv:
        check_smoke()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
