#!/usr/bin/env python3
"""End-to-end smoke test for the unizk_load traffic generator.

Four legs:

  1. Determinism (no daemon): --dry-run the zipfian-closed scenario
     twice with the same seed and byte-compare the --schedule-out
     dumps (identical, identical fingerprint line), then once with a
     different seed (must differ).

  2. Strict parsing (no daemon): a scenario file with a junk number
     must exit nonzero with a fatal diagnostic, never run with a
     silently-defaulted value.

  3. Live matrix: start unizkd, run three scenarios against it --
     uniform-closed, zipfian-closed, and poisson-open -- and validate
     every --report document with validate_load_json (schema, outcome
     accounting, latency ordering, queue-depth samples, per-app sums).
     Each run must answer every request (ok == requests, errors == 0:
     the queue is deep enough that backpressure never triggers).

  4. Drain: SIGTERM the daemon and assert a graceful exit with the
     socket unlinked.

Registered as the `load_smoke` ctest; also run by CI's load-smoke job.
Stdlib-only by design.

Usage:
    python3 tools/load/load_smoke_test.py /path/to/unizkd /path/to/unizk_load
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import validate_load_json  # noqa: E402

FINGERPRINT_RE = re.compile(
    r"unizk_load: scenario=(\S+) seed=(\d+) requests=(\d+) "
    r"fingerprint=([0-9a-f]{16})"
)
SUMMARY_RE = re.compile(
    r"unizk_load: ok=(\d+) queue_full=(\d+) shutting_down=(\d+) "
    r"errors=(\d+)"
)


def run_load(load: str, args: list, expect_failure: bool = False) -> str:
    proc = subprocess.run(
        [load] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    print(proc.stdout, end="")
    if expect_failure:
        if proc.returncode == 0:
            raise SystemExit(
                f"unizk_load {' '.join(args)} exited 0, expected failure")
    elif proc.returncode != 0:
        raise SystemExit(
            f"unizk_load {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def determinism_leg(load: str, workdir: str) -> None:
    dumps = []
    fingerprints = []
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        path = os.path.join(workdir, f"schedule-{tag}.bin")
        out = run_load(load, [
            "--scenario", "zipfian-closed", "--seed", str(seed),
            "--dry-run", "--schedule-out", path,
        ])
        match = FINGERPRINT_RE.search(out)
        if not match:
            raise SystemExit("unizk_load printed no fingerprint line")
        with open(path, "rb") as f:
            dumps.append(f.read())
        fingerprints.append(match.group(4))
    if not dumps[0]:
        raise SystemExit("schedule dump is empty")
    if dumps[0] != dumps[1] or fingerprints[0] != fingerprints[1]:
        raise SystemExit("same seed produced different schedules")
    if dumps[0] == dumps[2]:
        raise SystemExit("different seeds produced identical schedules")
    print("load_smoke: determinism leg OK")


def misparse_leg(load: str, workdir: str) -> None:
    bad = os.path.join(workdir, "bad.scn")
    with open(bad, "w", encoding="utf-8") as f:
        f.write("name bad\nrequests 12abc\n"
                "mix plonky2 factorial 1 64 64 1\n")
    out = run_load(load, ["--scenario-file", bad, "--dry-run"],
                   expect_failure=True)
    if "fatal" not in out:
        raise SystemExit("misparse exited nonzero but printed no fatal")
    print("load_smoke: misparse leg OK")


def parse_summary(out: str, what: str) -> dict:
    """The outcome tally from unizk_load's summary line."""
    match = SUMMARY_RE.search(out)
    if not match:
        raise SystemExit(f"{what}: unizk_load printed no summary line")
    keys = ("ok", "queue_full", "shutting_down", "errors")
    return dict(zip(keys, (int(g) for g in match.groups())))


def wait_for_socket(path: str, daemon: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        if daemon.poll() is not None:
            raise SystemExit(
                f"unizkd exited early with {daemon.returncode}")
        time.sleep(0.05)
    raise SystemExit(f"unizkd never created {path}")


def stop_daemon(daemon: subprocess.Popen, sock: str, how: str) -> str:
    """Wait for a daemon told to stop (by @p how) to drain cleanly;
    returns its output."""
    try:
        out, _ = daemon.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise SystemExit(f"unizkd did not drain after {how}")
    print(out, end="")
    if daemon.returncode != 0:
        raise SystemExit(
            f"unizkd exited with {daemon.returncode} after {how}")
    if os.path.exists(sock):
        raise SystemExit(f"unizkd leaked its socket file {sock}")
    return out


def run_scenario(load: str, sock: str, workdir: str, name: str,
                 extra: list) -> None:
    report = os.path.join(workdir, f"report-{name}.json")
    out = run_load(load, [
        "--socket", sock, "--scenario", name, "--seed", "1",
        "--requests", "6", "--connections", "2", "--report", report,
    ] + extra)
    tally = parse_summary(out, name)
    if tally != {"ok": 6, "queue_full": 0, "shutting_down": 0,
                 "errors": 0}:
        raise SystemExit(f"{name}: bad tally {tally}")
    failures = validate_load_json.validate_file(report)
    if failures:
        raise SystemExit("\n".join(failures))
    with open(report, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc["scenario"]["name"] != name:
        raise SystemExit(
            f"report names {doc['scenario']['name']!r}, ran {name}")
    if doc["results"]["ok"] != 6:
        raise SystemExit(f"{name}: report ok != 6")
    print(f"load_smoke: scenario {name} OK")


def live_leg(unizkd: str, load: str, workdir: str) -> None:
    sock = os.path.join(workdir, "unizkd.sock")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--queue-capacity", "16",
         "--lanes", "2", "--threads", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        run_scenario(load, sock, workdir, "uniform-closed", [])
        run_scenario(load, sock, workdir, "zipfian-closed", [])
        run_scenario(load, sock, workdir, "poisson-open",
                     ["--rate", "50"])
        daemon.send_signal(signal.SIGTERM)
        stop_daemon(daemon, sock, "SIGTERM")
    finally:
        if daemon.poll() is None:
            daemon.kill()
    print("load_smoke: live leg OK")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    unizkd, load = argv
    with tempfile.TemporaryDirectory() as workdir:
        determinism_leg(load, workdir)
        misparse_leg(load, workdir)
        live_leg(unizkd, load, workdir)
    print("load_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
