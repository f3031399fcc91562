#!/usr/bin/env python3
"""End-to-end smoke test for the unizkd proving service.

Two legs, both driven by the unizk_load traffic generator:

  1. Steady state: start unizkd, run a fixed-seed uniform-closed
     schedule of 12 requests over 4 concurrent connections whose
     shapes span both Plonky2 and Starky, with --check (every served
     proof byte-compared against the in-process pipeline), then
     SIGTERM the daemon and assert a graceful drain: exit code 0,
     socket file unlinked, and a valid unizk-stats-v2 document whose
     histograms carry one service.request_latency_ns sample per
     completed request.

  2. Overload: a second daemon with --queue-capacity 0 rejects every
     request with the typed queue-full error (unizk_load reports them
     as backpressure, not failures); the same invocation's --shutdown
     then stops it cleanly via the protocol Shutdown frame.

Registered as the `service_smoke` ctest; also run by CI's
service-smoke job. Stdlib-only by design.

With --obs-compiled-out (a -DUNIZK_DISABLE_OBS=ON build) the latency
histogram and completed-requests counter are compiled out, so leg 1
asserts the stats document has no obs counters or histograms instead;
everything else still runs.

Usage:
    python3 tools/service/smoke_test.py /path/to/unizkd /path/to/unizk_load \
        [--obs-compiled-out]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "obs"))
sys.path.insert(0, os.path.join(HERE, "..", "load"))

import validate_obs_json  # noqa: E402
from load_smoke_test import (  # noqa: E402
    parse_summary, run_load, stop_daemon, wait_for_socket)

# uniform-closed under this seed draws 12 requests in 4 distinct
# shapes, Plonky2 and Starky both (checked against the daemon's
# per-run protocols below).
STEADY_ARGS = ["--scenario", "uniform-closed", "--seed", "6",
               "--requests", "12", "--connections", "4"]


def steady_state_leg(unizkd: str, load: str, workdir: str,
                     obs: bool) -> None:
    sock = os.path.join(workdir, "unizkd.sock")
    stats_path = os.path.join(workdir, "service-stats.json")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--queue-capacity", "8",
         "--lanes", "2", "--threads", "2", "--stats-json", stats_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        # unizk_load exits nonzero on a --check mismatch or a breakdown
        # violation, which run_load turns into a failure.
        out = run_load(load, ["--socket", sock] + STEADY_ARGS +
                       ["--check", "--threads", "2"])
        tally = parse_summary(out, "steady state")
        if tally["ok"] != 12 or tally["errors"]:
            raise SystemExit(f"steady state: bad tally {tally}")
        daemon.send_signal(signal.SIGTERM)
        log = stop_daemon(daemon, sock, "SIGTERM")
        if "caught signal" not in log:
            raise SystemExit("steady state: SIGTERM stop not logged")
    finally:
        if daemon.poll() is None:
            daemon.kill()

    errors = validate_obs_json.validate_file(stats_path, "stats")
    if errors:
        raise SystemExit("\n".join(errors))
    with open(stats_path, "r", encoding="utf-8") as f:
        stats = json.load(f)
    if stats["schema"] != "unizk-stats-v2":
        raise SystemExit(f"schema is {stats['schema']!r}, expected v2")
    if len(stats["runs"]) != 12:
        raise SystemExit(f"expected 12 runs, got {len(stats['runs'])}")
    protocols = {run["protocol"] for run in stats["runs"]}
    if protocols != {"plonky2", "starky"}:
        raise SystemExit(f"expected a mixed workload, got {protocols}")
    if obs:
        latency = stats["histograms"].get("service.request_latency_ns")
        if not latency or latency["count"] != 12:
            raise SystemExit(
                f"bad service.request_latency_ns histogram: {latency}")
        completed = stats["counters"].get("service.requests_completed")
        if completed != 12:
            raise SystemExit(
                f"service.requests_completed is {completed}, expected 12")
    elif stats["counters"] or stats["histograms"]:
        raise SystemExit("obs counters recorded, but the build was "
                         "declared obs-compiled-out")
    print("service_smoke: steady-state leg OK")


def overload_leg(unizkd: str, load: str, workdir: str) -> None:
    sock = os.path.join(workdir, "unizkd-overload.sock")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--queue-capacity", "0",
         "--lanes", "1", "--threads", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        # Shut down over the protocol instead of a signal this time.
        out = run_load(load, ["--socket", sock] + STEADY_ARGS +
                       ["--requests", "8", "--shutdown", "--threads", "2"])
        tally = parse_summary(out, "overload")
        if tally["queue_full"] != 8 or tally["ok"] or tally["errors"]:
            raise SystemExit(f"overload: bad tally {tally}")
        if "unizk_load: server acknowledged shutdown" not in out:
            raise SystemExit("overload: shutdown not acknowledged")
        log = stop_daemon(daemon, sock, "protocol shutdown")
        # Only an operator's signal is logged as one; the daemon's own
        # wake-up of its signal thread is not.
        if "caught signal" in log:
            raise SystemExit("overload: protocol shutdown logged as a "
                             "signal")
    finally:
        if daemon.poll() is None:
            daemon.kill()
    print("service_smoke: overload leg OK")


def main(argv) -> int:
    obs = "--obs-compiled-out" not in argv
    argv = [a for a in argv if a != "--obs-compiled-out"]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    unizkd, load = argv
    with tempfile.TemporaryDirectory() as workdir:
        steady_state_leg(unizkd, load, workdir, obs)
        overload_leg(unizkd, load, workdir)
    print("service_smoke: OK" if obs else
          "service_smoke: OK (obs compiled out)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
