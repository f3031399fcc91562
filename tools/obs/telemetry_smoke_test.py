#!/usr/bin/env python3
"""End-to-end smoke test for the unizkd live-telemetry surface.

Drives the whole tentpole loop of the observability PR against real
binaries: a daemon exporting periodic stats windows, a traced load run,
and the GetStats/exposition scrape path, then cross-checks every
artifact with the repo's validators.

Legs:

  1. Traced load: start unizkd with --stats-interval so the exporter
     thread rotates windows while lanes are busy, run a short
     zipfian-open scenario, and validate the `unizk-load-v1` report
     (schema + breakdown). Every request must come back traced with
     queuedNs + proveNs + serializeNs <= serverNs <= clientNs and
     zero breakdown violations -- the PR's acceptance criterion.

  2. Live scrape: while the load is in flight, poll `unizk_top --once
     --prom` (GetStats served while lanes are mid-request) and validate
     every non-empty scrape against the Prometheus text format with
     validate_exposition. After the load drains, a final scrape must
     show the completed-requests counter.

  3. Window log: SIGTERM the daemon and validate the stats-window
     JSONL with validate_obs_json --kind windows: contiguous sequence
     numbers, windowStartNs chaining, and exact delta-vs-cumulative
     reconciliation per counter and histogram. The daemon's "wrote N
     stats windows" exit line must match the file's line count
     (GetStats scrapes rotate through the same sink, so the sequence
     stays gapless even with two window consumers).

Registered as the `telemetry_smoke` ctest; also run by CI's obs-schema
job. Stdlib-only by design.

With --obs-compiled-out (a -DUNIZK_DISABLE_OBS=ON build) the service
counters and histograms are compiled out: leg 2 then asserts the final
scrape carries none of the request families. Legs 1 and 3 run
unchanged (the window log still validates; it reconciles no counters).

Usage:
    python3 tools/obs/telemetry_smoke_test.py \\
        /path/to/unizkd /path/to/unizk_load /path/to/unizk_top \\
        [--obs-compiled-out]
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

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_HERE, "..", "load"))

import validate_exposition  # noqa: E402
import validate_load_json  # noqa: E402
import validate_obs_json  # noqa: E402

WINDOWS_WRITTEN_RE = re.compile(r"unizkd: wrote (\d+) stats windows")


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


def scrape_prom(top: str, sock: str) -> str:
    proc = subprocess.run(
        [top, "--socket", sock, "--once", "--prom"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"unizk_top --once --prom exited with {proc.returncode}:\n"
            f"{proc.stdout}")
    return proc.stdout


def check_exposition(text: str, label: str) -> None:
    errors = validate_exposition.validate_exposition(text, label)
    if errors:
        raise SystemExit("\n".join(errors))


def traced_load_and_scrapes(load: str, top: str, sock: str,
                            workdir: str, obs: bool) -> str:
    """Leg 1 + 2: returns the report path for later inspection."""
    report = os.path.join(workdir, "report.json")
    requests = 10
    load_proc = subprocess.Popen(
        [load, "--socket", sock, "--scenario", "zipfian-open",
         "--seed", "1", "--requests", str(requests),
         "--connections", "2", "--rate", "20", "--report", report],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # Scrape while lanes are mid-request. Early scrapes may race the
    # first completion and carry no families yet; every non-empty one
    # must already be grammatical.
    mid_scrapes = 0
    while load_proc.poll() is None:
        text = scrape_prom(top, sock)
        if text.strip():
            check_exposition(text, "mid-load scrape")
            mid_scrapes += 1
        time.sleep(0.1)
    out, _ = load_proc.communicate(timeout=600)
    print(out, end="")
    if load_proc.returncode != 0:
        raise SystemExit(
            f"unizk_load exited with {load_proc.returncode}")

    failures = validate_load_json.validate_file(report)
    if failures:
        raise SystemExit("\n".join(failures))
    with open(report, "r", encoding="utf-8") as f:
        doc = json.load(f)
    bd = doc["results"]["breakdown"]
    if doc["results"]["ok"] != requests:
        raise SystemExit(
            f"report ok={doc['results']['ok']}, expected {requests}")
    if bd["traced"] != requests or bd["violations"] != 0:
        raise SystemExit(
            f"breakdown traced={bd['traced']} violations="
            f"{bd['violations']}, expected traced={requests} "
            "violations=0")
    for s in bd["samples"]:
        parts = s["queuedNs"] + s["proveNs"] + s["serializeNs"]
        if not parts <= s["serverNs"] <= s["clientNs"]:
            raise SystemExit(
                f"trace {s['traceId']}: decomposition "
                f"{parts} <= {s['serverNs']} <= {s['clientNs']} "
                "does not hold")
    print(f"telemetry_smoke: traced load OK "
          f"({requests} requests, {mid_scrapes} mid-load scrape(s))")

    final = scrape_prom(top, sock)
    check_exposition(final, "final scrape")
    families = ("unizk_service_requests_completed_total",
                "unizk_service_request_latency_ns_bucket")
    if obs:
        for family in families:
            if family not in final:
                raise SystemExit(f"final scrape lacks {family}")
    elif any(family in final for family in families):
        raise SystemExit("final scrape carries service families, but "
                         "the build was declared obs-compiled-out")
    print("telemetry_smoke: exposition scrape OK")
    return report


def windows_leg(daemon: subprocess.Popen, windows_path: str) -> None:
    daemon.send_signal(signal.SIGTERM)
    try:
        out, _ = daemon.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise SystemExit("unizkd did not drain after SIGTERM")
    print(out, end="")
    if daemon.returncode != 0:
        raise SystemExit(
            f"unizkd exited with {daemon.returncode} after SIGTERM")

    match = WINDOWS_WRITTEN_RE.search(out)
    if not match:
        raise SystemExit("unizkd printed no 'wrote N stats windows'")
    written = int(match.group(1))

    failures = validate_obs_json.validate_file(windows_path, "windows")
    if failures:
        raise SystemExit("\n".join(failures))
    with open(windows_path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if len(lines) != written:
        raise SystemExit(
            f"daemon says it wrote {written} windows, file has "
            f"{len(lines)}")
    # The exporter interval plus the shutdown flush plus the GetStats
    # scrapes must have produced at least a couple of windows.
    if written < 2:
        raise SystemExit(f"only {written} stats window(s) captured")
    # Spot-check the acceptance criterion end to end: the completed-
    # request deltas across all windows must sum to the final
    # cumulative value (the validator already checked per-record
    # reconciliation; this closes the telescope).
    delta_sum = 0
    final_cumulative = 0
    for ln in lines:
        rec = json.loads(ln)
        c = rec["counters"].get("service.requests_completed")
        if c is not None:
            delta_sum += c["delta"]
            final_cumulative = c["cumulative"]
    if delta_sum != final_cumulative:
        raise SystemExit(
            f"window deltas sum to {delta_sum}, final cumulative is "
            f"{final_cumulative}")
    print(f"telemetry_smoke: window log OK ({written} windows, "
          f"{final_cumulative} completions reconciled)")


def main(argv) -> int:
    obs = "--obs-compiled-out" not in argv
    argv = [a for a in argv if a != "--obs-compiled-out"]
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    unizkd, load, top = argv
    with tempfile.TemporaryDirectory() as workdir:
        sock = os.path.join(workdir, "unizkd.sock")
        windows_path = os.path.join(workdir, "windows.jsonl")
        daemon = subprocess.Popen(
            [unizkd, "--socket", sock, "--queue-capacity", "16",
             "--lanes", "2", "--threads", "2",
             "--stats-interval", "0.2",
             "--stats-windows", windows_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_for_socket(sock, daemon)
            traced_load_and_scrapes(load, top, sock, workdir, obs)
            windows_leg(daemon, windows_path)
        finally:
            if daemon.poll() is None:
                daemon.kill()
    print("telemetry_smoke: OK" if obs else
          "telemetry_smoke: OK (obs compiled out)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
