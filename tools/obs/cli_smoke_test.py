#!/usr/bin/env python3
"""End-to-end smoke test for unizk_cli's observability artifacts.

For each protocol (plonky2 and starky) this runs the CLI twice on the
same small workload -- once bare, once with --stats-json / --trace-json
/ --folded -- then checks that:

  1. both emitted JSON documents pass validate_obs_json.py,
  2. the stats document's run matches the requested protocol and rows,
     reports a verified proof, and carries live v2 hardware counters
     (non-zero VSA busy/stall cycles, DRAM row hits and misses,
     scratchpad high-water mark, a non-empty timeline and histograms),
  3. the collapsed-stack profile is non-empty and well-formed,
  4. the serialized proof (--proof-out) is byte-identical with and
     without observability enabled (instrumentation must not perturb
     the transcript).

Registered as the `obs_cli_smoke` ctest; also run by CI's obs-schema
job. Stdlib-only by design.

With --obs-compiled-out (a -DUNIZK_DISABLE_OBS=ON build) the spans and
counters are compiled out: check 2 then asserts there are no obs
counters or histograms, check 3 is skipped, and everything else runs.

Usage:
    python3 tools/obs/cli_smoke_test.py /path/to/unizk_cli \
        [--obs-compiled-out]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import validate_obs_json  # noqa: E402

# Small but non-trivial: a few FRI layers, several Merkle trees, and
# (for plonky2) the permutation argument all execute.
COMMON_ARGS = ["--rows", "256", "--reps", "2", "--fast", "--threads", "2"]


def run_cli(cli: str, args: list) -> None:
    proc = subprocess.run(
        [cli] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        raise SystemExit(
            f"unizk_cli {' '.join(args)} exited with {proc.returncode}"
        )


def check_hw_counters(run: dict, protocol: str) -> None:
    """The v2 counters must be live, not just schema-valid zeros."""
    hw = run["sim"]["hwCounters"]
    checks = {
        "VSA busy cycles": hw["vsa"]["totalBusy"],
        "VSA stall cycles": hw["vsa"]["totalStall"],
        "DRAM row hits": hw["dram"]["rowHits"],
        "DRAM row misses": hw["dram"]["rowMisses"],
        "scratchpad high-water": hw["scratchpad"]["highWaterBytes"],
        "timeline samples": len(run["sim"]["timeline"]["samples"]),
    }
    zero = [name for name, value in checks.items() if value == 0]
    if zero:
        raise SystemExit(f"{protocol}: zero hw counters: {zero}")


def check_folded(folded_path: str, protocol: str) -> None:
    with open(folded_path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise SystemExit(f"{protocol}: empty folded profile")
    for line in lines:
        stack, _, value = line.rpartition(" ")
        if not stack or not value.isdigit():
            raise SystemExit(
                f"{protocol}: malformed folded line {line!r}")


def check_protocol(cli: str, protocol: str, workdir: str,
                   obs: bool) -> None:
    stats_path = os.path.join(workdir, f"{protocol}-stats.json")
    trace_path = os.path.join(workdir, f"{protocol}-trace.json")
    folded_path = os.path.join(workdir, f"{protocol}-spans.folded")
    proof_obs = os.path.join(workdir, f"{protocol}-obs.proof")
    proof_bare = os.path.join(workdir, f"{protocol}-bare.proof")

    base = ["--protocol", protocol, "--app", "fibonacci"] + COMMON_ARGS
    run_cli(cli, base + ["--proof-out", proof_bare])
    run_cli(
        cli,
        base
        + ["--stats-json", stats_path, "--trace-json", trace_path,
           "--folded", folded_path, "--proof-out", proof_obs],
    )

    errors = validate_obs_json.validate_file(stats_path, "stats")
    errors += validate_obs_json.validate_file(trace_path, "trace")
    if errors:
        raise SystemExit("\n".join(errors))

    with open(stats_path, "r", encoding="utf-8") as f:
        stats = json.load(f)
    run = stats["runs"][0]
    if run["protocol"] != protocol:
        raise SystemExit(
            f"stats protocol is {run['protocol']!r}, expected {protocol!r}"
        )
    if run["rows"] != 256:
        raise SystemExit(f"stats rows is {run['rows']}, expected 256")
    if not run["proof"]["verified"]:
        raise SystemExit(f"{protocol}: proof did not verify")
    if stats["schema"] != "unizk-stats-v2":
        raise SystemExit(
            f"{protocol}: schema is {stats['schema']!r}, expected v2")
    if obs:
        if not stats["counters"]:
            raise SystemExit(f"{protocol}: no obs counters recorded")
        if not stats["histograms"]:
            raise SystemExit(f"{protocol}: no obs histograms recorded")
        check_folded(folded_path, protocol)
    elif stats["counters"] or stats["histograms"]:
        raise SystemExit(
            f"{protocol}: obs counters recorded, but the build was "
            "declared obs-compiled-out")
    check_hw_counters(run, protocol)

    with open(proof_bare, "rb") as f:
        bare = f.read()
    with open(proof_obs, "rb") as f:
        obs = f.read()
    if not bare:
        raise SystemExit(f"{protocol}: empty proof file")
    if bare != obs:
        raise SystemExit(
            f"{protocol}: proof bytes differ with observability enabled "
            f"({len(bare)} vs {len(obs)} bytes)"
        )
    print(f"{protocol}: stats+trace valid, proof byte-identical "
          f"({len(bare)} bytes)")


def main(argv) -> int:
    obs = "--obs-compiled-out" not in argv
    argv = [a for a in argv if a != "--obs-compiled-out"]
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    cli = argv[0]
    with tempfile.TemporaryDirectory() as workdir:
        for protocol in ("plonky2", "starky"):
            check_protocol(cli, protocol, workdir, obs)
    print("obs_cli_smoke: OK" if obs else
          "obs_cli_smoke: OK (obs compiled out)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
