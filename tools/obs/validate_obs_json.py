#!/usr/bin/env python3
"""Schema validator for the UniZK observability JSON artifacts.

Validates the two documents the instrumented binaries emit:

  stats   the "unizk-stats-v2" document written by --stats-json
          (unizk_cli and every bench harness): per-run CPU breakdown,
          simulator report with per-class bus/useful byte accounting,
          hardware counters (per-VSA busy/stall/idle, DRAM row-buffer
          and per-bank traffic, scratchpad pressure), the occupancy
          timeline, proof metadata, and the merged obs counters and
          histograms, and the span-buffer accounting.
  trace   the Chrome trace_event document written by --trace-json:
          "M" process_name / thread_name metadata events, "C" counter
          samples (VSA occupancy, queue depth on sim lanes), and "X"
          complete events (CPU span lanes under pid 1, simulated
          kernel lanes under pid >= 2). Loadable in Perfetto /
          chrome://tracing.
  windows the "unizk-stats-v3" JSONL log written by unizkd
          --stats-interval / --stats-windows (one window record per
          line, appended by ProofService::statsWindow). Beyond per-line
          shape, the validator checks the *stream* invariants the
          single-rotation-stream design guarantees: sequence numbers
          strictly increase, window intervals chain (start of N+1 ==
          end of N when sequences are adjacent), and for every counter
          and histogram the deltas reconcile exactly against the
          cumulative totals (cumulative[i] == cumulative[i-1] +
          delta[i]).

The C++ emitters live in src/obs/stats_export.cpp and
src/obs/trace_export.cpp; update this validator and those together.

Usage:
    python3 tools/obs/validate_obs_json.py --kind stats FILE...
    python3 tools/obs/validate_obs_json.py --kind trace FILE...
    python3 tools/obs/validate_obs_json.py --kind windows FILE...
    python3 tools/obs/validate_obs_json.py --kind auto FILE...

Exit status is nonzero iff any file fails validation.
Stdlib-only by design; runs anywhere python3 exists.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List

KERNEL_CLASSES = (
    "Polynomial",
    "NTT",
    "MerkleTree",
    "OtherHash",
    "LayoutTransform",
)

STATS_SCHEMA = "unizk-stats-v2"


class ValidationError(Exception):
    pass


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        _fail(path, message)


def _expect_keys(obj: Any, keys: tuple, path: str) -> None:
    _expect(isinstance(obj, dict), path, f"expected object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    _expect(not missing, path, f"missing keys: {', '.join(missing)}")


def _expect_number(obj: dict, key: str, path: str, minimum: float = 0.0) -> None:
    v = obj.get(key)
    _expect(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        path,
        f"'{key}' must be a number, got {type(v).__name__}",
    )
    _expect(v >= minimum, path, f"'{key}' must be >= {minimum}, got {v}")


def _expect_fraction(obj: dict, key: str, path: str) -> None:
    _expect_number(obj, key, path)
    _expect(obj[key] <= 1.0 + 1e-9, path, f"'{key}' must be <= 1, got {obj[key]}")


# --------------------------------------------------------------------------
# Stats schema.
# --------------------------------------------------------------------------

def validate_breakdown(b: Any, path: str) -> None:
    _expect_keys(b, ("totalSeconds",) + KERNEL_CLASSES, path)
    _expect_number(b, "totalSeconds", path)
    total = sum(b[c] for c in KERNEL_CLASSES)
    _expect(
        abs(total - b["totalSeconds"]) <= max(1e-6, 1e-6 * total),
        path,
        f"class seconds sum to {total}, totalSeconds says {b['totalSeconds']}",
    )


def validate_hw_counters(hw: Any, num_vsas: int, path: str) -> None:
    _expect_keys(hw, ("vsa", "dram", "scratchpad"), path)

    vsa = hw["vsa"]
    _expect_keys(
        vsa,
        ("busyCycles", "stallCycles", "idleCycles", "totalBusy",
         "totalStall", "totalIdle"),
        f"{path}.vsa",
    )
    for key in ("busyCycles", "stallCycles", "idleCycles"):
        lanes = vsa[key]
        _expect(isinstance(lanes, list), f"{path}.vsa",
                f"'{key}' must be an array")
        _expect(
            len(lanes) == num_vsas,
            f"{path}.vsa",
            f"'{key}' has {len(lanes)} lanes, config.numVsas is "
            f"{num_vsas}",
        )
        total = vsa["total" + key[0].upper() + key[1:-6]]
        _expect(
            sum(lanes) == total,
            f"{path}.vsa",
            f"'{key}' lanes sum to {sum(lanes)}, total says {total}",
        )

    dram = hw["dram"]
    _expect_keys(dram, ("rowHits", "rowMisses", "bankConflicts",
                        "bankBytes"), f"{path}.dram")
    for key in ("rowHits", "rowMisses", "bankConflicts"):
        _expect_number(dram, key, f"{path}.dram")
    _expect(isinstance(dram["bankBytes"], list), f"{path}.dram",
            "'bankBytes' must be an array")

    sp = hw["scratchpad"]
    _expect_keys(sp, ("highWaterBytes", "evictions"),
                 f"{path}.scratchpad")
    for key in ("highWaterBytes", "evictions"):
        _expect_number(sp, key, f"{path}.scratchpad")


def validate_timeline(tl: Any, total_cycles: float, path: str) -> None:
    _expect_keys(tl, ("samplePeriodCycles", "samples"), path)
    _expect_number(tl, "samplePeriodCycles", path)
    samples = tl["samples"]
    _expect(isinstance(samples, list), path, "'samples' must be an array")
    last_cycle = -1
    for i, s in enumerate(samples):
        spath = f"{path}.samples[{i}]"
        _expect_keys(s, ("cycle", "vsasBusy", "queueDepth", "class"),
                     spath)
        for key in ("cycle", "vsasBusy", "queueDepth"):
            _expect_number(s, key, spath)
        _expect(s["class"] in KERNEL_CLASSES, spath,
                f"unknown kernel class {s['class']!r}")
        _expect(s["cycle"] > last_cycle, spath,
                "'cycle' must be strictly increasing")
        _expect(s["cycle"] < total_cycles, spath,
                f"'cycle' ({s['cycle']}) past totalCycles "
                f"({total_cycles})")
        last_cycle = s["cycle"]


def validate_sim(sim: Any, path: str) -> None:
    _expect_keys(sim, ("totalCycles", "seconds", "readRequests",
                       "writeRequests", "config", "perClass",
                       "hwCounters", "timeline"), path)
    for key in ("totalCycles", "seconds", "readRequests", "writeRequests"):
        _expect_number(sim, key, path)

    cfg = sim["config"]
    _expect_keys(cfg, ("numVsas", "clockGhz", "peakMemBytesPerCycle"),
                 f"{path}.config")
    for key in ("numVsas", "clockGhz", "peakMemBytesPerCycle"):
        _expect_number(cfg, key, f"{path}.config")

    per_class = sim["perClass"]
    _expect_keys(per_class, KERNEL_CLASSES, f"{path}.perClass")
    cycle_sum = 0
    for cls in KERNEL_CLASSES:
        cpath = f"{path}.perClass.{cls}"
        stats = per_class[cls]
        _expect_keys(
            stats,
            ("cycles", "computeCycles", "memCycles", "busBytes",
             "usefulBytes", "readRequests", "writeRequests", "kernels",
             "cycleFraction", "memUtilization", "usefulFraction",
             "vsaUtilization"),
            cpath,
        )
        for key in ("cycles", "computeCycles", "memCycles", "busBytes",
                    "usefulBytes", "readRequests", "writeRequests",
                    "kernels"):
            _expect_number(stats, key, cpath)
        for key in ("cycleFraction", "memUtilization", "usefulFraction",
                    "vsaUtilization"):
            _expect_fraction(stats, key, cpath)
        # Bus bytes include granularity waste, so they bound the payload.
        _expect(
            stats["busBytes"] >= stats["usefulBytes"],
            cpath,
            f"busBytes ({stats['busBytes']}) < usefulBytes "
            f"({stats['usefulBytes']})",
        )
        cycle_sum += stats["cycles"]
    _expect(
        cycle_sum == sim["totalCycles"],
        path,
        f"per-class cycles sum to {cycle_sum}, totalCycles says "
        f"{sim['totalCycles']}",
    )

    validate_hw_counters(sim["hwCounters"], int(cfg["numVsas"]),
                         f"{path}.hwCounters")
    validate_timeline(sim["timeline"], sim["totalCycles"],
                      f"{path}.timeline")


def validate_histograms(histograms: Any, path: str) -> None:
    _expect(isinstance(histograms, dict), path,
            "'histograms' must be an object")
    for name, h in histograms.items():
        hpath = f"{path}.histograms.{name}"
        _expect_keys(h, ("count", "sum", "min", "max", "buckets"), hpath)
        for key in ("count", "sum", "min", "max"):
            _expect_number(h, key, hpath)
        _expect(h["min"] <= h["max"], hpath,
                f"min ({h['min']}) > max ({h['max']})")
        buckets = h["buckets"]
        _expect(isinstance(buckets, list), hpath,
                "'buckets' must be an array")
        bucket_count = 0
        for i, b in enumerate(buckets):
            bpath = f"{hpath}.buckets[{i}]"
            _expect_keys(b, ("lo", "hi", "count"), bpath)
            for key in ("lo", "hi", "count"):
                _expect_number(b, key, bpath)
            _expect(b["lo"] <= b["hi"], bpath,
                    f"lo ({b['lo']}) > hi ({b['hi']})")
            _expect(b["count"] > 0, bpath,
                    "empty buckets must be omitted")
            bucket_count += b["count"]
        _expect(
            bucket_count == h["count"],
            hpath,
            f"bucket counts sum to {bucket_count}, count says "
            f"{h['count']}",
        )


def validate_span_buffers(sb: Any, path: str) -> None:
    _expect_keys(sb, ("dropped", "capPerThread", "perThread"), path)
    _expect_number(sb, "dropped", path)
    _expect_number(sb, "capPerThread", path)
    _expect(sb["capPerThread"] >= 1, path, "'capPerThread' must be >= 1")
    per_thread = sb["perThread"]
    _expect(isinstance(per_thread, list), path,
            "'perThread' must be an array")
    last_tid = -1
    for i, t in enumerate(per_thread):
        tpath = f"{path}.perThread[{i}]"
        _expect_keys(t, ("threadId", "buffered", "highWater"), tpath)
        for key in ("threadId", "buffered", "highWater"):
            _expect_number(t, key, tpath)
        _expect(t["threadId"] > last_tid, tpath,
                "'threadId' must be strictly increasing")
        _expect(t["buffered"] <= t["highWater"], tpath,
                f"buffered ({t['buffered']}) > highWater "
                f"({t['highWater']})")
        _expect(t["highWater"] <= sb["capPerThread"], tpath,
                f"highWater ({t['highWater']}) > capPerThread "
                f"({sb['capPerThread']})")
        last_tid = t["threadId"]


def validate_stats(doc: Any, path: str) -> None:
    _expect_keys(doc, ("schema", "runs", "counters", "histograms",
                       "spanBuffers"), path)
    _expect(
        doc["schema"] == STATS_SCHEMA,
        path,
        f"schema is {doc['schema']!r}, expected {STATS_SCHEMA!r}",
    )
    _expect(isinstance(doc["runs"], list), path, "'runs' must be an array")
    _expect(doc["runs"], path, "'runs' must not be empty")
    for i, run in enumerate(doc["runs"]):
        rpath = f"{path}.runs[{i}]"
        _expect_keys(
            run,
            ("app", "protocol", "rows", "repetitions", "threads", "cpu",
             "proof", "sim"),
            rpath,
        )
        _expect(isinstance(run["app"], str) and run["app"], rpath,
                "'app' must be a non-empty string")
        _expect(run["protocol"] in ("plonky2", "starky"), rpath,
                f"unknown protocol {run['protocol']!r}")
        for key in ("rows", "repetitions", "threads"):
            _expect_number(run, key, rpath)
        _expect(run["threads"] >= 1, rpath, "'threads' must be >= 1")

        _expect_keys(run["cpu"], ("totalSeconds", "breakdown"),
                     f"{rpath}.cpu")
        _expect_number(run["cpu"], "totalSeconds", f"{rpath}.cpu")
        validate_breakdown(run["cpu"]["breakdown"], f"{rpath}.cpu.breakdown")

        _expect_keys(run["proof"], ("bytes", "verified"), f"{rpath}.proof")
        _expect_number(run["proof"], "bytes", f"{rpath}.proof")
        _expect(isinstance(run["proof"]["verified"], bool), f"{rpath}.proof",
                "'verified' must be a boolean")

        validate_sim(run["sim"], f"{rpath}.sim")

    counters = doc["counters"]
    _expect(isinstance(counters, dict), path, "'counters' must be an object")
    for name, value in counters.items():
        _expect(
            isinstance(value, int) and not isinstance(value, bool)
            and value >= 0,
            path,
            f"counter {name!r} must be a non-negative integer, got {value!r}",
        )

    validate_histograms(doc["histograms"], path)
    validate_span_buffers(doc["spanBuffers"], f"{path}.spanBuffers")


# --------------------------------------------------------------------------
# Stats-window (unizk-stats-v3 JSONL) schema.
# --------------------------------------------------------------------------

def validate_window_histogram_data(h: Any, path: str) -> None:
    """One dense-side HistogramData object inside a window record."""
    _expect_keys(h, ("count", "sum", "min", "max", "buckets"), path)
    for key in ("count", "sum", "min", "max"):
        _expect_number(h, key, path)
    _expect(isinstance(h["buckets"], list), path,
            "'buckets' must be an array")
    bucket_count = 0
    for i, b in enumerate(h["buckets"]):
        bpath = f"{path}.buckets[{i}]"
        _expect_keys(b, ("lo", "hi", "count"), bpath)
        for key in ("lo", "hi", "count"):
            _expect_number(b, key, bpath)
        _expect(b["count"] > 0, bpath, "empty buckets must be omitted")
        bucket_count += b["count"]
    _expect(bucket_count == h["count"], path,
            f"bucket counts sum to {bucket_count}, count says "
            f"{h['count']}")
    if h["count"] > 0:
        _expect(h["min"] <= h["max"], path,
                f"min ({h['min']}) > max ({h['max']})")


def validate_window_record(rec: Any, path: str) -> None:
    _expect_keys(
        rec,
        ("schema", "sequence", "windowStartNs", "windowEndNs",
         "counters", "histograms", "spanBuffers"),
        path,
    )
    _expect(rec["schema"] == "unizk-stats-v3", path,
            f"schema is {rec['schema']!r}, expected 'unizk-stats-v3'")
    for key in ("sequence", "windowStartNs", "windowEndNs"):
        _expect_number(rec, key, path)
    _expect(rec["sequence"] >= 1, path, "'sequence' must be >= 1")
    _expect(rec["windowStartNs"] <= rec["windowEndNs"], path,
            "window interval is inverted")

    _expect(isinstance(rec["counters"], dict), path,
            "'counters' must be an object")
    for name, c in rec["counters"].items():
        cpath = f"{path}.counters.{name}"
        _expect_keys(c, ("delta", "cumulative"), cpath)
        for key in ("delta", "cumulative"):
            _expect_number(c, key, cpath)
        _expect(c["delta"] <= c["cumulative"], cpath,
                f"delta ({c['delta']}) > cumulative "
                f"({c['cumulative']})")

    _expect(isinstance(rec["histograms"], dict), path,
            "'histograms' must be an object")
    for name, h in rec["histograms"].items():
        hpath = f"{path}.histograms.{name}"
        _expect_keys(h, ("delta", "cumulative"), hpath)
        validate_window_histogram_data(h["delta"], f"{hpath}.delta")
        validate_window_histogram_data(h["cumulative"],
                                       f"{hpath}.cumulative")
        _expect(h["delta"]["count"] <= h["cumulative"]["count"], hpath,
                "delta count exceeds cumulative count")
        _expect(h["delta"]["sum"] <= h["cumulative"]["sum"], hpath,
                "delta sum exceeds cumulative sum")

    validate_span_buffers(rec["spanBuffers"], f"{path}.spanBuffers")


def validate_windows(lines: List[tuple], path: str) -> None:
    """Stream-level invariants over a parsed JSONL window log.

    `lines` is a list of (line_number, record) pairs.
    """
    _expect(bool(lines), path, "window log is empty")
    prev = None
    for lineno, rec in lines:
        rpath = f"{path}:{lineno}"
        validate_window_record(rec, rpath)
        if prev is not None:
            # The daemon logs every rotation (GetStats polls included),
            # so the stream is contiguous and the intervals chain --
            # which is exactly what makes the delta reconciliation
            # below an equality rather than an inequality.
            _expect(
                rec["sequence"] == prev["sequence"] + 1,
                rpath,
                f"sequence gap {prev['sequence']} -> "
                f"{rec['sequence']}: the daemon logs every rotation, "
                "so the stream must be contiguous",
            )
            _expect(
                rec["windowStartNs"] == prev["windowEndNs"],
                rpath,
                f"window start {rec['windowStartNs']} != previous "
                f"end {prev['windowEndNs']}",
            )
            for name, c in rec["counters"].items():
                before = prev["counters"].get(
                    name, {"cumulative": 0})["cumulative"]
                _expect(
                    c["cumulative"] == before + c["delta"],
                    f"{rpath}.counters.{name}",
                    f"cumulative {c['cumulative']} != previous "
                    f"{before} + delta {c['delta']}",
                )
            for name, h in rec["histograms"].items():
                before = prev["histograms"].get(name)
                before_count = (
                    before["cumulative"]["count"] if before else 0)
                before_sum = (
                    before["cumulative"]["sum"] if before else 0)
                _expect(
                    h["cumulative"]["count"]
                    == before_count + h["delta"]["count"],
                    f"{rpath}.histograms.{name}",
                    f"cumulative count {h['cumulative']['count']} != "
                    f"previous {before_count} + delta "
                    f"{h['delta']['count']}",
                )
                _expect(
                    h["cumulative"]["sum"]
                    == before_sum + h["delta"]["sum"],
                    f"{rpath}.histograms.{name}",
                    f"cumulative sum {h['cumulative']['sum']} != "
                    f"previous {before_sum} + delta "
                    f"{h['delta']['sum']}",
                )
        prev = rec


# --------------------------------------------------------------------------
# Chrome trace schema.
# --------------------------------------------------------------------------

def validate_trace(doc: Any, path: str) -> None:
    _expect_keys(doc, ("traceEvents",), path)
    events = doc["traceEvents"]
    _expect(isinstance(events, list), path, "'traceEvents' must be an array")
    _expect(events, path, "'traceEvents' must not be empty")

    named_pids = set()
    named_threads = set()
    complete_lanes = set()
    counter_pids = set()
    for i, e in enumerate(events):
        epath = f"{path}.traceEvents[{i}]"
        _expect_keys(e, ("name", "ph", "pid", "tid"), epath)
        ph = e["ph"]
        if ph == "M":
            _expect(e["name"] in ("process_name", "thread_name"), epath,
                    f"metadata event named {e['name']!r}")
            _expect_keys(e.get("args"), ("name",), f"{epath}.args")
            if e["name"] == "process_name":
                named_pids.add(e["pid"])
            else:
                named_threads.add((e["pid"], e["tid"]))
        elif ph == "C":
            _expect(e["name"] in ("vsa occupancy", "queue depth"),
                    epath, f"unknown counter series {e['name']!r}")
            _expect_number(e, "ts", epath)
            _expect_keys(e.get("args"), ("value",), f"{epath}.args")
            _expect_number(e["args"], "value", f"{epath}.args")
            counter_pids.add(e["pid"])
        elif ph == "X":
            _expect_keys(e, ("cat", "ts", "dur"), epath)
            _expect_number(e, "ts", epath)
            _expect_number(e, "dur", epath)
            complete_lanes.add((e["pid"], e["tid"]))
        else:
            _fail(epath,
                  f"unexpected phase {ph!r} (only M, C and X emitted)")
    unnamed = {pid for pid, _ in complete_lanes} - named_pids
    _expect(not unnamed, path,
            f"events on pids without process_name metadata: {sorted(unnamed)}")
    bare = complete_lanes - named_threads
    _expect(not bare, path,
            f"lanes without thread_name metadata: {sorted(bare)}")
    # Counter series only make sense on lanes that exist.
    stray = counter_pids - {pid for pid, _ in complete_lanes} - named_pids
    _expect(not stray, path,
            f"counter events on unknown pids: {sorted(stray)}")


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def detect_kind(doc: Any) -> str:
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "trace"
    if isinstance(doc, dict) and doc.get("schema") == "unizk-stats-v3":
        return "windows"
    return "stats"


def validate_windows_file(filename: str) -> List[str]:
    """Parse and validate one JSONL window log."""
    lines: List[tuple] = []
    try:
        with open(filename, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    lines.append((lineno, json.loads(line)))
                except json.JSONDecodeError as e:
                    return [f"{filename}:{lineno}: {e}"]
    except OSError as e:
        return [f"{filename}: {e}"]
    try:
        validate_windows(lines, filename)
    except ValidationError as e:
        return [str(e)]
    return []


def validate_file(filename: str, kind: str) -> List[str]:
    if kind == "windows":
        return validate_windows_file(filename)
    try:
        with open(filename, "r", encoding="utf-8") as f:
            if kind == "auto":
                # A window log is JSONL, not a single document; detect
                # it from the first line before attempting json.load.
                first = f.readline()
                try:
                    first_doc = json.loads(first)
                except json.JSONDecodeError:
                    first_doc = None
                if detect_kind(first_doc) == "windows":
                    return validate_windows_file(filename)
                f.seek(0)
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{filename}: {e}"]
    actual_kind = detect_kind(doc) if kind == "auto" else kind
    try:
        if actual_kind == "stats":
            validate_stats(doc, filename)
        else:
            validate_trace(doc, filename)
    except ValidationError as e:
        return [str(e)]
    return []


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="validate_obs_json",
        description="validate UniZK stats / Chrome-trace JSON artifacts",
    )
    parser.add_argument("--kind",
                        choices=("stats", "trace", "windows", "auto"),
                        default="auto",
                        help="document kind (default: detect per file)")
    parser.add_argument("files", nargs="+", help="JSON files to validate")
    args = parser.parse_args(argv)

    errors: List[str] = []
    for filename in args.files:
        errors.extend(validate_file(filename, args.kind))
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"validate_obs_json: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print(f"validate_obs_json: {len(args.files)} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
