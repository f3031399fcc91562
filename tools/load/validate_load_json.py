#!/usr/bin/env python3
"""Schema validator for the `unizk-load-v1` report documents.

Validates the JSON report unizk_load writes with --report: the scenario
echo (name, arrival/skew model, seed, mix) and the results block
(outcome accounting, throughput, exact latency order statistics,
queue-depth-over-time samples, per-app counts).

Cross-field invariants checked, matching the runner's accounting
(src/load/runner.cpp; update this validator and that together):

  - ok + queueFull + shuttingDown + errors == issued: every schedule
    entry is accounted exactly once.
  - latencyNs.count == ok and min <= p50 <= p90 <= p99 <= max. The
    summary is exact, so it is recomputed from breakdown.samples
    (latency = lagNs + clientNs, nearest-rank quantiles) and every
    field, mean included, must match.
  - queueDepth has one sample per ok, sorted by tNs.
  - perApp counts sum to ok, apps drawn from the scenario mix.
  - breakdown.traced == len(breakdown.samples) == ok; samples are
    sorted by strictly increasing traceId (every schedule entry gets a
    unique id); per sample the server decomposition must nest inside
    the client observation, queuedNs + proveNs + serializeNs <=
    serverNs <= clientNs, except for samples the runner already charged
    to breakdown.violations (the recomputed failure count can only be
    <= violations: the runner additionally counts traceId-echo
    mismatches this validator cannot re-derive from the report).

Usage:
    python3 tools/load/validate_load_json.py FILE...

Exit status is nonzero iff any file fails validation.
Stdlib-only by design; runs anywhere python3 exists.
"""

from __future__ import annotations

import json
import sys
from typing import Any, List

ARRIVALS = ("closed", "open-poisson")
SKEWS = ("uniform", "zipfian")
PROTOCOLS = ("plonky2", "starky")
APPS = (
    "factorial",
    "fibonacci",
    "ecdsa",
    "sha256",
    "image-crop",
    "mvm",
    "recursion",
)


class ValidationError(Exception):
    pass


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        _fail(path, message)


def _expect_keys(obj: Any, keys: tuple, path: str) -> None:
    _expect(isinstance(obj, dict), path,
            f"expected object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    _expect(not missing, path, f"missing keys: {', '.join(missing)}")


def _expect_number(obj: dict, key: str, path: str,
                   minimum: float = 0.0) -> None:
    v = obj.get(key)
    _expect(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        path,
        f"'{key}' must be a number, got {type(v).__name__}",
    )
    _expect(v >= minimum, path, f"'{key}' must be >= {minimum}, got {v}")


def validate_scenario(sc: Any, path: str) -> list:
    """Validate the scenario echo; returns the (protocol, app) pairs of
    the mix for the perApp cross-check."""
    _expect_keys(sc, ("name", "arrival", "skew", "seed", "requests",
                      "connections", "keySpace", "mix"), path)
    _expect(isinstance(sc["name"], str) and sc["name"], path,
            "'name' must be a non-empty string")
    _expect(sc["arrival"] in ARRIVALS, path,
            f"unknown arrival {sc['arrival']!r}")
    _expect(sc["skew"] in SKEWS, path, f"unknown skew {sc['skew']!r}")
    if sc["skew"] == "zipfian":
        _expect_number(sc, "zipfianTheta", path)
        _expect(sc["zipfianTheta"] > 0, path,
                "'zipfianTheta' must be positive")
    if sc["arrival"] == "open-poisson":
        _expect_number(sc, "openRateRps", path)
        _expect(sc["openRateRps"] > 0, path,
                "'openRateRps' must be positive")
    for key in ("seed", "requests", "connections", "keySpace"):
        _expect_number(sc, key, path)
    _expect(sc["requests"] >= 1, path, "'requests' must be >= 1")
    _expect(sc["connections"] >= 1, path, "'connections' must be >= 1")
    _expect(sc["keySpace"] >= 1, path, "'keySpace' must be >= 1")

    mix = sc["mix"]
    _expect(isinstance(mix, list) and mix, path,
            "'mix' must be a non-empty array")
    pairs = []
    for i, e in enumerate(mix):
        epath = f"{path}.mix[{i}]"
        _expect_keys(e, ("protocol", "app", "weight", "minRows",
                         "maxRows", "reps"), epath)
        _expect(e["protocol"] in PROTOCOLS, epath,
                f"unknown protocol {e['protocol']!r}")
        _expect(e["app"] in APPS, epath, f"unknown app {e['app']!r}")
        for key in ("weight", "minRows", "maxRows", "reps"):
            _expect_number(e, key, epath)
        _expect(e["weight"] >= 1, epath, "'weight' must be >= 1")
        _expect(e["minRows"] <= e["maxRows"], epath,
                f"minRows ({e['minRows']}) > maxRows ({e['maxRows']})")
        pairs.append((e["protocol"], e["app"]))
    return pairs


def nearest_rank(ordered: list, percent: int) -> int:
    """Nearest-rank quantile, integer arithmetic as in the runner."""
    rank = max(1, (percent * len(ordered) + 99) // 100)
    return ordered[rank - 1]


def validate_latency(lat: Any, samples: list, ok: int, path: str) -> None:
    _expect_keys(lat, ("count", "min", "max", "mean", "p50", "p90",
                       "p99"), path)
    for key in ("count", "min", "max", "mean", "p50", "p90", "p99"):
        _expect_number(lat, key, path)
    _expect(lat["count"] == ok, path,
            f"count ({lat['count']}) != ok ({ok})")
    if lat["count"] == 0:
        return
    _expect(lat["min"] <= lat["p50"] <= lat["p90"] <= lat["p99"]
            <= lat["max"], path,
            "not ordered: min <= p50 <= p90 <= p99 <= max required")
    ordered = sorted(s["lagNs"] + s["clientNs"] for s in samples)
    _expect(len(ordered) == lat["count"], path,
            f"count ({lat['count']}) != {len(ordered)} samples")
    want = {
        "min": ordered[0],
        "max": ordered[-1],
        "p50": nearest_rank(ordered, 50),
        "p90": nearest_rank(ordered, 90),
        "p99": nearest_rank(ordered, 99),
    }
    for key, value in want.items():
        _expect(lat[key] == value, path,
                f"{key} ({lat[key]}) != {value} recomputed from the "
                f"samples")
    mean = sum(ordered) / len(ordered)
    _expect(abs(lat["mean"] - mean) <= 1e-9 * max(1.0, mean), path,
            f"mean ({lat['mean']}) != {mean} recomputed from the "
            f"samples")


def validate_breakdown(bd: Any, ok: int, path: str) -> None:
    _expect_keys(bd, ("traced", "violations", "samples"), path)
    _expect_number(bd, "traced", path)
    _expect_number(bd, "violations", path)
    samples = bd["samples"]
    _expect(isinstance(samples, list), path,
            "'samples' must be an array")
    _expect(bd["traced"] == len(samples), path,
            f"traced ({bd['traced']}) != len(samples) ({len(samples)})")
    _expect(len(samples) == ok, path,
            f"{len(samples)} samples but {ok} ok responses")
    if samples:
        for key in ("meanClientNs", "meanServerNs", "meanQueuedNs",
                    "meanProveNs", "meanSerializeNs"):
            _expect_number(bd, key, path)
        # meanResidualNs may be negative when violations > 0 (a server
        # clock ahead of the client's observation), so only presence
        # and numberhood are checked.
        _expect("meanResidualNs" in bd, path, "missing 'meanResidualNs'")
    chain_failures = 0
    last_trace = 0
    for i, s in enumerate(samples):
        spath = f"{path}.samples[{i}]"
        _expect_keys(s, ("traceId", "laneId", "lagNs", "clientNs",
                         "serverNs", "queuedNs", "proveNs",
                         "serializeNs"), spath)
        for key in ("traceId", "laneId", "lagNs", "clientNs",
                    "serverNs", "queuedNs", "proveNs", "serializeNs"):
            _expect_number(s, key, spath)
        _expect(s["traceId"] >= 1, spath,
                "'traceId' 0 means untraced and cannot appear here")
        _expect(s["traceId"] > last_trace, spath,
                "'traceId' must be strictly increasing (sorted, unique)")
        last_trace = s["traceId"]
        parts = s["queuedNs"] + s["proveNs"] + s["serializeNs"]
        if not parts <= s["serverNs"] <= s["clientNs"]:
            chain_failures += 1
    _expect(
        chain_failures <= bd["violations"],
        path,
        f"{chain_failures} sample(s) break queued+prove+serialize <= "
        f"server <= client but violations says {bd['violations']}",
    )


def validate_results(res: Any, mix_pairs: list, path: str) -> None:
    _expect_keys(res, ("issued", "ok", "queueFull", "shuttingDown",
                       "errors", "elapsedSeconds", "throughputRps",
                       "latencyNs", "breakdown", "queueDepth",
                       "perApp"), path)
    for key in ("issued", "ok", "queueFull", "shuttingDown", "errors"):
        _expect_number(res, key, path)
    accounted = (res["ok"] + res["queueFull"] + res["shuttingDown"] +
                 res["errors"])
    _expect(
        accounted == res["issued"],
        path,
        f"ok+queueFull+shuttingDown+errors is {accounted}, issued says "
        f"{res['issued']}",
    )
    _expect_number(res, "elapsedSeconds", path)
    _expect_number(res, "throughputRps", path)

    validate_breakdown(res["breakdown"], res["ok"],
                       f"{path}.breakdown")
    validate_latency(res["latencyNs"], res["breakdown"]["samples"],
                     res["ok"], f"{path}.latencyNs")

    qd = res["queueDepth"]
    _expect(isinstance(qd, list), path, "'queueDepth' must be an array")
    _expect(len(qd) == res["ok"], path,
            f"queueDepth has {len(qd)} samples, ok says {res['ok']}")
    last_t = -1
    for i, s in enumerate(qd):
        spath = f"{path}.queueDepth[{i}]"
        _expect_keys(s, ("tNs", "depth"), spath)
        _expect_number(s, "tNs", spath)
        _expect_number(s, "depth", spath)
        _expect(s["tNs"] >= last_t, spath, "'tNs' must be sorted")
        last_t = s["tNs"]

    per_app = res["perApp"]
    _expect(isinstance(per_app, list), path, "'perApp' must be an array")
    count_sum = 0
    for i, p in enumerate(per_app):
        ppath = f"{path}.perApp[{i}]"
        _expect_keys(p, ("protocol", "app", "count"), ppath)
        _expect(p["protocol"] in PROTOCOLS, ppath,
                f"unknown protocol {p['protocol']!r}")
        _expect(p["app"] in APPS, ppath, f"unknown app {p['app']!r}")
        _expect_number(p, "count", ppath)
        _expect((p["protocol"], p["app"]) in mix_pairs, ppath,
                f"({p['protocol']}, {p['app']}) not in the scenario mix")
        count_sum += p["count"]
    _expect(count_sum == res["ok"], path,
            f"perApp counts sum to {count_sum}, ok says {res['ok']}")


def validate_load(doc: Any, path: str) -> None:
    _expect_keys(doc, ("schema", "scenario", "results"), path)
    _expect(
        doc["schema"] == "unizk-load-v1",
        path,
        f"schema is {doc['schema']!r}, expected 'unizk-load-v1'",
    )
    mix_pairs = validate_scenario(doc["scenario"], f"{path}.scenario")
    validate_results(doc["results"], mix_pairs, f"{path}.results")


def validate_file(filename: str) -> List[str]:
    try:
        with open(filename, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{filename}: {e}"]
    try:
        validate_load(doc, filename)
    except ValidationError as e:
        return [str(e)]
    return []


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    errors: List[str] = []
    for filename in argv:
        errors.extend(validate_file(filename))
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"validate_load_json: {len(errors)} error(s)",
              file=sys.stderr)
        return 1
    print(f"validate_load_json: {len(argv)} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
