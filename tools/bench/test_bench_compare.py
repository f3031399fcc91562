#!/usr/bin/env python3
"""Self-test for the perf-regression comparator: a synthetic slowdown
must be flagged, and noise inside the tolerance band must not be.
Runs without any build tree (pure comparator logic)."""

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run_benchmarks import SCHEMA, compare  # noqa: E402


def make_doc():
    return {
        "schema": SCHEMA,
        "revision": "test",
        "metrics": {
            "ntt.speedup_1t.2pow14": {"value": 4.0, "unit": "ratio"},
            "poseidon.naive_over_opt": {"value": 3.0, "unit": "ratio"},
            "micro.BM_FieldMul.real_time_ns": {
                "value": 2.5, "unit": "ns"},
        },
        "gates": {
            "ntt.speedup_1t.2pow14": {
                "value": 4.0, "direction": "higher", "tolerance": 0.45},
            "poseidon.naive_over_opt": {
                "value": 3.0, "direction": "higher", "tolerance": 0.40},
        },
    }


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    baseline = make_doc()

    # Identical run: no regression.
    expect(compare(make_doc(), baseline) == [],
           "identical documents must pass")

    # Injected synthetic slowdown: the engine got 2x slower, halving
    # the speedup ratio; well past the 45% tolerance, must be flagged.
    slow = make_doc()
    slow["gates"]["ntt.speedup_1t.2pow14"]["value"] = 2.0
    failures = compare(slow, baseline)
    expect(len(failures) == 1 and "ntt.speedup_1t.2pow14" in failures[0],
           f"synthetic slowdown not flagged: {failures}")

    # Noise inside the band: a 20% dip must pass.
    noisy = make_doc()
    noisy["gates"]["ntt.speedup_1t.2pow14"]["value"] = 3.2
    expect(compare(noisy, baseline) == [],
           "in-tolerance noise must not be flagged")

    # A failing ratio gate also shows the two timings it divides, now
    # and at baseline, so "the reference got faster" reads differently
    # from "the kernel regressed"; a part missing from a document reads
    # n/a instead of hiding the line.
    parts_base = make_doc()
    parts_base["metrics"]["ntt-nr.2pow14.seed_scalar_seconds"] = {
        "value": 0.040, "unit": "seconds"}
    parts_base["metrics"]["ntt-nr.2pow14.engine_1t_seconds"] = {
        "value": 0.010, "unit": "seconds"}
    parts_slow = copy.deepcopy(parts_base)
    parts_slow["gates"]["ntt.speedup_1t.2pow14"]["value"] = 2.0
    parts_slow["metrics"]["ntt-nr.2pow14.seed_scalar_seconds"][
        "value"] = 0.020
    del parts_slow["metrics"]["ntt-nr.2pow14.engine_1t_seconds"]
    failures = compare(parts_slow, parts_base)
    expect(len(failures) == 1, f"expected one failure: {failures}")
    expect("ntt-nr.2pow14.seed_scalar_seconds: 0.02 seconds "
           "(baseline 0.04 seconds)" in failures[0],
           f"numerator timing not shown: {failures}")
    expect("ntt-nr.2pow14.engine_1t_seconds: n/a "
           "(baseline 0.01 seconds)" in failures[0],
           f"denominator timing not shown: {failures}")
    expect(compare(parts_base, parts_base) == [],
           "a passing gate must print nothing")

    # Improvements never fail.
    faster = make_doc()
    faster["gates"]["ntt.speedup_1t.2pow14"]["value"] = 8.0
    expect(compare(faster, baseline) == [],
           "improvement must not be flagged")

    # A gate the current run no longer reports is a failure, not a
    # silent skip.
    missing = make_doc()
    del missing["gates"]["ntt.speedup_1t.2pow14"]
    del missing["metrics"]["ntt.speedup_1t.2pow14"]
    failures = compare(missing, baseline)
    expect(any("missing" in f for f in failures),
           f"missing gate not flagged: {failures}")

    # Gates may fall back to the metrics section when a document has
    # no gates block of its own.
    gateless = make_doc()
    gateless["gates"] = {}
    expect(compare(gateless, baseline) == [],
           "metrics-section fallback must satisfy baseline gates")

    # An explicit waiver in the current document skips the gate (the
    # hardware-conditional AVX2 batch ratio on a host without AVX2)...
    waived = make_doc()
    del waived["gates"]["ntt.speedup_1t.2pow14"]
    del waived["metrics"]["ntt.speedup_1t.2pow14"]
    waived["waived"] = {
        "ntt.speedup_1t.2pow14": "synthetic waiver for the self-test"}
    expect(compare(waived, baseline) == [],
           "explicitly waived gate must not be flagged")

    # ...but a waiver for one gate must not excuse a regression (or
    # absence) in another.
    waived_and_slow = copy.deepcopy(waived)
    waived_and_slow["gates"]["poseidon.naive_over_opt"]["value"] = 1.0
    failures = compare(waived_and_slow, baseline)
    expect(len(failures) == 1 and "poseidon.naive_over_opt" in failures[0],
           f"waiver must not mask other regressions: {failures}")

    # "lower" direction (absolute-time style gates) trips on increases.
    low_base = copy.deepcopy(baseline)
    low_base["gates"] = {
        "micro.BM_FieldMul.real_time_ns": {
            "value": 2.5, "direction": "lower", "tolerance": 0.50}}
    slow_abs = make_doc()
    slow_abs["metrics"]["micro.BM_FieldMul.real_time_ns"]["value"] = 6.0
    failures = compare(slow_abs, low_base)
    expect(len(failures) == 1 and "above ceiling" in failures[0],
           f"lower-direction regression not flagged: {failures}")
    expect(compare(make_doc(), low_base) == [],
           "lower-direction in-tolerance value must pass")

    print("bench-compare self-test OK")


if __name__ == "__main__":
    main()
