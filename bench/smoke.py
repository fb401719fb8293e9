#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at tiny size.

    python3 bench/smoke.py

For each workload of BENCHMARK.json it runs one untraced and one traced
measurement on the tiny command lists and checks that
  - every command passes its output checks, and traced stdout equals
    untraced stdout byte for byte (a mismatch counts as a failure);
  - the result object has exactly the keys {correct, attempted, failed,
    metrics}, and its metric names and units match BENCHMARK.json
    (end_to_end untraced, per_layer traced), with finite values and
    non-zero end-to-end values;
  - no traced function calls itself (tracing.py sums durations on that
    assumption) and every wrapper is removed afterwards.
Exits 0 when all hold, 1 otherwise, 2 when ripbench cannot be imported.
"""

from __future__ import annotations

import json
import math
import sys

import run
import tracing

SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _self_calls(path) -> list:
    import numpy as np

    with np.load(path) as z:
        names, name, parent = list(z["names"]), z["name"], z["parent"]
    bad = set()
    for i in range(len(name)):
        j = parent[i]
        while j >= 0:
            if name[j] == name[i]:
                bad.add(names[name[i]])
            j = parent[j]
    return sorted(bad)


def main() -> int:
    error = run.bootstrap()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            report = run.measure(workload, SEED, 0.0, bool(trace), tiny=True)
            result = report["result"]
            if set(result) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} failed: {report['failures']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"extra {sorted(set(got.items()) - set(want[trace].items()))}, "
                                f"missing {sorted(set(want[trace].items()) - set(got.items()))}")
            for name, m in result["metrics"].items():
                v = m["value"]
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{tag}: {name} = {v!r}")
                elif trace == 0 and v <= 0:
                    problems.append(f"{tag}: end-to-end {name} = {v!r} is not positive")
            if trace:
                recursive = _self_calls(run.OUT / f"spans-{workload}-seed{SEED}.npz")
                if recursive:
                    problems.append(f"{tag}: traced functions call themselves: {recursive}")

    for modname, fname in tracing.TARGETS:
        fn = getattr(sys.modules["ripbench." + modname], fname)
        if hasattr(fn, "__wrapped__"):
            problems.append(f"ripbench.{modname}.{fname} still wrapped after tracing")

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
