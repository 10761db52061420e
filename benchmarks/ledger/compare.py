#!/usr/bin/env python3
"""Compare two ledger results files, one row per (end-to-end metric, workload).

    python benchmarks/ledger/compare.py parent.json change.json

A row is ``regressed`` when the change's median is worse than the parent's
by more than the metric's bound, ``unresolved`` when the run-to-run spread
of either file's median (estimated from its timed passes) is wider than the
bound (unless every pass of one side beats every pass of the other, which
needs no statistics), and ``ok`` otherwise. ``setup_s`` is shown but not
judged (``info``): its samples are whole child processes, which the host
speed scaling tracks worst, and two single runs of one commit differ by
more than its bound on the reference box (README.md).
``sim_digest`` and the exact counts are compared as equal/different: a
speed-only change leaves them identical. Exit status is 1 when any row
regressed and 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List, Optional

import spec

#: The environment may differ in these and nothing else.
COMMIT_KEYS = ("commit", "dirty")
#: Printed with their delta, never judged; the driver gates ``setup_s`` on
#: medians of ten runs a side, which one results file cannot stand in for.
INFORMATIONAL = ("setup_s",)


def worse_by(metric: Dict, parent: float, change: float) -> float:
    """How much worse ``change`` is, as a share of ``parent`` (negative = better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf") if change > parent else -1.0
    delta = (change - parent) / parent
    return delta if metric["better"] == "lower" else -delta


def median_spread(passes: Dict) -> float:
    """Quartile distance of the median of these passes over repeated runs, as a share of it.

    The median of n samples moves about 1.25 / sqrt(n) times as far as one
    sample does. README.md checks the estimate against repeated runs.
    """
    return 1.25 * (passes["q3"] - passes["q1"]) / math.sqrt(passes["n"]) / passes["median"]


def verdict(metric: Dict, parent: Dict, change: Dict) -> str:
    name, bound = metric["name"], metric["bound"]
    if name in INFORMATIONAL:
        return "info"
    a, b = parent["end_to_end"][name], change["end_to_end"][name]
    loss = worse_by(metric, a, b)
    passes_a = parent["passes"].get(name)
    passes_b = change["passes"].get(name)
    if passes_a and passes_b:
        if max(median_spread(passes_a), median_spread(passes_b)) > bound:
            better, worse = (min, max) if metric["better"] == "lower" else (max, min)
            if worse_by(metric, better(passes_a["values"]), worse(passes_b["values"])) < 0:
                return "ok"  # every pass of the change beats every pass of the parent
            if worse_by(metric, worse(passes_a["values"]), better(passes_b["values"])) > bound:
                return "regressed"  # and the other way round, by more than the bound
            return "unresolved"
    return "regressed" if loss > bound else "ok"


def describe(result: Dict, name: str) -> str:
    passes = result["passes"].get(name)
    text = f"{result['end_to_end'][name]:.4f}"
    return text + (f" [{passes['q1']:.4f}..{passes['q3']:.4f}]" if passes else "")


def environment_mismatch(parent: Dict, change: Dict) -> List[str]:
    a, b = parent["environment"], change["environment"]
    problems = [
        f"environment.{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if key not in COMMIT_KEYS and a.get(key) != b.get(key)
    ]
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        sizes = [side["workloads"][name]["size"] for side in (parent, change)]
        if sizes[0] != sizes[1]:
            problems.append(f"{name}: size {sizes[0]} vs {sizes[1]}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (json.load(open(path)) for path in argv)
    problems = environment_mismatch(parent, change)
    shared = [name for name in spec.WORKLOAD_NAMES
              if name in parent["workloads"] and name in change["workloads"]]
    if not shared:
        problems.append("the files share no workload")
    if problems:
        print("cannot compare:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2

    tally = {"ok": 0, "regressed": 0, "unresolved": 0, "info": 0}
    print(f"{'workload':<18}{'metric':<13}{'parent':>28}{'change':>28}{'worse by':>10}"
          f"{'bound':>7}  verdict")
    for name in shared:
        a, b = parent["workloads"][name], change["workloads"][name]
        for metric in spec.END_TO_END + (spec.FAIL_FRAC,):
            if metric["name"] not in a["end_to_end"] or metric["name"] not in b["end_to_end"]:
                continue  # a --trace 1 file has no timed metrics
            outcome = verdict(metric, a, b)
            tally[outcome] += 1
            loss = worse_by(metric, a["end_to_end"][metric["name"]],
                            b["end_to_end"][metric["name"]])
            print(f"{name:<18}{metric['name']:<13}{describe(a, metric['name']):>28}"
                  f"{describe(b, metric['name']):>28}{loss:>+10.1%}{metric['bound']:>7.0%}"
                  f"  {outcome}")
        digest = "equal" if a["sim_digest"] == b["sim_digest"] else "DIFFERENT"
        line = f"{name:<18}sim_digest {digest}"
        if "per_layer" in a and "per_layer" in b:
            moved = [count for count in spec.EXACT_COUNTS
                     if a["per_layer"][count] != b["per_layer"][count]]
            line += "; exact counts " + (f"DIFFERENT: {', '.join(moved)}" if moved else "equal")
        print(line)
    print(", ".join(f"{count} {outcome}" for outcome, count in tally.items()))
    return 1 if tally["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
