#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python benchmarks/ledger/run.py [--seed N] [--workload W] [--out results.json] [--smoke]

runs every workload in turn, each in a fresh child interpreter: set-up
timed in ``SETUP_RUNS`` interpreters that exit after it, then one that
warms up, runs the timed passes with tracing off, reads ``ru_maxrss`` and
runs one traced pass. It prints each metric with its unit, checks the
simulated outputs, and exits 1 if any operation failed.

The benchmark driver calls the same file as

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of stdout: the end-to-end metrics with ``--trace
0`` (timed passes only), the per-layer metrics with ``--trace 1`` (traced
pass only). See README.md for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
import spec
from workloads import BY_NAME, OUT_DIR, ROOT, SRC, child_env

HERE = Path(__file__).resolve().parent
#: A workload process that takes longer than this is stuck.
CHILD_TIMEOUT_S = 170
#: Fresh interpreters whose wall time is ``setup_s`` (median), after one more
#: whose time is thrown away.
SETUP_RUNS = 4


# ----------------------------------------------------------------------
# Child side: one workload, one interpreter
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    size = spec.size_for(args.workload, args.smoke)
    workload = BY_NAME[args.workload](args.seed, size)
    result = harness.measure(
        workload, args.seconds,
        timed=args.child in ("timed", "full"), traced=args.child in ("traced", "full"),
    )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_child(mode: str, name: str, args: argparse.Namespace) -> Tuple[Dict, float]:
    """Run one child to completion; its result and its wall time."""
    command = [sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    start = time.perf_counter()
    done = subprocess.run(command, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{name}: {mode} child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1]), wall


def measure_workload(name: str, args: argparse.Namespace, spans: List[Dict]) -> Dict:
    """Every number for one workload, in the modes ``--trace`` selects."""
    timed = args.trace in (None, 0)
    mode = {None: "full", 0: "timed", 1: "traced"}[args.trace]
    result: Dict = {"size": spec.size_for(name, args.smoke)}
    setup_walls: List[float] = []
    rates: List[float] = []
    if timed:
        for _ in range(1 if args.smoke else SETUP_RUNS + 1):
            rates.append(harness.calibrate())
            setup, wall = run_child("setup", name, args)
            rates.append(harness.calibrate())
            setup_walls.append(wall)
            spans.extend(setup["spans"])
        # The first run is thrown away: it pulls the sources into the page cache.
        setup_walls, rates = setup_walls[-SETUP_RUNS:], rates[-2 * SETUP_RUNS:]
    measured, _ = run_child(mode, name, args)
    spans.extend(measured.pop("spans"))
    result.update(measured)
    if timed:
        # Stated at reference host speed, like wall_s, but with one factor for
        # the whole run: the mean of the loops around the runs is a steadier
        # reading than the two 50 ms loops around any one of them.
        host = statistics.mean(rates) / spec.REFERENCE_MOPS
        setup_walls = [wall * host for wall in setup_walls]
        result["passes"]["setup_s"] = harness.quartiles(setup_walls)
        result["passes"]["setup_calib_mops"] = harness.quartiles(rates)
        result["end_to_end"]["setup_s"] = statistics.median(setup_walls)
        result["end_to_end"]["fail_frac"] = result["failed"] / result["attempted"]
    return result


def environment(args: argparse.Namespace) -> Dict:
    """What two results files must share before their numbers may be compared."""
    sys.path.insert(0, str(SRC))
    from repro.sim.core import COMPILED

    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    commit, dirty = _git("rev-parse", "HEAD"), _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiled_core": COMPILED,
        "numpy": numpy_version,
        # FluidBackground takes numpy when it can be imported.
        "fluid_backend": "numpy" if numpy_version else "python",
        "commit": commit,
        "dirty": None if dirty is None else bool(dirty),
        "seed": args.seed,
        "scale": "smoke" if args.smoke else "full",
        "seconds": args.seconds,
    }


def _git(*argv: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *argv], cwd=str(ROOT), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def print_workload(name: str, result: Dict) -> None:
    print(f"== {name}  size={json.dumps(result['size'])}  sim_digest={result['sim_digest']}")
    for metric, value in result["end_to_end"].items():
        line = f"  {metric:<34}{value:>16.6f} {spec.metric_unit(metric)}"
        spread = result["passes"].get(metric)
        if spread:
            line += ("   [q1 {q1:.4f}  q3 {q3:.4f}  min {min:.4f}  max {max:.4f}"
                     "  n {n}]").format(**spread)
        print(line)
    skipped = set(result.get("not_measured", ()))
    for metric, value in result.get("per_layer", {}).items():
        note = "   (not measurable on this workload)" if metric in skipped else ""
        print(f"  {metric:<34}{value:>16.6f} {spec.metric_unit(metric)}{note}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def driver_line(result: Dict, trace: int) -> str:
    """The one JSON object the benchmark driver reads."""
    if trace:
        names = [row["name"] for row in spec.PER_LAYER]
        values = result["per_layer"]
    else:
        names = [row["name"] for row in spec.END_TO_END]
        values = result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": spec.metric_unit(name)}
                    for name in names},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all seven, in order)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes of one workload measure "
                             f"(default {spec.RUN_SECONDS}; with --smoke, the minimum "
                             "number of passes and no longer)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics only, 1 = per-layer only")
    parser.add_argument("--out", default=None, help="write every result to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (test_ledger.py)")
    parser.add_argument("--child", choices=("setup", "timed", "traced", "full"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec.RUN_SECONDS)
    if args.child is not None:
        return child_main(args)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    results = {"claim": spec.CLAIM, "environment": environment(args), "workloads": {}}
    spans: List[Dict] = []
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    for name in names:
        result = measure_workload(name, args, spans)
        results["workloads"][name] = result
        print_workload(name, result)
        sys.stdout.flush()

    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    with open(out.with_name("spans.jsonl"), "w") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")

    failed = sum(result["failed"] for result in results["workloads"].values())
    if args.trace is not None:
        print(driver_line(results["workloads"][args.workload], args.trace))
        return 0
    print(f"{failed} failed operations; results in {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
