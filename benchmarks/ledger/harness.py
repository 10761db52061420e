"""What runs inside one workload's interpreter: spans, passes, the tracer.

``measure`` is the whole life of a workload process: set up, one untimed
warm-up pass, the timed passes with tracing off, ``ru_maxrss``, then one
pass under ``cProfile`` whose self times are bucketed into the layers of
``spec.LAYERS``. It returns plain data; ``run.py`` prints and stores it.
"""

from __future__ import annotations

import cProfile
import collections
import contextlib
import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
import time
import traceback
from typing import Dict, List, Optional, Set, Tuple

import spec
from workloads import Workload

#: Passes timed when no measuring window is asked for (``--trace 1``, ``--smoke``):
#: enough for ``harness.trace_overhead_x`` and for digests to be compared.
UNTIMED_MODE_PASSES = 3
_CALIB_ITERATIONS = 70_000


class Spans:
    """Spans around the harness's own calls into ``repro``, kept in memory."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.pass_label = "setup"
        self.records: List[Dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records), "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload, "pass": self.pass_label,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str, pass_label: str) -> float:
        return sum(
            record["end"] - record["start"] for record in self.records
            if record["name"] == name and record["pass"] == pass_label
        )


class PassResult:
    """One pass: every unit run once, in order."""

    def __init__(self) -> None:
        #: Sum of the units' wall times, as the clock read them.
        self.raw_wall_s = 0.0
        #: The same at reference host speed (see ``run_pass``).
        self.wall_s = 0.0
        self.sim_s = 0.0
        self.calib_mops: List[float] = []
        self.outputs: Dict[str, Dict] = {}
        self.errors: Dict[str, str] = {}
        self.counts: Dict[str, float] = collections.Counter()

    def digests(self) -> Dict[str, str]:
        return {
            name: hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
            for name, out in self.outputs.items()
        }


def run_pass(workload: Workload, spans: Spans, label: str,
             profiler: Optional[cProfile.Profile] = None) -> PassResult:
    """Run every unit once, each between two calibration loops.

    The mean rate of the two loops is the host's speed while the unit ran;
    the unit's wall time times that rate over ``spec.REFERENCE_MOPS`` is
    what it would have taken at reference speed. Units, not whole passes,
    are bracketed because the host's speed moves within a 2 s pass: medians
    of five 0.9 s ``cc-coexist-wan`` units repeat within 2-3% this way.
    """
    result = PassResult()
    spans.pass_label = label
    gc.collect()
    result.calib_mops.append(calibrate())
    for name, unit in workload.units():
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outputs, sim_s = unit(spans.span, result.counts)
        except Exception:  # a failed unit is a counted outcome, not a crash
            result.errors[name] = traceback.format_exc()
        else:
            result.outputs[name] = outputs
            result.sim_s += sim_s
        finally:
            if profiler is not None:
                profiler.disable()
        wall = time.perf_counter() - start
        result.calib_mops.append(calibrate())
        result.raw_wall_s += wall
        result.wall_s += wall * sum(result.calib_mops[-2:]) / 2 / spec.REFERENCE_MOPS
    return result


def failed_units(workload: Workload, result: PassResult,
                 reference: Optional[Dict[str, str]]) -> Tuple[Set[str], List[str]]:
    """Units of one pass that count against ``fail_frac``, and why."""
    reasons = [f"{name} raised:\n{trace}" for name, trace in result.errors.items()]
    failed = set(result.errors)
    if reference is not None:
        for name, digest in result.digests().items():
            if reference.get(name) != digest:
                failed.add(name)
                reasons.append(f"{name}: output digest differs from the warm-up pass's")
    shape = workload.check(result.outputs)
    if shape:
        # A golden shape is a property of the unit set (an ordering across
        # CCAs), so a broken one fails every unit of the pass.
        failed.update(name for name, _ in workload.units())
        reasons.extend(shape)
    return failed, reasons


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def bucket_profile(profiler: cProfile.Profile) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer self seconds and entry-point call counts of one traced pass.

    Self time (``inlinetime``) of a Python function goes to the layer of its
    source file. A C function has no source file, so its time goes to the
    layer of the Python function that called it: ``heappush`` from the kernel
    is kernel time, a numpy ufunc from the fluid stepper is fleet time. What
    is left (C functions entered with no profiled caller) is ``other``, so
    the layers sum to the traced pass exactly.
    """
    entries = profiler.getstats()
    self_s = dict.fromkeys(spec.LAYERS, 0.0)
    calls = dict.fromkeys(spec.CALL_COUNTS, 0)
    total = 0.0
    for entry in entries:
        total += entry.inlinetime
        if isinstance(entry.code, str):
            continue
        caller_layer = spec.layer_of(entry.code.co_filename)
        self_s[caller_layer] += entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                self_s[caller_layer] += callee.inlinetime
                continue
            rel = spec.repro_relpath(callee.code.co_filename)
            if rel is None:
                continue
            for metric, (prefixes, names, cross_layer_only) in spec.CALL_COUNTS.items():
                if callee.code.co_name in names and rel.startswith(prefixes):
                    if not cross_layer_only or caller_layer != spec.layer_of(
                        callee.code.co_filename
                    ):
                        calls[metric] += callee.callcount
    self_s["other"] += total - sum(self_s.values())
    return self_s, calls


class _Cell:
    __slots__ = ("key", "value", "link")


def calibrate() -> float:
    """Million iterations per second of a fixed loop: the host's speed right now.

    The loop allocates small objects and works a heap and a dict, as the
    simulator does. A pure arithmetic loop slowed down less than the
    workloads when the host's neighbours got busy (log-log slope 0.3-0.9
    against pass time); this one tracks them with slope 0.9-1.0. The
    collector is off so that the rate does not depend on how many objects
    the program under test has left alive.
    """
    heap: List[Tuple[int, int, _Cell]] = []
    table: Dict[int, _Cell] = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 1
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(_CALIB_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            cell = _Cell()
            cell.key = x
            cell.value = i
            cell.link = previous = table.get(x & 4095)
            if previous is not None:
                previous.link = None  # two cells per slot stay alive, no chain
            table[x & 4095] = cell
            push(heap, (x, i, cell))
            if len(heap) > 512:
                pop(heap)
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    return _CALIB_ITERATIONS / elapsed / 1e6


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count, as every timing is reported."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values), "values": values}


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# One workload process
# ----------------------------------------------------------------------
def measure(workload: Workload, seconds: float, timed: bool, traced: bool) -> Dict:
    """Set up, warm up, then the timed passes and/or the traced pass."""
    spans = Spans(workload.name)
    try:
        with spans.span("setup.import"):
            workload.load()
        with spans.span("setup.inputs"):
            workload.prepare()
        if not (timed or traced):
            return {"spans": spans.records}
        return _measure_passes(workload, spans, seconds, timed, traced)
    finally:
        workload.close()


def _measure_passes(workload: Workload, spans: Spans, seconds: float,
                    timed: bool, traced: bool) -> Dict:
    unit_count = len(workload.units())
    attempted = failed = 0
    failures: List[str] = []

    def account(result: PassResult, reference: Optional[Dict[str, str]]) -> None:
        nonlocal attempted, failed
        bad, reasons = failed_units(workload, result, reference)
        attempted += unit_count
        failed += len(bad)
        failures.extend(f"[{spans.pass_label}] {reason}" for reason in reasons)

    warmup = run_pass(workload, spans, "warmup")
    reference = warmup.digests()
    account(warmup, None)

    raw: List[float] = []
    walls: List[float] = []
    rates: List[float] = []
    builds: List[float] = []
    calib: List[float] = []
    budget = seconds if timed else 0.0
    floor = spec.MIN_TIMED_PASSES if budget > 0 else UNTIMED_MODE_PASSES
    began = time.perf_counter()
    while len(raw) < floor or time.perf_counter() - began < budget:
        label = f"timed-{len(raw)}"
        result = run_pass(workload, spans, label)
        account(result, reference)
        raw.append(result.raw_wall_s)
        walls.append(result.wall_s)
        rates.append(result.sim_s / result.wall_s)
        builds.append(spans.total("pass.build", label))
        calib.extend(result.calib_mops)
    wall = quartiles(walls)

    out: Dict = {
        "sim_digest": hashlib.sha256(
            json.dumps(reference, sort_keys=True).encode()
        ).hexdigest(),
        "passes": {"wall_s": wall, "sim_s_per_s": quartiles(rates),
                   "wall_raw_s": quartiles(raw), "calib_mops": quartiles(calib)},
        "end_to_end": {
            "wall_s": wall["median"],
            "sim_s_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mib(children=workload.cli),
        },
    }

    if traced:
        workload.in_process = True
        profiler = cProfile.Profile()
        traced_pass = run_pass(workload, spans, "traced", profiler)
        account(traced_pass, reference)
        self_s, calls = bucket_profile(profiler)
        traced_total = sum(self_s.values())
        layer: Dict[str, float] = {}
        for name in spec.LAYERS:
            layer[f"{name}.self_s"] = self_s[name]
            layer[f"{name}.share"] = self_s[name] / traced_total
        layer.update(calls)
        layer.update(_count_metrics(warmup))
        raw_wall = statistics.median(raw)
        layer.update({
            "harness.trace_overhead_x": traced_pass.raw_wall_s / raw_wall,
            "harness.wall_iqr_rel": (wall["q3"] - wall["q1"]) / wall["median"],
            "harness.calib_mops": statistics.median(calib),
            "harness.import_s": spans.total("setup.import", "setup"),
            "harness.build_s": statistics.median(builds),
        })
        layer.update(workload.extra_layer_metrics(raw_wall))
        out["not_measured"] = sorted(workload.not_measured())
        out["per_layer"] = {row["name"]: layer.get(row["name"], 0.0) for row in spec.PER_LAYER}

    out.update(attempted=attempted, failed=failed, failures=failures, spans=spans.records)
    bad = [name for group in ("end_to_end", "per_layer")
           for name, value in out.get(group, {}).items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    return out


def _count_metrics(warmup: PassResult) -> Dict[str, float]:
    """Per-layer counts and ratios from the stats objects the warm-up pass read."""
    counts = warmup.counts
    out = {name: value for name, value in counts.items() if not name.startswith("_")}
    out["sim.events_per_sim_s"] = _ratio(counts["sim.events"], warmup.sim_s)
    out["steering.lowlat_byte_frac"] = _ratio(counts["_lowlat_bytes"], counts["_client_bytes"])
    out["transport.connection.retx_frac"] = _ratio(
        counts["_retx"], counts["transport.connection.segments_sent"]
    )
    out["runner.cache_hit_frac"] = _ratio(counts["_cache_hits"], counts["runner.units"])
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
