"""Names, units, directions, bounds and sizes of everything the ledger reports.

This module is the single definition of the benchmark; ``/BENCHMARK.json``
is :func:`benchmark_json` written to disk (``test_ledger.py`` asserts the
two agree). The driver refuses a ``BENCHMARK.json`` with any key beyond
``command``/``paths``/``run_seconds``/``workloads``/``end_to_end``/
``per_layer``, ``name``/``unit``/``better`` per per-layer metric and
``name``/``why`` per workload, and wants end-to-end metrics that are never
0. So the rest of what ISSUE 11 put in that file lives here and is written
into every ``results.json`` instead: ``CLAIM`` (``"claim": null``),
``FAIL_FRAC``, the layer and predicted effect of each per-layer metric,
each workload's frozen size, and the default seed.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

#: What the benchmark driver accepts as a metric or workload name.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: How long one driver run measures (``--seconds``), and the floor on the
#: number of timed passes whatever the clock says.
RUN_SECONDS = 6
MIN_TIMED_PASSES = 5
DEFAULT_SEED = 0
#: This benchmark defines the measurements and claims no gain.
CLAIM = None
#: Host speed ``wall_s`` is stated at, in million iterations per second of
#: ``harness.calibrate``'s loop (about what the reference box does when its
#: neighbours are quiet). The box's speed wanders by up to a third over tens
#: of seconds, so every unit of a pass is bracketed by two calibration loops
#: and its wall time is multiplied by their mean rate over this constant, and
#: so is ``setup_s`` by the mean rate of the loops around the set-up runs;
#: README.md has the measurements behind that. The constant only fixes the
#: scale: comparisons are ratios.
REFERENCE_MOPS = 1.4

# ----------------------------------------------------------------------
# Layers: traced self time is bucketed by source path under src/repro.
# First match wins; anything else under src/repro is "experiments",
# anything outside it (stdlib, builtins, numpy, this harness) is "other".
# ----------------------------------------------------------------------
LAYER_PATHS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim", ("sim/",)),
    ("net.link", ("net/link.py", "net/queue.py", "net/loss.py", "net/dynamics.py",
                  "net/channel.py")),
    ("net.resequencer", ("net/resequencer.py",)),
    ("net.node", ("net/",)),
    ("steering", ("steering/",)),
    ("transport.multipath", ("transport/multipath.py",)),
    ("transport.cc", ("transport/cc/",)),
    ("transport.connection", ("transport/",)),
    ("apps", ("apps/",)),
    ("fleet", ("fleet/",)),
    ("faults", ("faults/", "resilience/")),
    ("traces", ("traces/",)),
    ("runner", ("runner/",)),
    ("obs", ("obs/", "check/")),
)
LAYERS: Tuple[str, ...] = (
    "sim", "net.link", "net.node", "net.resequencer", "steering",
    "transport.connection", "transport.multipath", "transport.cc", "apps",
    "fleet", "faults", "traces", "runner", "obs", "experiments", "other",
)
#: Layers that are the simulator proper (the cli-warm acceptance split).
SIMULATION_LAYERS = tuple(
    layer for layer in LAYERS
    if layer == "sim" or layer == "fleet" or layer.startswith(("net.", "transport."))
)


def repro_relpath(path: str) -> Optional[str]:
    """``path`` relative to ``src/repro``, or ``None`` when it is outside it."""
    path = path.replace("\\", "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    return None if at < 0 else path[at + len(marker):]


def layer_of(path: str) -> str:
    """The layer a profiled source file belongs to."""
    rel = repro_relpath(path)
    if rel is None:
        return "other"
    for layer, prefixes in LAYER_PATHS:
        if rel.startswith(prefixes):
            return layer
    return "experiments"


# ----------------------------------------------------------------------
# End-to-end metrics. ``bound`` is the share of the parent's median by
# which the metric may worsen before a change is a regression.
# ----------------------------------------------------------------------
END_TO_END: Tuple[Dict, ...] = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median host wall time of one timed pass, at REFERENCE_MOPS"},
    {"name": "sim_s_per_s", "unit": "sim_s/s", "better": "higher", "bound": 0.25,
     "what": "simulated seconds covered by one pass / its wall time (median over passes)"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "fresh interpreter: start + imports + input generation (median of 4 "
             "after one throwaway run), at REFERENCE_MOPS"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05,
     "what": "ru_maxrss after the timed passes (RUSAGE_CHILDREN for CLI workloads)"},
)
#: Always 0 on a healthy tree, so the driver (which wants metrics that are
#: never 0) gets it as ``failed``/``attempted``; the ledger prints it as a
#: fifth end-to-end metric with bound 0.
FAIL_FRAC = {"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": 0.0,
             "what": "failed operations / attempted (one unit or CLI invocation per pass)"}

# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, what it should move).
# ----------------------------------------------------------------------
_LAYER_MOVES = {
    "sim": "wall_s on bulk-steered, cc-coexist-wan; none on fleet-50k, cli-warm",
    "net.link": "wall_s on bulk-steered (sweeps) and apps-short-flows (classic path)",
    "net.node": "wall_s on bulk-steered; ~0 on multipath-rpc, fleet-50k",
    "net.resequencer": "wall_s on bulk-steered; ~0 on multipath-rpc",
    "steering": "wall_s on bulk-steered; ~0 on multipath-rpc",
    "transport.connection": "wall_s on bulk-steered, cc-coexist-wan; ~0 on multipath-rpc",
    "transport.multipath": "wall_s on multipath-rpc only",
    "transport.cc": "wall_s on cc-coexist-wan; minor elsewhere",
    "apps": "wall_s on apps-short-flows",
    "fleet": "wall_s, peak_rss_mb on fleet-50k only",
    "faults": "none (no workload injects faults); must stay ~0",
    "traces": "wall_s on apps-short-flows (a trace per page, a lookup per packet)",
    "runner": "wall_s on cli-warm, cli-cold",
    "obs": "none (tracing off); must stay ~0",
    "experiments": "wall_s, setup_s on cli-warm",
    "other": "bounds how far traced shares can be trusted",
}


def _per_layer() -> List[Dict]:
    rows: List[Dict] = []

    def add(name: str, unit: str, better: str, moves: str) -> None:
        layer = name.rsplit(".", 1)[0]
        rows.append({"name": name, "unit": unit, "better": better,
                     "layer": layer, "moves": moves})

    for layer in LAYERS:
        add(f"{layer}.self_s", "s", "lower", _LAYER_MOVES[layer])
        add(f"{layer}.share", "ratio", "lower", _LAYER_MOVES[layer])
    sim = "wall_s on bulk-steered, cc-coexist-wan"
    add("sim.events", "count", "lower", sim)
    add("sim.events_per_sim_s", "1/sim_s", "lower", sim)
    add("sim.schedule_calls", "count", "lower", sim)
    add("sim.cancel_calls", "count", "lower", sim)
    link = "wall_s on bulk-steered, apps-short-flows"
    add("net.link.send_calls", "count", "lower", link)
    add("net.link.delivered", "count", "higher", link)
    add("net.link.lost", "count", "lower", link)
    add("net.link.overflow_drops", "count", "lower", link)
    node = "wall_s on bulk-steered"
    add("net.node.send_calls", "count", "lower", node)
    add("net.node.send_drops", "count", "lower", node)
    add("net.node.dup_discarded", "count", "lower", node)
    add("net.resequencer.push_calls", "count", "lower", node)
    add("net.resequencer.held", "count", "lower", node)
    add("net.resequencer.timeout_flushes", "count", "lower", node)
    add("steering.choose_calls", "count", "lower", node)
    add("steering.lowlat_byte_frac", "ratio", "higher", "sim_digest (a policy change)")
    conn = "wall_s on bulk-steered, cc-coexist-wan"
    add("transport.connection.segments_sent", "count", "lower", conn)
    add("transport.connection.retx_frac", "ratio", "lower", conn)
    add("transport.connection.timeouts", "count", "lower", conn)
    add("transport.multipath.retx", "count", "lower", "wall_s on multipath-rpc")
    add("transport.multipath.timeouts", "count", "lower", "wall_s on multipath-rpc")
    add("transport.cc.on_ack_calls", "count", "lower", "wall_s on cc-coexist-wan")
    add("transport.cc.on_lost_calls", "count", "lower", "wall_s on cc-coexist-wan")
    add("apps.messages", "count", "higher", "sim_s_per_s on apps-short-flows")
    add("fleet.ticks", "count", "lower", "wall_s on fleet-50k")
    add("fleet.completed", "count", "higher", "sim_digest on fleet-50k")
    add("runner.units", "count", "higher", "wall_s on cli-cold, cli-warm")
    add("runner.cache_hit_frac", "ratio", "higher", "wall_s on cli-warm")
    add("runner.jobs2_speedup", "x", "higher", "wall_s on cli-cold with --jobs 2")
    add("harness.trace_overhead_x", "x", "lower", "trust in traced shares")
    add("harness.wall_iqr_rel", "ratio", "lower", "trust in wall_s")
    add("harness.calib_mops", "Mops/s", "higher",
        "host speed during the passes; wall_s is stated at REFERENCE_MOPS")
    add("harness.import_s", "s", "lower", "setup_s")
    add("harness.build_s", "s", "lower", "wall_s on apps-short-flows")
    return rows


PER_LAYER: Tuple[Dict, ...] = tuple(_per_layer())

#: Counts that repeat exactly for one (commit, seed, scale); ``compare.py``
#: requires them identical between two runs of the same commit.
EXACT_COUNTS: Tuple[str, ...] = tuple(
    row["name"] for row in PER_LAYER
    if row["unit"] == "count"
    or row["name"] in ("steering.lowlat_byte_frac", "transport.connection.retx_frac",
                       "runner.cache_hit_frac", "sim.events_per_sim_s")
)

#: Read from the stats objects of networks the harness holds; the CLI
#: workloads cannot see them. The runner's are the other way round.
RUNNER_METRICS: Tuple[str, ...] = (
    "runner.units", "runner.cache_hit_frac", "runner.jobs2_speedup",
)
STATS_METRICS: Tuple[str, ...] = (
    "sim.events", "sim.events_per_sim_s",
    "net.link.delivered", "net.link.lost", "net.link.overflow_drops",
    "net.node.send_drops", "net.node.dup_discarded",
    "net.resequencer.held", "net.resequencer.timeout_flushes",
    "steering.lowlat_byte_frac",
    "transport.connection.segments_sent", "transport.connection.retx_frac",
    "transport.connection.timeouts",
    "transport.multipath.retx", "transport.multipath.timeouts",
    "apps.messages", "fleet.ticks", "fleet.completed",
)

#: Tracer call counts: metric -> (file prefixes under src/repro, exact
#: function names, count only calls arriving from another layer). The last
#: flag keeps a wrapping policy or CCA that delegates to an inner one from
#: being counted twice.
CALL_COUNTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], bool]] = {
    "sim.schedule_calls": (
        ("sim/kernel.py",),
        ("schedule", "schedule_at", "schedule_transient", "schedule_at_transient",
         "schedule_transient_bulk", "reschedule"),
        False,
    ),
    "sim.cancel_calls": (("sim/events.py",), ("cancel",), False),
    "net.link.send_calls": (("net/link.py",), ("send",), False),
    "net.node.send_calls": (("net/node.py",), ("send",), False),
    "net.resequencer.push_calls": (("net/resequencer.py",), ("push",), False),
    "steering.choose_calls": (("steering/",), ("choose",), True),
    "transport.cc.on_ack_calls": (("transport/cc/",), ("on_ack",), True),
    "transport.cc.on_lost_calls": (("transport/cc/",), ("on_lost", "on_loss"), True),
}

# ----------------------------------------------------------------------
# Workloads. ``size`` is frozen; ``smoke`` is the tiny scale test_ledger
# runs. Simulated seconds unless the key says otherwise.
# ----------------------------------------------------------------------
WORKLOADS: Tuple[Dict, ...] = (
    {"name": "bulk-steered",
     "why": "Fig. 1a cells: one backlogged flow per CCA under dchannel steering; "
            "the full single-path per-packet stack (choose, resequencer, link sweeps, scoreboard)",
     "size": {"duration": 3.0}, "smoke": {"duration": 0.5}},
    {"name": "cc-coexist-wan",
     "why": "bbr vs bbr2+ on fiber+LEO under min-rtt: WAN-BDP windows make CCA filters "
            "and the SACK scoreboard dominate while steering is trivial",
     "size": {"duration": 0.6, "draws": 2}, "smoke": {"duration": 0.2, "draws": 1}},
    {"name": "multipath-rpc",
     "why": "ab-mp bulk + 4 Hz RPCs on MultipathConnection (hvc, minrtt): the transport "
            "layer through its other implementation; channel_hint bypasses steering",
     "size": {"duration": 1.0, "drain": 0.5}, "smoke": {"duration": 0.3, "drain": 0.1}},
    {"name": "apps-short-flows",
     "why": "Table 1 page loads + Fig. 2 priority video over trace-driven links: "
            "per-connection and per-message cost on the classic per-packet link path",
     "size": {"page_mb": 8.0, "video_s": 20.0}, "smoke": {"page_mb": 0.5, "video_s": 2.0}},
    {"name": "fleet-50k",
     "why": "50k fluid tenants with one packet foreground flow: the fluid stepper "
            "does the work and the packet path almost none",
     "size": {"tenants": 50_000, "duration": 3.0}, "smoke": {"tenants": 2_000, "duration": 1.0}},
    {"name": "cli-cold",
     "why": "python -m repro fig1a into a fresh cache: interpreter start, import, "
            "runner, 4 units, cache store, render; what a user types",
     "size": {"duration": 2.0}, "smoke": {"duration": 0.3}},
    {"name": "cli-warm",
     "why": "the same command against a primed cache, back to back: import, cache "
            "lookup and render only; simulation layers do nothing",
     "size": {"duration": 2.0, "invocations": 3}, "smoke": {"duration": 0.3, "invocations": 1}},
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(w["name"] for w in WORKLOADS)


def workload_spec(name: str) -> Dict:
    for workload in WORKLOADS:
        if workload["name"] == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")


def size_for(name: str, smoke: bool) -> Dict:
    return dict(workload_spec(name)["smoke" if smoke else "size"])


def metric_unit(name: str) -> Optional[str]:
    for row in END_TO_END + (FAIL_FRAC,) + PER_LAYER:
        if row["name"] == name:
            return row["unit"]
    return None


def benchmark_json() -> Dict:
    """The exact content of ``/BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {key: m[key] for key in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [
            {key: m[key] for key in ("name", "unit", "better")} for m in PER_LAYER
        ],
    }
