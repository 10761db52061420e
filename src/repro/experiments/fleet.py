"""Fleet-scale multi-tenant runs on the hybrid-fidelity engine.

One simulated network carries 10k+ tenants sharing an HVC channel pair:
foreground flows run packet-level, the tenant mass runs as fluid rate
ODEs (:mod:`repro.fleet`). The experiment reports the two headline
numbers the paper's fleet argument needs — the FCT distribution (p50 /
p99) and per-CCA goodput shares — as tenant count scales.

Sharding model: the *background* world is deterministic and cheap (one
vectorized ODE step per tick), so every shard replays it identically and
only the packet-level foreground flows are split across workers
(``flow_index % shards == shard``). The merge asserts every shard's
background digest matches — any nondeterminism or cross-fidelity leak
shows up as a hard failure, not a silently skewed figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.results import ExperimentResult, SeriesSet, Table
from repro.errors import RunnerError
from repro.faults.recovery import recovery_percentile
from repro.fleet.hybrid import FleetConfig, FleetSimulation
from repro.fleet.validation import (
    ValidationTolerance,
    check_equivalence,
    run_equivalence_case,
)
from repro.runner import ParallelRunner, RunUnit

DEFAULT_TENANTS = 10_000
DEFAULT_FOREGROUND = 12
DEFAULT_DURATION = 20.0


def fleet_unit(
    tenants: int = DEFAULT_TENANTS,
    foreground: int = DEFAULT_FOREGROUND,
    duration: float = DEFAULT_DURATION,
    preset: str = "paper",
    shard: int = 0,
    shards: int = 1,
    seed: int = 0,
) -> dict:
    """One shard of a fleet run, reduced to a picklable payload."""
    config = FleetConfig(
        tenants=tenants,
        foreground=foreground,
        duration=duration,
        seed=seed,
        preset=preset,
        shard=shard,
        shards=shards,
        # One-way coupling always: the experiment's output must be
        # identical for any shard count (the runner's determinism
        # promise), so even a single-shard run may not let the
        # foreground feed back into the fluid ODEs.
        sense_foreground=False,
    )
    sim = FleetSimulation(config)
    return sim.run()


def _merge_shards(payloads: List[dict]) -> dict:
    """Deterministic merge: background from shard 0, foreground by index.

    Every shard replays the identical fluid background; their digests
    must match exactly or the run is invalid (a shard's foreground leaked
    into the background dynamics, or the engine went nondeterministic).
    """
    digests = {p["background_digest"] for p in payloads}
    if len(digests) != 1:
        raise RunnerError(
            "fleet shards disagree on the background digest "
            f"({len(digests)} distinct values across {len(payloads)} shards) — "
            "the background world is supposed to replay identically in every "
            "shard; refusing to merge skewed results"
        )
    merged = dict(payloads[0])
    flows = [f for p in payloads for f in p["foreground"]]
    flows.sort(key=lambda f: f["index"])
    merged["foreground"] = flows
    merged["events_processed"] = sum(p["events_processed"] for p in payloads)
    fg_bytes: Dict[str, float] = {}
    for flow in flows:
        fg_bytes[flow["cca"]] = fg_bytes.get(flow["cca"], 0.0) + flow["bytes_acked"]
    from repro.fleet.hybrid import goodput_shares

    merged["goodput_shares"] = goodput_shares(
        merged["background"]["bytes_by_cca"], fg_bytes
    )
    return merged


def run_fleet(
    tenants: int = DEFAULT_TENANTS,
    foreground: int = DEFAULT_FOREGROUND,
    duration: float = DEFAULT_DURATION,
    preset: str = "paper",
    seed: int = 0,
    shards: int = 1,
    validate: bool = True,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """The fleet experiment: FCT and goodput shares at tenant scale.

    ``shards`` splits the packet-level foreground across that many run
    units (parallelized by the runner's worker pool). The background is
    bit-identical in every shard — asserted via digest at merge — but
    foreground flows in *different* shards do not contend with each
    other, so the shard count is part of the scenario, not a pure
    execution knob: it defaults to 1 and is never inferred from
    ``runner.jobs``.
    """
    runner = runner if runner is not None else ParallelRunner()
    shards = max(1, min(int(shards), max(foreground, 1)))
    payloads = runner.run(
        [
            RunUnit.make(
                "fleet",
                "repro.experiments.fleet:fleet_unit",
                seed=seed,
                tenants=tenants,
                foreground=foreground,
                duration=duration,
                preset=preset,
                shard=shard,
                shards=shards,
            )
            for shard in range(shards)
        ]
    )
    merged = _merge_shards(payloads)

    result = ExperimentResult(
        name="fleet",
        description=(
            f"{tenants} fluid background tenants + {foreground} packet-level "
            f"foreground flows sharing the {preset!r} channel pair for "
            f"{duration:g}s ({shards} shard(s))."
        ),
        events_processed=merged["events_processed"],
    )
    bg = merged["background"]
    bg_fct = bg["fct"]
    fg_fct = [x for flow in merged["foreground"] for x in flow["fct"]]

    result.values["tenants"] = float(tenants)
    result.values["bg_completed"] = float(bg["completed"])
    result.values["bg_fct_p50_ms"] = recovery_percentile(bg_fct, 50) * 1000.0
    result.values["bg_fct_p99_ms"] = recovery_percentile(bg_fct, 99) * 1000.0
    result.values["fg_fct_p50_ms"] = recovery_percentile(fg_fct, 50) * 1000.0
    result.values["fg_fct_p99_ms"] = recovery_percentile(fg_fct, 99) * 1000.0
    result.values["fg_requests"] = float(len(fg_fct))

    fct_table = Table(
        ["population", "flows", "completed", "p50 (ms)", "p99 (ms)"],
        title="Flow completion times",
    )
    fct_table.add_row(
        "background (fluid)",
        tenants,
        bg["completed"],
        result.values["bg_fct_p50_ms"],
        result.values["bg_fct_p99_ms"],
    )
    fct_table.add_row(
        "foreground (packet)",
        foreground,
        len(fg_fct),
        result.values["fg_fct_p50_ms"],
        result.values["fg_fct_p99_ms"],
    )
    result.tables.append(fct_table)

    share_table = Table(["CCA", "goodput share"], title="Per-CCA goodput shares")
    for cca, share in sorted(merged["goodput_shares"].items()):
        share_table.add_row(cca, share)
        result.values[f"share_{cca}"] = share
    result.tables.append(share_table)

    util = merged["utilization"]
    util_series = SeriesSet(
        title="Channel utilization (shard 0 view)", x_label="channel", y_label="util"
    )
    for i, (name, u) in enumerate(sorted(util.items())):
        util_series.add(name, [(0.0, u["up"]), (1.0, u["down"])])
        result.values[f"util_up_{name}"] = u["up"]
    result.series.append(util_series)

    by_class = bg["bytes_by_class"]
    result.notes.append(
        "background bytes by class: "
        + ", ".join(f"{k}={v:.0f}" for k, v in sorted(by_class.items()))
    )
    result.notes.append(f"background digest {merged['background_digest'][:16]}…")

    if validate:
        report = run_equivalence_case(seed=seed)
        violations = check_equivalence(report, ValidationTolerance())
        d = report["deltas"]
        result.values["validation_fct_p50_rel"] = d["fct_p50_rel"]
        result.values["validation_fct_p90_rel"] = d["fct_p90_rel"]
        if violations:
            result.notes.append(
                "hybrid-vs-packet equivalence gate FAILED: " + "; ".join(violations)
            )
        else:
            result.notes.append(
                "hybrid-vs-packet equivalence gate passed "
                f"(p50 rel {d['fct_p50_rel']:.1%}, p90 rel {d['fct_p90_rel']:.1%}, "
                f"{report['full']['tenants']} packet-level flows)"
            )
    return result


run_fleet.quick = {"tenants": 2_000, "foreground": 6, "duration": 6.0}
