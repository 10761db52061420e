"""Seeded chaos campaign: random scenarios executed with invariants armed.

Each scenario is a random point in (topology preset × steering policy ×
congestion controller × workload shape × fault schedule) space, encoded as
a primitive dict so it can ride inside a :class:`~repro.runner.RunUnit`,
hash into the result cache, and round-trip through a JSON repro bundle.
The campaign executes scenarios through
:meth:`~repro.runner.ParallelRunner.run_outcomes` — a crashing or hanging
scenario yields an outcome, not a dead campaign — with the
:class:`~repro.check.monitor.InvariantMonitor` armed on every network.

A violated invariant produces a self-contained bundle (see
:mod:`repro.check.bundle`); ``--replay <bundle>`` re-executes the recorded
scenario in-process and verifies the same law fails on the same entity at
the same simulated time. ``--seed-bug reseq-double-release`` arms the
deliberately planted resequencer bug to demonstrate the whole
catch → bundle → replay loop end to end (that mode *expects* violations and
fails if none are caught).

CLI::

    python -m repro chaos                       # 200 scenarios, seed 0
    python -m repro chaos --quick               # CI smoke scale
    python -m repro chaos --scenarios 50 --jobs 8 --seed 7
    python -m repro chaos --seed-bug reseq-double-release
    python -m repro chaos --replay chaos_bundles/chaos-00012-link-fifo.json
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Optional, Sequence

from repro.errors import InvariantError, ScenarioError

#: Known planted bugs (--seed-bug); each exists to prove a law can fire.
SEED_BUGS = ("reseq-double-release",)

#: Workload shapes a scenario can draw.
WORKLOADS = ("bulk", "two-flows", "mixed", "datagram")

#: Steering policies safe to instantiate with no extra configuration.
STEERINGS = (
    "single",
    "round-robin",
    "min-rtt",
    "ecf",
    "flow-pinned",
    "dchannel",
    "general",
    "redundant",
    "cost-aware",
)

#: Congestion controllers drawn for reliable flows.
CCAS = (
    "reno", "cubic", "bbr", "bbr2", "bbr2+", "vegas", "vivace",
    "hvc-reno", "hvc-cubic", "hvc-bbr", "hvc-bbr2+",
)

#: Trace presets a scenario can derive its fault schedule from instead of
#: drawing a random one (see :meth:`FaultSchedule.from_trace`). Derivation
#: happens at draw time; the resulting primitive rows ride in
#: ``scenario["fault_rows"]`` so bundles replay without re-deriving.
TRACE_FAULT_SOURCES = ("starlink-leo", "wifi-5g-handoff")

#: Trace window used when deriving chaos fault schedules. Both presets
#: place their first disruption around t=3-4s, so a 6 s window yields a
#: non-trivial schedule; ``run_scenario`` already extends the run past the
#: schedule horizon, whatever the scenario's nominal duration.
TRACE_FAULT_DURATION = 6.0

#: Default campaign scale (the acceptance bar runs >= 200 scenarios).
DEFAULT_SCENARIOS = 200
DEFAULT_DURATION = 1.5
QUICK_SCENARIOS = 24
QUICK_DURATION = 0.6
DEFAULT_BUNDLE_DIR = "chaos_bundles"

#: Slack past the fault horizon so every revert lands before final_check.
HORIZON_SLACK = 0.05


def channel_preset(name: str) -> list:
    """Materialize a named channel set (fresh spec instances each call)."""
    from repro.net.hvc import (
        cisp_spec,
        fiber_wan_spec,
        fixed_embb_spec,
        leo_spec,
        urllc_spec,
        wifi_mlo_specs,
    )

    presets = {
        "embb": lambda: [fixed_embb_spec()],
        "embb+urllc": lambda: [fixed_embb_spec(), urllc_spec()],
        "embb+leo": lambda: [fixed_embb_spec(), leo_spec()],
        "cisp+wan": lambda: [cisp_spec(), fiber_wan_spec()],
        "wifi-mlo": lambda: list(wifi_mlo_specs()),
        "embb+urllc+leo": lambda: [fixed_embb_spec(), urllc_spec(), leo_spec()],
    }
    try:
        return presets[name]()
    except KeyError:
        known = ", ".join(sorted(presets))
        raise ScenarioError(f"unknown channel preset {name!r}; known: {known}") from None


#: Channel names per preset, needed to draw fault schedules without
#: materializing specs (must match the ChannelSpec names above).
PRESET_CHANNELS: Dict[str, Sequence[str]] = {
    "embb": ("embb",),
    "embb+urllc": ("embb", "urllc"),
    "embb+leo": ("embb", "leo"),
    "cisp+wan": ("cisp", "fiber-wan"),
    "wifi-mlo": ("wifi-mlo-5GHz", "wifi-mlo-6GHz"),
    "embb+urllc+leo": ("embb", "urllc", "leo"),
}


def random_scenario(
    rng: random.Random,
    index: int,
    duration: float = DEFAULT_DURATION,
    seed_bug: Optional[str] = None,
) -> dict:
    """Draw one scenario as a primitive, bundle-able dict.

    A fifth of ordinary draws source their fault schedule from a trace
    preset (``fault_source`` in :data:`TRACE_FAULT_SOURCES`) via
    :meth:`FaultSchedule.from_trace` rather than from the random fault
    generator — exercising exactly the disruption shapes real link traces
    produce (handoff micro-outages, rate collapses, delay spikes).

    With ``seed_bug`` set the draw is biased toward configurations where
    the planted bug can actually express itself (the resequencer only
    drains when multi-channel reordering makes it hold packets).
    """
    if seed_bug is not None and seed_bug not in SEED_BUGS:
        known = ", ".join(SEED_BUGS)
        raise ScenarioError(f"unknown seed bug {seed_bug!r}; known: {known}")
    if seed_bug == "reseq-double-release":
        preset = rng.choice(("embb+urllc", "embb+leo", "embb+urllc+leo"))
        steering = rng.choice(("round-robin", "dchannel", "min-rtt"))
        workload = rng.choice(("bulk", "two-flows"))
        resequence = True
    else:
        preset = rng.choice(tuple(PRESET_CHANNELS))
        steering = rng.choice(STEERINGS)
        workload = rng.choice(WORKLOADS)
        resequence = rng.random() < 0.85
    channels = PRESET_CHANNELS[preset]
    from repro.faults.schedule import FaultSchedule

    fault_source = "random"
    if seed_bug is None and rng.random() < 0.2:
        fault_source = rng.choice(TRACE_FAULT_SOURCES)
    if fault_source != "random":
        from repro.traces.catalog import get_trace

        trace = get_trace(fault_source, duration=TRACE_FAULT_DURATION)
        schedule = FaultSchedule.from_trace(trace, channel=rng.choice(channels))
    else:
        schedule = FaultSchedule.random(
            channels,
            duration,
            rng=rng,
            outage_rate=rng.choice((0.0, 0.2, 0.5)),
            outage_mean=0.2,
            loss_burst_rate=rng.choice((0.0, 0.3)),
            loss_burst_mean=0.3,
            loss_burst_severity=rng.uniform(0.05, 0.4),
            rtt_spike_rate=rng.choice((0.0, 0.3)),
            rtt_spike_mean=0.25,
            rtt_spike_delay=rng.uniform(0.01, 0.08),
            blackout_rate=rng.choice((0.0, 0.0, 0.3)),
            blackout_mean=0.15,
            capacity_rate=rng.choice((0.0, 0.0, 0.3)),
            capacity_mean=0.3,
            capacity_factor=rng.uniform(0.1, 0.5),
        )
    return {
        "index": index,
        "seed": rng.randrange(2**31),
        "channels": preset,
        "steering": steering,
        "cca": rng.choice(CCAS),
        "workload": workload,
        "resequence": resequence,
        "datagram_blackout": rng.choice(("drop", "buffer")),
        "duration": duration,
        "fault_source": fault_source,
        "fault_rows": schedule.to_params(),
        "seed_bug": seed_bug,
    }


def _build_workload(net, scenario: dict) -> None:
    """Create the scenario's flows with *deterministic* flow ids.

    Explicit ids matter: the global flow-id counter differs between a
    campaign worker and a replay process, and policies like ``flow-pinned``
    key on the id — bundles would not replay without pinning it.
    """
    from repro.apps.bulk import BACKLOG_BYTES

    kind = scenario["workload"]
    cca = scenario["cca"]
    sim = net.sim
    if kind in ("bulk", "two-flows", "mixed"):
        pair = net.open_connection(cc=cca, flow_id=101)
        pair.client.send_message(BACKLOG_BYTES, message_id=1)
    if kind == "two-flows":
        second = net.open_connection(cc=cca, flow_id=102, flow_priority=1)
        second.client.send_message(BACKLOG_BYTES, message_id=1)
    if kind in ("mixed", "datagram"):
        sock = net.open_datagram(
            flow_id=201, blackout=scenario["datagram_blackout"]
        )
        duration = scenario["duration"]
        messages = 40
        for i in range(messages):
            sim.schedule_at(
                i * duration / messages,
                _send_datagram, sock.client, 8_000, i + 1,
            )


def _send_datagram(socket, size: int, message_id: int) -> None:
    if not socket._closed:
        socket.send_message(size, message_id=message_id)


def run_scenario(scenario: dict) -> dict:
    """Execute one scenario with invariants armed; raises on violation.

    Returns run statistics on a clean pass. An
    :class:`~repro.errors.InvariantError` propagates to the caller —
    :func:`chaos_unit` converts it into a structured payload for campaign
    transport, while tests and ``--replay`` consume the raise directly.
    """
    from repro.check.monitor import InvariantMonitor
    from repro.core.api import HvcNetwork
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.net import resequencer as reseq_mod

    seed_bug = scenario.get("seed_bug")
    if seed_bug is not None and seed_bug not in SEED_BUGS:
        known = ", ".join(SEED_BUGS)
        raise ScenarioError(f"unknown seed bug {seed_bug!r}; known: {known}")
    if seed_bug == "reseq-double-release":
        reseq_mod.DEBUG_DOUBLE_RELEASE = True
    try:
        net = HvcNetwork(
            channel_preset(scenario["channels"]),
            steering=scenario["steering"],
            seed=scenario["seed"],
            resequence=scenario["resequence"],
        )
        monitor = InvariantMonitor(net).arm()
        schedule = FaultSchedule.from_params(scenario["fault_rows"])
        if len(schedule):
            injector = FaultInjector(net, schedule).arm()
            monitor.watch_injector(injector)
        _build_workload(net, scenario)
        until = max(scenario["duration"], schedule.horizon + HORIZON_SLACK)
        net.run(until=until)
        monitor.final_check()
    finally:
        reseq_mod.DEBUG_DOUBLE_RELEASE = False
    return {
        "ok": True,
        "checks": monitor.checks_run,
        "audits": monitor.audits_run,
        "events": monitor.events_seen,
        "faults": len(scenario["fault_rows"]),
    }


def chaos_unit(scenario: dict, seed: int = 0) -> dict:
    """Unit-function wrapper: violations become data, not exceptions.

    A campaign wants the violation report back through the worker pool as a
    plain payload (and a clean separation from *infrastructure* failures,
    which stay exceptions and surface as error outcomes).
    """
    try:
        return run_scenario(scenario)
    except InvariantError as exc:
        return {"ok": False, "violation": exc.report, "message": str(exc)}


def run_campaign(
    scenarios: int = DEFAULT_SCENARIOS,
    seed: int = 0,
    duration: float = DEFAULT_DURATION,
    jobs: int = 1,
    bundle_dir: str = DEFAULT_BUNDLE_DIR,
    seed_bug: Optional[str] = None,
    runner=None,
    timeout: Optional[float] = 120.0,
    progress=None,
) -> dict:
    """Run a seeded campaign; returns a summary dict.

    The same ``(scenarios, seed, duration, seed_bug)`` always produces the
    same scenario list — "chaos" refers to what happens *inside* each
    simulation, never to the campaign's own reproducibility.
    """
    from repro.check.bundle import write_bundle
    from repro.runner import ParallelRunner, RunUnit

    rng = random.Random(seed)
    scenario_list = [
        random_scenario(rng, index=i, duration=duration, seed_bug=seed_bug)
        for i in range(scenarios)
    ]
    units = [
        RunUnit.make("chaos", "repro.check.chaos:chaos_unit", scenario=scn)
        for scn in scenario_list
    ]
    if runner is None:
        runner = ParallelRunner(jobs=jobs)
    outcomes = runner.run_outcomes(units, timeout=timeout)

    bundles: List[str] = []
    violations = 0
    errors = []
    checks = 0
    for scn, outcome in zip(scenario_list, outcomes):
        if not outcome.ok:
            errors.append(
                {"index": scn["index"], "status": outcome.status, "error": outcome.error}
            )
            continue
        payload = outcome.value
        if payload.get("ok"):
            checks += payload.get("checks", 0)
            continue
        violations += 1
        path = write_bundle(
            bundle_dir,
            scn,
            payload["violation"],
            campaign={"seed": seed, "scenarios": scenarios, "duration": duration},
        )
        bundles.append(str(path))
        if progress is not None:
            progress(f"[chaos] scenario {scn['index']}: {payload['message'].splitlines()[0]}")
            progress(f"[chaos]   bundle: {path}")
    return {
        "scenarios": scenarios,
        "clean": scenarios - violations - len(errors),
        "violations": violations,
        "bundles": bundles,
        "errors": errors,
        "checks": checks,
        "seed": seed,
        "seed_bug": seed_bug,
    }


def replay_bundle(path, progress=None) -> dict:
    """Re-execute a bundle's scenario and compare the violation.

    Returns ``{"reproduced": bool, "recorded": ..., "replayed": ...}``;
    ``replayed`` is ``None`` when the scenario unexpectedly ran clean.
    """
    from repro.check.bundle import read_bundle, same_violation

    payload = read_bundle(path)
    recorded = payload["violation"]
    try:
        run_scenario(payload["scenario"])
        replayed = None
    except InvariantError as exc:
        replayed = exc.report
    reproduced = replayed is not None and same_violation(recorded, replayed)
    if progress is not None:
        want = f"[{recorded.get('law')}] {recorded.get('entity')} t={recorded.get('time')}"
        if replayed is None:
            progress(f"[chaos] replay ran CLEAN — recorded violation {want} did not recur")
        else:
            got = f"[{replayed.get('law')}] {replayed.get('entity')} t={replayed.get('time')}"
            verdict = "reproduced" if reproduced else "DIVERGED"
            progress(f"[chaos] replay {verdict}: recorded {want}, replayed {got}")
    return {"reproduced": reproduced, "recorded": recorded, "replayed": replayed}


# ----------------------------------------------------------------------
# CLI (`python -m repro chaos ...`)
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    from repro.runner import usable_cpus

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Seeded chaos campaign: random workload x fault schedule x "
            "policy scenarios executed with runtime invariants armed."
        ),
    )
    parser.add_argument("--scenarios", type=int, default=DEFAULT_SCENARIOS)
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--duration", type=float, default=None, help="per-scenario sim seconds"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke scale ({QUICK_SCENARIOS} scenarios x {QUICK_DURATION}s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=usable_cpus(), metavar="N",
        help="worker processes (default: the CPUs this process may use)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-scenario wall-clock budget in seconds (0 disables)",
    )
    parser.add_argument("--bundle-dir", default=DEFAULT_BUNDLE_DIR, metavar="DIR")
    parser.add_argument(
        "--seed-bug", choices=SEED_BUGS, default=None,
        help="arm a planted bug; the campaign then EXPECTS violations",
    )
    parser.add_argument(
        "--replay", metavar="BUNDLE", default=None,
        help="re-execute a failure bundle and verify it reproduces",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:  # pragma: no cover - exercised via __main__
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    if args.replay is not None:
        result = replay_bundle(args.replay, progress=print)
        return 0 if result["reproduced"] else 1
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    scenarios = args.scenarios
    duration = args.duration
    if args.quick:
        scenarios = min(scenarios, QUICK_SCENARIOS)
        duration = duration if duration is not None else QUICK_DURATION
    elif duration is None:
        duration = DEFAULT_DURATION
    summary = run_campaign(
        scenarios=scenarios,
        seed=args.seed,
        duration=duration,
        jobs=args.jobs,
        bundle_dir=args.bundle_dir,
        seed_bug=args.seed_bug,
        timeout=args.timeout if args.timeout > 0 else None,
        progress=print,
    )
    print(
        f"[chaos] {summary['scenarios']} scenarios (seed={summary['seed']}): "
        f"{summary['clean']} clean, {summary['violations']} violations, "
        f"{len(summary['errors'])} errors, {summary['checks']} invariant checks"
    )
    for error in summary["errors"]:
        print(f"[chaos] scenario {error['index']} {error['status']}: "
              f"{str(error['error']).splitlines()[-1] if error['error'] else '?'}")
    if args.seed_bug is not None:
        # Demo mode: the planted bug must be caught, and each bundle must
        # replay to the same violation — the full triage loop, verified.
        if summary["violations"] == 0:
            print(f"[chaos] seeded bug {args.seed_bug!r} was NOT caught")
            return 1
        replays = [replay_bundle(p, progress=print) for p in summary["bundles"]]
        return 0 if all(r["reproduced"] for r in replays) else 1
    return 0 if summary["violations"] == 0 and not summary["errors"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI dispatch
    sys.exit(main())
