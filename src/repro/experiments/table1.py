"""Table 1: web PLT with small background traffic (§3.3).

Setup: pages loaded over HTTP/2-style multiplexing with TCP CUBIC; the
client has two parallel paths — eMBB (5G Lowband stationary / driving
traces) and URLLC (5 ms RTT, 2 Mbps). Two background flows continuously
upload 5 kB and download 10 kB JSON objects. Three steering policies:

* ``embb-only``           — everything on eMBB (baseline column);
* ``dchannel``            — application-blind packet steering;
* ``dchannel+flowprio``   — DChannel + flow priorities: background flows
  are barred from URLLC ("DChannel w. priority" column).

Paper's Table 1 (mean PLT in ms):

| Traces | eMBB-only | DChannel       | DChannel w. priority |
|--------|-----------|----------------|----------------------|
| Stat.  | 1697.3    | 1230.5 (27.5%) | 1154.9 (32%)         |
| Drv.   | 2334.3    | 1474.6 (36.8%) | 1336.8 (42.7%)       |
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import percentile
from repro.core.results import ExperimentResult, PaperComparison, Table
from repro.experiments.fig1 import _export_trace, _steering_for, _unit_obs
from repro.runner import ParallelRunner, RunUnit
from repro.units import to_ms

if TYPE_CHECKING:
    from repro.core.api import HvcNetwork
    from repro.net.channel import ChannelSpec

POLICIES = ("embb-only", "dchannel", "dchannel+flowprio")
TRACES = {
    "stationary": "5g-lowband-stationary",
    "driving": "5g-lowband-driving",
}

PAPER_PLT_MS = {
    ("stationary", "embb-only"): 1697.3,
    ("stationary", "dchannel"): 1230.5,
    ("stationary", "dchannel+flowprio"): 1154.9,
    ("driving", "embb-only"): 2334.3,
    ("driving", "dchannel"): 1474.6,
    ("driving", "dchannel+flowprio"): 1336.8,
}


def web_network(
    trace_name: str,
    policy,
    seed: int = 0,
    urllc: Optional[ChannelSpec] = None,
    steering_kwargs: Optional[dict] = None,
) -> HvcNetwork:
    """Build the Table 1 network: traced Lowband eMBB + URLLC."""
    from repro.core.api import HvcNetwork
    from repro.net.hvc import traced_embb_spec, urllc_spec
    from repro.traces.catalog import get_trace

    trace = get_trace(trace_name, seed=seed + 1)
    embb = traced_embb_spec(trace)
    embb.name = "embb"
    return HvcNetwork(
        [embb, urllc if urllc is not None else urllc_spec()],
        steering=_steering_for(policy),
        steering_kwargs=steering_kwargs,
        seed=seed,
    )


def corpus_plts(
    pages: Sequence,
    make_network: Callable[[int], HvcNetwork],
    background: bool = True,
    loader_fn=None,
    timeout: float = 45.0,
    obs=None,
) -> Tuple[List[float], int]:
    """(PLT samples in seconds, kernel events) over ``pages``.

    Each page loads on the fresh network ``make_network(page_index)``
    builds (cleared caches and re-established connections, as in the
    paper's methodology); with ``background`` the two background flows run
    throughout and get 0.2 s to reach steady state first. A load that
    stalls counts at ``timeout``.

    ``obs`` instruments the first page's network only: one realization
    already exhibits the full packet lifecycle, and a whole corpus would
    multiply trace volume ~30x for no extra signal.
    """
    from repro.apps.web.background import BackgroundFlows
    from repro.apps.web.browser import load_page

    plts: List[float] = []
    events = 0
    for index, page in enumerate(pages):
        net = make_network(index)
        if obs is not None and index == 0:
            net.attach_obs(obs)
        if background:
            flows = BackgroundFlows(net)
            net.run(until=0.2)
        result = (loader_fn or load_page)(net, page, cc="cubic", timeout=timeout)
        if background:
            flows.close()
        plts.append(result.plt if result.complete else timeout)
        events += net.sim.events_processed
    return plts, events


def run_table1_cell(
    condition: str,
    policy: str,
    pages: Optional[Sequence] = None,
    seed: int = 0,
) -> List[float]:
    """Mean-PLT samples (seconds) for one (condition, policy) cell: one load
    per page, a stalled load counted at 45 s."""
    if pages is None:
        from repro.apps.web.corpus import generate_corpus

        pages = generate_corpus(count=30, seed=seed)
    return _cell_samples(condition, pages, policy, 1, seed, 45.0)[0]


def _cell_samples(
    condition: str,
    pages: Sequence,
    policy: str,
    loads_per_page: int,
    seed: int,
    page_timeout: float,
    obs=None,
) -> Tuple[List[float], int]:
    """(PLT samples, kernel events) over ``loads_per_page`` rounds of the
    corpus; ``obs`` traces the first load of the first round."""
    plts: List[float] = []
    events = 0
    for load_round in range(loads_per_page):
        round_seed = seed + 101 * load_round
        round_plts, round_events = corpus_plts(
            pages,
            lambda index: web_network(
                TRACES[condition], policy, seed=round_seed + index
            ),
            timeout=page_timeout,
            obs=obs if load_round == 0 else None,
        )
        plts += round_plts
        events += round_events
    return plts, events


def table1_cell_unit(
    condition: str = "stationary",
    policy: str = "dchannel",
    page_count: int = 30,
    loads_per_page: int = 1,
    page_timeout: float = 45.0,
    seed: int = 0,
    trace_dir: Optional[str] = None,
) -> dict:
    """One Table 1 cell reduced to picklable samples (runner unit).

    The page corpus is regenerated from ``(page_count, seed)`` inside the
    worker, which is deterministic, so the unit's parameters fully describe
    the run.
    """
    from repro.apps.web.corpus import generate_corpus

    obs = _unit_obs(trace_dir)
    plts, events = _cell_samples(
        condition, generate_corpus(count=page_count, seed=seed), policy,
        loads_per_page, seed, page_timeout, obs=obs,
    )
    payload = {"plts": plts, "events": events}
    if obs is not None:
        payload["trace"] = _export_trace(
            obs, trace_dir, f"table1-{condition}-{policy}"
        )
    return payload


def run_table1(
    page_count: int = 30,
    loads_per_page: int = 1,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
    trace_dir: Optional[str] = None,
) -> ExperimentResult:
    """Regenerate Table 1: mean web PLT per trace condition and policy."""
    runner = runner if runner is not None else ParallelRunner()
    conditions = ("stationary", "driving")
    cell_keys = [
        (condition, policy) for condition in conditions for policy in POLICIES
    ]
    extra = {} if trace_dir is None else {"trace_dir": trace_dir}
    payloads = dict(
        zip(
            cell_keys,
            runner.run(
                [
                    RunUnit.make(
                        "table1-cell",
                        "repro.experiments.table1:table1_cell_unit",
                        seed=seed,
                        condition=condition,
                        policy=policy,
                        page_count=page_count,
                        loads_per_page=loads_per_page,
                        **extra,
                    )
                    for condition, policy in cell_keys
                ],
                cached=trace_dir is None,
            ),
        )
    )
    result = ExperimentResult(
        name="table1",
        description=(
            "Web PLT (ms) with small background traffic using emulated 5G "
            "lowband eMBB (stationary and driving traces) with URLLC."
        ),
    )
    table = Table(
        ["Traces", "eMBB-only", "DChannel", "DChannel w. priority"],
        title="Table 1 — mean PLT (ms), improvement vs eMBB-only",
    )
    for condition in conditions:
        means: Dict[str, float] = {}
        for policy in POLICIES:
            payload = payloads[(condition, policy)]
            plts = payload["plts"]
            result.events_processed += payload["events"]
            if "trace" in payload:
                result.artifacts[f"trace:{condition}:{policy}"] = payload["trace"]
            mean_ms = to_ms(sum(plts) / len(plts))
            means[policy] = mean_ms
            result.values[f"{condition}:{policy}:mean_plt_ms"] = mean_ms
            result.values[f"{condition}:{policy}:p95_plt_ms"] = to_ms(
                percentile(plts, 95)
            )
            paper = PAPER_PLT_MS[(condition, policy)]
            result.comparisons.append(
                PaperComparison(
                    f"{condition}/{policy} mean PLT", paper, round(mean_ms, 1), " ms"
                )
            )
        baseline = means["embb-only"]
        cells = [
            f"{means['embb-only']:.1f}",
            f"{means['dchannel']:.1f} ({100 * (1 - means['dchannel'] / baseline):.1f}%)",
            f"{means['dchannel+flowprio']:.1f} "
            f"({100 * (1 - means['dchannel+flowprio'] / baseline):.1f}%)",
        ]
        table.add_row(condition.capitalize()[:5] + ".", *cells)
        prio = means["dchannel+flowprio"]
        result.shapes.update({
            f"{condition}: mean PLT dchannel < embb-only": means["dchannel"] < baseline,
            f"{condition}: mean PLT dchannel+flowprio < dchannel": prio < means["dchannel"],
            f"{condition}: dchannel+flowprio cuts mean PLT > 10% vs embb-only": (
                1 - prio / baseline > 0.10
            ),
        })
    result.tables.append(table)
    plt = result.values
    result.shapes["driving embb-only mean PLT > stationary's"] = (
        plt["driving:embb-only:mean_plt_ms"] > plt["stationary:embb-only:mean_plt_ms"]
    )
    return result


run_table1.quick = {"page_count": 4}
