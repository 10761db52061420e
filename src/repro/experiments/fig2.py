"""Figure 2: real-time SVC video under three steering schemes (§3.3).

Setup: VP9-SVC-like stream, 3 layers at 400/4100/7500 kbps, 30 fps, sent
as per-layer messages over UDP; receiver decodes with the 60 ms wait rule.
eMBB is trace-driven (mmWave driving / Lowband driving — the high-variance
mobility traces); URLLC is 5 ms RTT / 2 Mbps.

Schemes compared (paper's Fig. 2 CDFs of frame latency and SSIM):

* ``embb-only``  — everything on eMBB;
* ``dchannel``   — application-blind per-packet steering;
* ``priority``   — cross-layer: layer 0 rides URLLC, layers 1–2 ride eMBB.

Paper headline (mmWave driving, 95th-pct latency): priority 78 ms vs
DChannel 176 ms (2.26×) vs eMBB-only ~2.06 s (26×); SSIM costs 0.002 and
0.068 respectively.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.metrics import Cdf
from repro.core.results import ExperimentResult, PaperComparison, SeriesSet, Table
from repro.experiments.fig1 import _export_trace, _steering_for, _unit_obs
from repro.runner import ParallelRunner, RunUnit
from repro.units import kib, to_ms

if TYPE_CHECKING:
    from repro.apps.video.session import VideoSessionResult
    from repro.core.api import HvcNetwork

SCHEMES = ("embb-only", "dchannel", "priority")
TRACES = ("5g-mmwave-driving", "5g-lowband-driving")

#: Paper's mmWave-driving 95th-percentile latencies (ms).
PAPER_P95_LATENCY_MS = {"embb-only": 2058.0, "dchannel": 176.0, "priority": 78.0}
#: Paper's SSIM deltas vs priority steering on mmWave driving.
PAPER_SSIM_DELTA = {"embb-only": 0.068, "dchannel": 0.002}


def video_network(trace_name: str, scheme: str, seed: int = 0) -> HvcNetwork:
    """Build the Fig. 2 network: traced eMBB + URLLC, chosen steering.

    mmWave gets a deeper base-station buffer (buffers scale with the
    multi-hundred-Mbps line rate), which is what turns blockage outages
    into the multi-second delay tail rather than a burst of drops.
    """
    from repro.core.api import HvcNetwork
    from repro.net.hvc import traced_embb_spec, urllc_spec
    from repro.traces.catalog import get_trace

    queue = {"queue_bytes": kib(8192)} if "mmwave" in trace_name else {}
    embb = traced_embb_spec(get_trace(trace_name, seed=seed + 1), **queue)
    embb.name = "embb"  # stable name for the embb-only steerer
    return HvcNetwork([embb, urllc_spec()], steering=_steering_for(scheme), seed=seed)


def run_fig2_cell(
    trace_name: str, scheme: str, duration: float = 60.0, seed: int = 0
) -> VideoSessionResult:
    """One (trace, scheme) cell of Fig. 2."""
    from repro.apps.video.session import run_video_session

    net = video_network(trace_name, scheme, seed=seed)
    return run_video_session(net, duration=duration)


def fig2_cell_unit(
    trace: str = "5g-lowband-driving",
    scheme: str = "dchannel",
    duration: float = 60.0,
    seed: int = 0,
    trace_dir: Optional[str] = None,
) -> dict:
    """One Fig. 2 cell reduced to picklable distributions (runner unit)."""
    from repro.apps.video.session import run_video_session

    net = video_network(trace, scheme, seed=seed)
    obs = _unit_obs(trace_dir)
    if obs is not None:
        net.attach_obs(obs)
    cell = run_video_session(net, duration=duration)
    payload = {
        "latencies": [f.latency for f in cell.frames if f.decoded],
        "ssims": list(cell.ssim_values),
        "frames": len(cell.frames),
        "events": net.sim.events_processed,
    }
    if obs is not None:
        payload["trace"] = _export_trace(obs, trace_dir, f"fig2-{trace}-{scheme}")
    return payload


def run_fig2(
    duration: float = 60.0,
    traces=TRACES,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
    trace_dir: Optional[str] = None,
) -> ExperimentResult:
    """Regenerate Fig. 2: latency and SSIM distributions per scheme."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="fig2",
        description=(
            "Latency and quality (SSIM) distributions of decoded frames for "
            "various steering algorithms, emulated 5G eMBB (driving traces) "
            "+ URLLC."
        ),
    )
    cells = [(trace_name, scheme) for trace_name in traces for scheme in SCHEMES]
    extra = {} if trace_dir is None else {"trace_dir": trace_dir}
    payloads = runner.run(
        [
            RunUnit.make(
                "fig2-cell",
                "repro.experiments.fig2:fig2_cell_unit",
                seed=seed,
                trace=trace_name,
                scheme=scheme,
                duration=duration,
                **extra,
            )
            for trace_name, scheme in cells
        ],
        cached=trace_dir is None,
    )
    by_cell = dict(zip(cells, payloads))
    for trace_name in traces:
        table = Table(
            [
                "scheme",
                "p50 lat (ms)",
                "p95 lat (ms)",
                "max lat (ms)",
                "mean SSIM",
                "frames",
            ],
            title=f"Fig. 2 — {trace_name}",
        )
        latency_series = SeriesSet(
            title=f"latency CDF ({trace_name})", x_label="ms", y_label="P"
        )
        ssim_series = SeriesSet(
            title=f"SSIM CDF ({trace_name})", x_label="ssim", y_label="P"
        )
        for scheme in SCHEMES:
            cell = by_cell[(trace_name, scheme)]
            result.events_processed += cell["events"]
            if "trace" in cell:
                result.artifacts[f"trace:{trace_name}:{scheme}"] = cell["trace"]
            latency = Cdf(cell["latencies"])
            ssim = Cdf(cell["ssims"])
            key = f"{trace_name}:{scheme}"
            result.values[f"{key}:p95_latency_ms"] = to_ms(latency.percentile(95))
            result.values[f"{key}:mean_ssim"] = ssim.mean
            table.add_row(
                scheme,
                to_ms(latency.median),
                to_ms(latency.percentile(95)),
                to_ms(latency.max),
                round(ssim.mean, 3),
                cell["frames"],
            )
            latency_series.add(
                scheme, [(to_ms(v), p) for v, p in latency.points(40)]
            )
            ssim_series.add(scheme, ssim.points(40))
        result.tables.append(table)
        result.series.append(latency_series)
        result.series.append(ssim_series)

        if trace_name == "5g-mmwave-driving":
            for scheme in SCHEMES:
                measured = result.values[f"{trace_name}:{scheme}:p95_latency_ms"]
                result.comparisons.append(
                    PaperComparison(
                        f"{scheme} p95 latency (mmWave drv)",
                        PAPER_P95_LATENCY_MS[scheme],
                        round(measured, 1),
                        " ms",
                    )
                )
            priority_ssim = result.values[f"{trace_name}:priority:mean_ssim"]
            for scheme, paper_delta in PAPER_SSIM_DELTA.items():
                measured_delta = (
                    result.values[f"{trace_name}:{scheme}:mean_ssim"] - priority_ssim
                )
                result.comparisons.append(
                    PaperComparison(
                        f"SSIM delta {scheme} - priority (mmWave drv)",
                        paper_delta,
                        round(measured_delta, 4),
                    )
                )
        p95 = {
            s: result.values[f"{trace_name}:{s}:p95_latency_ms"] for s in SCHEMES
        }
        ssim = {s: result.values[f"{trace_name}:{s}:mean_ssim"] for s in SCHEMES}
        claims = {
            "p95 priority < dchannel < embb-only": (
                p95["priority"] < p95["dchannel"] < p95["embb-only"]
            ),
            "p95 embb-only > 4x priority": p95["embb-only"] > 4 * p95["priority"],
            "mean SSIM priority <= embb-only": ssim["priority"] <= ssim["embb-only"],
        }
        if trace_name == "5g-mmwave-driving":
            claims["p95 dchannel > 1.3x priority"] = p95["dchannel"] > 1.3 * p95["priority"]
        result.shapes.update((f"{trace_name}: {claim}", held) for claim, held in claims.items())
    return result


run_fig2.quick = {"duration": 10.0}
