"""Ablations for the design choices the paper argues for (§3.2, §2.2, §3.1).

These go beyond the paper's figures: each isolates one claimed mechanism.

* ``ab-cc``   — HVC-aware congestion control (§3.2): BBR / Vegas / Vivace
  with and without per-channel RTT interpretation, on the Fig. 1 setup.
* ``ab-ack``  — transport-layer segment steering (§3.2): request-response
  latency under DChannel vs transport-aware steering (ACK separation +
  tail acceleration), with a fat-ACK variant showing why network-layer
  steering loses the separation.
* ``ab-mlo``  — Wi-Fi 7 MLO replication (§2.2): bandwidth vs reliability.
* ``ab-cost`` — cISP-style latency-vs-cost budgets (§3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.metrics import Cdf
from repro.core.results import ExperimentResult, SeriesSet, Table
from repro.runner import ParallelRunner, RunUnit
from repro.units import kb, to_mbps, to_ms

from repro.experiments.fig1 import _fig1_network, fig1a_units

if TYPE_CHECKING:
    from repro.core.api import HvcNetwork


# ----------------------------------------------------------------------
# ab-cc: HVC-aware congestion control rescues delay-based CCAs
# ----------------------------------------------------------------------
def run_cc_ablation(
    duration: float = 30.0,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """Fig. 1 setup, each delay-based CCA vs its HVC-aware wrapper."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="ab-cc",
        description=(
            "§3.2 ablation: per-channel RTT interpretation (hvc-* wrapper) "
            "restores throughput that DChannel steering destroys."
        ),
    )
    table = Table(
        ["CCA", "plain (Mbps)", "hvc-aware (Mbps)", "recovery"],
        title="HVC-aware congestion control",
    )
    ccas = ("bbr", "vegas", "vivace")
    # Interleave plain/aware per CCA; the units are the same family as
    # Fig. 1a's, so a fig1a run warms this ablation's cache (and vice versa).
    ordered = [name for cc in ccas for name in (cc, f"hvc-{cc}")]
    payloads = dict(
        zip(ordered, runner.run(fig1a_units(ordered, duration, seed)))
    )
    for cc in ccas:
        plain_mbps = payloads[cc]["mbps"]
        aware_mbps = payloads[f"hvc-{cc}"]["mbps"]
        result.events_processed += (
            payloads[cc]["events"] + payloads[f"hvc-{cc}"]["events"]
        )
        result.values[f"{cc}:plain"] = plain_mbps
        result.values[f"{cc}:aware"] = aware_mbps
        table.add_row(cc, plain_mbps, aware_mbps, f"{aware_mbps / plain_mbps:.1f}x")
    result.tables.append(table)
    mbps = result.values
    result.shapes.update({
        "bbr hvc-aware > 1.5x plain": mbps["bbr:aware"] > 1.5 * mbps["bbr:plain"],
        "vivace hvc-aware > 1.5x plain": mbps["vivace:aware"] > 1.5 * mbps["vivace:plain"],
        "vegas hvc-aware > plain": mbps["vegas:aware"] > mbps["vegas:plain"],
    })
    return result


run_cc_ablation.quick = {"duration": 10.0}


# ----------------------------------------------------------------------
# ab-ack: transport-layer segment steering
# ----------------------------------------------------------------------
def _sequential_rpcs(
    net: HvcNetwork,
    count: int,
    request_bytes: int,
    response_bytes: int,
    step: float,
    deadline: float,
    ack_bytes: int = 0,
) -> List[float]:
    """Round-trip times of ``count`` sequential request→response exchanges.

    One CUBIC connection on ``net``; each response triggers the next
    request. The clock advances ``step`` seconds at a time until the last
    response arrives, the event queue empties or simulated time reaches
    ``deadline`` (ab-ack, ab-tsn and ab-cost each keep their own step and
    deadline: both decide where the run stops, hence its event count).
    """
    from repro.transport import next_flow_id
    from repro.transport.connection import Connection

    latencies: List[float] = []
    flow_id = next_flow_id()
    started_at = 0.0

    def on_response(receipt):
        latencies.append(net.now - started_at)
        issue_next()

    client = Connection(
        net.sim, net.client, flow_id, cc="cubic", ack_bytes=ack_bytes,
        on_message=on_response,
    )

    def on_request(receipt):
        server.send_message(response_bytes, message_id=receipt.message_id + 5000)

    server = Connection(
        net.sim, net.server, flow_id, cc="cubic", ack_bytes=ack_bytes,
        on_message=on_request,
    )

    def issue_next():
        nonlocal started_at
        if len(latencies) >= count:
            return
        started_at = net.now
        client.send_message(request_bytes, message_id=len(latencies))

    issue_next()
    while len(latencies) < count and net.now < deadline and net.sim.pending_events:
        net.run(until=net.now + step)
    return latencies


def ack_unit(policy: str = "dchannel", ack_bytes: int = 0, seed: int = 0) -> dict:
    """One request-response latency measurement (runner unit)."""
    from repro.apps.bulk import BulkTransfer

    net = _fig1_network(steering=policy, seed=seed)
    # A bulk flow keeps the eMBB queue occupied so control-packet placement
    # matters (an idle network hides it).
    BulkTransfer(net, cc="cubic")
    net.run(until=1.0)
    latencies = _sequential_rpcs(
        net, count=40, request_bytes=kb(1), response_bytes=kb(30),
        step=1.0, deadline=net.now + 120.0, ack_bytes=ack_bytes,
    )
    return {"latencies": latencies, "events": net.sim.events_processed}


def run_ack_ablation(
    seed: int = 0, runner: Optional[ParallelRunner] = None
) -> ExperimentResult:
    """Request-response latency: DChannel vs transport-aware steering."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="ab-ack",
        description=(
            "§3.2 ablation: ACK separation and end-of-message acceleration "
            "at the transport layer vs network-layer DChannel, under bulk "
            "contention. 'dchannel fat-acks' tacks 600 B of data onto each "
            "ACK, which pushes it off the low-latency channel."
        ),
    )
    table = Table(
        ["steering", "p50 (ms)", "p95 (ms)"],
        title="Request-response latency under contention",
    )
    configs = [
        ("dchannel", "dchannel", 0),
        ("dchannel fat-acks", "dchannel", 600),
        ("transport-aware", "transport-aware", 0),
    ]
    payloads = runner.run(
        [
            RunUnit.make(
                "ab-ack",
                "repro.experiments.ablations:ack_unit",
                seed=seed,
                policy=policy,
                ack_bytes=ack_bytes,
            )
            for _, policy, ack_bytes in configs
        ]
    )
    for (label, _, _), payload in zip(configs, payloads):
        cdf = Cdf(payload["latencies"])
        result.events_processed += payload["events"]
        result.values[f"{label}:p50_ms"] = to_ms(cdf.median)
        result.values[f"{label}:p95_ms"] = to_ms(cdf.percentile(95))
        table.add_row(label, to_ms(cdf.median), to_ms(cdf.percentile(95)))
    result.tables.append(table)
    p95 = {label: result.values[f"{label}:p95_ms"] for label, _, _ in configs}
    result.shapes.update({
        "p95 transport-aware <= dchannel": p95["transport-aware"] <= p95["dchannel"],
        "p95 dchannel fat-acks >= dchannel": p95["dchannel fat-acks"] >= p95["dchannel"],
    })
    return result


# ----------------------------------------------------------------------
# ab-mlo: replication trades bandwidth for reliability
# ----------------------------------------------------------------------
#: Steering policies the MLO ablation compares, by picklable key.
MLO_POLICIES = ("single-link", "spray (min-rtt)", "replicate")


def mlo_unit(policy: str = "replicate", duration: float = 20.0, seed: int = 0) -> dict:
    """One MLO delivery/goodput measurement (runner unit)."""
    from repro.core.api import HvcNetwork
    from repro.net.hvc import wifi_mlo_specs
    from repro.sim.timers import PeriodicTimer
    from repro.steering.redundant import RedundantSteerer
    from repro.steering.single import SingleChannelSteerer

    steering = {
        "single-link": lambda: SingleChannelSteerer(index=0),
        "spray (min-rtt)": lambda: "min-rtt",
        "replicate": lambda: RedundantSteerer(mode="all"),
    }[policy]()
    net = HvcNetwork(list(wifi_mlo_specs()), steering=steering, seed=seed)
    received = []
    pair = net.open_datagram(on_server_message=received.append)
    sent = 0
    message_bytes = kb(10)

    def send_burst():
        nonlocal sent
        pair.client.send_message(message_bytes, message_id=sent)
        sent += 1

    timer = PeriodicTimer(net.sim, 0.005, send_burst, start_delay=0.0)
    net.run(until=duration)
    timer.stop()
    net.run(until=duration + 1.0)
    return {
        "delivered": len(received) / max(sent, 1),
        "goodput_mbps": to_mbps(len(received) * message_bytes * 8 / duration),
        "events": net.sim.events_processed,
    }


def run_mlo_ablation(
    duration: float = 20.0,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """Two lossy Wi-Fi MLO links: replicate vs spray vs single link."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="ab-mlo",
        description=(
            "§2.2 opportunity: replicating datagrams across both MLO links "
            "sacrifices bandwidth for delivery reliability under bursty loss."
        ),
    )
    table = Table(
        ["policy", "delivered %", "goodput (Mbps)"],
        title="Wi-Fi MLO bandwidth-vs-reliability",
    )
    payloads = runner.run(
        [
            RunUnit.make(
                "ab-mlo",
                "repro.experiments.ablations:mlo_unit",
                seed=seed,
                policy=label,
                duration=duration,
            )
            for label in MLO_POLICIES
        ]
    )
    for label, payload in zip(MLO_POLICIES, payloads):
        result.events_processed += payload["events"]
        result.values[f"{label}:delivered"] = payload["delivered"]
        result.values[f"{label}:goodput_mbps"] = payload["goodput_mbps"]
        table.add_row(
            label, f"{100 * payload['delivered']:.1f}", payload["goodput_mbps"]
        )
    result.tables.append(table)
    delivered = {label: result.values[f"{label}:delivered"] for label in MLO_POLICIES}
    for other in ("single-link", "spray (min-rtt)"):
        result.shapes[f"delivery replicate > {other}"] = delivered["replicate"] > delivered[other]
    return result


run_mlo_ablation.quick = {"duration": 10.0}


# ----------------------------------------------------------------------
# ab-mp: multipath transport with per-channel subflows (§4 design)
# ----------------------------------------------------------------------
def mp_unit(scheduler: str = "hvc", duration: float = 30.0, seed: int = 0) -> dict:
    """A backlogged bulk connection plus a small-RPC connection, both
    multipath with the given scheduler (runner unit). The interesting
    effect is contention: what the bulk scheduler does to the URLLC queue
    determines the RPCs' fate."""
    from repro.sim.timers import PeriodicTimer
    from repro.transport import next_flow_id
    from repro.transport.multipath import MultipathConnection

    net = _fig1_network(steering="single", seed=seed)
    bulk_id = next_flow_id()
    bulk_sender = MultipathConnection(
        net.sim, net.client, bulk_id, cc="cubic", scheduler=scheduler
    )
    MultipathConnection(net.sim, net.server, bulk_id, cc="cubic", scheduler=scheduler)
    bulk_sender.send_message(10**9, message_id=1)  # backlogged

    rpc_latencies: List[float] = []
    sent_at: Dict[int, float] = {}

    def on_message(receipt):
        if receipt.message_id in sent_at:
            rpc_latencies.append(net.now - sent_at[receipt.message_id])

    rpc_id = next_flow_id()
    rpc_sender = MultipathConnection(
        net.sim, net.client, rpc_id, cc="cubic", scheduler=scheduler
    )
    MultipathConnection(
        net.sim, net.server, rpc_id, cc="cubic", scheduler=scheduler,
        on_message=on_message,
    )

    state = {"next_id": 0}

    def send_rpc():
        sent_at[state["next_id"]] = net.now
        rpc_sender.send_message(kb(2), message_id=state["next_id"])
        state["next_id"] += 1

    timer = PeriodicTimer(net.sim, 0.25, send_rpc)
    # Slow-start overshoot and its recovery take ~8 s on this BDP; measure
    # bulk goodput over the steady tail only.
    warmup = min(10.0, duration / 2.0)
    net.run(until=warmup)
    delivered_at_warmup = (
        bulk_sender.stats.delivered_timeline[-1][1] if bulk_sender.stats.delivered_timeline else 0
    )
    net.run(until=duration)
    timer.stop()
    delivered_at_end = bulk_sender.stats.delivered_timeline[-1][1]
    net.run(until=duration + 2.0)
    goodput = (delivered_at_end - delivered_at_warmup) * 8 / (duration - warmup)
    return {
        "goodput_mbps": to_mbps(goodput),
        "latencies": rpc_latencies,
        "events": net.sim.events_processed,
    }


def run_multipath_ablation(
    duration: float = 30.0,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """§4 design: per-channel subflows + schedulers vs single-path steering.

    Interleaved messages on a backlogged connection measure how well each
    approach accelerates the bytes an application is waiting on while
    filling the fat channel.
    """
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="ab-mp",
        description=(
            "Multipath transport (per-channel subflows): hvc scheduler vs "
            "minRTT, on a bulk + RPC mixed workload over eMBB + URLLC."
        ),
    )
    table = Table(
        ["scheduler", "bulk goodput (Mbps)", "rpc p95 (ms)"],
        title="Multipath schedulers, mixed workload",
    )
    schedulers = ("minrtt", "hvc")
    payloads = runner.run(
        [
            RunUnit.make(
                "ab-mp",
                "repro.experiments.ablations:mp_unit",
                seed=seed,
                scheduler=scheduler,
                duration=duration,
            )
            for scheduler in schedulers
        ]
    )
    for scheduler, payload in zip(schedulers, payloads):
        cdf = Cdf(payload["latencies"])
        result.events_processed += payload["events"]
        result.values[f"{scheduler}:goodput_mbps"] = payload["goodput_mbps"]
        result.values[f"{scheduler}:rpc_p95_ms"] = to_ms(cdf.percentile(95))
        table.add_row(
            scheduler, payload["goodput_mbps"], to_ms(cdf.percentile(95))
        )
    result.tables.append(table)
    v = result.values
    result.shapes.update({
        "hvc rpc p95 < 0.3x minRTT": v["hvc:rpc_p95_ms"] < 0.3 * v["minrtt:rpc_p95_ms"],
        "hvc goodput > 0.8x minRTT": v["hvc:goodput_mbps"] > 0.8 * v["minrtt:goodput_mbps"],
    })
    return result


run_multipath_ablation.quick = {"duration": 10.0}


# ----------------------------------------------------------------------
# ab-tsn: Wi-Fi TSN's express lane is paid for by other users (§2.2)
# ----------------------------------------------------------------------
def tsn_unit(express_mbps: float = 0.0, duration: float = 10.0, seed: int = 0) -> dict:
    """Bystander RPC latency under one express load level (runner unit)."""
    from repro.core.api import HvcNetwork
    from repro.net.hvc import wifi_tsn_spec
    from repro.net.packet import Packet, PacketType
    from repro.sim.timers import PeriodicTimer

    net = HvcNetwork([wifi_tsn_spec()], steering="single", seed=seed)

    # User A: time-critical express traffic (control-class datagrams).
    express_bytes = 250  # URLLC-sized small packets
    if express_mbps > 0:
        # The express stream loads both directions (two TSN talkers).
        interval = 2 * express_bytes * 8 / (express_mbps * 1e6)

        def inject() -> None:
            up = Packet(
                flow_id=999, ptype=PacketType.PROBE, header_bytes=express_bytes
            )
            net.client.send(up)
            down = Packet(
                flow_id=998, ptype=PacketType.PROBE, header_bytes=express_bytes
            )
            net.server.send(down)

        PeriodicTimer(net.sim, interval, inject, start_delay=0.0)
        net.server.set_default_handler(lambda p: None)
        net.client.set_default_handler(lambda p: None)

    # User B: request/response RPCs in the normal band.
    latencies = _sequential_rpcs(
        net, count=50, request_bytes=kb(1), response_bytes=kb(20),
        step=0.5, deadline=duration * 6,
    )
    cdf = Cdf(latencies)
    return {"p95_ms": to_ms(cdf.percentile(95)), "events": net.sim.events_processed}


def run_tsn_ablation(
    duration: float = 10.0,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """One user's time-critical traffic vs everyone else's latency.

    §2.2: "unlike cellular, resources are not dedicated to a user and other
    users bear the cost of one's use of the low latency service." On a
    shared Wi-Fi TSN channel, user A injects express (control-class)
    traffic at increasing rates while user B runs small RPCs in the normal
    band; B's latency quantifies the multiplexing loss.
    """
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="ab-tsn",
        description=(
            "Wi-Fi TSN express-lane cost: bystander RPC latency vs another "
            "user's time-critical traffic rate on the shared channel."
        ),
    )
    table = Table(
        ["express load (Mbps)", "bystander RPC p95 (ms)"],
        title="TSN multiplexing cost",
    )
    loads = (0.0, 8.0, 24.0)
    payloads = runner.run(
        [
            RunUnit.make(
                "ab-tsn",
                "repro.experiments.ablations:tsn_unit",
                seed=seed,
                express_mbps=express_mbps,
                duration=duration,
            )
            for express_mbps in loads
        ]
    )
    for express_mbps, payload in zip(loads, payloads):
        result.events_processed += payload["events"]
        result.values[f"{express_mbps}:p95_ms"] = payload["p95_ms"]
        table.add_row(express_mbps, payload["p95_ms"])
    result.tables.append(table)
    p95 = [result.values[f"{express_mbps}:p95_ms"] for express_mbps in loads]
    result.shapes["bystander p95 at 0 < 8 < 24 Mbps express load"] = p95[0] < p95[1] < p95[2]
    return result


# ----------------------------------------------------------------------
# ab-reseq: the shim resequencer is load-bearing
# ----------------------------------------------------------------------
def reseq_unit(enabled: bool = True, duration: float = 20.0, seed: int = 0) -> dict:
    """CUBIC bulk with the reorder buffer on/off (runner unit)."""
    from repro.apps.bulk import BulkTransfer

    net = _fig1_network(steering="dchannel", seed=seed, resequence=enabled)
    bulk = BulkTransfer(net, cc="cubic")
    net.run(until=duration)
    return {
        "mbps": to_mbps(bulk.mean_throughput_bps(end=duration)),
        "rtx": bulk.pair.client.stats.retransmissions,
        "events": net.sim.events_processed,
    }


def run_resequencer_ablation(
    duration: float = 20.0,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """CUBIC bulk under DChannel with and without the reorder buffer.

    Splitting one TCP flow's packets across channels with ~10× different
    delays reorders them; a SACK transport misreads the holes as loss and
    keeps halving its window (spurious loss inference), pinning throughput
    near the floor. DChannel deploys a receiver-side resequencer precisely
    for this — Fig. 1a's "CUBIC fills the pipe" result depends on it.
    """
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="ab-reseq",
        description=(
            "DChannel's receiver-side resequencer: CUBIC bulk throughput "
            "and spurious retransmissions with the reorder buffer on/off."
        ),
    )
    table = Table(
        ["resequencer", "throughput (Mbps)", "retransmissions"],
        title="Shim reorder protection",
    )
    settings = (("on", True), ("off", False))
    payloads = runner.run(
        [
            RunUnit.make(
                "ab-reseq",
                "repro.experiments.ablations:reseq_unit",
                seed=seed,
                enabled=enabled,
                duration=duration,
            )
            for _, enabled in settings
        ]
    )
    for (label, _), payload in zip(settings, payloads):
        result.events_processed += payload["events"]
        result.values[f"{label}:mbps"] = payload["mbps"]
        result.values[f"{label}:rtx"] = payload["rtx"]
        table.add_row(label, payload["mbps"], payload["rtx"])
    result.tables.append(table)
    mbps = {label: result.values[f"{label}:mbps"] for label, _ in settings}
    result.shapes["throughput on > 5x off"] = mbps["on"] > 5 * mbps["off"]
    return result


run_resequencer_ablation.quick = {"duration": 10.0}


# ----------------------------------------------------------------------
# ab-cost: latency vs monetary cost
# ----------------------------------------------------------------------
def cost_unit(willingness: float = 0.0, seed: int = 0) -> dict:
    """Latency/spend at one willingness-to-pay level (runner unit)."""
    from repro.core.api import HvcNetwork
    from repro.net.hvc import cisp_spec, fiber_wan_spec
    from repro.steering.cost import CostAwareSteerer

    # One instance on both devices on purpose: the budget is one spending
    # account for the session, not one per direction.
    steerer = CostAwareSteerer(
        budget_per_s=0.05, burst=0.2, max_price_per_second_saved=willingness
    )
    net = HvcNetwork([fiber_wan_spec(), cisp_spec()], steering=steerer, seed=seed)
    latencies = _sequential_rpcs(
        net, count=60, request_bytes=300, response_bytes=kb(4),
        step=1.0, deadline=120.0,
    )
    cdf = Cdf(latencies)
    return {
        "p95_ms": to_ms(cdf.percentile(95)),
        "spend": net.total_cost(),
        "events": net.sim.events_processed,
    }


def run_cost_ablation(
    seed: int = 0, runner: Optional[ParallelRunner] = None
) -> ExperimentResult:
    """Request-response latency vs spend across willingness-to-pay levels."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="ab-cost",
        description=(
            "§3.1 opportunity: a cISP-style priced low-latency WAN channel "
            "next to fiber; steering spends budget only where a packet's "
            "delivery-time saving justifies its price."
        ),
    )
    table = Table(
        ["max $/s saved", "p95 latency (ms)", "spend ($)"],
        title="Latency vs cost (cISP + fiber)",
    )
    levels = (0.0, 0.1, 10.0)
    payloads = runner.run(
        [
            RunUnit.make(
                "ab-cost",
                "repro.experiments.ablations:cost_unit",
                seed=seed,
                willingness=willingness,
            )
            for willingness in levels
        ]
    )
    for willingness, payload in zip(levels, payloads):
        result.events_processed += payload["events"]
        result.values[f"{willingness}:p95_ms"] = payload["p95_ms"]
        result.values[f"{willingness}:spend"] = payload["spend"]
        table.add_row(willingness, payload["p95_ms"], f"{payload['spend']:.4f}")
    result.tables.append(table)
    values = result.values
    result.shapes.update({
        "spend at willingness 0 is 0": values["0.0:spend"] == 0.0,
        "p95 at willingness 10 < at 0": values["10.0:p95_ms"] < values["0.0:p95_ms"],
        "spend at willingness 10 >= at 0.1": values["10.0:spend"] >= values["0.1:spend"],
    })
    return result
