"""Ready-made HVC channel profiles (§2 of the paper).

Each factory returns a :class:`~repro.net.channel.ChannelSpec`; pass a list
of them to :class:`~repro.core.api.HvcNetwork`. Defaults follow the numbers
the paper quotes:

* URLLC: 5 ms RTT, 2 Mbps, effectively loss-free (five-nines).
* eMBB (Fig. 1 emulation): 50 ms RTT, 60 Mbps.
* eMBB (trace-driven): Lowband / mmWave, stationary / driving.
* Wi-Fi MLO: two lossy mid-band links (bandwidth vs reliability trade-off).
* cISP-style: low latency, low bandwidth, charged per byte.
* LEO: lower latency than fiber WAN, moderate bandwidth, bursty loss.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.channel import ChannelSpec, DirectionSpec
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.traces.model import NetworkTrace
from repro.units import kib, mbps, ms

#: Default eMBB buffer: deep enough to show bufferbloat under load (~330 ms
#: at 60 Mbps), matching cellular base-station buffering behaviour.
EMBB_QUEUE_BYTES = kib(2440)
#: Default URLLC buffer: small — the channel is meant for tiny messages; a
#: full buffer is ~256 ms at 2 Mbps, enough to show the Table 1 queue
#: build-up caused by background flows.
URLLC_QUEUE_BYTES = kib(64)


def urllc_spec(rate_bps: float = mbps(2), rtt: float = ms(5)) -> ChannelSpec:
    """URLLC per the paper's emulation: 2 Mbps, 5 ms RTT, reliable."""
    one_way = rtt / 2.0
    up = DirectionSpec(rate_bps=rate_bps, delay=one_way, queue_bytes=URLLC_QUEUE_BYTES)
    down = DirectionSpec(rate_bps=rate_bps, delay=one_way, queue_bytes=URLLC_QUEUE_BYTES)
    return ChannelSpec(name="urllc", up=up, down=down, reliable=True)


def fixed_embb_spec(
    rate_bps: float = mbps(60),
    rtt: float = ms(50),
    queue_bytes: int = EMBB_QUEUE_BYTES,
) -> ChannelSpec:
    """The static eMBB used in Fig. 1: 60 Mbps, 50 ms RTT."""
    one_way = rtt / 2.0
    up = DirectionSpec(rate_bps=rate_bps, delay=one_way, queue_bytes=queue_bytes)
    down = DirectionSpec(rate_bps=rate_bps, delay=one_way, queue_bytes=queue_bytes)
    return ChannelSpec(name="embb", up=up, down=down)


def traced_embb_spec(
    trace: NetworkTrace,
    uplink_trace: Optional[NetworkTrace] = None,
    uplink_rate_factor: float = 0.25,
    queue_bytes: int = EMBB_QUEUE_BYTES,
) -> ChannelSpec:
    """Trace-driven eMBB.

    ``trace`` drives the downlink (the direction cellular measurements
    report); the uplink uses ``uplink_trace`` if given, otherwise the same
    trace with rates scaled by ``uplink_rate_factor`` — commercial 5G uplink
    is a small fraction of downlink (60 Mbps vs 2 Gbps in [32]).
    """
    if uplink_trace is None:
        uplink_trace = trace.scaled(rate_factor=uplink_rate_factor)
    up = DirectionSpec(trace=uplink_trace, queue_bytes=queue_bytes)
    down = DirectionSpec(trace=trace, queue_bytes=queue_bytes)
    return ChannelSpec(name=f"embb[{trace.name}]", up=up, down=down)


def wifi_mlo_specs(bad_loss: float = 0.35) -> Tuple[ChannelSpec, ChannelSpec]:
    """Two Wi-Fi MLO links on different bands, each with bursty loss:
    120 Mbps, 12 ms RTT, good->bad 0.02 and bad->good 0.25 per packet.

    Used for the bandwidth-vs-reliability trade-off: replicating packets
    across both links (redundant steering) halves usable bandwidth but
    survives either link fading.
    """
    specs = []
    for band in ("5GHz", "6GHz"):
        up = DirectionSpec(
            rate_bps=mbps(120),
            delay=ms(12) / 2.0,
            queue_bytes=kib(512),
            loss=GilbertElliottLoss(0.02, 0.25, good_loss=0.001, bad_loss=bad_loss),
        )
        down = DirectionSpec(
            rate_bps=mbps(120),
            delay=ms(12) / 2.0,
            queue_bytes=kib(512),
            loss=GilbertElliottLoss(0.02, 0.25, good_loss=0.001, bad_loss=bad_loss),
        )
        specs.append(ChannelSpec(name=f"wifi-mlo-{band}", up=up, down=down))
    return specs[0], specs[1]


def wifi_tsn_spec(rate_bps: float = mbps(40), rtt: float = ms(6)) -> ChannelSpec:
    """A Wi-Fi TSN channel: 802.1Qbv-style time-aware scheduling (§2.2).

    Modelled as a contention-free link whose queue gives control traffic an
    express lane (:class:`~repro.net.queue.PriorityDropTailQueue`), the
    service 802.1AS synchronization + Qbv gating provide. Deterministic
    latency for the express band, ordinary queueing for the rest.
    """
    up = DirectionSpec(
        rate_bps=rate_bps, delay=rtt / 2.0, queue_bytes=kib(256), priority_queue=True
    )
    down = DirectionSpec(
        rate_bps=rate_bps, delay=rtt / 2.0, queue_bytes=kib(256), priority_queue=True
    )
    return ChannelSpec(name="wifi-tsn", up=up, down=down, reliable=True)


def cisp_spec() -> ChannelSpec:
    """A cISP-style speed-of-light WAN channel: fast, narrow, and billed
    (10 Mbps, 8 ms RTT).

    Microwave links are less reliable than fiber, hence the small Bernoulli
    loss. ``cost_per_byte`` feeds the latency-vs-cost steering policy.
    """
    up = DirectionSpec(
        rate_bps=mbps(10), delay=ms(8) / 2.0, queue_bytes=kib(128), loss=BernoulliLoss(0.005)
    )
    down = DirectionSpec(
        rate_bps=mbps(10), delay=ms(8) / 2.0, queue_bytes=kib(128), loss=BernoulliLoss(0.005)
    )
    return ChannelSpec(name="cisp", up=up, down=down, cost_per_byte=1e-6)


def fiber_wan_spec() -> ChannelSpec:
    """A conventional terrestrial WAN path (the cISP companion channel):
    200 Mbps, 40 ms RTT."""
    up = DirectionSpec(rate_bps=mbps(200), delay=ms(40) / 2.0, queue_bytes=kib(4096))
    down = DirectionSpec(rate_bps=mbps(200), delay=ms(40) / 2.0, queue_bytes=kib(4096))
    return ChannelSpec(name="fiber-wan", up=up, down=down)


def leo_spec(loss_rate: float = 0.01) -> ChannelSpec:
    """A LEO satellite path: lower latency than long fiber, radio-limited
    (50 Mbps, 25 ms RTT)."""
    up = DirectionSpec(
        rate_bps=mbps(50), delay=ms(25) / 2.0, queue_bytes=kib(1024), loss=BernoulliLoss(loss_rate)
    )
    down = DirectionSpec(
        rate_bps=mbps(50), delay=ms(25) / 2.0, queue_bytes=kib(1024), loss=BernoulliLoss(loss_rate)
    )
    return ChannelSpec(name="leo", up=up, down=down)
