"""Synthetic 5G traces calibrated to the statistics the paper reports.

The DChannel traces (NSDI '23) used by the paper are not public, so we
generate traces from a two-regime (normal / degraded) Markov process with
AR(1)-smoothed rates and delay excursions during degraded periods:

* **Lowband stationary** — ~60 Mbps steady, ~50 ms RTT, mild jitter.
* **Lowband driving** — same means but frequent dips and delay spikes; the
  98th-percentile RTT lands near the published 236 ms.
* **mmWave stationary** — multi-hundred-Mbps, ~20 ms RTT.
* **mmWave driving** — very high rate punctuated by blockage outages lasting
  up to seconds (this produces the multi-second eMBB-only latency tail of
  Fig. 2).

Rates/delays are *channel* characteristics; queueing on top of them emerges
in the link simulation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import TraceError
from repro.traces.model import NetworkTrace
from repro.units import mbps, ms


@dataclass
class TraceSpec:
    """Parameters of the two-regime generator."""

    name: str
    duration: float = 120.0
    dt: float = 0.1
    # Normal regime.
    mean_rate_bps: float = mbps(60)
    rate_jitter: float = 0.08  # lognormal sigma around the regime mean
    base_delay: float = ms(25)  # one-way
    delay_jitter: float = ms(2)
    # Degraded regime (mobility dips / mmWave blockage).
    degrade_rate_per_s: float = 0.0  # entry rate (per second)
    degrade_duration_mean: float = 1.0  # seconds, exponential
    degraded_rate_bps: float = mbps(5)
    degraded_delay: float = ms(100)  # one-way delay plateau while degraded
    # AR(1) smoothing coefficient for the rate process.
    smoothing: float = 0.7

    def validate(self) -> None:
        if self.duration <= 0 or self.dt <= 0:
            raise TraceError("duration and dt must be positive")
        if self.dt >= self.duration:
            raise TraceError("dt must be smaller than duration")
        if self.mean_rate_bps <= 0:
            raise TraceError("mean_rate_bps must be positive")
        if not 0.0 <= self.smoothing < 1.0:
            raise TraceError("smoothing must be in [0, 1)")


def generate_trace(spec: TraceSpec, seed: int = 0) -> NetworkTrace:
    """Generate a trace deterministically from ``spec`` and ``seed``."""
    spec.validate()
    rng = random.Random(seed)
    steps = int(round(spec.duration / spec.dt))
    times = []
    rates = []
    delays = []

    degraded_until = -1.0
    rate = spec.mean_rate_bps
    delay = spec.base_delay
    p_enter = 1.0 - math.exp(-spec.degrade_rate_per_s * spec.dt)

    for i in range(steps):
        t = i * spec.dt
        degraded = t < degraded_until
        if not degraded and rng.random() < p_enter:
            degraded_until = t + rng.expovariate(1.0 / spec.degrade_duration_mean)
            degraded = True

        if degraded:
            target_rate = spec.degraded_rate_bps * rng.lognormvariate(0.0, 0.5)
            target_delay = spec.degraded_delay * (0.7 + 0.6 * rng.random())
        else:
            target_rate = spec.mean_rate_bps * rng.lognormvariate(0.0, spec.rate_jitter)
            target_delay = spec.base_delay + rng.gauss(0.0, spec.delay_jitter)

        rate = spec.smoothing * rate + (1.0 - spec.smoothing) * target_rate
        delay = spec.smoothing * delay + (1.0 - spec.smoothing) * target_delay
        times.append(round(t, 9))
        rates.append(max(mbps(0.1), rate))
        delays.append(max(ms(1), delay))

    return NetworkTrace(times, rates, delays, name=spec.name)


# ----------------------------------------------------------------------
# Named profiles (calibration targets in the docstrings)
# ----------------------------------------------------------------------

def lowband_stationary(seed: int = 1, duration: float = 120.0) -> NetworkTrace:
    """5G Lowband eMBB, stationary UE: ~60 Mbps, ~50 ms RTT, mild jitter."""
    spec = TraceSpec(
        name="5g-lowband-stationary",
        duration=duration,
        mean_rate_bps=mbps(60),
        rate_jitter=0.06,
        base_delay=ms(25),
        delay_jitter=ms(2),
        degrade_rate_per_s=0.01,
        degrade_duration_mean=0.5,
        degraded_rate_bps=mbps(25),
        degraded_delay=ms(45),
    )
    return generate_trace(spec, seed)


def lowband_driving(seed: int = 2, duration: float = 120.0) -> NetworkTrace:
    """5G Lowband eMBB, driving UE.

    Calibrated so the RTT's 98th percentile is near the published 236 ms
    (one-way delay ≈ 118 ms) with frequent rate dips under mobility.
    """
    spec = TraceSpec(
        name="5g-lowband-driving",
        duration=duration,
        mean_rate_bps=mbps(55),
        rate_jitter=0.25,
        base_delay=ms(30),
        delay_jitter=ms(10),
        degrade_rate_per_s=0.14,
        degrade_duration_mean=1.6,
        degraded_rate_bps=mbps(7),
        degraded_delay=ms(110),
    )
    return generate_trace(spec, seed)


def mmwave_stationary(seed: int = 3, duration: float = 120.0) -> NetworkTrace:
    """5G mmWave eMBB, stationary UE: very high rate, ~20 ms RTT."""
    spec = TraceSpec(
        name="5g-mmwave-stationary",
        duration=duration,
        mean_rate_bps=mbps(900),
        rate_jitter=0.15,
        base_delay=ms(10),
        delay_jitter=ms(1.5),
        degrade_rate_per_s=0.02,
        degrade_duration_mean=0.4,
        degraded_rate_bps=mbps(100),
        degraded_delay=ms(30),
    )
    return generate_trace(spec, seed)


def starlink_leo(
    seed: int = 5,
    duration: float = 120.0,
    handoff_period: float = 15.0,
) -> NetworkTrace:
    """Starlink-like LEO access: periodic handoff micro-outages, high jitter.

    LEO constellations reschedule the serving satellite on a fixed cadence
    (~15 s for Starlink); each handoff is a short *dead* interval — the
    trace rate drops to exactly 0 for a few hundred milliseconds — followed
    by a rate step as the new satellite's link budget differs from the old.
    Between handoffs the rate is high but jittery (beam scheduling) and the
    one-way delay wanders with path length. The dead intervals are real
    zeros, not merely low rates, so :meth:`FaultSchedule.from_trace`
    recovers them exactly as outage faults.

    The first handoff, at 4 s, lands early enough that even a short
    (quick-mode) run meets at least one disruption.
    """
    dt = 0.1
    if duration <= dt:
        raise TraceError(f"duration must exceed the {dt} s sample step")
    if handoff_period <= 0:
        raise TraceError("handoff_period must be positive")
    rng = random.Random(seed)
    steps = int(round(duration / dt))
    times, rates, delays = [], [], []
    # Handoff instants, snapped to the sample grid so dead intervals are
    # exact sample runs (what from_trace recovers).
    next_handoff = 4.0
    outage_left = 0
    rate_level = mbps(140)
    delay_level = ms(28)
    for i in range(steps):
        t = i * dt
        if outage_left == 0 and next_handoff <= t:
            # Enter a micro-outage: 1..n dead samples (~0.3 s).
            outage_left = max(1, int(round(rng.expovariate(1.0 / 0.3) / dt)))
            outage_left = min(outage_left, max(1, int(1.2 / dt)))
            next_handoff += handoff_period
            # The new satellite: a fresh link budget and path length.
            rate_level = mbps(140) * rng.lognormvariate(0.0, 0.25)
            delay_level = ms(28) + rng.gauss(0.0, ms(4))
        times.append(round(t, 9))
        if outage_left > 0:
            outage_left -= 1
            rates.append(0.0)
            delays.append(max(ms(1), delay_level))
            continue
        # High jitter between handoffs: beam scheduling + queue wander.
        rates.append(max(mbps(1), rate_level * rng.lognormvariate(0.0, 0.2)))
        delays.append(max(ms(2), delay_level + rng.gauss(0.0, ms(6))))
    return NetworkTrace(times, rates, delays, name="starlink-leo")


def wifi_5g_handoff(
    seed: int = 6,
    duration: float = 120.0,
    dwell_mean: float = 8.0,
) -> NetworkTrace:
    """A device oscillating between Wi-Fi and 5G coverage.

    Two regimes — Wi-Fi (fat, ~6 ms one-way) and 5G lowband (thinner,
    ~18 ms one-way) — with exponential dwell times. Every switch passes
    through a short *dead* gap (association + path migration) during which
    the rate is exactly 0, and the first seconds on the new radio carry a
    delay spike while queues re-home. Dead gaps are exact zero-rate sample
    runs, so the trace doubles as a fault campaign via
    :meth:`FaultSchedule.from_trace`.
    """
    dt = 0.05
    if duration <= dt:
        raise TraceError(f"duration must exceed the {dt} s sample step")
    if dwell_mean <= 0:
        raise TraceError("dwell_mean must be positive")
    rng = random.Random(seed)
    steps = int(round(duration / dt))
    times, rates, delays = [], [], []
    on_wifi = True
    # First handoff lands early (a fraction of one dwell) so short runs
    # still see a disruption.
    switch_at = 0.4 * dwell_mean
    gap_left = 0
    spike_left = 0
    for i in range(steps):
        t = i * dt
        if gap_left == 0 and switch_at <= t:
            gap_left = max(1, int(round(rng.expovariate(1.0 / 0.15) / dt)))
            gap_left = min(gap_left, max(1, int(0.8 / dt)))
            on_wifi = not on_wifi
            switch_at = t + rng.expovariate(1.0 / dwell_mean)
            # Post-handoff delay inflation (~1 s) while queues re-home.
            spike_left = int(round(1.0 / dt))
        times.append(round(t, 9))
        if gap_left > 0:
            gap_left -= 1
            rates.append(0.0)
            delays.append(ms(30))
            continue
        base_rate = mbps(280) if on_wifi else mbps(70)
        base_delay = ms(6) if on_wifi else ms(18)
        if spike_left > 0:
            spike_left -= 1
            base_delay += ms(45)
        rates.append(max(mbps(2), base_rate * rng.lognormvariate(0.0, 0.12)))
        delays.append(max(ms(1), base_delay + rng.gauss(0.0, ms(1.5))))
    return NetworkTrace(times, rates, delays, name="wifi-5g-handoff")


def mmwave_driving(seed: int = 2, duration: float = 120.0) -> NetworkTrace:
    """5G mmWave eMBB, driving UE: blockage outages lasting seconds.

    During an outage the usable rate collapses below the 12 Mbps video
    bitrate and delay spikes, so queues build for seconds — the source of
    Fig. 2's extreme eMBB-only latency tail (up to ~6.4 s in the paper).
    """
    spec = TraceSpec(
        name="5g-mmwave-driving",
        duration=duration,
        mean_rate_bps=mbps(700),
        rate_jitter=0.3,
        base_delay=ms(12),
        delay_jitter=ms(3),
        degrade_rate_per_s=0.09,
        degrade_duration_mean=3.0,
        degraded_rate_bps=mbps(2.5),
        degraded_delay=ms(200),
        smoothing=0.5,
    )
    return generate_trace(spec, seed)
