"""The fluid tick as a loop over tenants.

:class:`ScalarFluid` is the pure-python tick ``fleet/fluid.py`` used to
carry beside the numpy one: the same ODE, one tenant at a time over plain
lists with ``math`` — the reference for :class:`repro.fleet.fluid.FluidBackground`.
"""

from __future__ import annotations

import math

from repro.fleet.fluid import (
    FLUID_CCAS,
    INITIAL_PACKETS,
    IW_BYTES,
    MAX_BG_SHARE,
    MAX_OVERLOAD,
    MIN_RATE_BPS,
    MSS_BITS,
)
from repro.steering.requirements import REQUIREMENT_CLASSES


class ScalarFluid:
    """Reference: the fluid tick as a loop over tenants."""

    def __init__(self, population, channel_count):
        n = len(population)
        self.class_names = sorted(REQUIREMENT_CLASSES)
        self.class_id = [self.class_names.index(c) for c in population.classes]
        self.ccas = list(population.ccas)
        self.arrival = list(population.arrivals)
        self.remaining = [float(s) for s in population.sizes]
        self.ss_rounds = [
            max(math.ceil(math.log2(s / IW_BYTES + 1.0)), 1.0)
            for s in population.sizes
        ]
        self.target, self.beta, self.gain = [], [], []
        for rclass, cca in zip(population.classes, population.ccas):
            cls = REQUIREMENT_CLASSES[rclass]
            cc = FLUID_CCAS[cca]
            self.target.append(min(cls.load_target, cc["target"]))
            self.beta.append(cls.backoff * cc["beta_scale"])
            self.gain.append(cc["gain"])
        self.rate = [0.0] * n
        self.channel = [-1] * n
        self.active = [False] * n
        self.done = [False] * n
        self.fct = [math.nan] * n
        self.stalled_at = [math.nan] * n
        self.cursor = 0
        self.stall_events = 0
        self.stall_time = 0.0
        self.bytes_by_channel = [0.0] * channel_count
        self.bytes_by_cca = {name: 0.0 for name in FLUID_CCAS}
        self.bytes_by_class = {name: 0.0 for name in self.class_names}
        #: Ticks in which every channel's load was past every kind's
        #: target, so every tenant of any kind decayed; and ticks in which
        #: some tenant took the slow-start or additive step instead.
        self.top_target = max(
            min(cls.load_target, cc["target"])
            for cls in REQUIREMENT_CLASSES.values()
            for cc in FLUID_CCAS.values()
        )
        self.saturated_ticks = self.growing_ticks = 0

    def channel_down(self, idx, now):
        for i in range(self.cursor):
            if self.active[i] and self.channel[i] == idx:
                self.rate[i] = 0.0
                self.channel[i] = -2
                if math.isnan(self.stalled_at[i]):
                    self.stalled_at[i] = now

    def tick(self, now, dt, table_idx, caps, rtts, fg):
        """Advance every tenant by ``dt``; returns the per-channel load."""
        n = len(self.arrival)
        cur = self.cursor
        while cur < n and self.arrival[cur] <= now:
            self.active[cur] = True
            self.channel[cur] = -2
            cur += 1
        self.cursor = cur
        nch = len(caps)
        chan_up = [c > 0 for c in caps]
        sums = [0.0] * nch
        counts = [0] * nch
        live = []
        for i in range(cur):
            if not self.active[i]:
                continue
            c = self.channel[i]
            if c < 0 or not chan_up[c]:
                c = table_idx[self.class_id[i]]
                self.channel[i] = c
                if c < 0:
                    if math.isnan(self.stalled_at[i]):
                        self.stalled_at[i] = now
                    self.rate[i] = 0.0
                    continue
                if not math.isnan(self.stalled_at[i]):
                    self.stall_events += 1
                    self.stall_time += now - self.stalled_at[i]
                    self.stalled_at[i] = math.nan
                self.rate[i] = INITIAL_PACKETS * MSS_BITS / rtts[c]
            live.append(i)
            sums[c] += self.rate[i]
            counts[c] += 1
        if not live:
            return [0.0] * nch
        load = [
            (sums[c] + fg[c]) / caps[c] if caps[c] > 0 else math.inf
            for c in range(nch)
        ]
        self.saturated_ticks += min(load) > self.top_target
        grew = False
        new_sums = [0.0] * nch
        for i in live:
            c = self.channel[i]
            rate = self.rate[i]
            rtt = rtts[c]
            overload = load[c] - self.target[i]
            if overload > 0:
                rate *= math.exp(
                    -self.beta[i] * min(overload, MAX_OVERLOAD) * dt / rtt
                )
            else:
                grew = True
                share = caps[c] * self.target[i] / max(counts[c], 1)
                if rate < 0.5 * share:
                    rate = min(rate * 2.0 ** (dt / rtt), share)
                else:
                    rate += self.gain[i] * MSS_BITS * dt / (rtt * rtt)
            cap = max(self.remaining[i] * 8.0 / dt, MIN_RATE_BPS)
            rate = min(max(rate, MIN_RATE_BPS), cap, caps[c])
            self.rate[i] = rate
            new_sums[c] += rate
        self.growing_ticks += grew
        scale = [
            min(1.0, MAX_BG_SHARE * caps[c] / new_sums[c]) if new_sums[c] > 0 else 1.0
            for c in range(nch)
        ]
        applied = [0.0] * nch
        for i in live:
            c = self.channel[i]
            eff = self.rate[i] * scale[c]
            sent = min(eff * dt / 8.0, self.remaining[i])
            self.remaining[i] -= sent
            self.bytes_by_channel[c] += sent
            self.bytes_by_cca[self.ccas[i]] += sent
            self.bytes_by_class[self.class_names[self.class_id[i]]] += sent
            if self.remaining[i] <= 1e-6:
                self.done[i] = True
                self.active[i] = False
                self.fct[i] = max(now - self.arrival[i], rtts[c] * self.ss_rounds[i])
            else:
                applied[c] += eff
        return [min(applied[c], MAX_BG_SHARE * caps[c]) for c in range(nch)]
