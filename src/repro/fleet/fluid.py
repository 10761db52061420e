"""The fluid background engine: per-tenant rate ODEs on a coarse timer.

Grounded in the fluid-model analysis of TCP over heterogeneous paths
(arXiv:1804.02496): each background tenant is a rate variable x_i(t)
evolving under AIMD-style dynamics against its channel's *load* — the
fraction of raw capacity consumed by every fluid tenant plus the
packet-level foreground traffic measured from the link's busy time. The
aggregate per-channel rate is installed on the corresponding
:class:`~repro.net.link.Link` as background load, which (a) slows the
packet-level serializer, (b) shows up in steering's ``ChannelView`` rates
and (c) is sampled by :class:`~repro.net.monitor.ChannelMonitor` — one
coherent world across both fidelities.

Per tick of length ``dt`` (default 10 ms, i.e. coarse against packet
events but fine against multi-second transfers):

* below its load target a tenant grows — exponentially while far below
  its fair share (slow-start analogue), else additively at
  ``gain * MSS * 8 / RTT^2`` (the classic 1-packet-per-RTT fluid term);
* past the target it decays multiplicatively, ``exp(-beta * overload *
  dt / RTT)`` — the continuous-time shape of AIMD backoff, with
  delay-sensitive classes/CCAs reacting at lower targets (they see the
  queue build before loss-based flows see drops).

The update is vectorized with numpy, the fleet engine's one declared
dependency (``pip install "repro[fleet]"``); the rest of ``repro`` never
imports this module and stays dependency-free. The scalar form of the
same tick lives under ``tests/`` as the reference it is compared with.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional

from repro.errors import ScenarioError
from repro.fleet.tenants import TenantPopulation
from repro.steering.requirements import REQUIREMENT_CLASSES, assignment_table

try:
    import numpy as np
except ImportError as exc:
    raise ImportError(
        "repro.fleet steps its tenants with numpy, which is not installed; "
        'install it with: pip install "repro[fleet]"'
    ) from exc

#: Fluid congestion-control flavours: how a tenant's rate ODE behaves.
#: ``beta_scale`` multiplies its class's backoff, ``gain`` scales the
#: additive-increase term, ``target`` caps the load target (delay-based
#: CCAs yield before the link saturates; loss-based ones push to 1.0).
FLUID_CCAS: Dict[str, Dict[str, float]] = {
    "cubic": {"beta_scale": 1.0, "gain": 1.0, "target": 1.0},
    "reno": {"beta_scale": 1.4, "gain": 0.7, "target": 1.0},
    "bbr": {"beta_scale": 0.6, "gain": 1.4, "target": 1.0},
    "vegas": {"beta_scale": 0.9, "gain": 0.8, "target": 0.90},
    "vivace": {"beta_scale": 0.8, "gain": 0.9, "target": 0.92},
}

MSS_BITS = 1448 * 8
#: Initial-window analogue: 10 packets per RTT.
INITIAL_PACKETS = 10
IW_BYTES = INITIAL_PACKETS * 1448
#: Floor so an active tenant always makes *some* progress (1 kbit/s).
MIN_RATE_BPS = 1_000.0
#: The fluid aggregate never occupies more than this share of a link —
#: total foreground starvation (rate 0) is an outage, not congestion.
MAX_BG_SHARE = 0.95
#: Feedback clamp: one tick's multiplicative decay saturates here.
MAX_OVERLOAD = 1.0
#: ACK load a channel's downlink carries per byte of uplink data.
ACK_FRACTION = 0.05


class FluidBackground:
    """Steps a tenant population as fluid flows on the simulation kernel.

    ``channels`` is the network's channel list (data direction = uplink,
    matching foreground client->server transfers; ACK load rides the
    downlink at :data:`ACK_FRACTION`).
    """

    def __init__(
        self,
        sim,
        channels,
        population: TenantPopulation,
        tick: float = 0.01,
        horizon: Optional[float] = None,
        obs=None,
        sense_foreground: bool = True,
    ) -> None:
        if tick <= 0:
            raise ScenarioError(f"tick must be positive, got {tick}")
        self.sim = sim
        self.channels = list(channels)
        if not self.channels:
            raise ScenarioError("fluid background needs at least one channel")
        self.population = population
        self.tick = tick
        self.horizon = horizon
        self.obs = obs
        #: When False the ODEs ignore measured packet-level traffic —
        #: coupling becomes one-way (background shapes foreground, not
        #: vice versa) but the background evolution is bit-identical no
        #: matter what foreground runs alongside, which is what lets
        #: shards replay it and assert a common digest.
        self.sense_foreground = sense_foreground
        self._gauge_active = (
            obs.registry.gauge("fleet.active_tenants") if obs is not None else None
        )

        n = len(population)
        classes = sorted(REQUIREMENT_CLASSES)
        ccas = sorted(FLUID_CCAS)
        cca_index = {name: i for i, name in enumerate(ccas)}
        unknown = set(population.ccas) - cca_index.keys()
        if unknown:
            name = next(name for name in population.ccas if name in unknown)
            known = ", ".join(ccas)
            raise ScenarioError(f"no fluid model for CCA {name!r}; known: {known}")
        self._class_names = classes
        self._cca_names = ccas
        # A tenant's ODE parameters depend only on its *kind* (class
        # manners x CCA flavour), kind = class index * len(ccas) + CCA
        # index; the tick reads every coefficient from per-kind tables.
        kinds = [(REQUIREMENT_CLASSES[k], FLUID_CCAS[f]) for k in classes for f in ccas]
        self._kind_target = np.asarray([min(k.load_target, f["target"]) for k, f in kinds])
        self._kind_beta = np.asarray([k.backoff * f["beta_scale"] for k, f in kinds])
        self._kind_gain = np.asarray([f["gain"] for _, f in kinds])
        # One byte per tenant through C-level map/bytes loops (a list
        # comprehension here costs ~40% more at 50,000 tenants).
        class_base = {name: i * len(ccas) for i, name in enumerate(classes)}
        class_codes = bytearray(map(class_base.__getitem__, population.classes))
        self._kind = np.frombuffer(class_codes, np.int8)
        self._kind += np.frombuffer(bytes(map(cca_index.__getitem__, population.ccas)), np.int8)

        self._arrival = np.asarray(population.arrivals, dtype=np.float64)
        # An active tenant's rate, remaining bytes and channel live in its
        # slot (below); they reach these on read or when it completes.
        self._tenant_remaining = np.asarray(population.sizes, dtype=np.float64)
        self._tenant_rate = np.zeros(n, dtype=np.float64)
        self._tenant_channel = np.full(n, -1, dtype=np.int64)
        # Slow-start round-trip count for each size: a packet-level flow
        # needs ceil(log2(S/IW + 1)) RTTs of window growth to move S
        # bytes, no matter how idle the link is.
        self._ss_rounds = np.maximum(
            np.ceil(np.log2(self._tenant_remaining / IW_BYTES + 1.0)), 1.0
        )
        self._active = np.zeros(n, dtype=bool)
        self._done = np.zeros(n, dtype=bool)
        self._fct = np.full(n, np.nan, dtype=np.float64)
        #: Active tenants, slot-major in arrival order: slot j < ``_m``
        #: holds tenant ``_slot_id[j]``. Admission appends slots and
        #: completion compacts them, so the tick works on contiguous
        #: ``[:m]`` views instead of gathering through an index. ``combo``
        #: is channel * kinds + kind, the row of the coefficient tables.
        self._m = 0
        self._slots = [np.empty(n, dtype=t) for t in (np.int64, float, float) + (np.int64,) * 3]
        (self._slot_id, self._slot_rate, self._slot_remaining, self._slot_channel,
         self._slot_combo, self._slot_class) = self._slots
        #: Reassign every slot next tick: a channel failed or a tenant has none.
        self._rescan = False

        # Per-tenant stall bookkeeping: when a tenant's channel fails (or
        # no channel is live at admission) it stalls until re-steered to a
        # live channel; totals feed the resilience scorecard.
        self._stalled_at = np.full(n, np.nan, dtype=np.float64)
        self.stall_events = 0
        self.stall_time_total = 0.0
        self.stall_events_by_class = {name: 0 for name in classes}
        self.stall_time_by_class = {name: 0.0 for name in classes}
        # React to Channel.fail()/restore() at event time, not tick time:
        # a failed channel must shed its installed background load
        # immediately (a micro-outage between ticks would otherwise be
        # invisible and keep charging bytes through the dead window).
        for ch in self.channels:
            ch.on_transition.append(self._on_channel_transition)

        self._cursor = 0  # population is arrival-sorted
        self._last_time: Optional[float] = None
        self._last_busy = [ch.uplink.stats.busy_time for ch in self.channels]
        self._last_avail = [ch.uplink.capacity_bps() for ch in self.channels]
        self._bg_byte_accum = [0.0] * len(self.channels)  # data direction
        self._ack_byte_accum = [0.0] * len(self.channels)
        self.bytes_by_channel = [0.0] * len(self.channels)
        self._up_set: Optional[tuple] = None
        self._table: Dict[str, Optional[int]] = {}
        self.ticks = 0
        self._event = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first tick (idempotent)."""
        if self._event is None and not self._stopped:
            self._last_time = self.sim.now
            self._event = self.sim.schedule(self.tick, self._on_tick)

    def stop(self) -> None:
        """Stop ticking and unhook from the channels, so a finished world
        holds no reference cycle through this engine."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
        for ch in self.channels:
            if self._on_channel_transition in ch.on_transition:
                ch.on_transition.remove(self._on_channel_transition)

    def _on_channel_transition(self, channel, up: bool, now: float) -> None:
        """Event-time reaction to a channel up/down transition.

        On *down* the installed background load is cleared at once and
        every tenant on the channel is stalled with its rate zeroed; the
        next tick re-steers them through the assignment table, entering
        via the slow-start re-ramp (the same path fresh arrivals take).
        On *up* nothing happens here — re-steering is tick-driven.
        """
        if up:
            return
        try:
            idx = self.channels.index(channel)
        except ValueError:  # pragma: no cover - foreign channel
            return
        channel.uplink.set_background_load(0.0)
        channel.downlink.set_background_load(0.0)
        self._last_avail[idx] = 0.0
        on = np.flatnonzero(self._slot_channel[: self._m] == idx)
        self._slot_rate[on] = 0.0
        self._slot_channel[on] = -2
        ids = self._slot_id[on]
        self._stalled_at[ids[np.isnan(self._stalled_at[ids])]] = now
        self._rescan = True

    def _close_stall(self, tenant: int, now: float) -> None:
        """Record the end of one tenant's stall interval."""
        duration = float(now - self._stalled_at[tenant])
        self._stalled_at[tenant] = math.nan
        name = self._class_names[self._kind[tenant] // len(self._cca_names)]
        self.stall_events += 1
        self.stall_time_total += duration
        self.stall_events_by_class[name] += 1
        self.stall_time_by_class[name] += duration

    def _on_tick(self) -> None:
        self._event = None
        self.step()
        if self._stopped:
            return
        if self.horizon is None or self.sim.now + self.tick <= self.horizon + 1e-12:
            self._event = self.sim.schedule(self.tick, self._on_tick)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def step(self) -> None:
        now = self.sim.now
        dt = now - self._last_time if self._last_time is not None else self.tick
        self._last_time = now
        if dt <= 0:
            return
        self.ticks += 1

        up_set = tuple(ch.up for ch in self.channels)
        if up_set != self._up_set:
            self._up_set = up_set
            self._table = assignment_table(self._class_names, self.channels)
        table_idx = [
            self._table.get(name) if self._table.get(name) is not None else -1
            for name in self._class_names
        ]

        caps = [
            ch.uplink.capacity_bps() if ch.up else 0.0 for ch in self.channels
        ]
        rtts = [max(ch.base_rtt(), 1e-4) for ch in self.channels]
        # Foreground usage estimate: the serializer was busy for
        # delta(busy_time) out of dt, at the previously *available* rate.
        fg = []
        for i, ch in enumerate(self.channels):
            busy = ch.uplink.stats.busy_time
            delta = busy - self._last_busy[i]
            self._last_busy[i] = busy
            est = (delta / dt) * self._last_avail[i]
            fg.append(min(max(est, 0.0), caps[i]))
        if not self.sense_foreground:
            fg = [0.0] * len(self.channels)
        applied = self._step_numpy(now, dt, table_idx, caps, rtts, fg)

        # Install the aggregate load and charge the byte meters.
        for i, ch in enumerate(self.channels):
            load = applied[i]
            ch.uplink.set_background_load(load)
            ch.downlink.set_background_load(load * ACK_FRACTION)
            self._last_avail[i] = max(caps[i] - load, 0.0)
            whole = int(self._bg_byte_accum[i])
            if whole:
                ch.uplink.stats.background_bytes += whole
                self._bg_byte_accum[i] -= whole
            ack_whole = int(self._ack_byte_accum[i])
            if ack_whole:
                ch.downlink.stats.background_bytes += ack_whole
                self._ack_byte_accum[i] -= ack_whole
        if self._gauge_active is not None:
            self._gauge_active.set(self.active_count())

    def _step_numpy(self, now, dt, table_idx, caps, rtts, fg) -> List[float]:
        nch = len(self.channels)
        # 1. Admit arrivals (population is arrival-sorted) into new slots.
        m0, first = self._m, self._cursor
        cur = int(np.searchsorted(self._arrival, now, side="right"))
        m = m0 + cur - first
        self._active[first:cur] = True
        self._slot_id[m0:m] = np.arange(first, cur)
        self._slot_remaining[m0:m] = self._tenant_remaining[first:cur]
        self._slot_channel[m0:m] = -2  # force assignment below
        np.floor_divide(self._kind[first:cur], len(self._cca_names), out=self._slot_class[m0:m])
        self._cursor, self._m = cur, m
        # 2. (Re)assign tenants with no live channel: the new slots, or all
        # after a failure, under a zero capacity or while one has none.
        chan = self._slot_channel[:m]
        lo = 0 if self._rescan or min(caps) <= 0 else m0
        c_scan = chan[lo:]
        lost = c_scan < 0
        for i, cap in enumerate(caps):
            if cap <= 0:
                lost |= c_scan == i
        at = lo + np.flatnonzero(lost)
        rtt_arr = np.asarray(rtts)
        self._rescan = False
        if at.size:
            idx = self._slot_id[at]
            wanted = np.asarray(table_idx, dtype=np.int64)[self._slot_class[at]]
            chan[at] = wanted
            self._slot_combo[at] = wanted * len(self._kind_target) + self._kind[idx]
            ok = wanted >= 0
            self._slot_rate[at] = np.where(ok, INITIAL_PACKETS * MSS_BITS / rtt_arr[wanted], 0.0)
            # Stall accounting: re-steering to a live channel closes a
            # stall; failing to find one opens it (total blackout).
            st = self._stalled_at
            assigned = idx[ok]
            for t in assigned[~np.isnan(st[assigned])]:
                self._close_stall(int(t), now)
            unassigned = idx[~ok]
            st[unassigned[np.isnan(st[unassigned])]] = now
            self._rescan = bool(unassigned.size)
        # Tenants left without a channel (total blackout) stay active but
        # sit out the ODE. Only they keep ``_rescan`` set; without them
        # every slot is live and the tick reads the slots in place.
        sel = np.flatnonzero(chan >= 0) if self._rescan else slice(0, m)
        c = chan[sel]
        if not c.size:
            return [0.0] * nch
        # 3. Per-channel load from fluid rates + measured foreground.
        rate = self._slot_rate[sel]
        sums = np.bincount(c, weights=rate, minlength=nch)
        caps_arr = np.asarray(caps)
        fg_arr = np.asarray(fg)
        safe_caps = np.where(caps_arr > 0, caps_arr, 1.0)
        load = np.where(caps_arr > 0, (sums + fg_arr) / safe_caps, np.inf)
        # 4. The ODE update. Every coefficient depends only on the
        # tenant's (channel, kind), so it is computed once per combo
        # (same operations, same order) and gathered per live tenant. A
        # decaying combo multiplies by exp(-beta * overload * dt / RTT),
        # adds 0.0 and has a -inf slow-start threshold; a growing one
        # multiplies by exactly 1.0 and adds the additive-increase term.
        rtt = rtt_arr[:, None]
        target = self._kind_target
        overload = load[:, None] - target
        dec = overload > 0
        decay = np.exp(-self._kind_beta * np.minimum(overload, MAX_OVERLOAD) * dt / rtt)
        mult = np.where(dec, decay, 1.0).ravel()
        # ``rate`` and ``remaining`` are updated in place (in the slots
        # while all are live) with ``tmp`` holding each operand: fresh
        # temporaries would be page-faulted in again every tick. (``take``
        # fills ``out`` unbuffered only in a mode that cannot raise.)
        combo = self._slot_combo[sel]
        tmp = mult.take(combo)
        rate *= tmp
        if not dec.all():
            # Some combo grows. When every one decays, the slow-start
            # compare against -inf and the add of 0.0 change nothing.
            counts = np.maximum(np.bincount(c, minlength=nch), 1.0)
            share = (caps_arr[:, None] * target / counts[:, None]).ravel()
            ss_below = np.where(dec.ravel(), -np.inf, 0.5 * share)
            add = np.where(dec, 0.0, self._kind_gain * MSS_BITS * dt / (rtt * rtt)).ravel()
            ss = np.flatnonzero(rate < ss_below.take(combo, out=tmp, mode="clip"))
            ss_rate = np.minimum(rate[ss] * (2.0 ** (dt / rtt_arr))[c[ss]], share[combo[ss]])
            rate += add.take(combo, out=tmp, mode="clip")
            rate[ss] = ss_rate
        remaining = self._slot_remaining[sel]
        # At most what is left to send this tick, but never below
        # MIN_RATE_BPS (the floor wins), and at most the channel capacity.
        np.multiply(remaining, 8.0, out=tmp)
        tmp /= dt
        np.minimum(rate, tmp, out=rate)
        np.maximum(rate, MIN_RATE_BPS, out=rate)
        np.minimum(rate, caps_arr.take(c, out=tmp, mode="clip"), out=rate)
        # 5. Per-channel ceiling: never occupy more than MAX_BG_SHARE.
        new_sums = np.bincount(c, weights=rate, minlength=nch)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                new_sums > 0,
                np.minimum(1.0, MAX_BG_SHARE * caps_arr / np.where(new_sums > 0, new_sums, 1.0)),
                1.0,
            )
        eff = scale.take(c)
        eff *= rate
        sent = np.multiply(eff, dt, out=tmp)
        sent /= 8.0
        np.minimum(sent, remaining, out=sent)
        remaining -= sent
        self._slot_rate[sel] = rate
        self._slot_remaining[sel] = remaining
        # 6. Byte accounting per channel (per CCA and class: read from state).
        sent_by_ch = np.bincount(c, weights=sent, minlength=nch)
        # float(): the meters end up in results() and cache blobs, which
        # carry builtin numbers only (np.float64 adds identically).
        for i in range(nch):
            sent_i = float(sent_by_ch[i])
            self._bg_byte_accum[i] += sent_i
            self._ack_byte_accum[i] += sent_i * ACK_FRACTION
            self.bytes_by_channel[i] += sent_i
        # 7. Completions. A finished transfer installs no load: its eff
        # becomes +0.0, and adding +0.0 leaves a per-channel sum exact.
        finished = np.flatnonzero(remaining <= 1e-6)
        if finished.size:
            gone = np.arange(m)[sel][finished]  # their slots
            done_idx = self._slot_id[gone]
            done_c = c[finished]
            self._done[done_idx] = True
            self._active[done_idx] = False
            self._tenant_rate[done_idx] = rate[finished]
            self._tenant_remaining[done_idx] = remaining[finished]
            self._tenant_channel[done_idx] = done_c
            eff[finished] = 0.0
            # Slow-start floor (Cardwell-style latency model): a
            # packet-level flow pays ceil(log2(S/IW + 1)) round trips
            # of window growth even on an idle link; the continuous
            # rate integral would finish sub-window transfers in a
            # fraction of an RTT. Under contention the elapsed fluid
            # time exceeds the floor and wins the max.
            self._fct[done_idx] = np.maximum(
                now - self._arrival[done_idx],
                rtt_arr[done_c] * self._ss_rounds[done_idx],
            )
        applied = np.bincount(c, weights=eff, minlength=nch)
        applied = np.minimum(applied, MAX_BG_SHARE * caps_arr)
        if finished.size:
            # Compact the slots from the first finished one on. ``c``
            # views the slot buffer, so nothing may read it after this.
            start = int(gone[0])
            keep = np.ones(m - start, dtype=bool)
            keep[gone - start] = False
            self._m = m - gone.size
            for slot in self._slots:
                slot[start : self._m] = slot[start:m][keep]
        return [float(x) for x in applied]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _current(self, tenant, slot):
        """``tenant`` with every active tenant's slot value written in."""
        tenant[self._slot_id[: self._m]] = slot[: self._m]
        return tenant

    _rate = property(lambda self: self._current(self._tenant_rate, self._slot_rate))
    _remaining = property(lambda self: self._current(self._tenant_remaining, self._slot_remaining))
    _channel = property(lambda self: self._current(self._tenant_channel, self._slot_channel))

    def _bytes_by(self, names, part) -> Dict[str, float]:
        """Bytes sent so far (size minus remaining) per name, where
        ``part(kind, len(ccas))`` is a tenant's index into ``names``."""
        sent = np.asarray(self.population.sizes, dtype=np.float64) - self._remaining
        codes = part(self._kind, len(self._cca_names))
        return dict(zip(names, np.bincount(codes, sent, len(names)).tolist()))

    bytes_by_cca = property(lambda self: self._bytes_by(self._cca_names, np.remainder))
    bytes_by_class = property(lambda self: self._bytes_by(self._class_names, np.floor_divide))

    def active_count(self) -> int:
        return self._m

    def completed_count(self) -> int:
        return int(self._done.sum())

    def stalled_count(self) -> int:
        """Tenants currently stalled (no live channel assigned)."""
        return int(np.count_nonzero(~np.isnan(self._stalled_at)))

    def fct_samples(self) -> List[float]:
        """Completion times of finished tenants, in tenant order."""
        return self._fct[self._done].tolist()

    def results(self) -> Dict:
        return {
            "ticks": self.ticks,
            "tenants": len(self.population),
            "completed": self.completed_count(),
            "active_at_end": self.active_count(),
            "fct": self.fct_samples(),
            "bytes_by_cca": {k: round(v, 3) for k, v in self.bytes_by_cca.items()},
            "bytes_by_class": {k: round(v, 3) for k, v in self.bytes_by_class.items()},
            "bytes_by_channel": [round(v, 3) for v in self.bytes_by_channel],
            "stalls": {
                "events": self.stall_events,
                "time_total_s": round(self.stall_time_total, 6),
                "events_by_class": dict(self.stall_events_by_class),
                "time_by_class_s": {
                    k: round(v, 6) for k, v in self.stall_time_by_class.items()
                },
                "stalled_at_end": self.stalled_count(),
            },
        }

    def digest(self) -> str:
        """Deterministic fingerprint of the full tenant state.

        Shards re-run the identical background world; the runner asserts
        their digests match, which catches any nondeterminism (or a shard
        accidentally perturbing the background) before results merge.
        The hash covers the raw little-endian bytes of remaining, rate,
        done, fct and the stalled flag, one column after another, so
        a one-ulp difference in any tenant's state changes it.
        """
        h = hashlib.sha256()
        stalled = ~np.isnan(self._stalled_at)
        for col in (self._remaining, self._rate, self._done, self._fct, stalled):
            h.update(col.astype(col.dtype.newbyteorder("<"), copy=False))
        return h.hexdigest()
