"""Hybrid-fidelity fleet simulation: packet-level foreground over a
fluid background, in one kernel.

:class:`FleetSimulation` wires together an :class:`~repro.core.api.
HvcNetwork`, a :class:`~repro.fleet.fluid.FluidBackground` stepping the
tenant population, a :class:`~repro.net.monitor.ChannelMonitor`, and a
set of closed-loop foreground connections (real transport + steering on
the packet kernel). Foreground flows carry requirement classes through
the :class:`~repro.steering.requirements.RequirementPinnedSteerer` and
tenant ids through the transport, so per-tenant attribution works end to
end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.api import HvcNetwork
from repro.errors import ScenarioError
from repro.fleet.fluid import FluidBackground
from repro.fleet.tenants import PopulationSpec, TenantPopulation
from repro.net.hvc import (
    cisp_spec,
    fiber_wan_spec,
    fixed_embb_spec,
    urllc_spec,
    wifi_mlo_specs,
)
from repro.net.monitor import ChannelMonitor
from repro.steering.requirements import (
    RequirementPinnedSteerer,
    requirement_class,
)

#: Channel presets a fleet can run over. "paper" is the HotNets pair
#: (eMBB + URLLC); "wan" the cISP-style fiber+microwave pair; "mlo" the
#: Wi-Fi 7 multi-link pair; "small" a scaled-down eMBB+URLLC pair for
#: fast validation cases.
FLEET_PRESETS = ("paper", "wan", "mlo", "small")

#: Fluid step (s) of every fleet run and equivalence case.
TICK = 0.01
#: Sampling period (s) of the per-channel utilization monitor.
MONITOR_PERIOD = 0.25
#: Foreground closed loop: repeated messages of this size per flow, a
#: think time between a response completing and the next request, and
#: flow i's first send at ``FG_STAGGER * (i + 1)``.
FG_MESSAGE_BYTES = 60_000
FG_THINK = 0.05
FG_STAGGER = 0.1
#: Requirement classes / CCAs cycled across foreground flows.
FG_CLASSES = ("latency", "throughput", "background", "deadline")
FG_CCAS = ("cubic", "bbr", "vegas")


def fleet_channel_specs(preset: str):
    if preset == "paper":
        return [fixed_embb_spec(), urllc_spec()]
    if preset == "wan":
        return [fiber_wan_spec(), cisp_spec()]
    if preset == "mlo":
        return list(wifi_mlo_specs())
    if preset == "small":
        # 12 Mbps eMBB-like + URLLC: small enough that <=100 packet-level
        # flows exercise real contention in a short sim.
        return [fixed_embb_spec(rate_bps=12_000_000.0), urllc_spec()]
    known = ", ".join(FLEET_PRESETS)
    raise ScenarioError(f"unknown fleet preset {preset!r}; known: {known}")


@dataclass
class FleetConfig:
    """One fleet run, fully specified (every field is a primitive)."""

    tenants: int = 10_000
    foreground: int = 12
    duration: float = 20.0
    seed: int = 0
    preset: str = "paper"
    #: Mean background transfer size (bytes).
    mean_size: float = 6000.0
    #: Shard split of the foreground set (background replays identically
    #: in every shard; see experiments/fleet.py).
    shard: int = 0
    shards: int = 1
    #: Whether the fluid ODEs react to measured packet-level traffic.
    #: Sharded runs must turn this off: with it on, each shard's
    #: background would see a different foreground subset and diverge.
    sense_foreground: bool = True

    def population_spec(self) -> PopulationSpec:
        return PopulationSpec(
            tenants=self.tenants,
            duration=self.duration,
            seed=self.seed,
            mean_size=self.mean_size,
        )

    def validate(self) -> None:
        if self.foreground < 0:
            raise ScenarioError(f"foreground must be >= 0, got {self.foreground}")
        if not 0 <= self.shard < self.shards:
            raise ScenarioError(
                f"shard must be in [0, {self.shards}), got {self.shard}"
            )
        if self.shards > 1 and self.sense_foreground:
            raise ScenarioError(
                "sharded fleet runs require sense_foreground=False — with the "
                "foreground->background feedback on, each shard's background "
                "would see a different foreground subset and diverge"
            )


class _ForegroundFlow:
    """One closed-loop request stream: send, await ack, think, repeat."""

    def __init__(self, sim, pair, index: int, until: float):
        self.sim = sim
        self.pair = pair
        self.index = index
        self.until = until
        self.fcts: List[float] = []
        self.bytes_acked = 0
        self._sent_at: Optional[float] = None

    def start(self, delay: float) -> None:
        self.sim.schedule(delay, self._send)

    def _send(self) -> None:
        if self.sim.now >= self.until:
            return
        self._sent_at = self.sim.now
        self.pair.client.send_message(FG_MESSAGE_BYTES, on_acked=self._on_acked)

    def _on_acked(self, message, when: float) -> None:
        self.fcts.append(when - self._sent_at)
        self.bytes_acked += message.size
        if when + FG_THINK < self.until:
            self.sim.schedule(FG_THINK, self._send)


class FleetSimulation:
    """Build and run one hybrid fleet world."""

    def __init__(self, config: FleetConfig, obs=None):
        config.validate()
        self.config = config
        specs = fleet_channel_specs(config.preset)
        self.steerer = RequirementPinnedSteerer()
        self.net = HvcNetwork(specs, steering=self.steerer, seed=config.seed)
        if obs is not None:
            self.net.attach_obs(obs)
            self.monitor = self.net.obs_monitor
        else:
            self.monitor = ChannelMonitor(
                self.net.sim, self.net.channels, period=MONITOR_PERIOD
            )
        self.population = TenantPopulation.generate(config.population_spec())
        self.fluid = FluidBackground(
            self.net.sim,
            self.net.channels,
            self.population,
            tick=TICK,
            horizon=config.duration,
            obs=obs,
            sense_foreground=config.sense_foreground,
        )
        self.flows: List[_ForegroundFlow] = []
        self._fg_meta: List[Dict] = []
        for i in range(config.foreground):
            rclass = FG_CLASSES[i % len(FG_CLASSES)]
            cca = FG_CCAS[i % len(FG_CCAS)]
            meta = {"index": i, "rclass": rclass, "cca": cca}
            self._fg_meta.append(meta)
            if i % config.shards != config.shard:
                continue
            rc = requirement_class(rclass)
            pair = self.net.open_connection(
                cc=cca,
                flow_priority=rc.flow_priority,
                tenant_id=i,
            )
            self.steerer.assign(pair.client.flow_id, rclass)
            flow = _ForegroundFlow(self.net.sim, pair, i, until=config.duration)
            flow.start(FG_STAGGER * (i + 1))
            self.flows.append(flow)

    def run(self) -> Dict:
        self.fluid.start()
        self.net.run(until=self.config.duration)
        self.fluid.stop()
        self.monitor.stop()
        return self.results()

    # ------------------------------------------------------------------
    def results(self) -> Dict:
        config = self.config
        bg = self.fluid.results()
        fg_flows = []
        fg_bytes_by_cca: Dict[str, float] = {}
        for flow in self.flows:
            meta = self._fg_meta[flow.index]
            fg_flows.append(
                {
                    "index": flow.index,
                    "rclass": meta["rclass"],
                    "cca": meta["cca"],
                    "fct": [round(x, 6) for x in flow.fcts],
                    "bytes_acked": flow.bytes_acked,
                }
            )
            fg_bytes_by_cca[meta["cca"]] = (
                fg_bytes_by_cca.get(meta["cca"], 0.0) + flow.bytes_acked
            )
        utilization = {
            name: {
                "up": round(series.utilization("up"), 4),
                "down": round(series.utilization("down"), 4),
            }
            for name, series in self.monitor.series.items()
        }
        goodput = goodput_shares(bg["bytes_by_cca"], fg_bytes_by_cca)
        return {
            "config": {
                "tenants": config.tenants,
                "foreground": config.foreground,
                "duration": config.duration,
                "seed": config.seed,
                "preset": config.preset,
                "shard": config.shard,
                "shards": config.shards,
            },
            "background": bg,
            "background_digest": self.fluid.digest(),
            "foreground": fg_flows,
            "events_processed": self.net.sim.events_processed,
            "utilization": utilization,
            "goodput_shares": goodput,
        }


def goodput_shares(
    bg_bytes_by_cca: Dict[str, float], fg_bytes_by_cca: Dict[str, float]
) -> Dict[str, float]:
    """Per-CCA share of all application bytes moved (background + fg)."""
    totals: Dict[str, float] = {}
    for source in (bg_bytes_by_cca, fg_bytes_by_cca):
        for cca, value in source.items():
            totals[cca] = totals.get(cca, 0.0) + value
    grand = sum(totals.values())
    if grand <= 0:
        return {cca: 0.0 for cca in totals}
    return {cca: round(value / grand, 4) for cca, value in sorted(totals.items())}
