"""Fault-aware fluid fleet: event-time load shedding, stall accounting,
and slow-start re-ramp after restore."""

import math

from repro.core.api import HvcNetwork
from repro.fleet import PopulationSpec, TenantPopulation
from repro.fleet.fluid import INITIAL_PACKETS, MSS_BITS, FluidBackground
from repro.net.hvc import fixed_embb_spec, urllc_spec


def build(tenants=40, duration=6.0, seed=2, tick=0.01):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], seed=seed)
    # Large transfers so the population stays active across the injected
    # outages instead of draining in the first ticks.
    pop = TenantPopulation.generate(
        PopulationSpec(
            tenants=tenants,
            duration=duration,
            seed=seed,
            mean_size=2_000_000,
            max_size=20_000_000,
        )
    )
    fluid = FluidBackground(net.sim, net.channels, pop, tick=tick, horizon=duration)
    fluid.start()
    return net, fluid


class TestEventTimeShedding:
    def test_fail_clears_background_load_immediately(self):
        net, fluid = build()
        embb = net.channel_named("embb")
        net.run(until=2.0)
        assert embb.uplink.background_bps > 0.0
        embb.fail()
        # No tick has run since fail(): the transition hook alone must
        # have shed the load from both directions.
        assert embb.uplink.background_bps == 0.0
        assert embb.downlink.background_bps == 0.0
        embb.restore()

    def test_micro_outage_between_ticks_charges_no_bytes(self):
        # Regression: a fail()/restore() pair shorter than one tick used
        # to be invisible — rates stayed up and background_bytes kept
        # growing through the dead window.
        net, fluid = build(tick=0.1)
        embb = net.channel_named("embb")
        net.run(until=2.0)
        before = embb.uplink.stats.background_bytes
        embb.fail()
        # Mid-outage, between ticks: no residual load installed.
        net.run(until=net.sim.now + 0.04)
        assert embb.uplink.background_bps == 0.0
        embb.restore()
        after = embb.uplink.stats.background_bytes
        assert after == before
        net.run(until=net.sim.now + 1.0)
        # Traffic resumes after restore.
        assert embb.uplink.stats.background_bytes > after

    def test_restore_reramps_via_slow_start(self):
        net, fluid = build(tick=0.01)
        net.run(until=2.0)
        for ch in net.channels:
            ch.fail()
        net.run(until=net.sim.now + 0.5)
        for ch in net.channels:
            ch.restore()
        # One tick after restore, every re-homed tenant restarts from its
        # channel's initial-window rate (at most a growth step or two in).
        net.run(until=net.sim.now + 2 * fluid.tick)
        iw_rate = [
            INITIAL_PACKETS * MSS_BITS / max(ch.base_rtt(), 1e-4)
            for ch in net.channels
        ]
        rates = [
            (fluid._rate[i], fluid._channel[i])
            for i in range(len(fluid._rate))
            if fluid._active[i] and fluid._channel[i] >= 0
        ]
        assert rates, "expected tenants back on the restored channels"
        for rate, c in rates:
            assert rate <= iw_rate[c] * 4.0

    def test_stalls_accounted_per_class(self):
        net, fluid = build()
        embb = net.channel_named("embb")
        net.run(until=2.0)
        embb.fail()
        net.run(until=3.0)
        embb.restore()
        net.run(until=5.0)
        # embb tenants re-steered to urllc (or stalled then re-steered):
        # either way stall events were recorded and all closed.
        assert fluid.stall_events > 0
        assert fluid.stall_time_total > 0.0
        assert fluid.stalled_count() == 0
        assert sum(fluid.stall_events_by_class.values()) == fluid.stall_events
        total = sum(fluid.stall_time_by_class.values())
        assert math.isclose(total, fluid.stall_time_total, rel_tol=1e-9)
        stalls = fluid.results()["stalls"]
        assert stalls["events"] == fluid.stall_events
        assert stalls["stalled_at_end"] == 0

    def test_total_blackout_stalls_everyone_then_recovers(self):
        net, fluid = build(duration=8.0)
        net.run(until=2.0)
        for ch in net.channels:
            ch.fail()
        net.run(until=3.0)
        assert fluid.stalled_count() == fluid.active_count()
        assert all(ch.uplink.background_bps == 0.0 for ch in net.channels)
        for ch in net.channels:
            ch.restore()
        net.run(until=8.0)
        assert fluid.stalled_count() == 0
        assert fluid.completed_count() > 0

    def test_digest_reflects_stall_state(self):
        net, fluid = build()
        net.run(until=2.0)
        before = fluid.digest()
        for ch in net.channels:
            ch.fail()
        # The hook zeroes rates and marks stalls without any tick.
        assert fluid.digest() != before
        for ch in net.channels:
            ch.restore()
