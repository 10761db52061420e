"""Unit tests for repro.faults: schedules, the injector, recovery metrics."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import HvcNetwork
from repro.errors import ScenarioError
from repro.faults import (
    FaultInjector,
    FaultLossOverlay,
    FaultSchedule,
    RecoveryTracker,
)
from repro.faults.schedule import KINDS, Fault
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.units import kb
from tests.oracles.loss import long_run_rate as reference_rate


def make_net(steering="dchannel", seed=0, **kwargs):
    return HvcNetwork(
        [fixed_embb_spec(), urllc_spec()], steering=steering, seed=seed, **kwargs
    )


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault kind"):
            Fault(0.0, "embb", "meteor", 1.0).validate()

    def test_negative_start_rejected(self):
        with pytest.raises(ScenarioError, match="start"):
            Fault(-1.0, "embb", "outage", 1.0).validate()

    def test_zero_duration_rejected(self):
        with pytest.raises(ScenarioError, match="duration"):
            Fault(0.0, "embb", "outage", 0.0).validate()

    @pytest.mark.parametrize("severity", [0.0, 1.0, 1.5])
    def test_loss_burst_severity_bounds(self, severity):
        with pytest.raises(ScenarioError, match="severity"):
            Fault(0.0, "embb", "loss_burst", 1.0, severity).validate()

    @pytest.mark.parametrize("severity", [0.0, 1.0])
    def test_capacity_severity_bounds(self, severity):
        # A full stall must be expressed as an outage, not capacity 0.
        with pytest.raises(ScenarioError, match="severity"):
            Fault(0.0, "embb", "capacity", 1.0, severity).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("start", float("nan")),
            ("duration", float("nan")),
            ("severity", float("nan")),
            ("duration", float("inf")),
            ("channel", 5),
            ("channel", None),
            ("start", True),
            ("start", "1.0"),
            ("duration", [1.0]),
            ("severity", "0.1"),
        ],
    )
    def test_non_numbers_and_non_finite_values_rejected(self, field, value):
        row = {"start": 0.0, "channel": "embb", "kind": "rtt_spike",
               "duration": 1.0, "severity": 0.1, field: value}
        with pytest.raises(ScenarioError, match=field):
            Fault(**row).validate()
        text = json.dumps({"faults": [row]})
        with pytest.raises(ScenarioError, match=field):
            FaultSchedule.from_json(text)


#: Values a fault field may hold in JSON: mostly plausible numbers, often
#: something else entirely.
JSON_FIELD = st.one_of(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-5.0, max_value=50.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
PLAUSIBLE_ROW = st.fixed_dictionaries(
    {
        "start": st.floats(min_value=0.0, max_value=50.0),
        "channel": st.sampled_from(["embb", "urllc"]),
        "kind": st.sampled_from(KINDS),
        "duration": st.floats(min_value=0.01, max_value=10.0),
        "severity": st.floats(min_value=0.01, max_value=0.99),
    },
)
#: A plausible row, one field of it replaced, or every field drawn wild.
JSON_ROW = st.one_of(
    PLAUSIBLE_ROW,
    st.builds(
        lambda row, field, value: {**row, field: value},
        PLAUSIBLE_ROW, st.sampled_from(["start", "channel", "kind", "duration", "severity"]),
        JSON_FIELD,
    ),
    st.builds(lambda row, field: {k: v for k, v in row.items() if k != field},
              PLAUSIBLE_ROW, st.sampled_from(["start", "kind", "severity"])),
    st.fixed_dictionaries(
        {field: JSON_FIELD for field in ("start", "channel", "kind", "duration", "severity")}
    ),
)
JSON_DOC = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
SCHEDULE_TEXTS = st.one_of(
    st.builds(json.dumps, st.fixed_dictionaries({"faults": st.lists(PLAUSIBLE_ROW, max_size=4)})),
    st.builds(json.dumps, st.fixed_dictionaries({"faults": st.lists(JSON_ROW, max_size=4)})),
    st.builds(json.dumps, st.fixed_dictionaries({"faults": JSON_DOC})),
    st.builds(json.dumps, JSON_DOC),
    st.text(max_size=30),
)


class TestFaultSchedule:
    @given(text=SCHEDULE_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_from_json_round_trips_or_raises_scenario_error(self, text):
        try:
            schedule = FaultSchedule.from_json(text)
        except ScenarioError:
            return
        again = FaultSchedule.from_json(schedule.to_json())
        assert again.faults == schedule.faults
        assert again.to_json() == schedule.to_json()

    def test_builders_sort_and_compose(self):
        sched = (
            FaultSchedule()
            .loss_burst("urllc", 5.0, 1.0, loss=0.2)
            .outage("embb", 1.0, 2.0)
        )
        assert [f.kind for f in sched] == ["outage", "loss_burst"]
        assert sched.horizon == 6.0
        assert [f.channel for f in sched] == ["embb", "urllc"]

    def test_params_round_trip(self):
        sched = (
            FaultSchedule()
            .outage("embb", 1.0, 2.0)
            .rtt_spike("urllc", 0.5, 1.0, extra_delay=0.05)
        )
        again = FaultSchedule.from_params(sched.to_params())
        assert again.faults == sched.faults

    def test_correlated_stagger(self):
        sched = FaultSchedule().correlated(
            ["embb", "urllc"], 2.0, 1.0, kind="blackout", stagger=0.25
        )
        starts = {f.channel: f.start for f in sched}
        assert starts == {"embb": 2.0, "urllc": 2.25}

    def test_random_is_seed_deterministic(self):
        a = FaultSchedule.random(["embb", "urllc"], duration=60.0, seed=42)
        b = FaultSchedule.random(["embb", "urllc"], duration=60.0, seed=42)
        c = FaultSchedule.random(["embb", "urllc"], duration=60.0, seed=43)
        assert a.faults == b.faults
        assert a.faults != c.faults
        assert len(a) > 0


class TestFaultLossOverlay:
    @given(
        base=st.sampled_from(
            [NoLoss(), BernoulliLoss(0.1), BernoulliLoss(0.0),
             GilbertElliottLoss(0.05, 0.2, good_loss=0.01, bad_loss=0.5),
             GilbertElliottLoss(0.0, 0.0, good_loss=0.3, bad_loss=0.9)]
        ),
        bursts=st.lists(
            st.tuples(st.booleans(), st.sampled_from([0.0, 0.05, 0.4, 0.4, 0.999])),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_stored_rate_equals_the_reference_across_push_and_pop(self, base, bursts):
        """The stored rate is bit-identical to the old property body (the
        base's rate included) after construction and every push/pop."""
        overlay = FaultLossOverlay(base)
        assert base.long_run_rate == reference_rate(base)
        assert overlay.long_run_rate == reference_rate(overlay)
        for push, probability in bursts:
            if push:
                overlay.push(probability)
            elif probability in overlay.active:
                overlay.pop(probability)
            assert overlay.long_run_rate == reference_rate(overlay)

    def test_long_run_rate_combines(self):
        overlay = FaultLossOverlay(BernoulliLoss(0.1))
        overlay.push(0.5)
        assert overlay.long_run_rate == pytest.approx(1 - 0.9 * 0.5)
        overlay.pop(0.5)
        assert overlay.long_run_rate == pytest.approx(0.1)


class TestInjector:
    def test_outage_applies_and_reverts(self):
        net = make_net()
        FaultInjector(net, FaultSchedule().outage("embb", 1.0, 2.0)).arm()
        embb = net.channel_named("embb")
        net.run(until=2.0)
        assert not embb.up
        net.run(until=4.0)
        assert embb.up
        assert embb.outage_count == 1
        assert embb.downtime_total == pytest.approx(2.0)

    def test_unknown_channel_rejected_at_arm(self):
        net = make_net()
        injector = FaultInjector(net, FaultSchedule().outage("wifi", 1.0, 1.0))
        with pytest.raises(ScenarioError, match="wifi"):
            injector.arm()

    def test_past_fault_rejected_at_arm(self):
        net = make_net()
        net.run(until=5.0)
        injector = FaultInjector(net, FaultSchedule().outage("embb", 1.0, 1.0))
        with pytest.raises(ScenarioError, match="past"):
            injector.arm()

    def test_loss_burst_raises_and_restores_loss_rate(self):
        net = make_net()
        FaultInjector(net, FaultSchedule().loss_burst("embb", 1.0, 1.0, loss=0.4)).arm()
        link = net.channel_named("embb").uplink
        base = link.loss.long_run_rate
        net.run(until=1.5)
        assert link.loss.long_run_rate == pytest.approx(1 - (1 - base) * 0.6)
        net.run(until=3.0)
        assert link.loss.long_run_rate == pytest.approx(base)

    def test_rtt_spike_shifts_delay(self):
        net = make_net()
        FaultInjector(net, FaultSchedule().rtt_spike("urllc", 1.0, 1.0, extra_delay=0.05)).arm()
        link = net.channel_named("urllc").uplink
        base = link.current_delay()
        net.run(until=1.5)
        assert link.current_delay() == pytest.approx(base + 0.05)
        net.run(until=3.0)
        assert link.current_delay() == pytest.approx(base)

    def test_capacity_collapse_scales_rate(self):
        net = make_net()
        FaultInjector(
            net, FaultSchedule().capacity_collapse("embb", 1.0, 1.0, factor=0.25)
        ).arm()
        link = net.channel_named("embb").uplink
        base = link.current_rate()
        net.run(until=1.5)
        assert link.current_rate() == pytest.approx(base * 0.25)
        net.run(until=3.0)
        assert link.current_rate() == pytest.approx(base)

    def test_blackout_flushes_queued_packets(self):
        net = make_net(steering="single")
        FaultInjector(net, FaultSchedule().blackout("embb", 0.2, 1.0)).arm()
        pair = net.open_datagram()
        # A burst just before the blackout leaves a standing uplink queue
        # (300 kB needs ~40 ms of serialization at 60 Mbps).
        net.sim.schedule(0.19, lambda: pair.client.send_message(kb(300), message_id=1))
        net.run(until=0.5)
        uplink = net.channel_named("embb").uplink
        assert uplink.stats.flushed > 0
        assert uplink.backlog_bytes == 0


class TestRecoveryTracker:
    def test_single_policy_stalls_and_recovers(self):
        net = make_net(steering="single")
        FaultInjector(net, FaultSchedule().outage("embb", 0.5, 1.0)).arm()
        tracker = RecoveryTracker(net)
        pair = net.open_connection(cc="cubic")
        done = []
        pair.client.send_message(kb(8000), on_acked=lambda m, t: done.append(t))
        net.run(until=20.0)
        summary = tracker.summary()
        assert done, "transfer must complete after the outage"
        assert summary["outages"] == 1
        assert summary["failovers"] == 0
        assert summary["recovery_samples"] >= 1
        assert summary["recovery_max_s"] > 0

    def test_dchannel_fails_over_without_stalling(self):
        net = make_net(steering="dchannel")
        FaultInjector(net, FaultSchedule().outage("embb", 0.5, 1.0)).arm()
        tracker = RecoveryTracker(net)
        pair = net.open_connection(cc="cubic")
        done = []
        pair.client.send_message(kb(8000), on_acked=lambda m, t: done.append(t))
        net.run(until=20.0)
        summary = tracker.summary()
        assert done
        assert summary["failovers"] >= 1
        assert summary["recovery_samples"] == 0

    def test_metrics_reach_registry(self):
        net = make_net(steering="single")
        net.attach_obs()
        FaultInjector(net, FaultSchedule().outage("embb", 0.5, 1.0)).arm()
        RecoveryTracker(net)
        pair = net.open_connection(cc="cubic")
        pair.client.send_message(kb(8000))
        net.run(until=20.0)
        snapshot = net.obs.registry.snapshot()
        assert "faults.injected" in snapshot
        assert "faults.outages" in snapshot
        assert "faults.downtime" in snapshot
        assert "faults.recovery_time" in snapshot


class TestBlackoutDegradation:
    def test_connection_suppresses_rto_and_reprobes(self):
        net = make_net(steering="dchannel")
        FaultInjector(
            net,
            FaultSchedule().correlated(["embb", "urllc"], 0.5, 2.0, kind="blackout"),
        ).arm()
        pair = net.open_connection(cc="cubic")
        done = []
        pair.client.send_message(kb(8000), on_acked=lambda m, t: done.append(t))
        net.run(until=30.0)
        stats = pair.client.stats
        assert done, "transfer must complete after total blackout"
        assert stats.blackout_timeouts >= 1
        assert stats.recovery_probes >= 1
        # The fast re-probe bounds the post-blackout stall: completion lands
        # well before a backed-off RTO (>= 2 s by then) would have fired.
        assert done[0] < 3.0 + 1.0
        assert net.client.stats.blackout_drops >= 0

    def test_datagram_drop_mode(self):
        net = make_net(steering="dchannel")
        FaultInjector(
            net, FaultSchedule().correlated(["embb", "urllc"], 1.0, 1.0)
        ).arm()
        pair = net.open_datagram(blackout="drop")
        net.sim.schedule(1.5, lambda: pair.client.send_message(kb(10), message_id=1))
        net.run(until=5.0)
        assert pair.client.stats.messages_blackout_dropped == 1
        assert pair.server.stats.messages_completed == 0

    def test_datagram_buffer_mode_flushes_on_recovery(self):
        net = make_net(steering="dchannel")
        FaultInjector(
            net, FaultSchedule().correlated(["embb", "urllc"], 1.0, 1.0)
        ).arm()
        pair = net.open_datagram(blackout="buffer")
        net.sim.schedule(1.5, lambda: pair.client.send_message(kb(10), message_id=1))
        net.run(until=5.0)
        assert pair.client.stats.messages_blackout_buffered == 1
        assert pair.server.stats.messages_completed == 1


class TestOutageSweep:
    def test_rows_are_labelled_with_the_cell_that_produced_them(self):
        from repro.experiments.faults import run_faults

        # Axis order is the caller's: "dchannel" listed before "single".
        policies = ("dchannel", "single")
        result = run_faults(
            duration=6.5, outages=(0.5,), ccas=("cubic",), policies=policies
        )
        assert result.values["cubic/single/outage0.5/failovers"] == 0
        assert result.values["cubic/dchannel/outage0.5/failovers"] > 0
        rows = result.tables[0].rows
        assert [row[2] for row in rows] == list(policies)
        assert [row[5] for row in rows] == [
            str(result.values[f"cubic/{policy}/outage0.5/failovers"])
            for policy in policies
        ]
        assert list(result.series[0].series) == list(policies)
