"""The fleet package: tenant populations, the fluid engine, the hybrid
simulation, and the sharded experiment merge."""

import gc
import hashlib
import inspect
import json
import math
import random
import textwrap
import weakref

import numpy as np
import pytest

from repro.errors import RunnerError, ScenarioError
from repro.experiments.fleet import _merge_shards, fleet_unit, run_fleet
from repro.fleet import (
    FleetConfig,
    FleetSimulation,
    FluidBackground,
    PopulationSpec,
    TenantPopulation,
    fleet_channel_specs,
    run_equivalence_case,
)
from repro.fleet import tenants as tenants_module
from repro.fleet.fluid import IW_BYTES, MAX_BG_SHARE
from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, urllc_spec
from tests.oracles import generate_population, text_digest


def small_spec(tenants=50, duration=8.0, seed=0, **kw):
    return PopulationSpec(tenants=tenants, duration=duration, seed=seed, **kw)


#: Population specs whose generated tenants are pinned below: the
#: ``fleet-50k`` ledger workload's, and a small one with a zero-weight
#: class, a one-entry CCA mix and sizes clamped at both ends.
POPULATION_SPECS = {
    "fleet-50k": FleetConfig(tenants=50_000, duration=3.0, seed=0).population_spec(),
    "clamped": small_spec(
        tenants=500, duration=2.0, seed=3, mean_size=20_000.0, sigma=1.5,
        min_size=2_000, max_size=60_000,
        class_mix=(("latency", 0.5), ("deadline", 0.0), ("throughput", 0.5)),
        cca_mix=(("reno", 1.0),),
    ),
}

#: sha256 of ``json.dumps`` of each generated field. A run-against-run
#: check cannot see a generator that takes different draws; these can.
POPULATION_PINS = {
    "fleet-50k": {
        "arrivals": "3dad2d7c53848fe6fbeafd3213c39dab659f435fc2b0f857f91a799c10d5dba1",
        "sizes": "a66c0f0d14776cbc15b4005a58d33a164e71eba4ed0e948efcb4666e33c9db4f",
        "classes": "a2ff2f6fce347ebece7599d1e1d436727c431db81cb7604daddac8c349520a27",
        "ccas": "e01e4e36ceb4949b5c808985b3666a3e4c22b64579eb2dfb349ca1e9dd73049c",
    },
    "clamped": {
        "arrivals": "0f5ed2a554058eeef0c57435fb8cd2e848607076fcba379341e90b92aba2aeca",
        "sizes": "fa60d28b5de3ebca31e4274225d645a0e963787651a4ec4fb6df1c54d69c3b70",
        "classes": "12f010641d5976077c1f7bef067aa37b7f47e90ec35acedf734ee436033c66a7",
        "ccas": "3e9022a2ffa80e547a36b556b440f2a6b9e41bbafff102cd256390574d8dfcd1",
    },
}


def assert_generates_as_the_loop(spec):
    """``generate(spec)`` holds what the per-tenant loop draws, list for list."""
    pop = TenantPopulation.generate(spec)
    assert (pop.arrivals, pop.sizes, pop.classes, pop.ccas) == generate_population(spec)
    assert {type(size) for size in pop.sizes} == {int}


def tenants_in_first_block(seed):
    """How many whole tenants the loop draws from the first block of
    uniforms ``generate`` reads from ``seed``'s stream."""

    class Counting(random.Random):
        draws = 0

        def random(self):
            self.draws += 1
            return super().random()

    rng, whole = Counting(seed), 0
    while True:
        rng.random(), rng.normalvariate(), rng.random(), rng.random()
        if rng.draws > tenants_module._BLOCK:
            return whole
        whole += 1


#: Specs off the default path: sizes clamped at both ends, zero-weight
#: entries first, between and last in a mix, one-entry mixes, arrivals
#: squeezed into part of the run, and a window so short that arrivals
#: round to a few subnormals and tie (the sort must keep draw order).
LOOP_SPECS = {
    "clamped": POPULATION_SPECS["clamped"],
    "zero-weights": small_spec(
        tenants=3_000, seed=7, arrival_span=0.25,
        class_mix=(("deadline", 0.0), ("latency", 1.0), ("background", 0.0), ("throughput", 2.0)),
        cca_mix=(("bbr", 0.0), ("cubic", 2.0), ("vegas", 0.0)),
    ),
    "one-entry": small_spec(
        tenants=3_000, seed=-3, arrival_span=0.5,
        class_mix=(("throughput", 1.0),), cca_mix=(("vegas", 1.0),),
    ),
    "tied-arrivals": small_spec(tenants=2_000, duration=1e-320, seed=5),
}


class TestTenantPopulation:
    @pytest.mark.parametrize("seed", [0, 1, 7, -3, 2**33 + 5])
    @pytest.mark.parametrize("count", [1, 2, 3, "past-first-block", 50_000])
    def test_generate_draws_what_the_per_tenant_loop_draws(self, seed, count):
        if count == "past-first-block":
            count = tenants_in_first_block(seed) + 1
        assert_generates_as_the_loop(small_spec(tenants=count, duration=3.0, seed=seed))

    @pytest.mark.parametrize("name", LOOP_SPECS)
    def test_generate_matches_the_loop_off_the_default_path(self, name):
        spec = LOOP_SPECS[name]
        for seed in (spec.seed, spec.seed + 1):
            assert_generates_as_the_loop(
                PopulationSpec(**{**spec.__dict__, "seed": seed})
            )

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_generate_carries_tenants_across_short_blocks(self, block, monkeypatch):
        """Blocks shorter than one tenant's draws: most hold no whole
        tenant, and what is left of each carries into the next."""
        monkeypatch.setattr(tenants_module, "_BLOCK", block)
        assert_generates_as_the_loop(small_spec(tenants=300, seed=block))

    def test_class_and_cca_draws_swapped_fail_the_loop_check(self, monkeypatch):
        """A planted defect: ``generate`` picks the class from the CCA's
        draw and the CCA from the class's."""
        source = textwrap.dedent(inspect.getsource(TenantPopulation.generate))
        swapped = (
            source.replace("buf[at + 2]", "buf[at + CCA]")
            .replace("buf[at + 3]", "buf[at + 2]")
            .replace("buf[at + CCA]", "buf[at + 3]")
        )
        assert swapped.count("buf[at + 3] * class_total") == 1
        namespace = dict(vars(tenants_module))
        exec(swapped.removeprefix("@classmethod\n"), namespace)
        monkeypatch.setattr(TenantPopulation, "generate", classmethod(namespace["generate"]))
        with pytest.raises(AssertionError):
            assert_generates_as_the_loop(small_spec(tenants=200, seed=1))

    def test_deterministic_for_seed(self):
        a = TenantPopulation.generate(small_spec(seed=3))
        b = TenantPopulation.generate(small_spec(seed=3))
        assert a.arrivals == b.arrivals
        assert a.sizes == b.sizes
        assert a.classes == b.classes
        assert a.ccas == b.ccas

    def test_seed_changes_population(self):
        a = TenantPopulation.generate(small_spec(seed=3))
        b = TenantPopulation.generate(small_spec(seed=4))
        assert a.sizes != b.sizes

    def test_sorted_by_arrival_and_bounded(self):
        spec = small_spec(tenants=200)
        pop = TenantPopulation.generate(spec)
        assert pop.arrivals == sorted(pop.arrivals)
        assert all(0 <= t <= spec.duration * spec.arrival_span for t in pop.arrivals)
        assert all(spec.min_size <= s <= spec.max_size for s in pop.sizes)
        assert set(pop.classes) <= {name for name, _ in spec.class_mix}
        assert set(pop.ccas) <= {name for name, _ in spec.cca_mix}

    @pytest.mark.parametrize("name", POPULATION_PINS)
    def test_population_is_pinned_bit_for_bit(self, name):
        spec = POPULATION_SPECS[name]
        pop = TenantPopulation.generate(spec)
        if name == "clamped":
            # The spec exercises both size clamps, a class that can never
            # be drawn and a one-entry CCA mix.
            assert spec.min_size in pop.sizes and spec.max_size in pop.sizes
            assert "deadline" not in pop.classes and set(pop.ccas) == {"reno"}
        digests = {
            field: hashlib.sha256(json.dumps(getattr(pop, field)).encode()).hexdigest()
            for field in ("arrivals", "sizes", "classes", "ccas")
        }
        assert digests == POPULATION_PINS[name]

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ScenarioError):
            PopulationSpec(tenants=0, duration=5.0).validate()
        with pytest.raises(ScenarioError):
            PopulationSpec(tenants=5, duration=5.0, arrival_span=0.0).validate()
        with pytest.raises(ScenarioError):
            PopulationSpec(
                tenants=5, duration=5.0, class_mix=(("latency", -1.0),)
            ).validate()


def run_fluid(tenants=60, duration=6.0, seed=2, **kw):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], seed=seed)
    pop = TenantPopulation.generate(small_spec(tenants=tenants, duration=duration, seed=seed))
    fluid = FluidBackground(net.sim, net.channels, pop, horizon=duration, **kw)
    fluid.start()
    net.run(until=duration)
    fluid.stop()
    return net, fluid


class TestFluidBackground:
    def test_python_backend_runs_and_completes(self):
        net, fluid = run_fluid()
        assert fluid.ticks > 0
        assert fluid.completed_count() > 0
        assert all(f > 0 for f in fluid.fct_samples())

    def test_background_load_reaches_links_and_views(self):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], seed=2)
        pop = TenantPopulation.generate(small_spec(tenants=120, duration=6.0, seed=2))
        fluid = FluidBackground(net.sim, net.channels, pop, horizon=6.0)
        fluid.start()
        snapshots = []

        def probe():
            # Mid-run, while tenants are still active: the load must be
            # installed on the links and coherent with current_rate().
            snapshots.extend(
                (ch.uplink.background_bps, ch.uplink.capacity_bps(),
                 ch.uplink.current_rate())
                for ch in net.channels
            )

        for k in range(1, 80):
            net.sim.schedule(k * 0.05, probe)
        net.run(until=6.0)
        fluid.stop()
        assert any(bg > 0 for bg, _, _ in snapshots), (
            "fluid never installed load on any uplink"
        )
        for bg, cap, rate in snapshots:
            assert rate == pytest.approx(max(cap - bg, 0.0))
            assert bg <= MAX_BG_SHARE * cap + 1e-6
        assert any(
            ch.uplink.stats.background_bytes > 0 for ch in net.channels
        )

    def test_fct_respects_slow_start_floor(self):
        _, fluid = run_fluid()
        pop = fluid.population
        rtts = [max(ch.base_rtt(), 1e-4) for ch in fluid.channels]
        min_rtt = min(rtts)
        for i, fct in enumerate(fluid._fct):
            if not fluid._done[i]:
                continue
            rounds = max(math.ceil(math.log2(pop.sizes[i] / IW_BYTES + 1.0)), 1)
            assert fct >= min_rtt * rounds - 1e-9

    def test_digest_deterministic_and_state_sensitive(self):
        _, a = run_fluid()
        _, b = run_fluid()
        assert a.digest() == b.digest()
        _, c = run_fluid(seed=3)
        assert a.digest() != c.digest()

    def test_digest_sees_one_ulp_the_text_rows_round_away(self):
        """One active tenant's rate moved by one ulp changes ``digest()``;
        the 6-decimal text rows it replaced print the same, so they could
        not tell shards that disagree in the last bit."""
        fleet = FleetSimulation(
            FleetConfig(tenants=300, foreground=1, duration=2.0, preset="paper")
        )
        fleet.run()
        fluid = fleet.fluid
        assert fluid.active_count() > 0
        before, text_before = fluid.digest(), text_digest(fluid)
        fluid._slot_rate[0] = np.nextafter(fluid._slot_rate[0], np.inf)
        assert fluid.digest() != before
        assert text_digest(fluid) == text_before

    def test_sense_foreground_off_ignores_packet_traffic(self):
        """With sensing off, a busy foreground must not perturb the ODEs."""

        def run(fg_flows):
            config = FleetConfig(
                tenants=80,
                foreground=fg_flows,
                duration=4.0,
                preset="paper",
                sense_foreground=False,
            )
            sim = FleetSimulation(config)
            sim.run()
            return sim.fluid.digest()

        assert run(0) == run(8)

    def test_rejects_unknown_cca(self):
        net = HvcNetwork([fixed_embb_spec()], seed=0)
        pop = TenantPopulation.generate(
            small_spec(tenants=4, cca_mix=(("quic-magic", 1.0),))
        )
        with pytest.raises(ScenarioError, match="no fluid model"):
            FluidBackground(net.sim, net.channels, pop)


class TestFleetSimulation:
    def test_hybrid_run_reports_both_fidelities(self):
        config = FleetConfig(
            tenants=300, foreground=10, duration=5.0, preset="paper"
        )
        sim = FleetSimulation(config)
        out = sim.run()
        assert out["background"]["completed"] > 0
        assert len(out["foreground"]) == 10
        assert sum(len(f["fct"]) for f in out["foreground"]) > 0
        shares = out["goodput_shares"]
        assert shares and abs(sum(shares.values()) - 1.0) < 0.01
        assert 0.0 <= min(v["up"] for v in out["utilization"].values())
        assert out["events_processed"] > 0

    def test_results_hold_builtin_numbers_only(self):
        """Unit payloads and cache blobs must not carry numpy scalars."""
        sim = FleetSimulation(
            FleetConfig(tenants=300, foreground=2, duration=3.0, mean_size=100_000.0)
        )
        embb = sim.net.channel_named("embb")
        sim.net.sim.schedule(1.003, embb.fail)
        sim.net.sim.schedule(1.5, embb.restore)
        out = sim.run()
        assert out["background"]["stalls"]["time_total_s"] > 0

        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, (list, tuple)):
                for child in node:
                    yield from leaves(child)
            else:
                yield node

        foreign = {type(x) for x in leaves(out)} - {int, float, str, bool, type(None)}
        assert not foreign

    def test_foreground_slows_under_background(self):
        """Packet-level flows must actually feel the fluid load."""

        def fg_p50(tenants):
            config = FleetConfig(
                tenants=tenants, foreground=4, duration=5.0, preset="small"
            )
            out = FleetSimulation(config).run()
            fcts = sorted(x for f in out["foreground"] for x in f["fct"])
            return fcts[len(fcts) // 2]

        # Thousands of tenants on the 12 Mbps pair must visibly stretch
        # foreground completion times vs a near-empty network.
        assert fg_p50(3000) > fg_p50(1) * 2.0

    def test_finished_world_is_freed_without_the_cyclic_gc(self):
        """``stop()`` unhooks the engine from its channels and the
        cancelled horizon tick drops its callback, so dropping the world
        frees the engine (~10 MiB of tenant arrays at 50,000 tenants) at
        once instead of at the next cyclic collection."""
        gc.disable()
        try:
            fleet = FleetSimulation(FleetConfig(tenants=300, foreground=1, duration=1.0))
            fleet.run()
            alive = weakref.ref(fleet.fluid)
            del fleet
            assert alive() is None
        finally:
            gc.enable()

    def test_sharded_config_requires_decoupling(self):
        with pytest.raises(ScenarioError, match="sense_foreground"):
            FleetConfig(tenants=10, foreground=4, shards=2, shard=0).validate()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fleet preset"):
            fleet_channel_specs("hypercube")


class TestFleetExperiment:
    def test_shard_merge_matches_single_shard_background(self):
        kw = dict(tenants=400, foreground=4, duration=4.0, seed=1)
        single = fleet_unit(shard=0, shards=1, **kw)
        # fleet_unit forces sense_foreground=False, so shard workers
        # reproduce the identical background world.
        parts = [fleet_unit(shard=s, shards=2, **kw) for s in range(2)]
        assert parts[0]["background_digest"] == parts[1]["background_digest"]
        assert parts[0]["background_digest"] == single["background_digest"]
        merged = _merge_shards(parts)
        assert [f["index"] for f in merged["foreground"]] == list(range(4))
        assert merged["events_processed"] == sum(
            p["events_processed"] for p in parts
        )

    def test_merge_refuses_divergent_backgrounds(self):
        kw = dict(tenants=100, foreground=2, duration=3.0, seed=1)
        parts = [fleet_unit(shard=s, shards=2, **kw) for s in range(2)]
        parts[1] = dict(parts[1], background_digest="corrupted")
        with pytest.raises(RunnerError, match="background digest"):
            _merge_shards(parts)

    def test_run_fleet_result_values(self):
        result = run_fleet(
            tenants=300, foreground=4, duration=4.0, validate=False
        )
        assert result.values["tenants"] == 300.0
        assert result.values["bg_completed"] > 0
        assert result.values["fg_fct_p50_ms"] > 0
        assert result.values["bg_fct_p99_ms"] >= result.values["bg_fct_p50_ms"]
        shares = {
            k[len("share_"):]: v
            for k, v in result.values.items()
            if k.startswith("share_")
        }
        assert abs(sum(shares.values()) - 1.0) < 0.01
        assert result.events_processed > 0

    def test_run_fleet_shard_invariant(self):
        base = run_fleet(tenants=200, foreground=1, duration=3.0, validate=False)
        # One foreground flow cannot be split, so any shard request
        # collapses to the identical scenario.
        sharded = run_fleet(
            tenants=200, foreground=1, duration=3.0, shards=4, validate=False
        )
        assert base.values == sharded.values


class TestEquivalenceGate:
    def test_case_rejects_large_fleets(self):
        with pytest.raises(ValueError, match="<=100"):
            run_equivalence_case(flows=101)

    def test_report_shape(self):
        rep = run_equivalence_case(flows=30, duration=6.0, seed=0)
        assert rep["full"]["engine"] == "full"
        assert rep["hybrid"]["engine"] == "hybrid"
        for key in ("fct_p50_rel", "fct_p90_rel", "fct_p50_abs", "util_abs"):
            assert key in rep["deltas"]
        assert rep["full"]["completed"] == rep["full"]["tenants"] == 30

    def test_outage_case_applies_faults_to_both_engines(self):
        from repro.faults import FaultSchedule
        from repro.fleet.validation import check_equivalence

        rows = FaultSchedule().outage("embb", 2.0, 1.0).to_params()
        rep = run_equivalence_case(
            flows=30, duration=8.0, seed=0, fault_rows=rows
        )
        # Both engines lived through the same outage...
        assert rep["full"]["outages"] == rep["hybrid"]["outages"] == 1
        assert rep["full"]["downtime_s"] == pytest.approx(1.0)
        assert rep["hybrid"]["downtime_s"] == pytest.approx(1.0)
        # ...the fluid side accounted stalls for re-steered tenants...
        assert rep["hybrid"]["stalls"]["stalled_at_end"] == 0
        # ...and the gate still evaluates (violations are a judgement
        # call under faults; the report must at least be complete).
        assert isinstance(check_equivalence(rep), list)

    def test_outage_case_still_within_tolerance(self):
        from repro.faults import FaultSchedule
        from repro.fleet.validation import check_equivalence

        # A short outage early in the run: both engines re-steer onto the
        # surviving channel and must still agree distributionally.
        rows = FaultSchedule().outage("embb", 1.0, 0.5).to_params()
        rep = run_equivalence_case(
            flows=40, duration=10.0, seed=1, fault_rows=rows
        )
        assert check_equivalence(rep) == []
