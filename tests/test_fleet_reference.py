"""The vectorized fluid tick against the scalar tick it replaced.

``ScalarFluid`` (:mod:`tests.oracles.fluid`) is the only surviving copy of the pure-python tick
``fleet/fluid.py`` used to carry beside the numpy one: the same ODE, one
tenant at a time over plain lists with ``math``. It shadows a live
:class:`FluidBackground` — fed the tick inputs the engine computed (time,
``dt``, assignment table, capacities, RTTs, sensed foreground) and the
same channel-down transitions — and after *every* tick the whole
per-tenant state and the per-channel load handed to the links must agree
to ``REL`` (not bit-for-bit: ``np.exp``/``np.power`` and ``math`` may
round the last digit differently), with ``ABS`` for the sub-picobyte
residue ``remaining - sent`` leaves behind a finished transfer.

A tolerance cannot tell a bit-identical rewrite of the tick from one
that moves the last digit, so the same worlds are also pinned exactly:
the background digest and a hash of the whole ``FleetSimulation.run()``
result, as literals. The literals captured while the digest was text
rows are checked through that text (:mod:`tests.oracles.fleet_digest`),
beside the byte digest ``digest()`` computes now.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetSimulation
from tests.oracles.fleet_digest import text_digest
from tests.oracles.fluid import ScalarFluid

REL = 1e-9
ABS = 1e-9


def close(actual, expected):
    np.testing.assert_allclose(
        np.asarray(actual, dtype=float), expected, rtol=REL, atol=ABS, equal_nan=True
    )


def shadow(fluid):
    """Run ``ScalarFluid`` beside ``fluid``, comparing after every tick."""
    ref = ScalarFluid(fluid.population, len(fluid.channels))
    for idx, ch in enumerate(fluid.channels):
        ch.on_transition.append(
            lambda _ch, up, now, idx=idx: up or ref.channel_down(idx, now)
        )
    engine_tick = fluid._step_numpy

    def both(now, dt, table_idx, caps, rtts, fg):
        applied = engine_tick(now, dt, table_idx, caps, rtts, fg)
        close(applied, ref.tick(now, dt, table_idx, caps, rtts, fg))
        close(fluid._rate, ref.rate)
        close(fluid._remaining, ref.remaining)
        close(fluid._fct, ref.fct)
        close(fluid._stalled_at, ref.stalled_at)
        assert fluid._channel.tolist() == ref.channel
        assert fluid._active.tolist() == ref.active
        assert fluid._done.tolist() == ref.done
        return applied

    fluid._step_numpy = both
    return ref


def fleet_world(tenants, seed, mean_size, faults=(), sense_foreground=True):
    """One ``paper`` world with two packet-level foreground flows (so the
    sensed foreground term is not identically zero unless
    ``sense_foreground`` is off), ``faults`` as ``(time, channel name or
    None for every channel, "fail"|"restore")``."""
    fleet = FleetSimulation(
        FleetConfig(
            tenants=tenants, foreground=2, duration=4.0, preset="paper",
            seed=seed, mean_size=mean_size, sense_foreground=sense_foreground,
        )
    )
    for at, name, action in faults:
        for ch in fleet.net.channels:
            if name is None or ch.name == name:
                fleet.net.sim.schedule(at, getattr(ch, action))
    return fleet


def run_shadowed(tenants, seed, mean_size, faults=(), plant=None):
    """``fleet_world`` run under the shadow; ``plant(fluid)`` may break
    the engine before it runs."""
    fleet = fleet_world(tenants, seed, mean_size, faults)
    if plant is not None:
        plant(fleet.fluid)
    ref = shadow(fleet.fluid)
    fleet.run()
    return fleet.fluid, ref


#: (tenants, seed, mean transfer bytes, faults)
CASES = {
    "short-flows": (60, 2, 6_000.0, ()),
    "contended": (400, 5, 100_000.0, ()),
    "fail-restore": (
        400, 7, 100_000.0,
        [(1.0, "embb", "fail"), (1.6, "embb", "restore")],
    ),
    "blackout": (
        60, 3, 100_000.0,
        [(1.5, None, "fail"), (2.005, None, "restore")],
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_numpy_tick_matches_scalar_reference_every_tick(case):
    fluid, ref = run_shadowed(*CASES[case])
    assert fluid.ticks >= 399 and fluid.completed_count() > 0
    assert fluid.stall_events == ref.stall_events
    assert fluid.stall_time_total == pytest.approx(ref.stall_time, rel=REL)
    assert (fluid.stall_events > 0) == bool(CASES[case][3])
    close(fluid.bytes_by_channel, ref.bytes_by_channel)
    assert_meters_match(fluid, ref)


def assert_meters_match(fluid, ref):
    """The per-CCA and per-class meters, which ``fluid`` reads from tenant
    state, against ``ref``'s per-tick sums (tenant order within a tick,
    the order the engine added them in before it read them from state):
    within 1e-12 and equal at the 3 decimals ``results()`` prints."""
    for got, want in (
        (fluid.bytes_by_cca, ref.bytes_by_cca),
        (fluid.bytes_by_class, ref.bytes_by_class),
    ):
        assert got.keys() == want.keys()
        for name, sent in got.items():
            assert sent == pytest.approx(want[name], rel=1e-12, abs=0)
            assert round(sent, 3) == round(want[name], 3)


def test_meters_read_mid_run_match_after_a_failure():
    """Read while ``embb`` is down in ``fail-restore``, between ticks."""
    fleet = fleet_world(*CASES["fail-restore"])
    ref = shadow(fleet.fluid)
    embb = fleet.net.channel_named("embb")
    reads = []

    def read():
        assert not embb.up and fleet.fluid.stall_events > 0
        assert_meters_match(fleet.fluid, ref)
        reads.append(fleet.net.sim.now)

    fleet.net.sim.schedule(1.305, read)
    fleet.run()
    assert reads == [1.305]


class TickSums:
    """The per-CCA and per-class meters as the engine kept them before it
    read them from tenant state: each tick's sends (``remaining`` before
    the tick minus after it) summed in tenant order and added to a total.
    ``ScalarFluid`` drifts from a 10,000-tenant engine by ~1e-9, inside
    ``REL`` but too far to hold the meters to 1e-12; this shadow reads
    the engine's own sends."""

    def __init__(self, fluid):
        ncca = len(fluid._cca_names)
        kinds = fluid._kind.astype(np.int64)
        codes = [(fluid._cca_names, kinds % ncca), (fluid._class_names, kinds // ncca)]
        self.bytes_by_cca = dict.fromkeys(fluid._cca_names, 0.0)
        self.bytes_by_class = dict.fromkeys(fluid._class_names, 0.0)
        engine_tick = fluid._step_numpy

        def tick(*args):
            before = fluid._remaining.copy()
            applied = engine_tick(*args)
            sent = before - fluid._remaining
            for (names, code), meter in zip(codes, (self.bytes_by_cca, self.bytes_by_class)):
                for name, x in zip(names, np.bincount(code, weights=sent, minlength=len(names))):
                    meter[name] += float(x)
            return applied

        fluid._step_numpy = tick


def test_meters_match_per_tick_sums_at_scale():
    """The 10,000-tenant pinned world, read at the end."""
    fleet = fleet_world(*PINNED_WORLDS["at-scale"])
    sums = TickSums(fleet.fluid)
    fleet.run()
    assert fleet.fluid.completed_count() > 4_000
    assert_meters_match(fleet.fluid, sums)


def test_cases_hold_ticks_on_both_sides_of_the_decay_skip():
    """The tick skips its slow-start and additive passes when every
    (channel, kind) combo decays. ``CASES`` hold ticks of both kinds, so
    the pins below guard the skip and the passes it skips alike."""
    saturated = growing = 0
    for case in CASES.values():
        _, ref = run_shadowed(*case)
        saturated += ref.saturated_ticks
        growing += ref.growing_ticks
    assert saturated > 0 and growing > 0


def test_outage_inside_one_tick_interval_re_steers_its_tenants():
    """``embb`` fails and comes back between two ticks: no tick sees it
    down, yet its tenants were stalled and must all be re-steered."""
    fluid, ref = run_shadowed(
        400, 7, 100_000.0, [(1.503, "embb", "fail"), (1.507, "embb", "restore")]
    )
    assert fluid.stall_events == ref.stall_events > 0
    assert fluid.stalled_count() == 0


def test_planted_tick_defect_is_caught():
    """An engine whose additive-increase term lost its per-CCA ``gain``."""
    with pytest.raises(AssertionError):
        run_shadowed(
            *CASES["contended"], plant=lambda fluid: fluid._kind_gain.fill(1.0)
        )


#: ``CASES`` plus a world whose ODEs ignore the packet foreground (the
#: mode sharded runs use) and one at scale (up to 7,009 tenants active at
#: once, 4,073 completions, an ``embb`` failure and restore while tenants
#: still arrive), as ``fleet_world`` arguments.
PINNED_WORLDS = {
    **CASES,
    "decoupled": (80, 11, 100_000.0, (), False),
    "at-scale": (10_000, 13, 6_000.0, [(1.0, "embb", "fail"), (1.6, "embb", "restore")]),
}

#: (text digest, sha256 of ``json.dumps(run(), sort_keys=True)``,
#: ``background_digest``) per world. The first two were captured when
#: ``digest()`` printed the tenant state as text rows: the text digest is
#: :func:`~tests.oracles.fleet_digest.text_digest` of the final state, and
#: the run hash is taken with it in place of ``background_digest``. The
#: third is ``digest()``'s hash of the state's bytes. ``REL`` lets the
#: tick drift in the last digit; these do not: any change to the
#: arithmetic of the tick, including its operation order, moves them.
#: They assume numpy's ``exp``/``power`` round the same as where they
#: were captured.
PINNED = {
    "short-flows": (
        "61750a1df4df3018a4d4b7e48fad91bbff3ce3d0da5791ad1e64ba2e268c7ac1",
        "872e4dcffd524cc3822492573cbb20d75c80e5251740072f210957eabad4577f",
        "73263a23c20e018db6c0779ea3f3f8c222b24ab0dc17649cbcd713879cb86b22",
    ),
    "contended": (
        "d0aeee8b6d68f1d7ff2d830a069c8f7cba175eb530c1f293ad483cb060aa0ddd",
        "8f3036288516dd0d88ff635d970afeb0a43e0cf140ca18d7dbc6f2e172ef3c31",
        "6a2fe147caf1d2955511c359cd9565a5a2baa89294f22e21a8d0067091997cc7",
    ),
    "fail-restore": (
        "c688b972b1aa45798c18a45bfe496a83f7703d364e055c63bb1d93a107bb13a0",
        "cf415c1bdb317bc03c58b7471cf35aab1f06a0194d7918962b7654962184f154",
        "be2525c324aa6e739fc74f7bd0d28edd962b08ea5b4410e9edda5e82296d982c",
    ),
    "blackout": (
        "41488d60fc598ac681d5161baa6377a33bde913c9a5f39a302585feed59a54e8",
        "0352b5187f7dae9e5d2ebbb019cf9cab7996c90608412ed18b27ee9d874d042e",
        "a6a43770106b883fa6b09b42c8c0115d179e998f6da6b2037665afc2d0b72cde",
    ),
    "decoupled": (
        "297a95d942ccfdf4a3614fb0715b8738cd0b1eea8c09a0c2540f837f26a0f550",
        "6bb5307cabf0356ad9d4081df2903d76075718f5f3998f86c01eee01fca01c42",
        "718450ada27bf9782a67f078854fd9c0f2fdac88bd464853ed0efd3317958d2c",
    ),
    "at-scale": (
        "1a383551ca893c0d76cab6cb0b27f431c2eceac88be903ce3b0b5ee91c40f652",
        "c5a0bfd9d0147ba8cf25a711c49b7e6a0e6e4bae197b64a8897f9ae5071efa4e",
        "f518731a9bb6148e5bf29807d9872f20d75f2c20d85cc62635f235a5db250096",
    ),
}


@pytest.mark.parametrize("case", PINNED)
def test_fleet_run_is_pinned_bit_for_bit(case):
    fleet = fleet_world(*PINNED_WORLDS[case])
    out = fleet.run()
    text = text_digest(fleet.fluid)
    blob = json.dumps(dict(out, background_digest=text), sort_keys=True).encode()
    got = (text, hashlib.sha256(blob).hexdigest(), out["background_digest"])
    assert got == PINNED[case]


def test_ledger_world_is_pinned_bit_for_bit():
    """The world the performance ledger's ``fleet-50k`` workload times at
    seed 0 (``benchmarks/ledger/workloads.py``): its ``background_digest``
    and the sha256 of ``json.dumps(run(), sort_keys=True)``."""
    fleet = FleetSimulation(
        FleetConfig(tenants=50_000, foreground=1, duration=3.0, preset="paper", seed=0)
    )
    out = fleet.run()
    blob = json.dumps(out, sort_keys=True).encode()
    assert (out["background_digest"], hashlib.sha256(blob).hexdigest()) == (
        "4d5d49fd840775c1cb87dfe9db2d627b38c66bd372146b66f49fe9d3d1516796",
        "bd77fbc4e20c69a03e33ad1f4c4a4401c3fc3e7a491e1c22a70933a32d832de7",
    )
