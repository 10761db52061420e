"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.net.channel import Channel, ChannelSpec
from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.sim.kernel import Simulator
from repro.units import mbps, ms


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the runner's result cache at a per-test directory.

    Keeps tests from reading (or polluting) the developer's real
    ``~/.cache/repro`` — stale cached payloads there could mask
    regressions in the experiment code under test.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def quick_result():
    """``quick_result(name)``: experiment ``name`` at its own ``--quick``
    scale on a two-worker runner, run once per session and shared by every
    test that reads its ``values`` or ``shapes``."""
    from repro.experiments import EXPERIMENTS
    from repro.runner import ParallelRunner, resolve_fn

    @lru_cache(maxsize=None)
    def run(name):
        fn = resolve_fn(EXPERIMENTS[name])
        return fn(runner=ParallelRunner(jobs=2), **getattr(fn, "quick", {}))

    return run


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def make_channel(sim, rate_bps=mbps(10), one_way_delay=ms(10), index=0, name="ch", **kwargs):
    """A symmetric fixed-rate channel for plumbing tests."""
    spec = ChannelSpec.symmetric(name, rate_bps, one_way_delay, **kwargs)
    return Channel(sim, spec, index=index)


def make_pair(sim, specs):
    """Two devices connected by channels built from ``specs``."""
    channels = [Channel(sim, spec, index=i) for i, spec in enumerate(specs)]
    client = Device(sim, "client")
    server = Device(sim, "server")
    client.attach(channels, end=0)
    server.attach(channels, end=1)
    return client, server, channels


def data_packet(flow_id=1, payload=1000, **kwargs):
    return Packet(flow_id=flow_id, ptype=PacketType.DATA, payload_bytes=payload, **kwargs)


def ack_packet(flow_id=1, **kwargs):
    return Packet(flow_id=flow_id, ptype=PacketType.ACK, payload_bytes=0, **kwargs)
