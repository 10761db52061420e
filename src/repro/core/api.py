"""The library's front door: :class:`HvcNetwork`.

Quickstart::

    from repro import HvcNetwork, units
    from repro.net.hvc import fixed_embb_spec, urllc_spec

    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
    conn = net.open_connection(cc="cubic")
    conn.client.send_message(units.kb(500), message_id=1)
    net.run(until=10.0)

An ``HvcNetwork`` is two hosts (client, server) joined by a set of
heterogeneous channels, with a steering policy instance installed at each
end. Applications in :mod:`repro.apps` are built on the same handles this
class exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.errors import ScenarioError
from repro.net.channel import Channel, ChannelSpec, END_A, END_B
from repro.net.node import Device
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.steering import make_steerer
from repro.steering.base import Steerer
from repro.transport import next_flow_id
from repro.transport.connection import Connection, MessageReceipt
from repro.transport.datagram import DatagramSocket


@dataclass
class ConnectionPair:
    """Both endpoints of one reliable flow."""

    client: Connection
    server: Connection


@dataclass
class DatagramPair:
    """Both endpoints of one datagram flow."""

    client: DatagramSocket
    server: DatagramSocket


class HvcNetwork:
    """Two hosts joined by heterogeneous virtual channels."""

    def __init__(
        self,
        channel_specs: Sequence[ChannelSpec],
        steering: Union[str, Steerer] = "dchannel",
        server_steering: Union[str, Steerer, None] = None,
        steering_kwargs: Optional[dict] = None,
        seed: int = 0,
        resequence: bool = True,
    ) -> None:
        """``resequence=False`` disables the shim reorder buffer at both
        hosts — the configuration the ``ab-reseq`` ablation uses to show
        why DChannel needs it."""
        if not channel_specs:
            raise ScenarioError("at least one channel spec is required")
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.channels: List[Channel] = [
            Channel(self.sim, spec, index=i, rng=self.streams.stream(f"channel:{i}"))
            for i, spec in enumerate(channel_specs)
        ]
        self.client = Device(self.sim, "client", resequence=resequence)
        self.server = Device(self.sim, "server", resequence=resequence)
        self.client.attach(self.channels, END_A)
        self.server.attach(self.channels, END_B)

        kwargs = steering_kwargs or {}
        self.client.set_steerer(self._resolve(steering, kwargs))
        if server_steering is None:
            server_steering = steering
        self.server.set_steerer(self._resolve(server_steering, kwargs))

        #: Observability context (see :meth:`attach_obs`); ``None`` keeps
        #: every instrumentation site on its no-op fast path.
        self.obs = None
        #: The channel sampler :meth:`attach_obs` starts (a
        #: :class:`~repro.net.monitor.ChannelMonitor` feeding the registry).
        self.obs_monitor = None
        #: Every flow opened through this network, in creation order. The
        #: invariant monitor (:mod:`repro.check`) audits transport state
        #: through these lists; closing a pair does not remove it.
        self.connections: List[ConnectionPair] = []
        self.datagrams: List[DatagramPair] = []

    def attach_obs(self, obs=None):
        """Wire this network into a :class:`repro.obs.Observability` context.

        Registers metric collectors for every link/device and the kernel,
        starts the channel sampler, and — when ``obs.tracing`` — installs
        packet-lifecycle trace adapters on the whole data path. Call
        *before* opening connections so transport probes attach too.
        Returns the context for chaining::

            obs = net.attach_obs(Observability(tracing=True))
        """
        from repro.obs import Observability, wire_network

        if obs is None:
            obs = Observability()
        if self.obs is not None:
            raise ScenarioError("network already has an observability context")
        self.obs = obs
        self.obs_monitor = wire_network(self, obs)
        return obs

    @staticmethod
    def _resolve(policy: Union[str, Steerer], kwargs: dict) -> Steerer:
        if isinstance(policy, str):
            return make_steerer(policy, **kwargs)
        return policy

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------
    def open_connection(
        self,
        cc: str = "cubic",
        flow_id: Optional[int] = None,
        flow_priority: Optional[int] = None,
        handshake: bool = False,
        on_server_message=None,
        on_client_message=None,
        **kwargs,
    ) -> ConnectionPair:
        """Open a reliable flow; client and server endpoints are returned.

        ``on_server_message`` fires for messages the *client* sends (they
        complete at the server), and vice versa.
        """
        fid = flow_id if flow_id is not None else next_flow_id()
        client = Connection(
            self.sim,
            self.client,
            fid,
            cc=cc,
            flow_priority=flow_priority,
            handshake=handshake,
            on_message=on_client_message,
            **kwargs,
        )
        server = Connection(
            self.sim,
            self.server,
            fid,
            cc=cc,
            flow_priority=flow_priority,
            on_message=on_server_message,
            **kwargs,
        )
        pair = ConnectionPair(client=client, server=server)
        self.connections.append(pair)
        return pair

    def open_datagram(
        self,
        flow_id: Optional[int] = None,
        flow_priority: Optional[int] = None,
        on_server_message=None,
        on_client_message=None,
        **kwargs,
    ) -> DatagramPair:
        """Open an unreliable message flow between the two hosts.

        Extra keyword arguments (e.g. ``blackout="buffer"``) are forwarded
        to both :class:`~repro.transport.datagram.DatagramSocket` ends.
        """
        fid = flow_id if flow_id is not None else next_flow_id()
        client = DatagramSocket(
            self.sim, self.client, fid, flow_priority=flow_priority,
            on_message=on_client_message, **kwargs,
        )
        server = DatagramSocket(
            self.sim, self.server, fid, flow_priority=flow_priority,
            on_message=on_server_message, **kwargs,
        )
        pair = DatagramPair(client=client, server=server)
        self.datagrams.append(pair)
        return pair

    # ------------------------------------------------------------------
    # Execution & inspection
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Advance the simulation (delegates to the kernel)."""
        self.sim.run(until=until, max_events=max_events)

    @property
    def now(self) -> float:
        return self.sim.now

    def channel_named(self, name: str) -> Channel:
        for channel in self.channels:
            if channel.name == name:
                return channel
        names = ", ".join(c.name for c in self.channels)
        raise ScenarioError(f"no channel named {name!r}; channels: {names}")

    def total_cost(self) -> float:
        """Total monetary cost accrued across all channels."""
        return sum(
            channel.cost_bytes * channel.spec.cost_per_byte for channel in self.channels
        )
