"""Hot-path objects must be slotted: no per-instance ``__dict__``.

Every per-packet / per-ACK / per-event object the simulator creates in
bulk is a ``@dataclass(slots=True)`` or declares ``__slots__`` directly.
A stray attribute assignment outside the declared fields would silently
resurrect ``__dict__`` on one of these classes — this test pins them all
down.
"""

import pytest

from repro.net.packet import Packet, PacketType
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.transport.cc.base import AckSample
from repro.net.monitor import ChannelSample
from repro.obs.probes import TransportSample
from repro.transport.connection import MessageReceipt, OutgoingMessage, RttRecord, Segment
from repro.transport.datagram import DatagramMessage

#: Hand-written ``__slots__``.
ALWAYS_SLOTTED = [
    (Event, lambda: Event(0.0, 0, lambda: None)),
    (Simulator, Simulator),
    # Hand-written since the byte fields became read-only properties
    # (PR 7): a slotted dataclass cannot shadow same-name fields.
    (Packet, lambda: Packet(flow_id=0, ptype=PacketType.DATA)),
]

#: ``@dataclass(slots=True)`` record types.
HOT_DATACLASSES = [
    (Segment, lambda: Segment(seq=0, end_seq=1, sent_at=0.0, delivered_at_send=0)),
    (MessageReceipt, lambda: MessageReceipt(1, None, 10, 0.0)),
    (RttRecord, lambda: RttRecord(0.0, 0.01, None, None)),
    (
        AckSample,
        lambda: AckSample(
            now=0.0, rtt=None, newly_acked=0, in_flight=0, delivery_rate=None
        ),
    ),
    (
        OutgoingMessage,
        lambda: OutgoingMessage(start=0, end=10, message_id=1, priority=None),
    ),
    (
        DatagramMessage,
        lambda: DatagramMessage(message_id=1, priority=None, first_packet_at=0.0),
    ),
    (ChannelSample, lambda: ChannelSample(0.0, 0, 0, 0, 0, 0.0, 0.0, 0.01)),
    (
        TransportSample,
        lambda: TransportSample(
            time=0.0, cwnd_bytes=0.0, srtt=None, rto=1.0, inflight_bytes=0
        ),
    ),
]


def _assert_no_dict(instance):
    with pytest.raises(AttributeError):
        instance.__dict__
    with pytest.raises(AttributeError):
        instance.not_a_declared_field = 1


@pytest.mark.parametrize(
    "cls,factory", ALWAYS_SLOTTED, ids=lambda v: getattr(v, "__name__", "")
)
def test_core_objects_are_slotted(cls, factory):
    _assert_no_dict(factory())


@pytest.mark.parametrize(
    "cls,factory", HOT_DATACLASSES, ids=lambda v: getattr(v, "__name__", "")
)
def test_hot_dataclasses_are_slotted(cls, factory):
    _assert_no_dict(factory())


def test_packet_copy_still_works():
    """The hand-written Packet keeps its redundancy-copy semantics."""
    packet = Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=100)
    redundant = packet.copy_for_redundancy(1)
    assert redundant.packet_id == packet.packet_id
    assert redundant.copy_index == 1
    assert redundant.size_bytes == packet.size_bytes
