"""Packet byte fields are fixed at construction.

``size_bytes`` (wire size) and ``is_control`` (steering's control test)
are derived from ``payload_bytes``/``header_bytes`` once, at
construction, because they are read several times per hop. Pre-fix,
the byte fields stayed mutable, so an assignment after construction
silently desynced queue byte accounting and the control test. The
fields are now read-only properties — these tests fail on the old code
(where the assignments succeeded and left the cache stale).
"""

from dataclasses import astuple

import pytest

from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.net.loss import BernoulliLoss
from repro.net.packet import Packet, PacketType
from repro.transport.connection import Connection
from repro.transport.datagram import DatagramSocket
from repro.transport.endpoint import MAX_SACK_RANGES
from repro.transport.multipath import MultipathConnection
from repro.transport.scoreboard import Segment
from repro.units import DEFAULT_HEADER_BYTES, kb


class TestPacketConstructionContract:
    def test_payload_bytes_is_read_only(self):
        packet = Packet(flow_id=0, ptype=PacketType.DATA, payload_bytes=1000)
        with pytest.raises(AttributeError):
            packet.payload_bytes = 2000
        assert packet.payload_bytes == 1000
        assert packet.size_bytes == 1000 + DEFAULT_HEADER_BYTES

    def test_header_bytes_is_read_only(self):
        packet = Packet(flow_id=0, ptype=PacketType.DATA, payload_bytes=1000)
        with pytest.raises(AttributeError):
            packet.header_bytes = 0
        assert packet.header_bytes == DEFAULT_HEADER_BYTES

    def test_mutation_cannot_desync_control_test(self):
        """An ACK cannot be turned into a fake data packet after the fact."""
        ack = Packet(flow_id=0, ptype=PacketType.ACK)
        assert ack.is_control is True
        with pytest.raises(AttributeError):
            ack.payload_bytes = 1448
        assert ack.is_control is True
        assert ack.size_bytes == DEFAULT_HEADER_BYTES

    def test_derived_fields_consistent_for_all_types(self):
        for ptype in PacketType:
            empty = Packet(flow_id=0, ptype=ptype)
            assert empty.size_bytes == empty.payload_bytes + empty.header_bytes
            assert empty.is_control == (ptype.is_control and empty.payload_bytes == 0)
            loaded = Packet(flow_id=0, ptype=ptype, payload_bytes=512)
            assert loaded.size_bytes == 512 + DEFAULT_HEADER_BYTES
            assert loaded.is_control is False

    def test_no_instance_dict_backdoor(self):
        """Slots: mutation cannot sneak in via a shadowing __dict__ entry."""
        packet = Packet(flow_id=0, ptype=PacketType.DATA)
        with pytest.raises(AttributeError):
            packet.__dict__

    def test_copy_for_redundancy_preserves_bytes(self):
        original = Packet(
            flow_id=3, ptype=PacketType.DATA, payload_bytes=700, header_bytes=40
        )
        clone = original.copy_for_redundancy(2)
        assert clone.payload_bytes == 700
        assert clone.header_bytes == 40
        assert clone.size_bytes == original.size_bytes
        assert clone.is_control is False
        with pytest.raises(AttributeError):
            clone.payload_bytes = 1

    def test_copy_for_redundancy_field_by_field(self):
        """A clone carries every field the transport and the sending shim
        wrote — ``Device.send`` stamps the shim fields *before* it clones,
        and the receiving resequencer must see a copy as the same shim
        packet — and nothing of the original's delivery bookkeeping. Walks
        ``__slots__``, so a field added later has to pick a side."""
        own = {"sent_at", "delivered_at", "channel_index", "copy_index"}
        original = Packet(
            7, PacketType.ACK, 11, 22, seq=3, end_seq=14, ack_seq=5, sack=((20, 30), (40, 50)),
            is_retransmission=True, segment=object(), message_id=8, message_priority=2,
            message_last=True, message_start=3, flow_priority=1, channel_hint=1,
            shim_seq=99, shim_channel_count=2, created_at=0.25, sent_at=0.5,
            delivered_at=0.75, channel_index=1, copy_index=1,
        )
        defaults = Packet(0, PacketType.SYN)
        clone = original.copy_for_redundancy(2)
        for slot in Packet.__slots__:
            # The original differs from a default packet in every field, so
            # "copied" cannot pass by both sides holding the default.
            assert getattr(original, slot) != getattr(defaults, slot), slot
            if slot in own:
                expected = 2 if slot == "copy_index" else getattr(defaults, slot)
            else:
                expected = getattr(original, slot)
            assert getattr(clone, slot) == expected, slot


# ----------------------------------------------------------------------
# The transport's per-packet records are built positionally; each must
# carry what the keyword construction it replaced carried. (The datagram
# socket's are at the end of the file.)
# ----------------------------------------------------------------------
class KeywordRecords:
    """The keyword bodies of ``_carve_segment``, ``_data_packet`` and the
    ACK built in ``_on_data``."""

    def _carve_segment(self, message, size, key):
        seq = self._snd_nxt
        end_seq = self._snd_nxt = seq + size
        segment = Segment(
            seq, end_seq, self.sim.now, self._total_delivered,
            message_id=message.message_id, message_priority=message.priority,
            message_last=end_seq == message.end, message_start=message.start,
            message_size=message.end - message.start,
        )
        self._sb.append(segment, key)
        return segment

    def _data_packet(self, segment, retransmission, channel_hint=None):
        return Packet(
            self.flow_id, PacketType.DATA, segment.end_seq - segment.seq,
            seq=segment.seq, end_seq=segment.end_seq,
            is_retransmission=retransmission, segment=segment,
            message_id=segment.message_id, message_priority=segment.message_priority,
            message_last=segment.message_last, message_start=segment.message_start,
            flow_priority=self.flow_priority, channel_hint=channel_hint,
            created_at=self.sim.now,
        )

    def _on_data(self, packet):
        self._established = True
        self.stats.bytes_received += packet.payload_bytes
        self._receive(packet)
        ranges = self._ooo_ranges if self.sack_enabled else ()
        self.device.send(
            Packet(
                self.flow_id, PacketType.ACK, self.ack_bytes,
                ack_seq=self._rcv_nxt, sack=tuple(ranges[-MAX_SACK_RANGES:]) if ranges else (),
                seq=packet.seq, message_id=packet.message_id,
                message_priority=packet.message_priority,
                flow_priority=self.flow_priority, channel_hint=self._ack_channel(packet),
                created_at=self.sim.now,
            )
        )


class KeywordConnection(KeywordRecords, Connection):
    pass


class KeywordMultipath(KeywordRecords, MultipathConnection):
    pass


def sent_records(cls, extra):
    """Every packet both devices send while ``cls`` moves three tagged
    messages over a lossy two-channel network: each slot but ``packet_id``,
    and the segment's fields as they were at send time."""
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel", seed=4)
    net.channels[0].uplink.loss = BernoulliLoss(0.02)  # retransmissions, SACK ranges
    record = []
    for device in (net.client, net.server):
        def send(packet, device_send=device.send):
            segment = packet.segment
            record.append((
                tuple(getattr(packet, name) for name in SLOTS),
                None if segment is None else astuple(segment),
            ))
            return device_send(packet)
        device.send = send
    sender = cls(net.sim, net.client, 1, flow_priority=1, **extra)
    cls(net.sim, net.server, 1, flow_priority=1, **extra)
    for message_id, priority in ((1, 0), (2, 2), (3, None)):
        sender.send_message(kb(150), message_id=message_id, priority=priority)
    net.run(until=1.0)
    return record


SLOTS = [name for name in Packet.__slots__ if name not in ("packet_id", "segment")]


@pytest.mark.parametrize(
    "cls, twin, extra",
    [(Connection, KeywordConnection, {"ack_bytes": 12}),
     (MultipathConnection, KeywordMultipath, {})],
    ids=["connection", "multipath"],
)
def test_positional_records_equal_the_keyword_ones(cls, twin, extra):
    shipped = sent_records(cls, extra)
    assert len(shipped) > 500
    assert any(slots[SLOTS.index("is_retransmission")] for slots, _ in shipped)
    assert any(slots[SLOTS.index("sack")] for slots, _ in shipped)
    assert sent_records(twin, extra) == shipped


class KeywordDatagram(DatagramSocket):
    """``DatagramSocket.send_message``'s keyword construction of each packet
    (no blackout path: the network below never loses a channel)."""

    def send_message(self, size_bytes, message_id, priority=None):
        offset = 0
        while offset < size_bytes:
            left = size_bytes - offset
            payload = left if left < self.mtu_payload else self.mtu_payload
            self.device.send(
                Packet(
                    self.flow_id, PacketType.DATAGRAM, payload,
                    seq=offset, end_seq=offset + payload,
                    message_id=message_id, message_priority=priority,
                    message_last=payload == left, message_start=0,
                    flow_priority=self.flow_priority, created_at=self.sim.now,
                )
            )
            self.stats.packets_sent += 1
            self.stats.bytes_sent += payload
            offset += payload
        self.stats.messages_sent += 1


def datagram_records(cls):
    """Every slot but ``packet_id`` of each packet a ``cls`` sender offers,
    plus what the receiving socket reassembled, over a Fig. 2-style
    priority-steered channel pair."""
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="priority", seed=4)
    record = []

    def send(packet, device_send=net.client.send):
        record.append(tuple(getattr(packet, name) for name in SLOTS))
        return device_send(packet)

    net.client.send = send
    sender = cls(net.sim, net.client, 9, flow_priority=2)
    received = []
    DatagramSocket(net.sim, net.server, 9, on_message=received.append)
    for message_id, (size, priority) in enumerate(
        ((4_000, 0), (1_460, 2), (20_001, None), (1, 1)), start=1
    ):
        net.sim.schedule(0.01 * message_id, sender.send_message, size, message_id, priority)
    net.run(until=1.0)
    return record, [(m.message_id, m.priority, m.bytes_received) for m in received]


def test_positional_datagrams_equal_the_keyword_ones():
    shipped, received = datagram_records(DatagramSocket)
    assert len(shipped) == 3 + 1 + 14 + 1
    assert sum(slots[SLOTS.index("message_last")] for slots in shipped) == 4
    assert len(received) == 4
    assert datagram_records(KeywordDatagram) == (shipped, received)
