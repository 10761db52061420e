"""Packet byte fields are fixed at construction.

``size_bytes`` (wire size) and ``is_control`` (steering's control test)
are derived from ``payload_bytes``/``header_bytes`` once, at
construction, because they are read several times per hop. Pre-fix,
the byte fields stayed mutable, so an assignment after construction
silently desynced queue byte accounting and the control test. The
fields are now read-only properties — these tests fail on the old code
(where the assignments succeeded and left the cache stale).
"""

import pytest

from repro.net.packet import Packet, PacketType
from repro.units import DEFAULT_HEADER_BYTES


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
