"""Edge-case tests for the reliable connection."""

import pytest

from repro.net.channel import ChannelSpec, DirectionSpec
from repro.net.loss import BernoulliLoss
from repro.net.packet import PacketType
from repro.transport.connection import Connection
from repro.units import kb, kib, mbps, ms

from tests.conftest import make_pair
from tests.test_transport_connection import make_conn_pair


class TestFatAcks:
    def test_ack_bytes_makes_acks_data_sized(self, sim):
        """ack_bytes>0 models data tacked onto ACKs (§3.2's anti-pattern)."""
        specs = [ChannelSpec.symmetric("c", mbps(20), ms(10))]
        client, server, _ = make_pair(sim, specs)
        fat_acks = []
        client.on_receive_hooks.append(
            lambda p: fat_acks.append(p.payload_bytes)
            if p.ptype == PacketType.ACK
            else None
        )
        sender = Connection(sim, client, 1, ack_bytes=0)
        receiver = Connection(sim, server, 1, ack_bytes=600)
        sender.send_message(kb(30), message_id=1)
        sim.run(until=5.0)
        assert fat_acks and all(size == 600 for size in fat_acks)

    def test_fat_acks_lose_is_control_status(self, sim):
        specs = [ChannelSpec.symmetric("c", mbps(20), ms(10))]
        client, server, _ = make_pair(sim, specs)
        flags = []
        client.on_receive_hooks.append(
            lambda p: flags.append(p.is_control) if p.ptype == PacketType.ACK else None
        )
        Connection(sim, client, 1).send_message(kb(10), message_id=1)
        Connection(sim, server, 1, ack_bytes=600)
        sim.run(until=5.0)
        assert flags and not any(flags)


class TestMessageBoundaries:
    def test_one_byte_messages(self, sim):
        receipts = []
        sender, _, _ = make_conn_pair(sim, on_message=receipts.append)
        for i in range(10):
            sender.send_message(1, message_id=i)
        sim.run(until=5.0)
        assert [r.size for r in receipts] == [1] * 10

    def test_message_exactly_mss_sized(self, sim):
        receipts = []
        sender, _, _ = make_conn_pair(sim, on_message=receipts.append)
        sender.send_message(sender.mss, message_id=1)
        sim.run(until=5.0)
        assert receipts[0].size == sender.mss
        assert sender.stats.segments_sent == 1

    def test_segments_never_straddle_messages(self, sim):
        """Every data packet belongs to exactly one message."""
        specs = [ChannelSpec.symmetric("c", mbps(20), ms(10))]
        client, server, _ = make_pair(sim, specs)
        owners = []
        server.on_receive_hooks.append(
            lambda p: owners.append((p.message_id, p.seq, p.end_seq, p.message_start))
            if p.ptype == PacketType.DATA
            else None
        )
        sender = Connection(sim, client, 1)
        Connection(sim, server, 1)
        sender.send_message(3000, message_id=100)
        sender.send_message(2000, message_id=200)
        sim.run(until=5.0)
        for message_id, seq, end_seq, start in owners:
            if message_id == 100:
                assert start == 0 and end_seq <= 3000
            else:
                assert start == 3000 and seq >= 3000

    def test_interleaved_priorities_preserved_per_message(self, sim):
        receipts = []
        sender, _, _ = make_conn_pair(sim, on_message=receipts.append)
        sender.send_message(kb(5), message_id=1, priority=2)
        sender.send_message(kb(5), message_id=2, priority=0)
        sim.run(until=5.0)
        priorities = {r.message_id: r.priority for r in receipts}
        assert priorities == {1: 2, 2: 0}


class TestLifecycle:
    def test_close_mid_transfer_stops_quietly(self, sim):
        sender, receiver, _ = make_conn_pair(sim)
        sender.send_message(kb(500), message_id=1)
        sim.run(until=0.05)
        sender.close()
        receiver.close()
        sim.run(until=10.0)  # no exceptions, no infinite retransmit loop
        assert sim.pending_events == 0

    def test_reuse_flow_id_after_close(self, sim):
        specs = [ChannelSpec.symmetric("c", mbps(20), ms(10))]
        client, server, _ = make_pair(sim, specs)
        first = Connection(sim, client, 7)
        first.close()
        second = Connection(sim, client, 7)  # no duplicate-registration error
        assert second.flow_id == 7

    def test_late_packets_after_close_ignored(self, sim):
        receipts = []
        specs = [ChannelSpec.symmetric("c", mbps(20), ms(50))]
        client, server, _ = make_pair(sim, specs)
        sender = Connection(sim, client, 1)
        receiver = Connection(sim, server, 1, on_message=receipts.append)
        sender.send_message(kb(10), message_id=1)
        sim.run(until=0.03)  # packets still in flight (one-way delay 50 ms)
        receiver.close()
        sim.run(until=5.0)
        assert receipts == []


class TestRecoveryDetails:
    def test_out_of_order_message_completion_order(self, sim):
        """Even with loss, message completion callbacks fire in order."""
        lossy = ChannelSpec(
            name="lossy",
            up=DirectionSpec(
                rate_bps=mbps(20), delay=ms(10), loss=BernoulliLoss(0.08)
            ),
            down=DirectionSpec(rate_bps=mbps(20), delay=ms(10)),
        )
        receipts = []
        sender, _, _ = make_conn_pair(sim, specs=[lossy], on_message=receipts.append)
        for i in range(8):
            sender.send_message(kb(20), message_id=i)
        sim.run(until=60.0)
        assert [r.message_id for r in receipts] == list(range(8))

    def test_stale_acks_do_not_trigger_recovery(self, sim):
        """Dual channels reorder ACKs; no spurious fast retransmits."""
        specs = [
            ChannelSpec.symmetric("embb", mbps(60), ms(25), queue_bytes=kib(2048)),
            ChannelSpec.symmetric("urllc", mbps(2), ms(2.5), queue_bytes=kib(64)),
        ]
        client, server, _ = make_pair(sim, specs)
        from repro.steering.dchannel import DChannelSteerer

        client.set_steerer(DChannelSteerer())
        server.set_steerer(DChannelSteerer())
        sender = Connection(sim, client, 1, cc="cubic")
        Connection(sim, server, 1, cc="cubic")
        sender.send_message(kb(800), message_id=1)
        sim.run(until=20.0)
        assert sender.stats.bytes_acked == kb(800)
        # Loss-free network: any retransmission would be spurious.
        assert sender.stats.retransmissions == 0

    def test_delivery_timeline_monotone(self, sim):
        sender, _, _ = make_conn_pair(sim)
        sender.send_message(kb(300), message_id=1)
        sim.run(until=10.0)
        timeline = sender.stats.delivered_timeline
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(timeline, timeline[1:]))


class TestDuplicateLastSegment:
    def test_duplicate_of_delivered_message_end_is_ignored(self, sim):
        """A late copy of a message's last segment must neither re-fire
        ``on_message`` nor park its end in ``_message_ends`` (where every
        later data packet would rescan it for the life of the session)."""
        receipts = []
        sender, receiver, channels = make_conn_pair(sim, on_message=receipts.append)
        tails = []
        receiver.device.on_receive_hooks.append(
            lambda p: tails.append(p) if p.ptype == PacketType.DATA and p.message_last else None
        )
        for message_id in range(3):
            sender.send_message(kb(4), message_id=message_id)
        sim.run(until=2.0)
        assert [r.message_id for r in receipts] == [0, 1, 2]
        assert len(tails) == 3
        for tail in tails:
            receiver._on_packet(tail)
        assert [r.message_id for r in receipts] == [0, 1, 2]
        assert receiver._message_ends == {}
