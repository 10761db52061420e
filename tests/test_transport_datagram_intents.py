"""Tests for the datagram socket and the flow/message priority hints."""

import pytest

from repro.errors import TransportError
from repro.net.channel import ChannelSpec, DirectionSpec
from repro.net.loss import BernoulliLoss
from repro.steering.requirements import FLOW_PRIORITIES, requirement_class
from repro.transport import next_flow_id
from repro.transport.connection import Connection
from repro.transport.datagram import DatagramSocket
from repro.units import mbps, ms

from tests.conftest import make_pair


def make_dgram_pair(sim, specs=None, on_message=None, **kwargs):
    if specs is None:
        specs = [ChannelSpec.symmetric("c", mbps(20), ms(10))]
    client, server, channels = make_pair(sim, specs)
    tx = DatagramSocket(sim, client, 1, **kwargs)
    rx = DatagramSocket(sim, server, 1, on_message=on_message)
    return tx, rx, channels


class TestDatagramSocket:
    def test_message_reassembled(self, sim):
        done = []
        tx, rx, _ = make_dgram_pair(sim, on_message=done.append)
        packets = tx.send_message(10_000, message_id=5, priority=0)
        sim.run(until=2.0)
        assert packets == 7  # ceil(10000 / 1460)
        assert len(done) == 1
        assert done[0].message_id == 5
        assert done[0].priority == 0
        assert done[0].bytes_received == 10_000
        assert done[0].complete

    def test_single_packet_message(self, sim):
        done = []
        tx, _, _ = make_dgram_pair(sim, on_message=done.append)
        assert tx.send_message(500, message_id=1) == 1
        sim.run(until=1.0)
        assert done[0].total_bytes == 500

    def test_latency_measured_from_send(self, sim):
        done = []
        tx, _, _ = make_dgram_pair(sim, on_message=done.append)
        sim.schedule(1.0, lambda: tx.send_message(1_000, message_id=1))
        sim.run(until=3.0)
        msg = done[0]
        assert msg.sent_at == pytest.approx(1.0)
        assert msg.completed_at - msg.sent_at == pytest.approx(ms(10) + 1040 * 8 / mbps(20))

    def test_lost_packet_means_incomplete(self, sim):
        lossy = ChannelSpec(
            name="lossy",
            up=DirectionSpec(rate_bps=mbps(20), delay=ms(10), loss=BernoulliLoss(0.5)),
            down=DirectionSpec(rate_bps=mbps(20), delay=ms(10)),
        )
        done = []
        tx, rx, _ = make_dgram_pair(sim, specs=[lossy], on_message=done.append)
        for i in range(20):
            tx.send_message(15_000, message_id=i)
        sim.run(until=5.0)
        assert len(done) < 20  # with 50% loss some message loses a packet
        assert rx.stats.messages_completed == len(done)

    def test_no_duplicate_completion(self, sim):
        done = []
        tx, _, _ = make_dgram_pair(sim, on_message=done.append)
        tx.send_message(1_000, message_id=1)
        tx.send_message(1_000, message_id=2)
        sim.run(until=2.0)
        assert sorted(m.message_id for m in done) == [1, 2]

    def test_discard_before_drops_stale_state(self, sim):
        tx, rx, _ = make_dgram_pair(sim)
        tx.send_message(1_000, message_id=1)
        tx.send_message(1_000, message_id=5)
        sim.run(until=2.0)
        rx.discard_before(5)
        assert list(rx.pending_messages()) == [5]

    def test_rejects_bad_sizes(self, sim):
        tx, _, _ = make_dgram_pair(sim)
        with pytest.raises(TransportError):
            tx.send_message(0, message_id=1)
        with pytest.raises(TransportError):
            DatagramSocket(sim, tx.device, 9, mtu_payload=0)

    def test_send_after_close_raises(self, sim):
        tx, _, _ = make_dgram_pair(sim)
        tx.close()
        with pytest.raises(TransportError):
            tx.send_message(100, message_id=1)


class TestIntents:
    """The §3.3 hints travel as ``flow_priority=`` and message priority."""

    def test_category_priorities(self):
        assert FLOW_PRIORITIES == {
            "interactive": 0, "realtime": 0, "bulk": 1, "background": 2,
        }
        assert requirement_class("background").flow_priority == 2
        assert requirement_class("latency").flow_priority == 0

    def test_open_connection_applies_tags(self, sim):
        client, server, _ = make_pair(
            sim, [ChannelSpec.symmetric("c", mbps(20), ms(10))]
        )
        conn = Connection(sim, client, 4, flow_priority=FLOW_PRIORITIES["background"])
        assert conn.flow_priority == 2
        assert conn.flow_id == 4
        # Packets inherit the tag.
        Connection(sim, server, 4)
        seen = []
        server.on_receive_hooks.append(lambda p: seen.append(p.flow_priority))
        conn.send_message(1_000)
        sim.run(until=2.0)
        assert 2 in seen

    def test_open_datagram_applies_tags(self, sim):
        client, server, _ = make_pair(
            sim, [ChannelSpec.symmetric("c", mbps(20), ms(10))]
        )
        sock = DatagramSocket(sim, client, 8, flow_priority=0, blackout="drop")
        assert sock.flow_priority == 0
        seen = []
        server.on_receive_hooks.append(lambda p: seen.append((p.flow_priority, p.message_priority)))
        sock.send_message(1_000, message_id=1, priority=1)
        sim.run(until=1.0)
        assert seen == [(0, 1)]

    def test_auto_flow_ids_unique(self, sim):
        client, _, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(20), ms(10))])
        a = DatagramSocket(sim, client, next_flow_id())
        b = DatagramSocket(sim, client, next_flow_id())
        assert a.flow_id != b.flow_id
