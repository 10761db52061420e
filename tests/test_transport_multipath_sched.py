"""Unit tests for multipath scheduling decisions (no network needed)."""

import pytest

from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.transport import next_flow_id
from repro.transport.connection import Segment
from repro.transport.multipath import MultipathConnection, SMALL_MESSAGE_BYTES


def make_conn(scheduler="hvc"):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="single")
    conn = MultipathConnection(
        net.sim, net.client, next_flow_id(), scheduler=scheduler
    )
    return net, conn


def segment(size=1460, last=False, retx=False, message_size=10**9):
    seg = Segment(
        seq=0,
        end_seq=size,
        sent_at=0.0,
        delivered_at_send=0,
        message_last=last,
        message_start=0,
        message_size=message_size,
    )
    seg.retransmitted = retx
    return seg


class TestHvcScheduler:
    def test_bulk_goes_to_hb(self):
        net, conn = make_conn()
        chosen = conn._pick_subflow(segment())
        assert chosen.channel_index == 0  # eMBB

    def test_message_tail_goes_to_ll(self):
        net, conn = make_conn()
        chosen = conn._pick_subflow(segment(last=True))
        assert chosen.channel_index == 1  # URLLC

    def test_small_message_goes_to_ll_from_first_segment(self):
        net, conn = make_conn()
        chosen = conn._pick_subflow(segment(message_size=SMALL_MESSAGE_BYTES))
        assert chosen.channel_index == 1

    def test_retransmission_goes_to_ll(self):
        net, conn = make_conn()
        chosen = conn._pick_subflow(segment(retx=True))
        assert chosen.channel_index == 1

    def test_urgent_falls_back_to_hb_when_ll_window_full(self):
        net, conn = make_conn()
        ll = conn.subflows[1]
        conn._sb.flight[1] = int(ll.cc.cwnd_bytes)  # no room
        chosen = conn._pick_subflow(segment(last=True))
        assert chosen.channel_index == 0

    def test_bulk_waits_when_hb_window_full(self):
        net, conn = make_conn()
        hb = conn.subflows[0]
        conn._sb.flight[0] = int(hb.cc.cwnd_bytes)
        assert conn._pick_subflow(segment()) is None

    def test_single_channel_everything_on_it(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        conn = MultipathConnection(net.sim, net.client, next_flow_id())
        assert conn._pick_subflow(segment(last=True)).channel_index == 0
        assert conn._pick_subflow(segment()).channel_index == 0


class TestMinRttScheduler:
    def test_prefers_lowest_srtt_with_room(self):
        net, conn = make_conn(scheduler="minrtt")
        conn.subflows[0].rtt.on_sample(0.050)
        conn.subflows[1].rtt.on_sample(0.005)
        assert conn._pick_subflow(segment()).channel_index == 1

    def test_spills_when_preferred_full(self):
        net, conn = make_conn(scheduler="minrtt")
        conn.subflows[0].rtt.on_sample(0.050)
        conn.subflows[1].rtt.on_sample(0.005)
        conn._sb.flight[1] = int(conn.subflows[1].cc.cwnd_bytes)
        assert conn._pick_subflow(segment()).channel_index == 0

    def test_none_when_all_full(self):
        net, conn = make_conn(scheduler="minrtt")
        for subflow in conn.subflows:
            conn._sb.flight[subflow.channel_index] = int(subflow.cc.cwnd_bytes)
        assert conn._pick_subflow(segment()) is None
