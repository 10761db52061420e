"""Tests for HvcNetwork pair handles and misc API surface."""

from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.units import kb


def net():
    return HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")


class TestPairs:
    def test_on_client_message_direction(self):
        network = net()
        got = []
        pair = network.open_connection(on_client_message=got.append)
        pair.server.send_message(kb(10), message_id=42)
        network.run(until=5.0)
        assert [r.message_id for r in got] == [42]

    def test_datagram_both_directions(self):
        network = net()
        to_server, to_client = [], []
        pair = network.open_datagram(
            on_server_message=to_server.append, on_client_message=to_client.append
        )
        pair.client.send_message(kb(1), message_id=1)
        pair.server.send_message(kb(1), message_id=2)
        network.run(until=2.0)
        assert [m.message_id for m in to_server] == [1]
        assert [m.message_id for m in to_client] == [2]

    def test_resequence_flag_disables_buffers(self):
        plain = HvcNetwork(
            [fixed_embb_spec()], steering="single", resequence=False
        )
        assert plain.client.resequencer is None
        assert plain.server.resequencer is None
        buffered = net()
        assert buffered.client.resequencer is not None
