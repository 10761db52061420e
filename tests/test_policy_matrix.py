"""Safety net: every registered policy × transport actually moves bytes.

Catches registry entries that crash on real traffic (rather than only on
the synthetic views the unit tests use).
"""

import pytest

from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.steering import list_steerers
from repro.transport import next_flow_id
from repro.transport.multipath import MultipathConnection
from repro.units import kb


@pytest.mark.parametrize("policy", [p for p in list_steerers()])
def test_policy_delivers_reliable_message(policy):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=policy)
    done = []
    pair = net.open_connection(on_server_message=done.append)
    pair.client.send_message(kb(80), message_id=1)
    net.run(until=30.0)
    assert len(done) == 1, f"policy {policy} failed to deliver"
    assert done[0].size == kb(80)


@pytest.mark.parametrize("policy", [p for p in list_steerers()])
def test_policy_delivers_datagrams(policy):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=policy)
    done = []
    pair = net.open_datagram(on_server_message=done.append)
    for i in range(5):
        pair.client.send_message(kb(3), message_id=i, priority=i % 3)
    net.run(until=10.0)
    assert len(done) == 5, f"policy {policy} lost datagrams"


@pytest.mark.parametrize("scheduler", ["hvc", "minrtt"])
@pytest.mark.parametrize("cc", ["cubic", "bbr", "vegas", "vivace", "reno"])
def test_multipath_cc_matrix(scheduler, cc):
    """Every CCA runs under both multipath schedulers."""
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="single")
    done = []
    flow_id = next_flow_id()
    sender = MultipathConnection(
        net.sim, net.client, flow_id, cc=cc, scheduler=scheduler
    )
    MultipathConnection(
        net.sim, net.server, flow_id, cc=cc, scheduler=scheduler,
        on_message=done.append,
    )
    sender.send_message(kb(120), message_id=1)
    net.run(until=30.0)
    assert len(done) == 1, f"{cc}/{scheduler} failed to deliver"
