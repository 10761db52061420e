"""The transport conservation laws on the multipath endpoint.

``MultipathConnection.audit_state()`` has the same shape as
``Connection``'s: the flight ledger per loss key (here, per subflow) and
each key's cwnd/pacing/RTO envelope. Both ends of a lossy two-channel
transfer are audited every 50 ms by the invariant monitor itself
(``repro.check.monitor``), under both schedulers: the pair is registered
in ``net.connections``, the list the monitor audits.
"""

import pytest

from repro.check import InvariantMonitor
from repro.core.api import ConnectionPair, HvcNetwork
from repro.errors import InvariantError
from repro.net.channel import ChannelSpec, DirectionSpec
from repro.net.hvc import urllc_spec
from repro.net.loss import BernoulliLoss
from repro.units import kb, mbps, ms

from tests.test_transport_multipath import make_mp_pair

AUDIT_PERIOD = 0.05


def lossy_run(scheduler):
    lossy = DirectionSpec(rate_bps=mbps(60), delay=ms(25), loss=BernoulliLoss(0.02))
    embb = ChannelSpec(name="embb", up=lossy, down=lossy)
    net = HvcNetwork([embb, urllc_spec()], steering="single", seed=3)
    monitor = InvariantMonitor(net, period=AUDIT_PERIOD).arm()
    client, server = make_mp_pair(net, scheduler=scheduler)
    net.connections.append(ConnectionPair(client=client, server=server))
    busy = []  # per audit: were segments outstanding?
    audit = monitor.audit

    def counting_audit():
        audit()
        busy.append(bool(client.audit_state()["segments"]))

    monitor.audit = counting_audit
    client.send_message(kb(2000), message_id=1)
    server.send_message(kb(400), message_id=2)
    net.run(until=10.0)
    monitor.audit = audit
    return monitor, client, server, busy


def law_broken(monitor):
    with pytest.raises(InvariantError) as excinfo:
        monitor.audit()
    return excinfo.value.report["law"]


@pytest.mark.parametrize("scheduler", ["hvc", "minrtt"])
def test_transport_laws_hold_through_lossy_multipath_run(scheduler):
    monitor, client, server, busy = lossy_run(scheduler)
    monitor.final_check()
    assert monitor.violation is None
    # The audits really saw per-subflow loss recovery under way, and it finished.
    assert sum(busy) >= 20
    assert client.stats.retransmissions > 0 and server.stats.retransmissions > 0
    assert client.stats.bytes_acked == kb(2000) and server.stats.bytes_acked == kb(400)
    assert len(client.audit_state()["keys"]) == 2


def test_planted_ledger_drift_is_caught():
    monitor, client, server, _ = lossy_run("hvc")
    client._sb.flight[0] += 1
    assert law_broken(monitor) == "transport-flight"
    client._sb.flight[0] -= 1
    server._rcv_nxt += 1
    assert law_broken(monitor) == "transport-cross"


def test_planted_rto_envelope_escape_is_caught_on_either_subflow():
    monitor, client, _, _ = lossy_run("minrtt")
    for subflow in client.subflows:
        rtt = subflow.rtt
        floor = rtt.min_rto
        rtt.min_rto = rtt.max_rto + 5.0
        assert law_broken(monitor) == "transport-cc-bounds"
        rtt.min_rto = floor
    monitor.audit()
