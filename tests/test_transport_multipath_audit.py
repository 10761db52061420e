"""The transport conservation laws on the multipath endpoint.

``MultipathConnection.audit_state()`` is built from the same
``Scoreboard.audit()`` as ``Connection``'s, with the flight ledger per
subflow. Both ends of a lossy two-channel transfer are audited every 50 ms
against the invariant catalogue's transport laws (``repro.check.monitor``),
under both schedulers.
"""

import pytest

from repro.core.api import HvcNetwork
from repro.net.channel import ChannelSpec, DirectionSpec
from repro.net.hvc import urllc_spec
from repro.net.loss import BernoulliLoss
from repro.units import kb, mbps, ms

from tests.test_transport_multipath import make_mp_pair

AUDIT_PERIOD = 0.05


def violated_laws(sender, receiver):
    """Names of the catalogue's transport laws this sender/receiver pair breaks."""
    s, r = sender.audit_state(), receiver.audit_state()
    snd_una, snd_nxt = s["snd_una"], s["snd_nxt"]
    flight, segments, ranges = s["flight_bytes"], s["segments"], r["ooo_ranges"]
    blocks = s["sack_blocks"]
    laws = {
        "transport-sequence": 0 <= snd_una <= snd_nxt <= s["write_end"],
        # Per subflow: the ledger equals flight recomputed from the segment
        # list (so it can never go negative) and is what the subflow reports.
        "transport-flight": flight == s["segment_flight"]
        and flight == [subflow.in_flight for subflow in sender.subflows]
        and sum(flight) <= snd_nxt - snd_una,
        "transport-segments": all(snd_una < hi <= snd_nxt and lo < hi for lo, hi in segments)
        and all(segments[i][1] <= segments[i + 1][0] for i in range(len(segments) - 1))
        and all(snd_una < hi <= snd_nxt and lo < hi for lo, hi in blocks)
        and all(blocks[i][1] <= blocks[i + 1][0] for i in range(len(blocks) - 1))
        and not any(lo <= seq and end <= hi for seq, end in s["unsacked"] for lo, hi in blocks),
        "transport-receive": all(r["rcv_nxt"] < lo < hi for lo, hi in ranges)
        and all(ranges[i][1] < ranges[i + 1][0] for i in range(len(ranges) - 1)),
        "transport-cross": snd_una <= r["rcv_nxt"] <= snd_nxt,
    }
    return [law for law, holds in laws.items() if not holds]


def lossy_run(scheduler):
    lossy = DirectionSpec(rate_bps=mbps(60), delay=ms(25), loss=BernoulliLoss(0.02))
    embb = ChannelSpec(name="embb", up=lossy, down=lossy)
    net = HvcNetwork([embb, urllc_spec()], steering="single", seed=3)
    client, server = make_mp_pair(net, scheduler=scheduler)
    audits = []  # (violated laws, segments outstanding) per audit

    def audit():
        broken = violated_laws(client, server) + violated_laws(server, client)
        audits.append((broken, len(client.audit_state()["segments"])))
        net.sim.schedule(AUDIT_PERIOD, audit)

    net.sim.schedule(AUDIT_PERIOD, audit)
    client.send_message(kb(2000), message_id=1)
    server.send_message(kb(400), message_id=2)
    net.run(until=10.0)
    return client, server, audits


@pytest.mark.parametrize("scheduler", ["hvc", "minrtt"])
def test_transport_laws_hold_through_lossy_multipath_run(scheduler):
    client, server, audits = lossy_run(scheduler)
    assert [broken for broken, _ in audits if broken] == []
    # The audits really saw per-subflow loss recovery under way, and it finished.
    assert sum(1 for _, outstanding in audits if outstanding) >= 20
    assert client.retransmissions > 0 and server.retransmissions > 0
    assert client.bytes_acked == kb(2000) and server.bytes_acked == kb(400)
    assert violated_laws(client, server) == []


def test_planted_ledger_drift_is_caught():
    client, server, _ = lossy_run("hvc")
    client._sb.flight[0] += 1
    assert violated_laws(client, server) == ["transport-flight"]
    client._sb.flight[0] -= 1
    server._rcv_nxt += 1
    assert "transport-cross" in violated_laws(client, server)
