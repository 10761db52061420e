"""A multipath transfer rides out outages and blackouts.

A 20 MB ``MultipathConnection`` transfer meets a 2 s fault at t = 1 s:
{outage, blackout} x {hvc, minrtt} x {eMBB only, both channels}. A
fault-free run finishes at about 4.8 s; every cell must finish by
t = 10 s, with the invariant monitor's laws (transport and fault balance)
holding throughout. With both channels down the fault is a total
blackout: the RTOs that fire inside it are suppressed, and the first
channel-up sends a recovery probe at once.
"""

import pytest

from repro.check import InvariantMonitor
from repro.core.api import ConnectionPair
from repro.faults import FaultInjector, FaultSchedule

from tests.test_transport_multipath import dual_net, make_mp_pair

TRANSFER_BYTES = 20_000_000
FAULT_START, FAULT_SECONDS = 1.0, 2.0
FAULT_END = FAULT_START + FAULT_SECONDS
DEADLINE = 10.0

CELLS = [
    (kind, scheduler, channels)
    for kind in ("outage", "blackout")
    for scheduler in ("hvc", "minrtt")
    for channels in (("embb",), ("embb", "urllc"))
]


def run_cell(kind, scheduler, channels):
    net = dual_net()
    monitor = InvariantMonitor(net).arm()
    schedule = FaultSchedule()
    for channel in channels:
        getattr(schedule, kind)(channel, start=FAULT_START, duration=FAULT_SECONDS)
    monitor.watch_injector(FaultInjector(net, schedule).arm())
    sender, receiver = make_mp_pair(net, scheduler=scheduler)
    net.connections.append(ConnectionPair(client=sender, server=receiver))
    retransmitted_at = []
    net.client.on_send_hooks.append(
        lambda packet, _channel: packet.is_retransmission
        and retransmitted_at.append(net.now)
    )
    acked_at = []
    sender.send_message(TRANSFER_BYTES, message_id=1, on_acked=lambda _m, t: acked_at.append(t))
    net.run(until=DEADLINE)
    monitor.final_check()
    return sender, acked_at, retransmitted_at


@pytest.mark.parametrize(
    "kind, scheduler, channels", CELLS, ids=["-".join((k, s, "+".join(c))) for k, s, c in CELLS]
)
def test_transfer_completes_through_fault(kind, scheduler, channels):
    sender, acked_at, retransmitted_at = run_cell(kind, scheduler, channels)
    stats = sender.stats
    assert acked_at and acked_at[0] <= DEADLINE, (
        f"stalled at {stats.bytes_acked} of {TRANSFER_BYTES} bytes"
    )
    assert stats.bytes_acked == TRANSFER_BYTES
    if len(channels) == 2:
        # Total blackout: suppressed RTOs, then one probe the moment a
        # channel is back, before any timer could have fired.
        assert stats.blackout_timeouts >= 1
        assert stats.recovery_probes == 1
        assert FAULT_END in retransmitted_at
    else:
        assert stats.blackout_timeouts == 0 and stats.recovery_probes == 0
