"""Safety net: every registered CCA moves a reliable transfer end-to-end."""

import pytest

from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.transport.cc import list_ccs
from repro.units import kb, mbps


@pytest.mark.parametrize("cc", list_ccs())
def test_cc_completes_transfer_single_channel(cc):
    net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
    done = []
    pair = net.open_connection(cc=cc, on_server_message=done.append)
    pair.client.send_message(kb(150), message_id=1)
    net.run(until=60.0)
    assert len(done) == 1, f"cc {cc} failed to complete"


@pytest.mark.parametrize("cc", ["cubic", "bbr", "vegas", "vivace"])
def test_cc_completes_under_dchannel_steering(cc):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
    done = []
    pair = net.open_connection(cc=cc, on_server_message=done.append)
    pair.client.send_message(kb(150), message_id=1)
    net.run(until=60.0)
    assert len(done) == 1, f"cc {cc} failed under steering"
