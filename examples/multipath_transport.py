#!/usr/bin/env python
"""The §4 design, running: multipath transport with per-channel subflows.

One backlogged bulk connection and one small-RPC connection share
eMBB + URLLC. Compares MPTCP's minRTT scheduler against the paper's
HVC-aware scheduler (bulk pinned to the fat channel, message tails / small
messages / loss repair on URLLC, ACKs returning on URLLC while it has
headroom).

Run:  python examples/multipath_transport.py
"""

from repro.experiments.ablations import mp_unit
from repro.units import to_ms
from repro.core.metrics import Cdf

DURATION = 30.0


def main() -> None:
    print(f"{DURATION:.0f} s of bulk + 2 kB RPCs over eMBB (60 Mbps/50 ms) "
          "+ URLLC (2 Mbps/5 ms), one multipath connection each\n")
    for scheduler in ("minrtt", "hvc"):
        cell = mp_unit(scheduler, duration=DURATION)
        cdf = Cdf(cell["latencies"])
        print(f"{scheduler:8s} bulk {cell['goodput_mbps']:5.1f} Mbps | "
              f"rpc p50 {to_ms(cdf.median):6.1f} ms | "
              f"rpc p95 {to_ms(cdf.percentile(95)):6.1f} ms")
    print("\nper-channel subflows keep every congestion controller's RTT "
          "unimodal; the hvc scheduler additionally reserves URLLC for the "
          "bytes an application is actually waiting on.")


if __name__ == "__main__":
    main()
