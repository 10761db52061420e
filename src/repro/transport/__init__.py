"""Transport substrate: reliable connections, datagrams, congestion control.

Two transports are provided:

* :class:`~repro.transport.connection.Connection` — a reliable, full-duplex,
  message-aware byte stream (TCP-like segmentation/ACKs/RTO, QUIC-like
  message boundaries and priorities) with pluggable congestion control.
* :class:`~repro.transport.datagram.DatagramSocket` — unreliable datagrams
  for real-time media, with per-message cross-layer tags.

Congestion controllers live in :mod:`repro.transport.cc` and are selected by
name through :func:`repro.transport.cc.make_cc`.
"""

import itertools

from repro.transport.connection import Connection
from repro.transport.datagram import DatagramSocket
from repro.transport.multipath import MultipathConnection
from repro.transport.rtx import RttEstimator

_flow_ids = itertools.count(1)


def next_flow_id() -> int:
    """Allocate a process-unique flow identifier."""
    return next(_flow_ids)


__all__ = [
    "Connection",
    "DatagramSocket",
    "MultipathConnection",
    "RttEstimator",
    "next_flow_id",
]
