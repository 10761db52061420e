"""HTTP/1.1-style page loading: several parallel connections, one request
in flight per connection.

The paper's experiments use HTTP/2 over a single connection (see
:mod:`repro.apps.web.browser`); this loader models the older delivery mode
browsers still fall back to — up to ``max_connections`` persistent
connections per origin, each serving one object at a time. Comparing the
two over HVCs shows how transport structure changes what steering can do:
H1's many small flows give flow-level policies more room, while H2's single
multiplexed flow leans on per-packet steering.

Note: each H1 connection pays a transport handshake but (charitably) no
TLS round trip or DNS lookup; H2 still wins the benchmark comparison even
with that head start.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.apps.web.browser import (
    PROCESSING_DELAY,
    PageLoadResult,
    REQUEST_BYTES,
    RESPONSE_ID_OFFSET,
    WebServer,
)
from repro.apps.web.page import WebPage
from repro.core.api import HvcNetwork
from repro.transport import next_flow_id
from repro.transport.connection import Connection, MessageReceipt

DEFAULT_MAX_CONNECTIONS = 6


class _H1Connection:
    """One persistent connection serving one object at a time."""

    def __init__(self, loader: "H1Loader", net: HvcNetwork, cc: str) -> None:
        self.loader = loader
        flow_id = next_flow_id()
        self.client = Connection(
            net.sim, net.client, flow_id, cc=cc, flow_priority=0,
            handshake=True, on_message=self._on_response,
        )
        server_conn = Connection(net.sim, net.server, flow_id, cc=cc, flow_priority=0)
        WebServer(server_conn, loader.page)
        self.server = server_conn
        self.busy = False

    def fetch(self, object_id: int) -> None:
        self.busy = True
        self.client.send_message(REQUEST_BYTES, message_id=object_id, priority=0)

    def _on_response(self, receipt: MessageReceipt) -> None:
        object_id = receipt.message_id - RESPONSE_ID_OFFSET
        self.busy = False
        self.loader._object_done(object_id, receipt.completed_at)

    def close(self) -> None:
        self.client.close()
        self.server.close()


class H1Loader:
    """Dependency-driven page loading over parallel H1 connections."""

    def __init__(
        self,
        net: HvcNetwork,
        page: WebPage,
        cc: str = "cubic",
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
    ) -> None:
        page.validate()
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.net = net
        self.page = page
        self.result = PageLoadResult(page=page, started_at=net.now)
        self._connections: List[_H1Connection] = [
            _H1Connection(self, net, cc) for _ in range(max_connections)
        ]
        self._ready: Deque[int] = deque()
        self._requested: set = set()
        self._processed: set = set()
        self._completed: set = set()
        self._enqueue_ready()
        self._dispatch()

    # ------------------------------------------------------------------
    def _enqueue_ready(self) -> None:
        for obj in self.page.objects:
            if obj.object_id in self._requested or obj.object_id in self._ready:
                continue
            if all(dep in self._processed for dep in obj.depends_on):
                self._ready.append(obj.object_id)

    def _dispatch(self) -> None:
        for connection in self._connections:
            if not self._ready:
                return
            if not connection.busy:
                object_id = self._ready.popleft()
                self._requested.add(object_id)
                connection.fetch(object_id)

    def _object_done(self, object_id: int, at: float) -> None:
        if object_id in self._completed:
            return
        self._completed.add(object_id)
        self.result.object_finish_times[object_id] = at
        if len(self._completed) == self.page.object_count:
            self.result.finished_at = at
            return
        self.net.sim.schedule(PROCESSING_DELAY, self._mark_processed, object_id)
        self._dispatch()

    def _mark_processed(self, object_id: int) -> None:
        self._processed.add(object_id)
        self._enqueue_ready()
        self._dispatch()

    def close(self) -> None:
        for connection in self._connections:
            connection.close()


def load_page_h1(
    net: HvcNetwork,
    page: WebPage,
    cc: str = "cubic",
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
    timeout: float = 60.0,
) -> PageLoadResult:
    """Load ``page`` over parallel H1 connections (runs the sim)."""
    loader = H1Loader(net, page, cc=cc, max_connections=max_connections)
    deadline = net.now + timeout
    while not loader.result.complete and net.now < deadline and net.sim.pending_events:
        net.run(until=min(net.now + 0.5, deadline))
    loader.close()
    return loader.result
