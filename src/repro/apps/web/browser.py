"""HTTP/2-style page loader and server.

One multiplexed reliable connection per page load (HTTP/2 over TCP, like
the paper's Chromium + Mahimahi-replay setup): the browser requests the
root document, discovers subresources as their dependencies complete, and
fires ``onLoad`` — the PLT instant — when the last object finishes.

Requests and responses are transport *messages* sharing the object id, so
the whole exchange is visible to cross-layer steering; the flow carries
``flow_priority`` 0 (interactive) by default, which is what Table 1's
flow-priority policy distinguishes from the background flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.web.page import WebPage
from repro.core.api import HvcNetwork
from repro.transport.connection import Connection, MessageReceipt
from repro.transport import next_flow_id

#: An HTTP/2 HEADERS frame plus cookies — what a GET costs on the wire.
REQUEST_BYTES = 420
#: Response messages get ids offset so they never collide with requests.
RESPONSE_ID_OFFSET = 100_000
#: TLS setup exchange, modelled as one round trip (TLS 1.3): ClientHello
#: up, ServerHello + certificate chain down.
TLS_REQUEST_ID = 90_000
TLS_CLIENT_HELLO_BYTES = 350
TLS_SERVER_REPLY_BYTES = 4200
#: DNS query/response sizes (datagram exchange before the connection).
DNS_QUERY_BYTES = 60
DNS_REPLY_BYTES = 140
#: Resolver processing time.
DNS_SERVER_DELAY = 0.020
#: Server-side time to produce a response (app logic, disk, upstream).
THINK_TIME = 0.030
#: Browser-side parse/execute time before an object's dependents are
#: discovered and requested (Chromium's main-thread work).
PROCESSING_DELAY = 0.020


@dataclass
class PageLoadResult:
    """Outcome of one page load."""

    page: WebPage
    started_at: float
    finished_at: Optional[float] = None
    object_finish_times: Dict[int, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.finished_at is not None

    @property
    def plt(self) -> float:
        """Page load time (onLoad) in seconds."""
        if self.finished_at is None:
            raise RuntimeError(f"page {self.page.name!r} did not finish loading")
        return self.finished_at - self.started_at


class WebServer:
    """Serves one page's objects over one connection."""

    def __init__(self, connection: Connection, page: WebPage) -> None:
        self.connection = connection
        self.page = page
        connection.on_message = self._on_request

    def _on_request(self, receipt: MessageReceipt) -> None:
        object_id = receipt.message_id
        if object_id == TLS_REQUEST_ID:
            # TLS handshake reply carries no server think time.
            self.connection.send_message(
                TLS_SERVER_REPLY_BYTES,
                message_id=RESPONSE_ID_OFFSET + TLS_REQUEST_ID,
                priority=receipt.priority,
            )
            return
        self.connection.sim.schedule(THINK_TIME, self._respond, object_id, receipt.priority)

    def _respond(self, object_id: int, priority) -> None:
        self.connection.send_message(
            self.page.size_of(object_id),
            message_id=RESPONSE_ID_OFFSET + object_id,
            priority=priority,
        )


class Browser:
    """Loads one page over one connection, honoring the dependency DAG."""

    def __init__(self, connection: Connection, page: WebPage) -> None:
        page.validate()
        self.connection = connection
        self.page = page
        self.result = PageLoadResult(page=page, started_at=connection.sim.now)
        self._requested: set = set()
        self._completed: set = set()
        self._processed: set = set()
        connection.on_message = self._on_response
        # ClientHello; the root request goes out once the ServerHello +
        # certificates land (one extra round trip, TLS 1.3).
        self.connection.send_message(
            TLS_CLIENT_HELLO_BYTES, message_id=TLS_REQUEST_ID, priority=0
        )

    def _request(self, object_id: int) -> None:
        self._requested.add(object_id)
        self.connection.send_message(REQUEST_BYTES, message_id=object_id, priority=0)

    def _on_response(self, receipt: MessageReceipt) -> None:
        object_id = receipt.message_id - RESPONSE_ID_OFFSET
        if object_id == TLS_REQUEST_ID:
            self._request(0)
            return
        if object_id < 0 or object_id in self._completed:
            return
        self._completed.add(object_id)
        self.result.object_finish_times[object_id] = receipt.completed_at
        if len(self._completed) == self.page.object_count:
            self.result.finished_at = receipt.completed_at
            return
        # Dependents are discovered only after the browser parses/executes
        # the object (main-thread work).
        self.connection.sim.schedule(PROCESSING_DELAY, self._mark_processed, object_id)

    def _mark_processed(self, object_id: int) -> None:
        self._processed.add(object_id)
        for obj in self.page.objects:
            if obj.object_id in self._requested:
                continue
            if all(dep in self._processed for dep in obj.depends_on):
                self._request(obj.object_id)


def load_page(
    net: HvcNetwork,
    page: WebPage,
    cc: str = "cubic",
    timeout: float = 60.0,
) -> PageLoadResult:
    """Load ``page`` over ``net`` and return the result (runs the sim).

    The paper's methodology clears browser and DNS caches before each load,
    so the load pays the full cold-start sequence: a DNS exchange, a
    TCP-style handshake, and a TLS round trip before the first request,
    all on a flow of ``flow_priority`` 0 (interactive).
    """
    from repro.transport.datagram import DatagramSocket

    started_at = net.now
    _dns_lookup(net, timeout=timeout)
    flow_id = next_flow_id()
    client_conn = Connection(net.sim, net.client, flow_id, cc=cc, flow_priority=0, handshake=True)
    server_conn = Connection(net.sim, net.server, flow_id, cc=cc, flow_priority=0)
    WebServer(server_conn, page)
    browser = Browser(client_conn, page)
    browser.result.started_at = started_at  # PLT includes DNS time
    deadline = started_at + timeout
    while not browser.result.complete and net.now < deadline and net.sim.pending_events:
        net.run(until=min(net.now + 0.5, deadline))
    client_conn.close()
    server_conn.close()
    return browser.result


def _dns_lookup(net: HvcNetwork, timeout: float) -> None:
    """One UDP query/response exchange plus resolver think time."""
    from repro.transport import next_flow_id as _next_flow_id
    from repro.transport.datagram import DatagramSocket

    flow_id = _next_flow_id()
    done = []
    client = DatagramSocket(
        net.sim, net.client, flow_id, flow_priority=0,
        on_message=lambda m: done.append(m),
    )
    server = DatagramSocket(net.sim, net.server, flow_id, flow_priority=0)

    def on_query(message) -> None:
        net.sim.schedule(
            DNS_SERVER_DELAY,
            lambda: server.send_message(DNS_REPLY_BYTES, message_id=2),
        )

    server.on_message = on_query
    client.send_message(DNS_QUERY_BYTES, message_id=1)
    deadline = net.now + min(timeout, 5.0)
    while not done and net.now < deadline and net.sim.pending_events:
        net.run(until=min(net.now + 0.05, deadline))
    client.close()
    server.close()
