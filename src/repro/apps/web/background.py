"""Background flows: the JSON upload/download loops of Table 1.

Two flows that "do not contribute to PLT": one continuously uploads 5 kB
JSON objects (mobile apps shipping logs), one continuously downloads 10 kB
objects (prefetch). Each loop issues its next transfer the moment the
previous one completes — the paper's cURL-in-a-loop clients.

Flows are tagged ``flow_priority=2`` (background). Whether steering *uses*
that tag is the Table 1 comparison: plain DChannel lets their packets — and
their ACK streams — squat on URLLC; the flow-priority filter bars them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.api import HvcNetwork
from repro.transport import next_flow_id
from repro.transport.connection import Connection, MessageReceipt
from repro.units import kb

UPLOAD_BYTES = kb(5)
DOWNLOAD_BYTES = kb(10)
#: Tiny request that triggers one download.
REQUEST_BYTES = 200
BACKGROUND_PRIORITY = 2


@dataclass
class BackgroundStats:
    uploads_completed: int = 0
    downloads_completed: int = 0


class BackgroundFlows:
    """The two competing background flows."""

    def __init__(self, net: HvcNetwork) -> None:
        self.net = net
        self.stats = BackgroundStats()
        self._stopped = False

        up_id = next_flow_id()
        self._up_client = Connection(
            net.sim, net.client, up_id, cc="cubic", flow_priority=BACKGROUND_PRIORITY
        )
        self._up_server = Connection(
            net.sim, net.server, up_id, cc="cubic", flow_priority=BACKGROUND_PRIORITY,
            on_message=self._on_upload_received,
        )

        down_id = next_flow_id()
        self._down_client = Connection(
            net.sim, net.client, down_id, cc="cubic", flow_priority=BACKGROUND_PRIORITY,
            on_message=self._on_download_received,
        )
        self._down_server = Connection(
            net.sim, net.server, down_id, cc="cubic", flow_priority=BACKGROUND_PRIORITY,
            on_message=self._on_download_request,
        )

        self._next_upload_id = 0
        self._next_download_id = 0
        self._send_upload()
        self._request_download()

    # -- upload loop ---------------------------------------------------
    def _send_upload(self) -> None:
        if self._stopped:
            return
        self._up_client.send_message(UPLOAD_BYTES, message_id=self._next_upload_id)
        self._next_upload_id += 1

    def _on_upload_received(self, receipt: MessageReceipt) -> None:
        self.stats.uploads_completed += 1
        self._send_upload()

    # -- download loop ---------------------------------------------------
    def _request_download(self) -> None:
        if self._stopped:
            return
        self._down_client.send_message(REQUEST_BYTES, message_id=self._next_download_id)
        self._next_download_id += 1

    def _on_download_request(self, receipt: MessageReceipt) -> None:
        self._down_server.send_message(
            DOWNLOAD_BYTES, message_id=100_000 + receipt.message_id
        )

    def _on_download_received(self, receipt: MessageReceipt) -> None:
        self.stats.downloads_completed += 1
        self._request_download()

    def stop(self) -> None:
        """Cease issuing new transfers (in-flight ones complete normally)."""
        self._stopped = True

    def close(self) -> None:
        self.stop()
        for conn in (
            self._up_client,
            self._up_server,
            self._down_client,
            self._down_server,
        ):
            conn.close()
