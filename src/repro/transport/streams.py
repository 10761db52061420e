"""QUIC-style stream multiplexing with priorities (§4's design input).

The paper notes that an MPQUIC-based design "can also accept application
input (e.g., stream priority) which could help packet scheduling". This
layer provides that surface: many prioritized *streams* share one
underlying connection (reliable single-path or multipath). Each stream
carries ordered messages; the mux drains stream send-queues strictly by
priority (lower value first) with round-robin inside a priority class, and
tags everything it sends with the stream's priority so steering policies
and multipath schedulers can act on it.

Because the underlying connection is a single ordered byte stream, a large
low-priority message already *in flight* still blocks later bytes (the
HTTP/2-over-TCP head-of-line property); the mux limits that damage by
fragmenting stream data into ``chunk_bytes`` messages so high-priority
data never waits behind more than one chunk.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.transport.connection import MessageReceipt

#: Stream data is fragmented into chunks so priority preemption is bounded.
DEFAULT_CHUNK_BYTES = 16_384
#: message_id layout: stream_id * STREAM_STRIDE + per-stream counter.
STREAM_STRIDE = 1_000_000


@dataclass(slots=True)
class StreamMessage:
    """Receiver-side notification: one application message on one stream."""

    stream_id: int
    message_index: int
    size: int
    priority: int
    completed_at: float


@dataclass(slots=True)
class _Pending:
    """Sender-side queued message on a stream."""

    message_index: int
    size: int
    remaining: int
    on_acked: Optional[Callable[[int, float], None]] = None


class Stream:
    """Sender-side handle for one stream."""

    def __init__(self, mux: "StreamMux", stream_id: int, priority: int) -> None:
        self.mux = mux
        self.stream_id = stream_id
        self.priority = priority
        self._queue: Deque[_Pending] = deque()
        self._next_index = 0
        self.bytes_queued = 0

    def send_message(
        self,
        size_bytes: int,
        on_acked: Optional[Callable[[int, float], None]] = None,
    ) -> int:
        """Queue one message on this stream; returns its message index."""
        if size_bytes <= 0:
            raise TransportError(f"message size must be positive, got {size_bytes}")
        index = self._next_index
        self._next_index += 1
        self._queue.append(
            _Pending(message_index=index, size=size_bytes, remaining=size_bytes,
                     on_acked=on_acked)
        )
        self.bytes_queued += size_bytes
        self.mux._pump()
        return index

    @property
    def has_data(self) -> bool:
        return bool(self._queue)


class StreamMux:
    """Multiplexes prioritized streams over one connection endpoint.

    ``connection`` is any object with ``send_message(size, message_id=...,
    priority=..., on_acked=...)`` and an assignable ``on_message`` callback
    — both :class:`~repro.transport.connection.Connection` and
    :class:`~repro.transport.multipath.MultipathConnection` qualify.
    """

    def __init__(
        self,
        connection,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        on_stream_message: Optional[Callable[[StreamMessage], None]] = None,
    ) -> None:
        if chunk_bytes <= 0:
            raise TransportError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.connection = connection
        self.chunk_bytes = chunk_bytes
        self.on_stream_message = on_stream_message
        self._streams: Dict[int, Stream] = {}
        self._next_stream_id = 0
        self._rr_cursor: Dict[int, int] = {}  # priority → round-robin index
        # Receive side: (stream, message) → bytes seen, total.
        self._rx: Dict[Tuple[int, int], List[int]] = {}
        self._rx_meta: Dict[Tuple[int, int], Tuple[int, int]] = {}
        connection.on_message = self._on_chunk

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def open_stream(self, priority: int = 0) -> Stream:
        """Create a stream; lower ``priority`` values are served first."""
        stream = Stream(self, self._next_stream_id, priority)
        self._streams[stream.stream_id] = stream
        self._next_stream_id += 1
        return stream

    # ------------------------------------------------------------------
    # Sender: strict-priority, round-robin-within-class chunk scheduler
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Feed the connection, keeping at most ~one chunk buffered unsent.

        Backpressure is what makes priorities effective: if the mux dumped
        every queued byte into the connection's (strictly ordered) send
        buffer immediately, a later high-priority message could never get
        ahead. Each chunk's ack re-triggers the pump.
        """
        while self.connection.bytes_unsent < self.chunk_bytes:
            stream = self._pick_stream()
            if stream is None:
                return
            self._send_chunk(stream)

    def _pick_stream(self) -> Optional[Stream]:
        ready = [s for s in self._streams.values() if s.has_data]
        if not ready:
            return None
        top = min(s.priority for s in ready)
        candidates = sorted(
            (s for s in ready if s.priority == top), key=lambda s: s.stream_id
        )
        cursor = self._rr_cursor.get(top, 0)
        chosen = candidates[cursor % len(candidates)]
        self._rr_cursor[top] = (cursor % len(candidates)) + 1
        return chosen

    def _send_chunk(self, stream: Stream) -> None:
        pending = stream._queue[0]
        take = min(self.chunk_bytes, pending.remaining)
        offset = pending.size - pending.remaining
        pending.remaining -= take
        stream.bytes_queued -= take
        is_last = pending.remaining == 0
        if is_last:
            stream._queue.popleft()
        # Chunk header (framing metadata) rides in the message id channel:
        # chunk ids are globally unique; stream/message/offset/total travel
        # in a tiny side table mirrored on both endpoints via the chunk's
        # first bytes — modelled here by registering the mapping.
        chunk_id = self._encode_chunk(stream.stream_id, pending.message_index,
                                      offset, pending.size, is_last)
        self.connection.send_message(
            take,
            message_id=chunk_id,
            priority=stream.priority,
            on_acked=lambda m, t, p=pending, last=is_last: self._chunk_acked(p, last, t),
        )

    def _chunk_acked(self, pending: _Pending, was_last: bool, now: float) -> None:
        if was_last and pending.on_acked is not None:
            pending.on_acked(pending.message_index, now)
        self._pump()

    # ------------------------------------------------------------------
    # Chunk framing: metadata packed into the message id
    # ------------------------------------------------------------------
    def _encode_chunk(
        self, stream_id: int, message_index: int, offset: int, total: int, last: bool
    ) -> int:
        # In a real wire format this header leads the chunk payload; here
        # the receiving mux reads it from the shared registry. The id must
        # be process-unique (a shared counter), not per-mux — two endpoints
        # sending concurrently would otherwise collide in the registry.
        chunk_id = next(_chunk_ids)
        _CHUNK_REGISTRY[chunk_id] = (stream_id, message_index, offset, total, last)
        return _CHUNK_ID_BASE + chunk_id

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _on_chunk(self, receipt: MessageReceipt) -> None:
        header = _CHUNK_REGISTRY.get(receipt.message_id - _CHUNK_ID_BASE)
        if header is None:
            return
        stream_id, message_index, offset, total, last = header
        key = (stream_id, message_index)
        seen = self._rx.setdefault(key, [0])
        seen[0] += receipt.size
        self._rx_meta[key] = (total, receipt.priority if receipt.priority is not None else 0)
        if seen[0] >= total:
            del self._rx[key]
            total_bytes, priority = self._rx_meta.pop(key)
            if self.on_stream_message is not None:
                self.on_stream_message(
                    StreamMessage(
                        stream_id=stream_id,
                        message_index=message_index,
                        size=total_bytes,
                        priority=priority,
                        completed_at=receipt.completed_at,
                    )
                )


#: Chunk ids must never collide with application message ids.
_CHUNK_ID_BASE = 4_000_000_000
#: Process-global chunk id source (shared by every mux endpoint).
_chunk_ids = itertools.count(1)
#: Process-global chunk header registry (stands in for an on-wire header;
#: contents are written by the sending mux and read once by the receiver).
_CHUNK_REGISTRY: Dict[int, Tuple[int, int, int, int, bool]] = {}
