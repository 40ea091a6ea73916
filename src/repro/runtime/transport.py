"""Transports: how envelopes cross (or don't cross) a process boundary.

A :class:`Transport` is one end of a bidirectional, ordered envelope
stream.  Both ends stamp outgoing envelopes and verify incoming ones with
an :class:`~repro.runtime.envelope.EnvelopeChannel`, so sequence gaps are
protocol errors regardless of the medium underneath:

:class:`LoopbackTransport`
    In-process queues.  Envelopes are passed as objects, nothing is
    re-encoded, and fingerprints stay byte-identical to the direct-call
    graph.

:class:`MultiprocessTransport`
    A ``socket.socketpair()`` end with length-prefixed frames (4-byte
    big-endian prefix, canonical-JSON payload — the same bytes the hashing
    and WAL layers emit).  Built for fork-based workers: the parent keeps
    one end, the child inherits the other.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import time
from typing import Any, Dict, Optional

from repro.crypto.hashing import canonical_json
from repro.errors import FleetProtocolError
from repro.runtime.envelope import Envelope, EnvelopeChannel

__all__ = ["Transport", "LoopbackTransport", "MultiprocessTransport",
           "write_frame", "read_frame"]

#: Maximum frame payload the runtime will accept: a defence against a
#: corrupted length prefix allocating gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def write_frame(sock: socket.socket, payload: bytes) -> int:
    """Send ``payload`` behind a 4-byte big-endian length prefix.

    Returns the total number of bytes written (prefix included).
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise FleetProtocolError(
            f"frame of {len(payload)} bytes exceeds limit {MAX_FRAME_BYTES}")
    frame = _HEADER.pack(len(payload)) + payload
    sock.sendall(frame)
    return len(frame)


def read_frame(buffer: bytearray) -> Optional[bytes]:
    """Pop one complete frame's payload off the front of ``buffer``.

    Returns ``None`` while the buffer holds only part of a frame; in that
    case nothing is consumed, so the caller can append more bytes and ask
    again.
    """
    if len(buffer) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buffer)
    if length > MAX_FRAME_BYTES:
        raise FleetProtocolError(
            f"frame length {length} exceeds limit {MAX_FRAME_BYTES}")
    end = _HEADER.size + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[_HEADER.size:end])
    del buffer[:end]
    return payload


class Transport:
    """One end of an ordered, bidirectional envelope stream."""

    def __init__(self, name: str):
        self.name = name
        self._out = EnvelopeChannel(sender=name)
        self._in: Optional[EnvelopeChannel] = None
        self._stats: Dict[str, int] = {
            "sent": 0,
            "received": 0,
            "wire_bytes_out": 0,
            "wire_bytes_in": 0,
        }

    # -- subclass hooks ----------------------------------------------------

    def _transmit(self, envelope: Envelope) -> None:
        raise NotImplementedError

    def _collect(self, timeout: Optional[float]) -> Optional[Envelope]:
        raise NotImplementedError

    # -- public API --------------------------------------------------------

    def send(self, kind: str, payload: Any, sent_at: float = 0.0) -> Envelope:
        """Stamp and transmit one envelope; returns the stamped envelope."""
        envelope = self._out.stamp(kind, payload, sent_at=sent_at)
        self._transmit(envelope)
        self._stats["sent"] += 1
        return envelope

    def receive(self, timeout: Optional[float] = None) -> Optional[Envelope]:
        """Receive the next envelope, verifying sequence discipline.

        Returns ``None`` on clean end-of-stream.  Raises
        :class:`FleetProtocolError` on timeout, torn frames, or sequence
        gaps.  A timeout consumes nothing, so the caller may receive again.
        """
        envelope = self._collect(timeout)
        if envelope is None:
            return None
        if self._in is None:
            self._in = EnvelopeChannel(sender=envelope.sender)
        self._in.accept(envelope)
        self._stats["received"] += 1
        return envelope

    def request(self, kind: str, payload: Any,
                timeout: Optional[float] = None) -> Envelope:
        """Send one envelope and block for the peer's reply."""
        self.send(kind, payload)
        reply = self.receive(timeout=timeout)
        if reply is None:
            raise FleetProtocolError(
                f"peer of {self.name!r} closed the stream instead of replying "
                f"to {kind!r}"
            )
        return reply

    def statistics(self) -> Dict[str, int]:
        return dict(self._stats)

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass


class LoopbackTransport(Transport):
    """In-process transport over a pair of queues.

    Envelopes cross untouched — object identity of the payload is
    preserved, which is what keeps loopback runs byte-identical to the
    pre-runtime call graph.
    """

    def __init__(self, name: str,
                 outbox: "queue.Queue[Optional[Envelope]]",
                 inbox: "queue.Queue[Optional[Envelope]]"):
        super().__init__(name)
        self._outbox = outbox
        self._inbox = inbox

    @classmethod
    def pair(cls, left: str = "left", right: str = "right"
             ) -> "tuple[LoopbackTransport, LoopbackTransport]":
        a_to_b: "queue.Queue[Optional[Envelope]]" = queue.Queue()
        b_to_a: "queue.Queue[Optional[Envelope]]" = queue.Queue()
        return (
            cls(left, outbox=a_to_b, inbox=b_to_a),
            cls(right, outbox=b_to_a, inbox=a_to_b),
        )

    def _transmit(self, envelope: Envelope) -> None:
        self._outbox.put(envelope)

    def _collect(self, timeout: Optional[float]) -> Optional[Envelope]:
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise FleetProtocolError(
                f"loopback receive on {self.name!r} timed out after {timeout}s"
            ) from None

    def close(self) -> None:
        # A sentinel unblocks a peer waiting in receive().
        self._outbox.put(None)


class MultiprocessTransport(Transport):
    """Socket transport with length-prefixed canonical-JSON frames.

    Received bytes collect in the transport's own buffer, and a frame is
    handed out only once it is complete.  A receive timeout therefore
    consumes nothing: the stream stays in sync and a later ``receive``
    picks up where the timed-out one stopped.
    """

    def __init__(self, name: str, sock: socket.socket):
        super().__init__(name)
        self._sock = sock
        self._buffer = bytearray()

    @classmethod
    def pair(cls, left: str = "parent", right: str = "child"
             ) -> "tuple[MultiprocessTransport, MultiprocessTransport]":
        sock_a, sock_b = socket.socketpair()
        return cls(left, sock_a), cls(right, sock_b)

    def _transmit(self, envelope: Envelope) -> None:
        payload = canonical_json(envelope.to_dict()).encode("utf-8")
        try:
            self._sock.settimeout(None)  # a receive deadline must not cut a send
            written = write_frame(self._sock, payload)
        except OSError as exc:
            raise FleetProtocolError(
                f"transport {self.name!r} failed to transmit: {exc}"
            ) from exc
        self._stats["wire_bytes_out"] += written

    def _collect(self, timeout: Optional[float]) -> Optional[Envelope]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            frame = read_frame(self._buffer)
            if frame is not None:
                break
            # Past the deadline, still take bytes that are already waiting.
            remaining = (None if deadline is None
                         else max(deadline - time.monotonic(), 1e-3))
            try:
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise FleetProtocolError(
                    f"socket receive on {self.name!r} timed out after {timeout}s"
                ) from None
            except OSError as exc:
                raise FleetProtocolError(
                    f"transport {self.name!r} failed to receive: {exc}"
                ) from exc
            if not chunk:
                if self._buffer:
                    raise FleetProtocolError(
                        f"torn frame on transport {self.name!r}: the stream "
                        f"ended {len(self._buffer)} bytes into a frame")
                return None
            self._buffer += chunk
        self._stats["wire_bytes_in"] += _HEADER.size + len(frame)
        try:
            return Envelope.from_dict(json.loads(frame.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FleetProtocolError(
                f"undecodable frame on transport {self.name!r}: {exc}"
            ) from exc

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
