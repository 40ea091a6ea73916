"""Transport behaviour shared by both placements: ordering, framing, stats."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.crypto.hashing import canonical_json
from repro.errors import FleetProtocolError
from repro.runtime import (
    EnvelopeChannel,
    LoopbackTransport,
    MultiprocessTransport,
    read_frame,
    write_frame,
)
from repro.runtime.transport import MAX_FRAME_BYTES


class TestLoopbackTransport:
    def test_bidirectional_round_trip(self):
        left, right = LoopbackTransport.pair("left", "right")
        left.send("ping", {"n": 1}, sent_at=2.5)
        got = right.receive(timeout=5)
        assert (got.kind, got.payload, got.sender, got.sent_at) == \
            ("ping", {"n": 1}, "left", 2.5)
        right.send("pong", {"n": 2})
        assert left.receive(timeout=5).payload == {"n": 2}

    def test_without_codec_payload_object_passes_untouched(self):
        left, right = LoopbackTransport.pair()
        payload = {"shared": [1, 2, 3]}
        left.send("obj", payload)
        assert right.receive(timeout=5).payload is payload

    def test_close_reads_as_clean_eof(self):
        left, right = LoopbackTransport.pair()
        left.close()
        assert right.receive(timeout=5) is None

    def test_receive_timeout_is_protocol_error(self):
        left, _right = LoopbackTransport.pair()
        with pytest.raises(FleetProtocolError, match="timed out"):
            left.receive(timeout=0.01)

    def test_statistics_count_both_directions(self):
        left, right = LoopbackTransport.pair()
        for n in range(3):
            left.send("ping", n)
            right.receive(timeout=5)
        right.send("pong", None)
        left.receive(timeout=5)
        assert left.statistics() == {"sent": 3, "received": 1,
                                     "wire_bytes_out": 0, "wire_bytes_in": 0}
        assert right.statistics()["received"] == 3


class TestMultiprocessTransport:
    """Both socketpair ends in one process — framing without forking."""

    def test_framed_round_trip(self):
        left, right = MultiprocessTransport.pair()
        try:
            left.send("worker.run", {"tenants": 4, "seed": 23})
            got = right.receive(timeout=5)
            assert got.kind == "worker.run"
            assert got.payload == {"tenants": 4, "seed": 23}
            right.send("worker.result", {"ok": True})
            assert left.receive(timeout=5).payload == {"ok": True}
            assert left.statistics()["wire_bytes_out"] > 4
            assert left.statistics()["wire_bytes_in"] > 4
        finally:
            left.close()
            right.close()

    def test_request_reply(self):
        left, right = MultiprocessTransport.pair()
        try:
            def serve():
                envelope = right.receive(timeout=5)
                right.send("echo.reply", envelope.payload)

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            reply = left.request("echo", {"v": 9}, timeout=5)
            assert reply.kind == "echo.reply"
            assert reply.payload == {"v": 9}
            server.join(timeout=5)
        finally:
            left.close()
            right.close()

    def test_peer_close_reads_as_eof(self):
        left, right = MultiprocessTransport.pair()
        right.close()
        assert left.receive(timeout=5) is None
        left.close()

    def test_timeout_is_protocol_error(self):
        left, right = MultiprocessTransport.pair()
        try:
            with pytest.raises(FleetProtocolError, match="timed out"):
                left.receive(timeout=0.05)
        finally:
            left.close()
            right.close()

    def test_timeout_mid_frame_keeps_the_stream_in_sync(self):
        """A receive that times out halfway through a frame consumes
        nothing: once the rest arrives, the next receive returns the
        intact envelope."""
        left, right = MultiprocessTransport.pair()
        try:
            envelope = EnvelopeChannel(sender="right").stamp(
                "worker.result", {"ok": True, "pad": "x" * 64})
            payload = canonical_json(envelope.to_dict()).encode("utf-8")
            frame = len(payload).to_bytes(4, "big") + payload
            half = len(frame) // 2
            right._sock.sendall(frame[:half])
            with pytest.raises(FleetProtocolError, match="timed out"):
                left.receive(timeout=0.05)
            right._sock.sendall(frame[half:])
            got = left.receive(timeout=5)
            assert (got.kind, got.payload, got.sequence) == \
                ("worker.result", {"ok": True, "pad": "x" * 64}, 0)
            assert left.statistics()["wire_bytes_in"] == len(frame)
        finally:
            left.close()
            right.close()

    def test_stream_ending_mid_frame_is_torn(self):
        left, right = MultiprocessTransport.pair()
        right._sock.sendall((100).to_bytes(4, "big") + b"only-a-few-bytes")
        right.close()
        with pytest.raises(FleetProtocolError, match="torn frame"):
            left.receive(timeout=5)
        left.close()

    def test_send_after_peer_gone_is_protocol_error(self):
        left, right = MultiprocessTransport.pair()
        right.close()
        with pytest.raises(FleetProtocolError, match="transmit"):
            for _ in range(64):  # socket buffers may absorb the first sends
                left.send("ping", {"pad": "x" * 4096})
        left.close()


class TestFraming:
    def test_round_trip_through_buffer(self):
        sock_a, sock_b = socket.socketpair()
        try:
            payloads = [b"", b"a", b"x" * 1000]
            for payload in payloads:
                assert write_frame(sock_a, payload) == 4 + len(payload)
            buffer = bytearray()
            while len(buffer) < sum(4 + len(p) for p in payloads):
                buffer += sock_b.recv(65536)
            assert [read_frame(buffer) for _ in payloads] == payloads
            assert buffer == bytearray()
        finally:
            sock_a.close()
            sock_b.close()

    def test_partial_frame_consumes_nothing(self):
        frame = (12).to_bytes(4, "big") + b"full payload"
        for cut in (0, 2, 4, len(frame) - 3):
            buffer = bytearray(frame[:cut])
            assert read_frame(buffer) is None
            assert buffer == frame[:cut]
            buffer += frame[cut:]
            assert read_frame(buffer) == b"full payload"

    def test_oversized_frame_rejected_both_ways(self):
        sock_a, sock_b = socket.socketpair()
        try:
            with pytest.raises(FleetProtocolError, match="exceeds limit"):
                write_frame(sock_a, b"\x00" * (MAX_FRAME_BYTES + 1))
        finally:
            sock_a.close()
            sock_b.close()
        bogus = bytearray((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(FleetProtocolError, match="exceeds limit"):
            read_frame(bogus)
