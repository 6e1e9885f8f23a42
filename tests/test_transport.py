"""The TCP node server's connection handling, in process."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from helenos import wire
from helenos.errors import ProtocolError, ServerError
from helenos.model import RingLayout, bucket_of, seqno_key
from helenos.store import Node
from helenos.transport import (
    TcpNodeServer,
    TcpTransport,
    read_frame_from,
    unwrap_reply,
    unwrap_storage_reply,
)


def test_finished_connections_are_dropped():
    server = TcpNodeServer(Node("node0", RingLayout.from_node_ids(["node0"])), "127.0.0.1", 0)
    server.start()
    try:
        for request_id in range(1, 21):
            transport = TcpTransport({"node0": (server.host, server.port)}, timeout=10.0)
            try:
                reply = transport.request("node0", wire.control_request(request_id, wire.Op.PING))
                assert unwrap_reply(request_id, reply) == b"PONG"
                # This connection's thread and at most the previous one's,
                # which may not have seen its peer close yet.
                assert len(server._threads) <= 2
            finally:
                transport.close()
    finally:
        started = time.monotonic()
        server.stop()
        stopped_in = time.monotonic() - started
    assert not server._accept_thread.is_alive()
    assert stopped_in < 5.0


def _served(sleep=time.sleep) -> TcpNodeServer:
    """A started server for a one-node ring, whose injected delay calls ``sleep``."""
    server = TcpNodeServer(Node("node0", RingLayout.from_node_ids(["node0"]), sleep=sleep),
                           "127.0.0.1", 0)
    server.start()
    return server


def _delayed_read(request_id: int) -> bytes:
    """A read that asks the node for an injected delay."""
    key = seqno_key(1)
    return wire.storage_request(request_id, bucket_of(key, 8), wire.Read(key),
                                wire.CcBlock(wire.Scheme.NONE, 1, 1, 1, delay_ms=1))


def test_failed_request_drops_its_connection():
    release = threading.Event()
    server = _served(sleep=lambda _seconds: release.wait(10.0))
    transport = TcpTransport({"node0": (server.host, server.port)}, timeout=0.3)
    try:
        with pytest.raises(socket.timeout):
            transport.request("node0", _delayed_read(1))
        release.set()  # the node now sends its late reply to request 1
        reply = transport.request("node0", wire.control_request(2, wire.Op.PING))
        assert unwrap_reply(2, reply) == b"PONG"
    finally:
        release.set()
        transport.close()
        server.stop()


def test_stop_does_not_wait_for_an_idle_connection():
    server = _served()
    transport = TcpTransport({"node0": (server.host, server.port)}, timeout=10.0)
    try:
        reply = transport.request("node0", wire.control_request(1, wire.Op.PING))
        assert unwrap_reply(1, reply) == b"PONG"
        started = time.monotonic()
        server.stop()
        stopped_in = time.monotonic() - started
    finally:
        transport.close()
    assert not server._accept_thread.is_alive()
    assert stopped_in < 5.0


def test_request_in_flight_at_stop_gets_its_reply():
    sleeping, release = threading.Event(), threading.Event()

    def sleep(_seconds: float) -> None:
        sleeping.set()
        release.wait(10.0)

    server = _served(sleep=sleep)
    transport = TcpTransport({"node0": (server.host, server.port)}, timeout=10.0)
    replies: list[bytes] = []
    client = threading.Thread(
        target=lambda: replies.append(transport.request("node0", _delayed_read(1))))
    stopper = threading.Thread(target=server.stop)
    try:
        client.start()
        assert sleeping.wait(5.0)
        stopper.start()
        deadline = time.monotonic() + 5.0
        while server._listener.fileno() != -1 and time.monotonic() < deadline:
            time.sleep(0.01)  # the accept loop has ended: read sides are being shut
        time.sleep(0.1)
    finally:
        release.set()
        client.join(5.0)
        stopper.join(10.0)
        transport.close()
    assert not client.is_alive() and not stopper.is_alive()
    assert unwrap_storage_reply(1, replies[0]) == (1, 0)


def test_oversize_frame_gets_the_loopback_reply_then_a_close():
    prefix = (wire.MAX_FRAME + 1).to_bytes(4, "big")
    server = _served()
    try:
        loopback = server.node.handle_frame(prefix + bytes(wire.HEAD_SIZE - 4))
        assert loopback == wire.err_reply(
            0, wire.ErrCode.MALFORMED, f"frame payload of {wire.MAX_FRAME + 1} bytes exceeds limit")
        with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
            sock.sendall(prefix)
            assert read_frame_from(sock) == loopback
            assert sock.recv(1) == b""
    finally:
        server.stop()


class ChunkedSocket:
    """A peer that sends ``data`` at most ``chunk`` bytes per receive, then
    closes."""

    def __init__(self, data: bytes, chunk: int = 4096) -> None:
        self._data = memoryview(data)
        self._chunk = chunk

    def recv(self, n: int) -> bytes:
        chunk = bytes(self._data[:min(n, self._chunk)])
        self._data = self._data[len(chunk):]
        return chunk

    def recv_into(self, buffer, nbytes: int = 0) -> int:
        n = min(len(buffer), nbytes or len(buffer), self._chunk, len(self._data))
        buffer[:n] = self._data[:n]
        self._data = self._data[n:]
        return n


def test_large_frame_reads_in_linear_time():
    payload = bytes(range(256)) * (8 * 1024 * 1024 // 256)
    data = wire.frame(payload)
    started = time.monotonic()
    got = read_frame_from(ChunkedSocket(data))
    elapsed = time.monotonic() - started
    assert got == data
    assert elapsed < 1.0, f"8 MiB in 4 KiB chunks took {elapsed:.2f} s"


def test_peer_closing_mid_frame_raises():
    data = wire.ok_reply(1, b"PONG" * 100)
    with pytest.raises(ConnectionError, match="^connection closed mid-frame$"):
        read_frame_from(ChunkedSocket(data[:-1], chunk=64))


OK_5 = wire.ok_reply(5, b"body")


UNWRAP_REFUSALS = {
    "length": (b"\x00\x00", "truncated frame length"),
    "mismatch": (OK_5[:-1], "frame length mismatch"),
    "oversize": ((wire.MAX_FRAME + 1).to_bytes(4, "big") + OK_5[4:],
                 f"frame payload of {wire.MAX_FRAME + 1} bytes exceeds limit"),
    "header": (wire.frame(bytes(13)), "truncated frame header"),
    "request opcode": (wire.control_request(5, wire.Op.PING), "unexpected reply opcode 0x20"),
    "request id": (wire.ok_reply(6, b"body"), "reply id 6 does not match request 5"),
    "empty err": (wire.frame(wire.encode_header(5, None, wire.Op.ERR)), "empty error body"),
}


@pytest.mark.parametrize("reply, text", UNWRAP_REFUSALS.values(), ids=UNWRAP_REFUSALS)
def test_unwrap_reply_refusals(reply, text):
    with pytest.raises(ProtocolError, match=f"^{text}$"):
        unwrap_reply(5, reply)


def test_unwrap_reply_bodies():
    assert unwrap_reply(5, OK_5) == b"body"
    with pytest.raises(ServerError) as exc:
        unwrap_reply(5, wire.err_reply(5, wire.ErrCode.ROUTING, "not mine"))
    assert (exc.value.code, exc.value.message) == (wire.ErrCode.ROUTING, "not mine")


# A storage reply is refused as unwrap_reply and then decode_storage_ok
# refuse it; an OK body too short for the two counters is the one addition.
STORAGE_REFUSALS = {**UNWRAP_REFUSALS, "short ok": (OK_5, "truncated storage reply")}


@pytest.mark.parametrize("reply, text", STORAGE_REFUSALS.values(), ids=STORAGE_REFUSALS)
def test_unwrap_storage_reply_refusals(reply, text):
    with pytest.raises(ProtocolError, match=f"^{text}$"):
        unwrap_storage_reply(5, reply)


def test_unwrap_storage_reply_counters():
    reply = wire.storage_ok_reply(5, 7, 9, b"result")
    assert unwrap_storage_reply(5, reply) == (7, 9)
    assert reply[wire.STORAGE_OK_HEAD.size:] == b"result"
    assert unwrap_storage_reply(5, wire.storage_ok_reply(5, 0, 2**64 - 1, b"")) == (0, 2**64 - 1)
    with pytest.raises(ServerError) as exc:
        unwrap_storage_reply(5, wire.err_reply(5, wire.ErrCode.ROUTING, "not mine"))
    assert (exc.value.code, exc.value.message) == (wire.ErrCode.ROUTING, "not mine")
