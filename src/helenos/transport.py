"""Transports: in-process loopback and TCP, sharing the frame codec.

Both paths move whole encoded frames, so the protocol layer is exercised
identically; the loopback simply hands the bytes to the target node's
frame handler on the calling thread.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Protocol

from .errors import ConfigError, ProtocolError, ServerError
from .model import RingLayout
from .store import Node
from .wire import (
    HEAD_SIZE,
    MAX_FRAME,
    STORAGE_OK_HEAD,
    ErrCode,
    Op,
    decode_err,
    decode_storage_ok,
    err_reply,
    open_frame,
    oversize_error,
)

_OK, _ERR = Op.OK.value, Op.ERR.value


class Transport(Protocol):
    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        """Send one request frame to a node; returns the whole reply frame."""
        ...


def unwrap_reply(expected_request_id: int, reply_frame: bytes) -> bytes:
    """Check a reply frame and return its body; raises on error replies.

    The one place a client opens a reply other than a storage op's (see
    ``unwrap_storage_reply``): its length and header in one unpack, then OK
    or ERR, then the request id.
    """
    _n, request_id, _tag, _index, opcode = open_frame(reply_frame)
    if opcode != _OK and opcode != _ERR:
        raise ProtocolError(f"unexpected reply opcode {opcode:#x}")
    if request_id != expected_request_id:
        raise ProtocolError(
            f"reply id {request_id} does not match request {expected_request_id}"
        )
    body = reply_frame[HEAD_SIZE:]
    if opcode == _ERR:
        code, message = decode_err(body)
        raise ServerError(code, message)
    return body


_STORAGE_OK_SIZE = STORAGE_OK_HEAD.size
_MAX_REPLY = 4 + MAX_FRAME


def unwrap_storage_reply(expected_request_id: int, reply_frame: bytes) -> tuple[int, int]:
    """Check a storage op's reply frame; returns (bucket_seq, version). Its
    result starts at ``STORAGE_OK_HEAD.size``.

    The one place a client opens a storage reply. It accepts exactly what
    ``unwrap_reply`` and then ``decode_storage_ok`` accept: an OK reply to
    this request, of its stated length, whose body holds the two counters.
    Such a reply is read with one unpack; any other goes to those two, which
    refuse it with their texts.
    """
    size = len(reply_frame)
    if _STORAGE_OK_SIZE <= size <= _MAX_REPLY:
        n, request_id, _tag, _index, opcode, bucket_seq, version = (
            STORAGE_OK_HEAD.unpack_from(reply_frame))
        if n == size - 4 and request_id == expected_request_id and opcode == _OK:
            return bucket_seq, version
    bucket_seq, version, _result = decode_storage_ok(unwrap_reply(expected_request_id, reply_frame))
    return bucket_seq, version


class LoopbackCluster:
    """All nodes hosted in this process; requests run on the caller thread."""

    def __init__(self, node_ids: list[str]) -> None:
        self.layout = RingLayout.from_node_ids(node_ids)
        self.nodes = {nid: Node(nid, self.layout) for nid in node_ids}

    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        return self.nodes[node_id].handle_frame(frame_bytes)


def in_process_node_ids(count: int) -> list[str]:
    if count < 1:
        raise ConfigError("need at least one node")
    return [f"node{i}" for i in range(count)]


# ---------------------------------------------------------------------------
# TCP


def read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes into one buffer, so a frame of any size is
    read in time linear in its size."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionError("connection closed mid-frame")
        got += k
    return bytes(buf)


def read_frame_from(sock: socket.socket) -> bytes:
    header = read_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise oversize_error(length)
    return header + read_exact(sock, length)


class TcpTransport:
    """Client side: one lazily opened connection per node.

    Instances are confined to a single client thread; the driver gives
    every client its own transport.
    """

    def __init__(self, endpoints: dict[str, tuple[str, int]], timeout: float | None = None):
        self.endpoints = endpoints
        self.timeout = timeout
        self._conns: dict[str, socket.socket] = {}

    def _conn(self, node_id: str) -> socket.socket:
        sock = self._conns.get(node_id)
        if sock is None:
            host, port = self.endpoints[node_id]
            sock = socket.create_connection((host, port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns[node_id] = sock
        return sock

    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        sock = self._conn(node_id)
        try:
            sock.sendall(frame_bytes)
            return read_frame_from(sock)
        except BaseException:
            # A late reply may still come on it: the next request reconnects.
            self._conns.pop(node_id).close()
            raise

    def close(self) -> None:
        for sock in self._conns.values():
            try:
                sock.close()
            except OSError:
                pass
        self._conns.clear()


class TcpNodeServer:
    """Serves one node over TCP, one thread per connection.

    ``stop`` (or a SHUTDOWN frame) drains in-flight requests before the
    listener exits, and shuts the read side of every open connection, so an
    idle one ends while one serving a frame still sends its reply.
    """

    def __init__(self, node: Node, host: str, port: int) -> None:
        self.node = node
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()[:2]
        self._threads: dict[threading.Thread, socket.socket] = {}
        self._accept_thread: threading.Thread | None = None

    def serve_forever(self) -> None:
        """Accept connections until the node is stopping; then drain."""
        self._listener.settimeout(0.1)
        try:
            while not self.node.stopping.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                # Finished connections are dropped here, so a long-lived
                # node keeps one thread object per open connection only.
                self._threads = {t: c for t, c in self._threads.items() if t.is_alive()}
                t = threading.Thread(target=self._serve_conn, args=(conn,), daemon=True)
                t.start()
                self._threads[t] = conn
        finally:
            self._listener.close()
            for conn in self._threads.values():
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:  # its thread already closed it
                    pass
            for t in self._threads:
                t.join(timeout=30.0)

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._accept_thread.start()

    def stop(self) -> None:
        self.node.stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=60.0)

    def _serve_conn(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    frame_bytes = read_frame_from(conn)
                except (ConnectionError, OSError):
                    return
                except ProtocolError as exc:
                    # Unrecoverable stream state: report and drop the peer.
                    try:
                        conn.sendall(err_reply(0, ErrCode.MALFORMED, str(exc)))
                    except OSError:
                        pass
                    return
                reply = self.node.handle_frame(frame_bytes)
                try:
                    conn.sendall(reply)
                except OSError:
                    return
