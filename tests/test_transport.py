"""The TCP node server's connection handling, in process."""

from __future__ import annotations

import time

from helenos import wire
from helenos.model import RingLayout
from helenos.store import Node
from helenos.transport import TcpNodeServer, TcpTransport, unwrap_reply


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
