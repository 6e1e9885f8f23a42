"""Shared fixtures: loopback clusters and transaction contexts."""

from __future__ import annotations

import random

import pytest

from helenos.cc import TxnContext
from helenos.metrics import Commit, EventSink
from helenos.transport import LoopbackCluster
from helenos.wire import SCHEME_NAMES, Scheme

ALL_SCHEMES = list(SCHEME_NAMES.values())


def make_cluster(nodes: int = 2) -> LoopbackCluster:
    return LoopbackCluster([f"node{i}" for i in range(nodes)])


def make_ctx(
    cluster: LoopbackCluster,
    scheme: Scheme,
    buckets: int = 8,
    delay_ms: int = 0,
    client_id: int = 0,
    seed: int = 0,
) -> TxnContext:
    return TxnContext(
        transport=cluster,
        layout=cluster.layout,
        scheme=scheme,
        buckets_per_table=buckets,
        delay_ms=delay_ms,
        client_id=client_id,
        backoff_rng=random.Random(seed),
    )


def committed_attempts(sink: EventSink) -> list[int]:
    """The attempt number on each of the sink's commit rows, in log order."""
    return [ev.attempt for ev in sink.events() if isinstance(ev, Commit)]


@pytest.fixture(params=ALL_SCHEMES, ids=[s.name.lower() for s in ALL_SCHEMES])
def scheme(request) -> Scheme:
    return request.param
