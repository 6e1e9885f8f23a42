"""Per-layer metrics from a traced pass, and the inbox-read scale probe.

Each metric is a ratio of counts or times summed over schemes (or over
one scheme for ``<s>.`` names). Times use the span totals for leaf
layers and the self times where a layer calls others (dispatch, client
cc code, codec, waits); README.md lists which is which.
"""

from __future__ import annotations

import statistics
import time

from helenos.model import Message, MsgId, bucket_of, message_key
from helenos.transport import LoopbackCluster, in_process_node_ids, unwrap_reply
from helenos.wire import Append, CcBlock, Read, Scheme, decode_entry, decode_storage_ok, storage_request

from workloads import SCHEMES, SchemeRun

INBOX_SIZES = (100, 1000, 5000)
PROBE_READS = 3

US, MS = 1e3, 1e6  # ns per unit

LAYER_METRICS: list[tuple[str, str]] = [
    ("model.bucket_of.calls_per_commit", "count"),
    ("model.owner_of.calls_per_commit", "count"),
    ("model.bucket_of.ns", "ns"),
    ("model.owner_of.ns", "ns"),
    ("wire.client_codec.us_per_frame", "us"),
    ("wire.node_codec.us_per_frame", "us"),
    ("wire.request_bytes_per_commit", "B"),
    ("wire.reply_bytes_per_commit", "B"),
    ("glock.wire.request_bytes_per_commit", "B"),
    ("glock.wire.reply_bytes_per_commit", "B"),
    *[(f"{s}.transport.frames_per_commit", "count") for s in SCHEMES],
    *[(f"{s}.transport.cc_frames_per_commit", "count") for s in SCHEMES],
    ("transport.rtt_us_p50", "us"),
    ("transport.self_us_per_frame", "us"),
    ("store.dispatch.us_per_frame", "us"),
    ("store.apply.us_per_op", "us"),
    *[(f"{s}.store.wait_ms_per_commit", "ms") for s in SCHEMES],
    ("store.delay_ms_per_commit", "ms"),
    *[(f"{s}.store.ops_per_commit", "count") for s in SCHEMES],
    *[(f"store.read_ms.inbox_{n}", "ms") for n in INBOX_SIZES],
    ("cc.client_us_per_txn", "us"),
    ("occ.cc.backoff_ms_per_commit", "ms"),
    ("occ.cc.useful_op_ratio", "ratio"),
    ("workload.plan.us_per_txn", "us"),
    ("metrics.sink.events_per_commit", "count"),
    ("metrics.sink.us_per_event", "us"),
    ("metrics.event_log_ms", "ms"),
    ("driver.post_run_ms", "ms"),
    ("driver.snapshot_ms", "ms"),
    ("verify.history_ms", "ms"),
    ("verify.graph_ms", "ms"),
    ("verify.integrity_ms", "ms"),
    ("verify.txns_checked", "count"),
    *[(f"{s}.trace.tps_ratio", "ratio") for s in SCHEMES],
]


def _span(run: SchemeRun, layer: str, column: int) -> int:
    """Sum of one summary column over the spans named ``layer`` or ``layer.*``."""
    return sum(agg[column] for name, agg in run.trace["summary"].items()
               if name == layer or name.startswith(layer + "."))


def count(run, layer):
    return _span(run, layer, 0)


def total(run, layer):
    return _span(run, layer, 1)


def self_time(run, layer):
    return _span(run, layer, 2)


def frames(run: SchemeRun) -> int:
    return run.trace["storage_frames"] + run.trace["cc_frames"]


def exact_counters(run: SchemeRun) -> tuple[int, ...]:
    """Counts that a deterministic schedule must repeat exactly."""
    t = run.trace
    return (run.commits, t["storage_frames"], t["cc_frames"], t["request_bytes"],
            t["reply_bytes"], count(run, "store.apply"))


def layer_metrics(traced: dict[str, SchemeRun], untraced: dict[str, SchemeRun],
                  inbox_read_ms: dict[int, float]) -> dict[str, float]:
    runs = list(traced.values())

    def pooled(numerator, denominator, scale=1.0):
        den = sum(denominator(r) for r in runs)
        return sum(numerator(r) for r in runs) / den / scale if den else 0.0

    def commits(r):
        return r.commits

    def stage_ms(stage):
        return sum(r.stages_s[stage] for r in runs) * 1e3

    rtts = [ns for r in runs for ns in r.trace["rtt_ns"]]
    glock, occ = traced["glock"], traced["occ"]
    out = {
        "model.bucket_of.calls_per_commit": pooled(lambda r: count(r, "model.bucket_of"), commits),
        "model.owner_of.calls_per_commit": pooled(lambda r: count(r, "model.owner_of"), commits),
        "model.bucket_of.ns": pooled(lambda r: total(r, "model.bucket_of"),
                                     lambda r: count(r, "model.bucket_of")),
        "model.owner_of.ns": pooled(lambda r: total(r, "model.owner_of"),
                                    lambda r: count(r, "model.owner_of")),
        "wire.client_codec.us_per_frame": pooled(lambda r: self_time(r, "wire.client"), frames, US),
        "wire.node_codec.us_per_frame": pooled(lambda r: self_time(r, "wire.node"),
                                               lambda r: count(r, "store.dispatch"), US),
        "wire.request_bytes_per_commit": pooled(lambda r: r.trace["request_bytes"], commits),
        "wire.reply_bytes_per_commit": pooled(lambda r: r.trace["reply_bytes"], commits),
        "glock.wire.request_bytes_per_commit": glock.trace["request_bytes"] / glock.commits,
        "glock.wire.reply_bytes_per_commit": glock.trace["reply_bytes"] / glock.commits,
    }
    for s, r in traced.items():
        out[f"{s}.transport.frames_per_commit"] = frames(r) / r.commits
        out[f"{s}.transport.cc_frames_per_commit"] = r.trace["cc_frames"] / r.commits
    out["transport.rtt_us_p50"] = statistics.median(rtts) / US if rtts else 0.0
    out["transport.self_us_per_frame"] = pooled(
        lambda r: total(r, "transport.request") - total(r, "store.dispatch"), frames, US)
    out["store.dispatch.us_per_frame"] = pooled(lambda r: self_time(r, "store.dispatch"),
                                                lambda r: count(r, "store.dispatch"), US)
    out["store.apply.us_per_op"] = pooled(lambda r: total(r, "store.apply"),
                                          lambda r: count(r, "store.apply"), US)
    for s, r in traced.items():
        out[f"{s}.store.wait_ms_per_commit"] = self_time(r, "store.wait") / r.commits / MS
    out["store.delay_ms_per_commit"] = pooled(lambda r: total(r, "store.delay"), commits, MS)
    for s, r in traced.items():
        out[f"{s}.store.ops_per_commit"] = count(r, "store.apply") / r.commits
    for n, ms in inbox_read_ms.items():
        out[f"store.read_ms.inbox_{n}"] = ms
    out["cc.client_us_per_txn"] = pooled(lambda r: self_time(r, "cc.run_atomic"),
                                         lambda r: count(r, "cc.run_atomic"), US)
    out["occ.cc.backoff_ms_per_commit"] = total(occ, "cc.backoff") / occ.commits / MS
    out["occ.cc.useful_op_ratio"] = occ.committed_ops / count(occ, "store.apply")
    out["workload.plan.us_per_txn"] = pooled(lambda r: total(r, "workload"), commits, US)
    out["metrics.sink.events_per_commit"] = pooled(lambda r: count(r, "metrics.sink"), commits)
    out["metrics.sink.us_per_event"] = pooled(lambda r: total(r, "metrics.sink"),
                                              lambda r: count(r, "metrics.sink"), US)
    out["metrics.event_log_ms"] = stage_ms("event_log")
    out["driver.post_run_ms"] = stage_ms("post_run")
    out["driver.snapshot_ms"] = sum(r.trace["stage_ns"].get("driver.cluster_snapshot", 0)
                                    for r in runs) / MS
    out["verify.history_ms"] = stage_ms("history")
    out["verify.graph_ms"] = stage_ms("graph")
    out["verify.integrity_ms"] = stage_ms("integrity")
    out["verify.txns_checked"] = float(sum(r.txns_checked for r in runs))
    for s, r in traced.items():
        out[f"{s}.trace.tps_ratio"] = r.tps / untraced[s].tps
    return out


def inbox_read_ms(size: int) -> float:
    """Median time of one loopback READ of a MESSAGE inbox holding ``size``
    messages: request encode, node dispatch and apply, reply decode."""
    cluster = LoopbackCluster(in_process_node_ids(4))
    key = message_key(1)
    bucket = bucket_of(key, 256)
    node = cluster.layout.owner_of(bucket)
    cc = CcBlock(Scheme.NONE, txn_id=1, attempt=1, op_index=0)

    def call(request_id, op):
        reply = cluster.request(node, storage_request(request_id, bucket, op, cc))
        return decode_storage_ok(unwrap_reply(request_id, reply))[2]

    for seq in range(1, size + 1):
        content = tuple((seq * 7 + j) % 64 for j in range(8))
        call(seq, Append(key, Message(MsgId(1, seq), 2, 1, content, 0)))
    times = []
    for i in range(PROBE_READS):
        start = time.perf_counter()
        entry, _ = decode_entry(call(size + 1 + i, Read(key)))
        times.append(time.perf_counter() - start)
        if len(entry) != size:
            raise RuntimeError(f"inbox read returned {len(entry)} of {size} messages")
    return statistics.median(times) * 1e3
