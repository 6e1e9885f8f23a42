"""Command-line surface: configs, runs, sweeps, verification, node server."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import signal
import socket
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest

from helenos import wire
from helenos.cli import _mean_row, main
from helenos.config import (
    TaskType,
    apply_overrides,
    bundled_scenarios,
    dump_config,
    load_scenario,
    parse_config,
)
from helenos.driver import repetition_seeds, run_in_process
from helenos.errors import ConfigError
from helenos.metrics import BucketOp, TxnStart, write_event_log
from helenos.model import SeqPair, seqno_key
from helenos.store import pack_snapshot
from helenos.transport import read_frame_from
from helenos.wire import Scheme

# The task-mix columns shipped as scenario files, one vector per scenario.
MIX_VECTORS = {
    "standard": (0.25, 0.20, 0.06, 0.04, 0.04, 0.06, 0.20, 0.15),
    "small-r": (0.30, 0.30, 0.02, 0.02, 0.02, 0.02, 0.30, 0.02),
    "small-rw": (0.19, 0.19, 0.19, 0.02, 0.02, 0.18, 0.19, 0.02),
    "small-w": (0.02, 0.02, 0.44, 0.02, 0.02, 0.44, 0.02, 0.02),
    "large-r": (0.44, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.44),
    "large-rw": (0.19, 0.02, 0.02, 0.19, 0.18, 0.19, 0.02, 0.19),
    "large-w": (0.02, 0.02, 0.02, 0.30, 0.30, 0.30, 0.02, 0.02),
}
TASK_ORDER = list(TaskType)


class TestScenarioFiles:
    def test_all_bundled_present(self):
        assert set(bundled_scenarios()) == set(MIX_VECTORS) | {"standard-paper"}

    @pytest.mark.parametrize("name", sorted(MIX_VECTORS))
    def test_vectors_exact(self, name):
        cfg = load_scenario(name)
        for task, expected in zip(TASK_ORDER, MIX_VECTORS[name]):
            assert cfg.probabilities[task] == expected
        assert abs(sum(cfg.probabilities.values()) - 1.0) < 1e-9

    def test_small_w_column(self):
        cfg = load_scenario("small-w")
        assert cfg.probabilities[TaskType.SEND_UNICAST] == 0.44
        assert cfg.probabilities[TaskType.CLEAR_INBOX] == 0.44

    def test_reference_configuration_values(self):
        cfg = load_scenario("standard-paper")
        assert cfg.buckets == 1024
        assert cfg.nodes == 16
        assert cfg.clients == 200
        assert cfg.tasks_per_client == 3
        assert cfg.message_length == 8
        assert cfg.op_delay_ms == 3

    def test_desk_scale_defaults(self):
        cfg = load_scenario("standard")
        assert (cfg.nodes, cfg.clients, cfg.buckets, cfg.op_delay_ms) == (4, 32, 256, 1)

    @pytest.mark.parametrize("name", sorted(MIX_VECTORS) + ["standard-paper"])
    def test_round_trip_identity(self, name):
        cfg = load_scenario(name)
        again = parse_config(dump_config(cfg), name=cfg.name)
        assert again == cfg
        assert parse_config(dump_config(again), name=cfg.name) == again

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigError):
            load_scenario("no-such-scenario")

    def test_overrides(self):
        cfg = load_scenario("standard")
        cfg = apply_overrides(cfg, {"clients": "4", "scheme": "occ",
                                    "multicast_recipients": "2..3"})
        assert cfg.clients == 4
        assert cfg.scheme is Scheme.OCC
        assert cfg.multicast_recipients == (2, 3)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(load_scenario("standard"), {"bogus": "1"})

    @pytest.mark.parametrize("key, value", [("name", "5"), ("probabilities", "1"),
                                            ("clients", "abc"), ("import_batch", "2..x"),
                                            ("backoff_cap_ms", "fast")])
    def test_bad_override_rejected(self, key, value):
        with pytest.raises(ConfigError):
            apply_overrides(load_scenario("standard"), {key: value})
        with pytest.raises(ConfigError):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("key, limit", [("op_delay_ms", 0xFFFF), ("message_length", 0xFFFF),
                                            ("buckets", 1 << 32)])
    def test_wire_limits(self, key, limit):
        cfg = apply_overrides(load_scenario("standard"), {key: str(limit)})
        assert getattr(cfg, key) == limit
        with pytest.raises(ConfigError, match=f"{key} must be <= {limit}"):
            apply_overrides(cfg, {key: str(limit + 1)})

    def test_bad_probabilities_rejected(self):
        text = dump_config(load_scenario("standard")).replace(
            "term_search = 0.25", "term_search = 0.5")
        with pytest.raises(ConfigError):
            parse_config(text)


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestRunCommand:
    def test_bad_override_exits_1_without_traceback(self, capsys):
        code = run_cli("run", "--config", "standard", "--in-process", "2",
                       "--override", "clients=abc")
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("node", "--listen", "127.0.0.1:abc", "--node-id", "node0", "--config", "standard"),
        ("node", "--listen", "127.0.0.1:70000", "--node-id", "node0", "--config", "standard"),
        ("run", "--config", "standard", "--override", "nodes=1",
         "--override", "endpoints=127.0.0.1:x"),
    ], ids=["listen-not-a-number", "listen-past-65535", "endpoints-entry"])
    def test_bad_endpoint_port_exits_1(self, capsys, argv):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "bad endpoint" in err and "Traceback" not in err

    def test_single_client_glock_columns(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--scheme", "glock", "--seed", "5",
            "--override", "clients=1", "--override", "tasks_per_client=2",
            "--override", "op_delay_ms=0", "--override", "buckets=16",
            "--override", "user_population=8",
            "--out", str(out),
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["scheme"] == "glock"
        assert float(cols["abort_ratio"]) == 0.0
        assert float(cols["retry_rate"]) == 1.0
        assert int(cols["commits"]) >= 1

    def test_record_verify_round_trip(self, tmp_path):
        events = tmp_path / "events.tsv"
        snap = tmp_path / "final.snap"
        code = run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--scheme", "fgl", "--seed", "9",
            "--override", "clients=2", "--override", "tasks_per_client=1",
            "--override", "op_delay_ms=0", "--override", "buckets=8",
            "--override", "user_population=8",
            "--record", str(events), "--snapshot-out", str(snap),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 0
        assert run_cli("verify", "--events", str(events), "--snapshot", str(snap)) == 0

    def test_occ_conflict_run_passes_verify(self, tmp_path):
        # Contended optimistic run: retries happen, yet the recorded run
        # must still admit a serial witness.
        events = tmp_path / "events.tsv"
        snap = tmp_path / "final.snap"
        code = run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--scheme", "occ", "--seed", "31",
            "--override", "clients=3", "--override", "tasks_per_client=1",
            "--override", "op_delay_ms=1", "--override", "buckets=1",
            "--override", "user_population=8",
            "--record", str(events), "--snapshot-out", str(snap),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 0
        assert run_cli("verify", "--events", str(events), "--snapshot", str(snap)) == 0

    def test_repeat_adds_mean_row(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--scheme", "glock", "--repeat", "2",
            "--override", "clients=1", "--override", "tasks_per_client=1",
            "--override", "op_delay_ms=0", "--override", "buckets=8",
            "--override", "user_population=8",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 + 1  # header, two repetitions, mean
        assert lines[-1].split(",")[2] == "mean"

    def test_mean_row_leaves_a_column_some_repetition_lacks_empty(self):
        rows = [{"seed": 5, "commits": 2, "mft_get_by_keyword_s": 0.4},
                {"seed": 7, "commits": 4},
                {"seed": 9, "commits": 6, "mft_get_by_keyword_s": 0.1}]
        mean = _mean_row(rows)
        assert mean["seed"] == "mean" and mean["commits"] == 4.0
        assert "mft_get_by_keyword_s" not in mean

    def test_repeat_mean_row_of_a_kind_not_every_repetition_ran(self, tmp_path):
        # Seed 7's run commits neither kind below, and seed 9's no reset_cutoff.
        out = tmp_path / "report.csv"
        code = run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--override", "tasks_per_client=1", "--override", "clients=2",
            "--override", "op_delay_ms=0", "--repeat", "3", "--seed", "5",
            "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [row["seed"] for row in rows] == ["5", "7", "9", "mean"]
        for col in ("mft_get_by_keyword_s", "mft_reset_cutoff_s"):
            assert rows[0][col] and not rows[1][col]
            assert rows[3][col] == ""
        assert float(rows[3]["commits"]) == sum(int(row["commits"]) for row in rows[:3]) / 3

    def test_repetition_seeds_are_spaced_past_the_client_ids(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--scheme", "glock", "--seed", "9", "--repeat", "3",
            "--override", "clients=3", "--override", "tasks_per_client=1",
            "--override", "op_delay_ms=0", "--override", "buckets=8",
            "--override", "user_population=8",
            "--out", str(out),
        )
        assert code == 0
        seeds = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert seeds == ["9", "13", "17", "mean"]

    def test_missing_endpoints_is_usage_error(self):
        assert run_cli("run", "--config", "standard") == 1

    def test_in_process_overrides_endpoints(self, tmp_path):
        # The same cluster config runs over loopback when asked to.
        cfg = apply_overrides(
            load_scenario("standard"),
            {"nodes": "2", "clients": "1", "tasks_per_client": "1",
             "op_delay_ms": "0", "buckets": "8", "user_population": "8",
             "scheme": "glock", "endpoints": "127.0.0.1:1,127.0.0.1:2"},
        )
        path = tmp_path / "both.cfg"
        path.write_text(dump_config(cfg))
        assert run_cli("run", "--config", str(path), "--in-process", "2",
                       "--out", str(tmp_path / "r.csv")) == 0

    def test_unreachable_cluster_fails_before_load(self, tmp_path):
        cfg = load_scenario("standard")
        cfg = apply_overrides(
            cfg, {"endpoints": ",".join(f"127.0.0.1:{p}" for p in (1, 2, 3, 4))}
        )
        path = tmp_path / "bad.cfg"
        path.write_text(dump_config(cfg))
        assert run_cli("run", "--config", str(path)) == 2


class TestSweepCommand:
    def test_delay_sweep_blocks(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--config", "standard", "--in-process", "2",
            "--scheme", "glock", "--axis", "delay", "--values", "0,1",
            "--override", "clients=1", "--override", "tasks_per_client=1",
            "--override", "buckets=8", "--override", "user_population=8",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["axis", "axis_value"]
        values = [line.split(",")[1] for line in lines[1:]]
        assert values == ["0", "1"]

    def test_scheme_sweep_has_four_blocks(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--config", "standard", "--in-process", "2",
            "--axis", "scheme", "--values", "glock,fgl,occ,pesv",
            "--override", "clients=2", "--override", "tasks_per_client=1",
            "--override", "op_delay_ms=0", "--override", "buckets=8",
            "--override", "user_population=8",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["glock", "fgl", "occ", "pesv"]

    def test_sweep_repetitions_use_the_repetition_seeds(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--config", "standard", "--in-process", "2", "--seed", "5",
            "--scheme", "glock", "--axis", "clients", "--values", "1,2", "--repeat", "2",
            "--override", "tasks_per_client=1", "--override", "op_delay_ms=0",
            "--override", "buckets=8", "--override", "user_population=8",
            "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        # axis, axis_value, scenario, scheme, seed, clients, ...
        assert [(row[1], row[4]) for row in rows] == [("1", "5"), ("1", "6"),
                                                      ("2", "5"), ("2", "7")]

    def test_unknown_axis_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--config", "standard", "--axis", "nope", "--values", "1")
        assert exc.value.code == 1


class TestVerifyCommand:
    def test_unserializable_fixture_exits_3(self, tmp_path):
        from test_verify import write_skew_history  # fixture construction

        history, final = write_skew_history()
        events = []
        from helenos.metrics import BucketOp, ClientEnd, ClientStart, Commit, TxnStart

        events.append(ClientStart(0, 0))
        for effect in history.effects:
            events.append(TxnStart(effect.commit_ns - 10, effect.txn_id, 0, "skew"))
            for op in effect.ops:
                events.append(BucketOp(effect.commit_ns - 5, effect.txn_id, 0, 1,
                                       op.bucket, op.op_index, op.kind, op.key,
                                       op.value, op.bucket_seq))
            events.append(Commit(effect.commit_ns, effect.txn_id, 0, 1))
        events.append(ClientEnd(200, 0))

        events_path = tmp_path / "events.tsv"
        with open(events_path, "w") as fh:
            write_event_log(events, fh)
        snap_path = tmp_path / "state.snap"
        entries = sorted(
            (key.encode(), wire.encode_entry(key.table, value))
            for key, value in final.items()
        )
        snap_path.write_bytes(pack_snapshot(entries))

        assert run_cli("verify", "--events", str(events_path),
                       "--snapshot", str(snap_path)) == 3

    def test_unknown_op_kind_in_a_recorded_run_exits_3(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        snap = tmp_path / "final.snap"
        assert run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--scheme", "glock", "--seed", "9",
            "--override", "clients=2", "--override", "tasks_per_client=2",
            "--override", "op_delay_ms=0", "--override", "buckets=8",
            "--override", "user_population=8",
            "--record", str(events), "--snapshot-out", str(snap),
            "--out", str(tmp_path / "r.csv"),
        ) == 0
        lines = events.read_text().splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if '"kind":"append"' in line)
        lines[lineno - 1] = lines[lineno - 1].replace('"kind":"append"', '"kind":"apend"')
        events.write_text("".join(lines))
        capsys.readouterr()
        assert run_cli("verify", "--events", str(events), "--snapshot", str(snap)) == 3
        err = capsys.readouterr().err
        assert f"event log line {lineno}: unknown op kind 'apend'" in err
        assert "Traceback" not in err

    # One transaction per task at this seed: 10 commits, then 12.
    @pytest.mark.parametrize("tasks, mode", [("5", "brute-force"), ("6", "conflict-graph")])
    def test_recorded_run_checked_by_its_size(self, tmp_path, capsys, tasks, mode):
        events = tmp_path / "events.tsv"
        snap = tmp_path / "final.snap"
        assert run_cli(
            "run", "--config", "standard", "--in-process", "2",
            "--scheme", "glock", "--seed", "9",
            "--override", "clients=2", "--override", f"tasks_per_client={tasks}",
            "--override", "op_delay_ms=0", "--override", "buckets=8",
            "--override", "user_population=8",
            "--record", str(events), "--snapshot-out", str(snap),
            "--out", str(tmp_path / "r.csv"),
        ) == 0
        capsys.readouterr()
        assert run_cli("verify", "--events", str(events), "--snapshot", str(snap)) == 0
        assert f"serializable: PASS ({mode})" in capsys.readouterr().out

    def test_long_witness_is_shortened(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        snap = tmp_path / "final.snap"
        assert run_cli(
            "run", "--config", "standard", "--in-process", "4", "--scheme", "glock",
            "--seed", "7", "--record", str(events), "--snapshot-out", str(snap),
            "--out", str(tmp_path / "r.csv"),
        ) == 0
        capsys.readouterr()
        assert run_cli("verify", "--events", str(events), "--snapshot", str(snap)) == 0
        out = capsys.readouterr().out
        assert "serializable: PASS (conflict-graph)" in out
        # The run commits 97 transactions; the full order took 1,168 characters.
        (line,) = [line for line in out.splitlines() if "witness order" in line]
        assert line.startswith("  witness order (97 transactions): ")
        assert line.endswith(" ...") and len(line) < 200
        assert len(line.split(": ")[1].split()) == 10 + 1


class TestRepetitionSeeds:
    @pytest.mark.parametrize("clients, step", [(1, 1), (2, 2), (3, 4), (4, 4), (32, 32),
                                               (33, 64)])
    def test_spaced_by_a_power_of_two_at_least_clients(self, clients, step):
        cfg = replace(load_scenario("standard"), clients=clients, seed=42)
        assert repetition_seeds(cfg, 1) == [42]
        assert repetition_seeds(cfg, 3) == [42, 42 + step, 42 + 2 * step]

    def test_repetitions_are_distinct_workloads(self):
        cfg = replace(load_scenario("standard"), scheme=Scheme.GLOCK, nodes=2, clients=4,
                      tasks_per_client=3, op_delay_ms=0, buckets=8, seed=8)

        def client_streams(seed: int) -> Counter:
            """The multiset of per-client task streams: each client's
            transaction kinds and storage ops, in order."""
            streams: dict[int, list] = {}
            for ev in run_in_process(replace(cfg, seed=seed)).events:
                if isinstance(ev, TxnStart):
                    streams.setdefault(ev.client_id, []).append(ev.kind)
                elif isinstance(ev, BucketOp):
                    streams.setdefault(ev.client_id, []).append((ev.kind, ev.key))
            return Counter(tuple(stream) for stream in streams.values())

        seeds = repetition_seeds(cfg, 3)
        assert seeds[0] == cfg.seed
        runs = [client_streams(seed) for seed in seeds]
        assert all(runs[i] != runs[j] for i in range(3) for j in range(i + 1, 3))
        # The step this replaces: seed + 1 hands the same streams to other clients.
        assert client_streams(cfg.seed + 1) == runs[0]


# sha256 of the snapshot of ``helenos run --config standard --in-process 4
# --scheme glock --seed 7``. Glock runs its clients round-robin on one thread,
# so the seed fixes the snapshot, and this hash is frozen.
GLOCK_SEED_7_SHA256 = "e5431115c279dc7ae863ba30ef4a040276624475438415931c4a573f720d6e08"


def test_frozen_glock_snapshot_hash():
    cfg = replace(load_scenario("standard"), nodes=4, endpoints=(), scheme=Scheme.GLOCK, seed=7)
    artifacts = run_in_process(cfg)
    assert hashlib.sha256(artifacts.snapshot).hexdigest() == GLOCK_SEED_7_SHA256


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "helenos", "scenarios"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == bundled_scenarios()


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def write_tcp_config(tmp_path, ports, **overrides) -> str:
    cfg = load_scenario("standard")
    pairs = {
        "nodes": str(len(ports)), "clients": "2", "tasks_per_client": "1",
        "op_delay_ms": "0", "buckets": "8", "user_population": "8",
        "scheme": "glock",
        "endpoints": ",".join(f"127.0.0.1:{p}" for p in ports),
    }
    pairs.update({k: str(v) for k, v in overrides.items()})
    cfg = apply_overrides(cfg, pairs)
    path = tmp_path / "cluster.cfg"
    path.write_text(dump_config(cfg))
    return str(path)


def spawn_node(config: str, node_id: str, port: int) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "helenos.cli", "node",
         "--listen", f"127.0.0.1:{port}", "--node-id", node_id,
         "--config", config],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("READY"), f"node never became ready: {line!r}"
    return proc


@pytest.mark.tcp
class TestNodeCommand:
    def test_ready_then_pong(self, tmp_path):
        port = free_port()
        config = write_tcp_config(tmp_path, [port])
        proc = spawn_node(config, "node0", port)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(wire.control_request(1, wire.Op.PING))
                reply = read_frame_from(sock)
            _, opcode, body = wire.decode_reply(reply)
            assert (opcode, body) == (wire.Op.OK, b"PONG")
        finally:
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == 0

    def test_duplicate_bind_exits_nonzero(self, tmp_path):
        port = free_port()
        config = write_tcp_config(tmp_path, [port])
        proc = spawn_node(config, "node0", port)
        try:
            dup = subprocess.run(
                [sys.executable, "-m", "helenos.cli", "node",
                 "--listen", f"127.0.0.1:{port}", "--node-id", "node0",
                 "--config", config],
                capture_output=True, text=True, timeout=20,
            )
            assert dup.returncode != 0
            assert dup.stderr.strip()
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=15)

    def test_graceful_shutdown_drains_in_flight_request(self, tmp_path):
        port = free_port()
        config = write_tcp_config(tmp_path, [port])
        proc = spawn_node(config, "node0", port)
        key = seqno_key(1)
        from helenos.model import bucket_of
        bucket = bucket_of(key, 8)
        cc = wire.CcBlock(Scheme.NONE, 1, 1, 1, delay_ms=400)
        frame_bytes = wire.storage_request(7, bucket, wire.Read(key), cc)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(frame_bytes)
                time.sleep(0.1)  # request now in flight, sleeping server-side
                proc.send_signal(signal.SIGINT)
                reply = read_frame_from(sock)  # must still be answered
            request_id, opcode, _ = wire.decode_reply(reply)
            assert (request_id, opcode) == (7, wire.Op.OK)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_transport_equivalence_via_cli(self, tmp_path):
        ports = [free_port(), free_port()]
        config = write_tcp_config(tmp_path, ports)
        procs = [spawn_node(config, f"node{i}", p) for i, p in enumerate(ports)]
        tcp_out = tmp_path / "tcp.csv"
        loop_out = tmp_path / "loop.csv"
        try:
            assert run_cli("run", "--config", config, "--seed", "3",
                           "--out", str(tcp_out)) == 0
        finally:
            for proc in procs:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=15)
        assert run_cli("run", "--config", config, "--seed", "3",
                       "--in-process", "2", "--out", str(loop_out)) == 0

        def parse(path):
            header, row = path.read_text().splitlines()
            return dict(zip(header.split(","), row.split(",")))

        tcp_row, loop_row = parse(tcp_out), parse(loop_out)
        assert tcp_row["commits"] == loop_row["commits"]
        assert tcp_row["snapshot_sha256"] == loop_row["snapshot_sha256"]
