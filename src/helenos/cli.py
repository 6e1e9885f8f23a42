"""Command-line entry point: ``helenos node | run | sweep | verify``.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 verification
failure. Set HELENOS_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
from dataclasses import replace

from .config import ScenarioConfig, apply_overrides, bundled_scenarios, load_scenario
from .driver import repetition_seeds, run_in_process, run_scenario
from .errors import ConfigError, HelenosError, VerificationError
from .metrics import METRIC_COLUMNS, read_event_log, report_row, write_event_log, write_report_csv
from .model import RingLayout
from .store import Node
from .transport import TcpNodeServer, TcpTransport, unwrap_reply
from .verify import check_run
from .wire import Op, control_request

log = logging.getLogger("helenos")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

SWEEP_AXES = {
    "buckets": "buckets",
    "delay": "op_delay_ms",
    "clients": "clients",
    "tasks": "tasks_per_client",
    "nodes": "nodes",
    "msglen": "message_length",
    "scheme": "scheme",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _setup_logging() -> None:
    level = os.environ.get("HELENOS_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="helenos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_node = sub.add_parser("node", help="serve one store node over TCP")
    p_node.add_argument("--listen", required=True, help="host:port to bind")
    p_node.add_argument("--node-id", required=True,
                        help="this node's identifier (node<i>, by endpoint order)")
    p_node.add_argument("--config", required=True, help="scenario file or bundled name")

    p_run = sub.add_parser("run", help="run a scenario and report metrics")
    _add_run_args(p_run)
    p_run.add_argument("--repeat", type=int, default=1,
                       help="repetitions (seeds spaced by the least power of two >= clients)")
    p_run.add_argument("--record", help="write the event log here (TSV)")
    p_run.add_argument("--snapshot-out", help="write the final snapshot dump here")

    p_sweep = sub.add_parser("sweep", help="repeat a run across one parameter axis")
    _add_run_args(p_sweep)
    p_sweep.add_argument("--repeat", type=int, default=1)
    p_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")

    p_verify = sub.add_parser("verify", help="check a recorded run")
    p_verify.add_argument("--events", required=True, help="event log (TSV)")
    p_verify.add_argument("--snapshot", required=True, help="snapshot dump file")

    p_scen = sub.add_parser("scenarios", help="list bundled scenario files")
    del p_scen
    return parser


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="scenario file or bundled name")
    p.add_argument("--override", action="append", default=[], metavar="K=V",
                   help="override a scenario key (repeatable)")
    p.add_argument("--scheme", help="concurrency scheme: glock|fgl|occ|pesv")
    p.add_argument("--seed", type=int, help="base rng seed")
    p.add_argument("--in-process", type=int, metavar="N", dest="in_process",
                   help="host N nodes in this process over the loopback transport")
    p.add_argument("--out", help="write the CSV report here (default stdout)")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "node":
            return cmd_node(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "scenarios":
            for name in bundled_scenarios():
                print(name)
            return EXIT_OK
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"helenos: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"helenos: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except HelenosError as exc:
        print(f"helenos: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"helenos: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# node


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 0xFFFF:
        raise ConfigError(f"bad endpoint {text!r}, expected host:port with a port in 0-65535")
    return host, int(port)


def cmd_node(args) -> int:
    cfg = _load(args.config, [], None, None)
    node_ids = cfg.node_ids()
    if args.node_id not in node_ids:
        raise ConfigError(f"node id {args.node_id!r} not in {node_ids}")
    host, port = _parse_endpoint(args.listen)
    layout = RingLayout.from_node_ids(node_ids)
    node = Node(args.node_id, layout)
    try:
        server = TcpNodeServer(node, host, port)
    except OSError as exc:
        print(f"helenos node: cannot bind {args.listen}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    def _interrupt(_signum, _frame):
        log.info("draining in-flight requests")
        node.stopping.set()

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    print(f"READY {args.node_id} {server.host}:{server.port}", flush=True)
    server.serve_forever()
    return EXIT_OK


# ---------------------------------------------------------------------------
# run / sweep


def _load(config_ref: str, overrides: list[str], scheme: str | None,
          seed: int | None) -> ScenarioConfig:
    cfg = load_scenario(config_ref)
    pairs = {}
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not K=V")
        pairs[key.strip()] = value.strip()
    if scheme:
        pairs["scheme"] = scheme
    cfg = apply_overrides(cfg, pairs)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _execute(cfg: ScenarioConfig, in_process: int | None):
    if in_process:
        # Explicit --in-process wins over configured endpoints; the resolved
        # run is always endpoints-xor-loopback.
        cfg = replace(cfg, nodes=in_process, endpoints=())
        return cfg, run_in_process(cfg)
    if not cfg.endpoints:
        raise ConfigError("no endpoints in config; pass --in-process N or set endpoints")
    endpoints = dict(zip(cfg.node_ids(), map(_parse_endpoint, cfg.endpoints)))
    layout = RingLayout.from_node_ids(list(endpoints))
    probe = TcpTransport(endpoints, timeout=10.0)
    try:
        for i, node_id in enumerate(layout.node_ids):
            body = unwrap_reply(i + 1, probe.request(node_id, control_request(i + 1, Op.PING)))
            if body != b"PONG":
                raise HelenosError(f"unexpected ping reply from {node_id}")
    except (OSError, ConnectionError) as exc:
        raise HelenosError(f"cluster unreachable before applying load: {exc}") from exc

    transports: list[TcpTransport] = []

    def transport_for(_client: int) -> TcpTransport:
        t = TcpTransport(endpoints, timeout=600.0)
        transports.append(t)
        return t

    try:
        artifacts = run_scenario(cfg, transport_for, layout, snapshot_transport=probe)
    finally:
        for t in transports:
            t.close()
        probe.close()
    return cfg, artifacts


def _mean_row(rows: list[dict[str, object]]) -> dict[str, object]:
    out: dict[str, object] = dict(rows[0])
    out["seed"] = "mean"
    out["snapshot_sha256"] = "-"
    for col in METRIC_COLUMNS:
        values = [r[col] for r in rows if isinstance(r.get(col), (int, float))]
        if len(values) == len(rows):
            out[col] = sum(values) / len(values)
        else:  # a repetition lacks it: no mean, not one repetition's value
            out.pop(col, None)
    return out


def _emit_csv(rows, out_path: str | None, extra_columns=None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            write_report_csv(rows, fh, extra_columns)
    else:
        write_report_csv(rows, sys.stdout, extra_columns)


def cmd_run(args) -> int:
    base = _load(args.config, args.override, args.scheme, args.seed)
    if args.repeat < 1:
        raise ConfigError("--repeat must be >= 1")
    rows = []
    for rep, seed in enumerate(repetition_seeds(base, args.repeat)):
        cfg = replace(base, seed=seed)
        cfg, artifacts = _execute(cfg, args.in_process)
        rows.append(report_row(cfg, artifacts.report, artifacts.snapshot))
        if args.record:
            path = args.record if args.repeat == 1 else f"{args.record}.rep{rep}"
            with open(path, "w", encoding="utf-8") as fh:
                write_event_log(artifacts.events, fh)
        if args.snapshot_out:
            path = (args.snapshot_out if args.repeat == 1
                    else f"{args.snapshot_out}.rep{rep}")
            with open(path, "wb") as fh:
                fh.write(artifacts.snapshot)
        log.info("run %s seed=%s commits=%s throughput=%.2f/s",
                 cfg.name, cfg.seed, artifacts.report.commits,
                 artifacts.report.throughput)
    if args.repeat > 1:
        rows.append(_mean_row(rows))
    _emit_csv(rows, args.out)
    return EXIT_OK


def _axis_values(text: str) -> list[str]:
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values is empty")
    return values


def cmd_sweep(args) -> int:
    base = _load(args.config, args.override, args.scheme, args.seed)
    if args.repeat < 1:
        raise ConfigError("--repeat must be >= 1")
    field = SWEEP_AXES[args.axis]
    rows = []
    for value in _axis_values(args.values):
        cfg_v = apply_overrides(base, {field: value})
        for seed in repetition_seeds(cfg_v, args.repeat):
            cfg = replace(cfg_v, seed=seed)
            cfg, artifacts = _execute(cfg, args.in_process)
            row = report_row(cfg, artifacts.report, artifacts.snapshot)
            row["axis"] = args.axis
            row["axis_value"] = value
            rows.append(row)
    _emit_csv(rows, args.out, extra_columns=["axis", "axis_value"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


# The witness ids ``helenos verify`` prints; a long run's order ends in "...".
WITNESS_SHOWN = 10


def cmd_verify(args) -> int:
    with open(args.events, "r", encoding="utf-8") as fh:
        events = read_event_log(fh)
    with open(args.snapshot, "rb") as fh:
        snapshot = fh.read()
    serial, integrity = check_run(events, snapshot)

    print(f"serializable: {'PASS' if serial.ok else 'FAIL'} ({serial.mode})")
    if serial.ok and serial.witness is not None:
        witness = serial.witness
        more = " ..." if len(witness) > WITNESS_SHOWN else ""
        print(f"  witness order ({len(witness)} transactions):",
              " ".join(map(str, witness[:WITNESS_SHOWN])) + more)
    if not serial.ok:
        print(f"  {serial.detail}")
    print(f"integrity:    {'PASS' if integrity.ok else 'FAIL'}")
    for violation in integrity.violations[:20]:
        print(f"  {violation}")
    return EXIT_OK if serial.ok and integrity.ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
