"""Scenario configuration: parameters, task mix, and the file format.

Scenario files are flat ``key = value`` text with one ``[probabilities]``
section holding the task-type mix. Ranges are written ``lo..hi``. The
parser and serializer round-trip: parse(serialize(parse(text))) equals
parse(text).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from importlib import resources

from .errors import ConfigError
from .transport import in_process_node_ids
from .wire import SCHEME_NAMES, Scheme


# The largest value the wire carries of each key: a request's u16 delay, a
# message's u16 word count, and a u32 bucket index below the bucket count.
_WIRE_LIMITS = {"op_delay_ms": 0xFFFF, "message_length": 0xFFFF, "buckets": 1 << 32}


class TaskType(Enum):
    TERM_SEARCH = "term_search"
    INTERACTION_SEARCH = "interaction_search"
    SEND_UNICAST = "send_unicast"
    SEND_MULTICAST = "send_multicast"
    BATCH_IMPORT = "batch_import"
    CLEAR_INBOX = "clear_inbox"
    ASSOCIATION_LEVEL = "association_level"
    INDEXING = "indexing"


@dataclass(frozen=True)
class ScenarioConfig:
    """All workload and deployment parameters for one run."""

    name: str = "custom"
    nodes: int = 4
    buckets: int = 256
    clients: int = 32
    tasks_per_client: int = 3
    message_length: int = 8
    keyword_domain: int = 64
    user_population: int = 128
    op_delay_ms: int = 1
    multicast_recipients: tuple[int, int] = (2, 5)
    import_batch: tuple[int, int] = (2, 8)
    query_keyword_cap: int = 4
    index_cap: int = 3
    scheme: Scheme = Scheme.FGL
    seed: int = 42
    probabilities: dict[TaskType, float] = field(
        default_factory=lambda: {t: 0.125 for t in TaskType}
    )
    endpoints: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("nodes", "buckets", "clients", "tasks_per_client",
                     "message_length", "keyword_domain", "user_population",
                     "query_keyword_cap", "index_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name, limit in _WIRE_LIMITS.items():
            if getattr(self, name) > limit:
                raise ConfigError(f"{name} must be <= {limit}, the most the wire carries")
        if self.op_delay_ms < 0:
            raise ConfigError("op_delay_ms must be >= 0")
        if self.user_population < 2:
            raise ConfigError("user_population must be >= 2 (tasks need distinct users)")
        for name in ("multicast_recipients", "import_batch"):
            lo, hi = getattr(self, name)
            if not (1 <= lo <= hi):
                raise ConfigError(f"{name} range {lo}..{hi} is invalid")
        if self.multicast_recipients[1] >= self.user_population:
            raise ConfigError("multicast recipients cannot exceed the other users")
        if set(self.probabilities) != set(TaskType):
            raise ConfigError("probabilities must cover every task type exactly")
        for task, p in self.probabilities.items():
            if not (math.isfinite(p) and p >= 0):  # NaN fails every comparison
                raise ConfigError(f"task probability {task.value} = {p} must be finite and >= 0")
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"task probabilities sum to {total}, expected 1")
        if self.endpoints and len(self.endpoints) != self.nodes:
            raise ConfigError("endpoints must match the node count")

    def node_ids(self) -> list[str]:
        return in_process_node_ids(self.nodes)

    @cached_property
    def task_bounds(self) -> tuple[list[float], tuple[TaskType, ...]]:
        """The task pick table, built once per config: ``bounds[i]`` is the
        sum of the first i + 1 task probabilities, added in ``TaskType``
        order, and a roll picks ``tasks[i]`` for the first bound above it.
        ``tasks`` ends with the last task type once more, for a roll that
        floating-point residue leaves above every bound."""
        bounds, acc = [], 0.0
        for task in TaskType:
            acc += self.probabilities[task]
            bounds.append(acc)
        return bounds, (*TaskType, list(TaskType)[-1])


_RANGE_FIELDS = {"multicast_recipients", "import_batch"}
_SKIP_FIELDS = {"probabilities", "name"}
# Keys a scenario file's main section or an override may set.
_SCALAR_FIELDS = {f.name for f in fields(ScenarioConfig)} - _SKIP_FIELDS


def parse_config(text: str, name: str = "custom") -> ScenarioConfig:
    values: dict[str, object] = {"name": name}
    probs: dict[TaskType, float] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != "probabilities":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section == "probabilities":
            try:
                probs[TaskType(key)] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad probability entry {key!r}") from None
        else:
            values[key] = _parse_value(key, value, f"line {lineno}")
    if probs:
        values["probabilities"] = probs
    return ScenarioConfig(**values)  # type: ignore[arg-type]


def _parse_value(key: str, value: str, where: str) -> object:
    """Parse one scalar or range key; ``where`` prefixes error messages."""
    if key not in _SCALAR_FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if key == "scheme":
        try:
            return SCHEME_NAMES[value.lower()]
        except KeyError:
            raise ConfigError(f"{where}: unknown scheme {value!r}") from None
    if key == "endpoints":
        return tuple(part.strip() for part in value.split(",") if part.strip())
    try:
        if key in _RANGE_FIELDS:
            lo, sep, hi = value.partition("..")
            if not sep:
                raise ConfigError(f"{where}: {key} expects lo..hi")
            return (int(lo), int(hi))
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: bad number for {key}: {value!r}") from None


def dump_config(cfg: ScenarioConfig) -> str:
    lines = []
    for f in fields(ScenarioConfig):
        if f.name in _SKIP_FIELDS:
            continue
        value = getattr(cfg, f.name)
        if f.name in _RANGE_FIELDS:
            rendered = f"{value[0]}..{value[1]}"
        elif f.name == "scheme":
            rendered = value.name.lower()
        elif f.name == "endpoints":
            if not value:
                continue
            rendered = ",".join(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    lines.append("")
    lines.append("[probabilities]")
    for task in TaskType:
        lines.append(f"{task.value} = {cfg.probabilities[task]}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ScenarioConfig, overrides: dict[str, str]) -> ScenarioConfig:
    changes = {key: _parse_value(key, value, "override") for key, value in overrides.items()}
    return replace(cfg, **changes)  # type: ignore[arg-type]


def load_scenario(ref: str) -> ScenarioConfig:
    """Load a scenario by file path or by bundled name (e.g. ``standard``)."""
    import os

    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            name = os.path.splitext(os.path.basename(ref))[0]
            return parse_config(fh.read(), name=name)
    candidate = ref if ref.endswith(".cfg") else f"{ref}.cfg"
    pkg_files = resources.files("helenos").joinpath("scenarios")
    entry = pkg_files.joinpath(candidate)
    if entry.is_file():
        return parse_config(entry.read_text(encoding="utf-8"),
                            name=candidate.removesuffix(".cfg"))
    raise ConfigError(f"no such scenario file or bundled scenario: {ref!r}")


def bundled_scenarios() -> list[str]:
    pkg_files = resources.files("helenos").joinpath("scenarios")
    return sorted(
        entry.name.removesuffix(".cfg")
        for entry in pkg_files.iterdir()
        if entry.name.endswith(".cfg")
    )
