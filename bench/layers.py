"""The per-layer metrics: what each one is, where its value comes from
and which end-to-end number it should move, written down before
measuring.

``PER_LAYER`` is the one table behind the printed ledger,
``per_layer_metrics`` and ``BENCHMARK.json``'s ``per_layer`` list (which
may hold only name/unit/better, so the layer and the target live here
and in ``README.md``).  ``*_s`` values are span *self* times: duration
minus the part covered by child spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from tracing import Ledger, Recorder, span_values


@dataclass
class Traced:
    """What one traced run left behind, as the metrics read it."""

    recorder: Recorder
    ledger: Ledger
    #: numbers read from the run's own outcome (commands, network
    #: totals, obs counters) rather than from spans
    facts: Dict[str, float]
    untraced_wall_s: float

    def values(self, span: str, parent: str = None) -> list:
        return span_values(self.recorder, span, parent)


Read = Callable[[Traced], float]


def self_s(span: str) -> Read:
    return lambda t: t.ledger.self_s.get(span, 0.0)


def calls(span: str) -> Read:
    return lambda t: t.ledger.calls.get(span, 0)


def fact(key: str) -> Read:
    return lambda t: t.facts[key]


def summed(span: str) -> Read:
    """Sum of the values the wrapper attached to each span."""
    return lambda t: sum(t.values(span))


def _mean_replicas(t: Traced) -> float:
    replicas = t.values("md.batched")
    return sum(replicas) / len(replicas) if replicas else 0.0


def _polls(t: Traced) -> list:
    # of the worker spans only work_once (one poll cycle) carries a value
    return [v for v in t.values("worker") if v is not None]


def _merges(t: Traced) -> list:
    """(mdrun commands fetched, commands merged, batches made) per call."""
    return [v for v in t.values("worker.coalesce") if v is not None]


def _coalesce_ratio(t: Traced) -> float:
    fetched = sum(v[0] for v in _merges(t))
    return sum(v[1] for v in _merges(t)) / fetched if fetched else 0.0


#: WAL record header bytes (length + CRC32), written next to each payload
_WAL_HEADER_BYTES = 8


def _wal_bytes(t: Traced) -> int:
    payloads = t.values("serialization.encode", "wal.append")
    return sum(payloads) + _WAL_HEADER_BYTES * len(payloads)


def _fsyncs_per_command(t: Traced) -> float:
    commands = t.facts["commands_completed"]
    return t.ledger.calls.get("wal.fsync", 0) / commands if commands else 0.0


def _handled(t: Traced) -> int:
    return sum(
        n
        for span, n in t.ledger.calls.items()
        if span.startswith("server.") and span != "server.submit"
    )


# what a layer's metrics should move: (end-to-end metric, workloads)
_MD_BATCHED = ("replica_steps_per_s", "ensemble64, adaptive_msm")
_MD_SERIAL = ("replica_steps_per_s", "serial_swarm")
_COALESCE = ("replica_steps_per_s", "adaptive_msm")
_CONTROL = ("commands_per_s", "control_plane")
_SERIAL = ("commands_per_s", "control_plane; wall_s on serial_swarm, adaptive_msm")
_CONTROLLER = ("wall_s", "adaptive_msm")
_SETUP = ("setup_s", "all")
_NONE = ("-", "-")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    read: Read
    layer: str
    moves: tuple


def _m(layer: str, moves: tuple, *rows: tuple) -> List[LayerMetric]:
    """``(name, unit, better, read)`` rows -> metrics of one layer."""
    return [LayerMetric(*row, layer, moves) for row in rows]


PER_LAYER: List[LayerMetric] = [
    *_m(
        "md.forcefield",
        _MD_BATCHED,
        ("md.forcefield.bonded.self_s", "s", "lower", self_s("md.forcefield.bonded")),
        ("md.forcefield.go.self_s", "s", "lower", self_s("md.forcefield.go")),
        ("md.forcefield.nonbonded.self_s", "s", "lower", self_s("md.forcefield.nonbonded")),
        ("md.forcefield.scatter.self_s", "s", "lower", self_s("md.forcefield.scatter")),
        ("md.forcefield.scatter.calls", "count", "lower", calls("md.forcefield.scatter")),
        ("md.forcefield.evals", "count", "lower", calls("md.forcefield.sum")),
        # batched calls carry their replica count; a serial call is one replica
        (
            "md.forcefield.replica_evals",
            "count",
            "lower",
            lambda t: sum(v or 1 for v in t.values("md.forcefield.sum")),
        ),
    ),
    *_m(
        "md.forcefield",
        _MD_SERIAL,
        ("md.forcefield.toy.self_s", "s", "lower", self_s("md.forcefield.toy")),
    ),
    *_m(
        "md.integrators",
        _MD_SERIAL,
        ("md.integrators.self_s", "s", "lower", self_s("md.integrators")),
        ("md.integrators.steps", "count", "lower", calls("md.integrators")),
    ),
    *_m(
        "md.batched",
        _MD_BATCHED,
        ("md.batched.self_s", "s", "lower", self_s("md.batched")),
        ("md.batched.steps", "count", "lower", calls("md.batched")),
    ),
    *_m(
        "md.batched",
        _COALESCE,
        ("md.batched.mean_replicas", "count", "higher", _mean_replicas),
    ),
    *_m(
        "md.engine",
        _MD_SERIAL,
        ("md.engine.self_s", "s", "lower", self_s("md.engine")),
        ("md.engine.runs", "count", "lower", calls("md.engine")),
    ),
    *_m(
        "md.engine",
        _SETUP,
        ("md.engine.resolve_model_s", "s", "lower", self_s("md.engine.resolve_model")),
    ),
    *_m(
        "worker",
        _CONTROL,
        ("worker.self_s", "s", "lower", self_s("worker")),
        ("worker.polls", "count", "lower", lambda t: len(_polls(t))),
        (
            "worker.empty_polls",
            "count",
            "lower",
            lambda t: sum(1 for done in _polls(t) if done == 0),
        ),
        ("worker.executable_s", "s", "lower", self_s("worker.executable")),
    ),
    *_m(
        "worker",
        _COALESCE,
        ("worker.coalesce_s", "s", "lower", self_s("worker.coalesce")),
        ("worker.batches", "count", "lower", lambda t: sum(v[2] for v in _merges(t))),
        ("worker.coalesce_ratio", "ratio", "higher", _coalesce_ratio),
    ),
    *_m(
        "util.serialization",
        _SERIAL,
        ("serialization.encode_s", "s", "lower", self_s("serialization.encode")),
        ("serialization.encode_calls", "count", "lower", calls("serialization.encode")),
        ("serialization.encode_bytes", "B", "lower", summed("serialization.encode")),
        ("serialization.decode_s", "s", "lower", self_s("serialization.decode")),
        ("serialization.size_only_calls", "count", "lower", calls("serialization.size_only")),
        # message_size is a full encode done only to count bytes: the
        # cost is the whole call, encode included
        (
            "serialization.size_only_s",
            "s",
            "lower",
            lambda t: t.ledger.total_s.get("serialization.size_only", 0.0),
        ),
    ),
    *_m(
        "net.transport",
        _CONTROL,
        ("net.self_s", "s", "lower", self_s("net")),
        ("net.messages", "count", "lower", fact("net.messages")),
        ("net.bytes", "B", "lower", fact("net.bytes")),
        ("net.retries", "count", "lower", fact("net.retries")),
    ),
    *_m(
        "server.server",
        _CONTROL,
        ("server.workload_request.self_s", "s", "lower", self_s("server.workload_request")),
        ("server.command_result.self_s", "s", "lower", self_s("server.command_result")),
        ("server.heartbeat.self_s", "s", "lower", self_s("server.heartbeat")),
        ("server.other.self_s", "s", "lower", self_s("server.other")),
        ("server.handled", "count", "lower", _handled),
        ("server.submit.self_s", "s", "lower", self_s("server.submit")),
        ("server.duplicates_dropped", "count", "lower", fact("server.duplicates_dropped")),
        ("server.fenced_rejects", "count", "lower", fact("server.fenced_rejects")),
    ),
    *_m(
        "server.fairshare",
        _CONTROL,
        ("fairshare.build_s", "s", "lower", self_s("fairshare.build")),
        ("fairshare.builds", "count", "lower", calls("fairshare.build")),
        ("fairshare.deferred", "count", "lower", calls("fairshare.defer")),
    ),
    *_m(
        "server.wal",
        _CONTROL,
        ("wal.append_s", "s", "lower", self_s("wal.append")),
        ("wal.appends", "count", "lower", calls("wal.append")),
        ("wal.bytes", "B", "lower", _wal_bytes),
        ("wal.fsync_s", "s", "lower", self_s("wal.fsync")),
        ("wal.fsyncs", "count", "lower", calls("wal.fsync")),
        ("wal.fsyncs_per_command", "ratio", "lower", _fsyncs_per_command),
        ("wal.snapshot_s", "s", "lower", self_s("wal.snapshot")),
        ("wal.snapshots", "count", "lower", calls("wal.snapshot")),
        ("wal.recover_s", "s", "lower", self_s("wal.recover")),
        ("wal.recover_records", "count", "lower", summed("wal.recover")),
    ),
    *_m(
        "core.runner",
        _CONTROL,
        ("runner.self_s", "s", "lower", self_s("runner")),
        ("runner.cycles", "count", "lower", fact("runner.cycles")),
    ),
    *_m(
        "core.controller",
        _CONTROLLER,
        ("controller.busy_s", "s", "lower", self_s("controller")),
        ("controller.spawned", "count", "lower", summed("controller")),
    ),
    *_m(
        "msm",
        _CONTROLLER,
        ("msm.cluster_s", "s", "lower", self_s("msm.cluster")),
        ("msm.assign_s", "s", "lower", self_s("msm.assign")),
        ("msm.estimate_s", "s", "lower", self_s("msm.estimate")),
    ),
    *_m(
        "obs",
        _CONTROL,
        ("obs.busy_s", "s", "lower", self_s("obs")),
        ("obs.calls", "count", "lower", calls("obs")),
    ),
    *_m(
        "harness",
        _NONE,
        (
            "trace.overhead_frac",
            "ratio",
            "lower",
            lambda t: (t.ledger.wall_s - t.untraced_wall_s) / t.untraced_wall_s,
        ),
        ("trace.unattributed_frac", "ratio", "lower", lambda t: t.ledger.unattributed_frac()),
        # always 0 on a healthy tree, so it cannot take the relative
        # bound an end-to-end metric must carry
        ("failed_ops_frac", "ratio", "lower", fact("failed_ops_frac")),
    ),
]

#: layer groups for the acceptance shares printed under the ledger
GROUPS = {
    "md": ("md.",),
    "control": ("wal.", "serialization.", "fairshare.", "server.", "net"),
}


def group_share(ledger: Ledger, group: str) -> float:
    """Share of the traced wall spent (self time) in one layer group."""
    prefixes = GROUPS[group]
    busy = sum(
        t for span, t in ledger.self_s.items() if span.startswith(prefixes)
    )
    return busy / ledger.wall_s


def per_layer_metrics(traced: Traced) -> Dict[str, float]:
    """One value per ``PER_LAYER`` name from one traced run."""
    return {m.name: float(m.read(traced)) for m in PER_LAYER}
