"""Outside-in tracing: time the layers of ``repro`` without editing it.

A traced run rebinds the public call sites listed in :data:`SITES` with
timing wrappers, records one span per call in memory, and puts every
original attribute back afterwards.  Class attributes are patched on the
class; a module-level function is rebound in every loaded ``repro``
module that holds it (``from x import f`` copies the reference, so
patching the defining module alone would miss those callers).

A span is ``(sid, name_id, parent_sid, t0_ns, t1_ns, trace, value)``.
``sid`` is assigned at entry, so a parent always has a smaller sid than
its children; sid 0 is the root span the harness opens around the timed
API call.  A layer's *self* time is its spans' duration minus the part
covered by their child spans, so the self times of all names (root
included) add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

ROOT_SPAN = "bench.call"

#: Spans of one name written to a trace file; the per-step kernel spans
#: run into the hundreds of thousands and would make the file unreadable.
#: Self-time arithmetic always uses every span kept in memory.
TRACE_FILE_SPANS_PER_NAME = 20000


class Recorder:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT_SPAN]
        self._ids: Dict[str, int] = {ROOT_SPAN: 0}
        self.spans: List[tuple] = []
        self.stack: List[int] = [0]
        self.counter = itertools.count(1)
        self.root: Optional[Tuple[int, int]] = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        span: str,
        name_fn: Optional[Callable] = None,
        trace_fn: Optional[Callable] = None,
        value_fn: Optional[Callable] = None,
    ) -> Callable:
        """Timing wrapper around *fn* recording spans named *span*.

        ``name_fn(args) -> span name`` overrides the name per call,
        ``trace_fn(args) -> str | None`` starts a trace id (children
        inherit it), ``value_fn(args, result)`` attaches a value to the
        span.  Sites without hooks get the cheaper wrapper: they are the
        per-MD-step ones.
        """
        now = time.perf_counter_ns
        stack, out, counter = self.stack, self.spans, self.counter
        default_id = self.name_id(span)

        if name_fn is None and trace_fn is None and value_fn is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = next(counter)
                parent = stack[-1]
                stack.append(sid)
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = now()
                    stack.pop()
                    out.append((sid, default_id, parent, t0, t1, None, None))

            return traced

        name_id = self.name_id

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            sid = next(counter)
            parent = stack[-1]
            nid = name_id(name_fn(args)) if name_fn else default_id
            trace = trace_fn(args) if trace_fn else None
            value = None
            stack.append(sid)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                if value_fn is not None:
                    value = value_fn(args, result)
                return result
            finally:
                t1 = now()
                stack.pop()
                out.append((sid, nid, parent, t0, t1, trace, value))

        return traced_hooked

    def call(self, fn: Callable, *args, **kwargs):
        """Run the timed API call under the root span."""
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.root = (t0, time.perf_counter_ns())


# -- the wrapped call sites -------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One public call site: ``module`` + dotted ``attr`` -> span name."""

    span: str
    module: str
    attr: str
    name_fn: Optional[Callable] = None
    trace_fn: Optional[Callable] = None
    value_fn: Optional[Callable] = None


def _scoped(command) -> str:
    members = getattr(command, "members", None)
    if members:
        return (
            f"{command.project_id}::batch:{members[0].command_id}"
            f"+{len(members) - 1}"
        )
    return command.scoped_id


def _handle_name(args) -> str:
    kind = args[1].type.value
    if kind in ("workload_request", "command_result", "heartbeat"):
        return f"server.{kind}"
    return "server.other"


def _handle_trace(args) -> Optional[str]:
    message = args[1]
    if message.type.value != "command_result":
        return None
    command = message.payload["command"]
    return f"{command['project_id']}::{command['command_id']}"


def _coalesce_value(args, result) -> Tuple[int, int, int]:
    """(mdrun commands fetched, commands merged, batches made)."""
    fetched = sum(1 for c in args[0] if c.executable == "mdrun")
    batches = [c for c in result if getattr(c, "members", None)]
    return fetched, sum(len(b.members) for b in batches), len(batches)


def _sites(cls_module: str, span: str, *attrs: str, **hooks) -> List[Site]:
    return [Site(span, cls_module, attr, **hooks) for attr in attrs]


#: (span, module, force-term classes); each class contributes whichever of
#: ``energy_forces`` (serial) / ``compute_batch`` (batched) it defines.
_FORCE_TERMS = [
    (
        "md.forcefield.bonded",
        "repro.md.forcefield.bonded",
        ("HarmonicBondForce", "HarmonicAngleForce", "PeriodicDihedralForce"),
    ),
    ("md.forcefield.go", "repro.md.forcefield.go_model", ("GoContactForce",)),
    (
        "md.forcefield.nonbonded",
        "repro.md.forcefield.nonbonded",
        ("LennardJonesForce", "ReactionFieldElectrostatics", "ExcludedVolumeForce"),
    ),
    (
        "md.forcefield.toy",
        "repro.md.models.doublewell",
        ("DoubleWellForce", "TiltedDoubleWellForce"),
    ),
    ("md.forcefield.toy", "repro.md.models.muller_brown", ("MullerBrownForce",)),
]


SITES: List[Site] = [
    # md.forcefield
    *[
        Site(span, module, f"{cls}.{method}")
        for span, module, classes in _FORCE_TERMS
        for cls in classes
        for method in ("energy_forces", "compute_batch")
    ],
    Site("md.forcefield.scatter", "repro.md.forcefield.base", "SegmentScatter.add"),
    Site("md.forcefield.sum", "repro.md.system", "System.energy_forces"),
    Site(
        "md.forcefield.sum",
        "repro.md.batched",
        "BatchedSystem.energy_forces",
        value_fn=lambda args, result: args[1].shape[0],  # replicas
    ),
    # md.integrators / md.batched
    *_sites(
        "repro.md.integrators",
        "md.integrators",
        "VelocityVerletIntegrator.step",
        "LangevinIntegrator.step",
        "MarkovChainIntegrator.step",
        "NoseHooverIntegrator.step",
    ),
    *_sites(
        "repro.md.batched",
        "md.batched",
        "BatchedVelocityVerletIntegrator.step",
        "BatchedLangevinIntegrator.step",
        value_fn=lambda args, result: args[2].shape[0],  # replicas
    ),
    # md.engine
    *_sites("repro.md.engine", "md.engine", "MDEngine.run", "MDEngine.run_batched"),
    Site("md.engine.resolve_model", "repro.md.engine", "resolve_model"),
    # worker
    Site(
        "worker",
        "repro.worker.worker",
        "Worker.work_once",
        value_fn=lambda args, result: result,
    ),
    # run_command / submit_result are wrapped only to start one trace id
    # per command; their self time belongs to the worker layer
    *_sites(
        "repro.worker.worker",
        "worker",
        "Worker.run_command",
        "Worker.submit_result",
        trace_fn=lambda args: _scoped(args[1]),
    ),
    Site(
        "worker.coalesce",
        "repro.worker.coalesce",
        "coalesce_commands",
        value_fn=_coalesce_value,
    ),
    Site("worker.coalesce", "repro.worker.coalesce", "split_results"),
    Site("worker.executable", "repro.worker.executable", "run_executable"),
    # util.serialization
    Site(
        "serialization.encode",
        "repro.util.serialization",
        "encode_message",
        value_fn=lambda args, result: len(result),
    ),
    Site("serialization.decode", "repro.util.serialization", "decode_message"),
    Site("serialization.size_only", "repro.util.serialization", "message_size"),
    # net.transport
    *_sites("repro.net.transport", "net", "Network.deliver", "Endpoint.send"),
    # server.server
    Site(
        "server.other",
        "repro.server.server",
        "CopernicusServer.handle",
        name_fn=_handle_name,
        trace_fn=_handle_trace,
    ),
    Site("server.submit", "repro.server.server", "CopernicusServer.submit_commands"),
    # server.fairshare
    Site("fairshare.build", "repro.server.fairshare", "FairShareScheduler.build"),
    Site("fairshare.defer", "repro.server.fairshare", "FairShareScheduler.defer"),
    # server.wal (os.fsync: the WAL is the only caller in a run)
    Site("wal.append", "repro.server.wal", "WriteAheadLog.append"),
    Site("wal.fsync", "os", "fsync"),
    Site("wal.snapshot", "repro.server.wal", "ProjectJournal.snapshot"),
    Site(
        "wal.recover",
        "repro.server.wal",
        "ProjectJournal.recover",
        value_fn=lambda args, result: len(result.results),
    ),
    # core.runner / msm
    Site("runner", "repro.core.runner", "ProjectRunner.run"),
    Site("msm.cluster", "repro.msm.cluster", "KCentersClustering.fit"),
    Site("msm.assign", "repro.msm.cluster", "ClusterResult.assign"),
    Site("msm.estimate", "repro.msm.counts", "count_matrix_multi"),
    Site("msm.estimate", "repro.msm.model", "MarkovStateModel.fit"),
    # obs: the cost of observability itself
    *_sites(
        "repro.obs.metrics",
        "obs",
        "MetricsRegistry.inc",
        "MetricsRegistry.set_gauge",
        "MetricsRegistry.observe",
    ),
    *_sites("repro.obs.trace", "obs", "Tracer.begin", "Tracer.end", "Tracer.record"),
]

_CONTROLLER_HOOKS = ("on_project_start", "on_command_finished")


def _controller_sites() -> List[Site]:
    """The controller hooks of every loaded Controller subclass.

    They are the serial section every worker waits on; the set of
    classes is whatever the workload (and the benchmark's own noop
    controller) defined, so it is discovered, not listed.
    """
    from repro.core.controller import Controller

    sites, todo = [], list(Controller.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for hook in _CONTROLLER_HOOKS:
            if hook in vars(cls):
                sites.append(
                    Site(
                        "controller",
                        cls.__module__,
                        f"{cls.__qualname__}.{hook}",
                        value_fn=lambda args, result: len(result or ()),  # spawned
                    )
                )
    return sites


class Patch:
    """The set of rebound attributes of one traced run; ``undo`` restores."""

    def __init__(self) -> None:
        #: (owner object, attribute name, original value)
        self.bound: List[Tuple[object, str, object]] = []

    def bind(self, owner: object, attr: str, new: object) -> None:
        self.bound.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.bound):
            setattr(owner, attr, original)
        self.bound.clear()


def _holders(module, name: str, original: object) -> Iterable[Tuple[object, str]]:
    """Every (module, attribute) of the package that holds *original*."""
    package = module.__name__.split(".", 1)[0]
    yield module, name
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod is module:
            continue
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


def patch_all(recorder: Recorder) -> Patch:
    """Rebind every site with a timing wrapper; returns the undo handle."""
    patch = Patch()
    try:
        for site in SITES + _controller_sites():
            module = importlib.import_module(site.module)
            owner_path, _, attr = site.attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            if attr not in vars(owner):
                if owner is module:
                    raise AttributeError(f"{site.module}.{site.attr} not found")
                continue  # a force term without this kernel variant
            original = vars(owner)[attr]
            wrapped = recorder.wrap(
                original, site.span, site.name_fn, site.trace_fn, site.value_fn
            )
            if owner is module:
                for holder, name in _holders(module, attr, original):
                    patch.bind(holder, name, wrapped)
            else:
                patch.bind(owner, attr, wrapped)
    except BaseException:
        patch.undo()
        raise
    return patch


# -- reading the spans ------------------------------------------------------


@dataclass
class Ledger:
    """Per-name totals of one traced run (times in seconds)."""

    wall_s: float
    self_s: Dict[str, float]
    #: inclusive time (children included)
    total_s: Dict[str, float]
    calls: Dict[str, int]

    def unattributed_frac(self) -> float:
        return self.self_s[ROOT_SPAN] / self.wall_s


def self_times(
    names: List[str], spans: List[tuple], root: Tuple[int, int]
) -> Ledger:
    """Self time and call count per span name.

    ``self = duration - sum(children's durations)``; the root span (sid
    0) is given by *root* and is the parent of every top-level span.
    """
    n = len(spans) + 1
    sid = np.fromiter((s[0] for s in spans), dtype=np.int64, count=n - 1)
    name = np.zeros(n, dtype=np.int64)
    parent = np.zeros(n, dtype=np.int64)
    dur = np.zeros(n, dtype=np.float64)
    name[sid] = np.fromiter((s[1] for s in spans), dtype=np.int64, count=n - 1)
    parent[sid] = np.fromiter((s[2] for s in spans), dtype=np.int64, count=n - 1)
    dur[sid] = np.fromiter((s[4] - s[3] for s in spans), dtype=np.float64, count=n - 1)
    dur[0] = root[1] - root[0]
    covered = np.bincount(parent[1:], weights=dur[1:], minlength=n)
    self_ns = np.bincount(name, weights=dur - covered, minlength=len(names))
    total_ns = np.bincount(name, weights=dur, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    return Ledger(
        wall_s=dur[0] / 1e9,
        self_s={nm: float(self_ns[i]) / 1e9 for i, nm in enumerate(names)},
        total_s={nm: float(total_ns[i]) / 1e9 for i, nm in enumerate(names)},
        calls={nm: int(calls[i]) for i, nm in enumerate(names)},
    )


def span_values(recorder: Recorder, span: str, parent: Optional[str] = None) -> List:
    """Values attached to the spans named *span* (under *parent* only)."""
    nid = recorder.name_id(span)
    picked = [s for s in recorder.spans if s[1] == nid]
    if parent is not None:
        pid = recorder.name_id(parent)
        name_of = {s[0]: s[1] for s in recorder.spans}
        picked = [s for s in picked if name_of.get(s[2]) == pid]
    return [s[6] for s in picked]


def chrome_trace(recorder: Recorder) -> dict:
    """Chrome trace-event JSON (``ph: X`` complete events, µs)."""
    spans = sorted(recorder.spans, key=lambda s: s[0])  # entry order
    traces: Dict[int, Optional[str]] = {0: None}
    origin = recorder.root[0]
    events = [
        {
            "name": ROOT_SPAN,
            "ph": "X",
            "ts": 0.0,
            "dur": (recorder.root[1] - origin) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"id": 0, "parent": None, "trace": None},
        }
    ]
    written: Dict[int, int] = {}
    for sid, nid, parent, t0, t1, trace, _value in spans:
        trace = traces[sid] = trace or traces[parent]
        written[nid] = written.get(nid, 0) + 1
        if written[nid] > TRACE_FILE_SPANS_PER_NAME:
            continue
        events.append(
            {
                "name": recorder.names[nid],
                "ph": "X",
                "ts": (t0 - origin) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent, "trace": trace},
            }
        )
    dropped = {
        recorder.names[nid]: count - TRACE_FILE_SPANS_PER_NAME
        for nid, count in written.items()
        if count > TRACE_FILE_SPANS_PER_NAME
    }
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans_recorded": len(spans) + 1, "spans_dropped": dropped},
    }


def write_chrome_trace(recorder: Recorder, path) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(recorder), handle, separators=(",", ":"))
