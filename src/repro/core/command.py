"""The unit of work: a *command*.

A command is one independent parallel simulation (paper terminology):
serialisable, routable between servers, resumable from a checkpoint.
Controllers create commands; servers queue and match them; workers
execute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

#: Separator inside scoped command keys.  Chosen to be absent from the
#: conventional id styles (``gen1_r0``, ``ensemble/r0``) so a scoped
#: key splits back unambiguously.
SCOPE_SEPARATOR = "::"


def scoped_command_id(project_id: str, command_id: str) -> str:
    """The (project, command) key used by cross-project server tables."""
    return f"{project_id}{SCOPE_SEPARATOR}{command_id}"


def split_scoped_id(key: str) -> Tuple[str, str]:
    """Inverse of :func:`scoped_command_id`.

    A key without a separator (e.g. from a pre-namespacing client)
    maps to an empty project scope rather than failing.
    """
    project_id, sep, command_id = key.partition(SCOPE_SEPARATOR)
    if not sep:
        return "", key
    return project_id, command_id


@dataclass
class Command:
    """A serialisable work unit.

    Attributes
    ----------
    command_id:
        Unique id, conventionally ``gen<generation>_r<index>`` as in the
        paper's Fig. 1 queue listings.
    project_id:
        Owning project.
    executable:
        Required executable name (e.g. ``mdrun``), matched against the
        worker's installed executables.
    payload:
        Wire-format task body (e.g. an :class:`~repro.md.engine.MDTask`
        payload).
    min_cores / preferred_cores:
        Resource requirements used by workload matching.
    priority:
        Routing priority; lower runs sooner (the paper: "the encoded
        routing priority effectively determines the run priority").
    origin_server:
        Name of the server holding the project; results are propagated
        back to it.
    checkpoint:
        Resume payload attached when a failed worker's command is
        requeued.
    trace:
        Distributed-tracing context (``trace_id``/``span_id``) stamped
        by the issuing server so the worker's execution spans join the
        command's trace.  Telemetry only — never consulted by matching
        or execution logic.
    epoch:
        The project's ownership epoch at issue time.  Every effectful
        write derived from this command (lease, checkpoint, result,
        forward) is fenced against the owner's current epoch; a stamp
        older than the owner's is a stale writer and is rejected.
    """

    command_id: str
    project_id: str
    executable: str
    payload: Dict = field(default_factory=dict)
    min_cores: int = 1
    preferred_cores: int = 1
    priority: int = 0
    origin_server: str = ""
    checkpoint: Optional[Dict] = None
    trace: Optional[Dict] = None
    epoch: int = 0

    @cached_property
    def scoped_id(self) -> str:
        """The command's deployment-wide key, namespaced by project.

        ``command_id`` is only unique *within* a project (two tenants
        may both issue ``gen0_r0``), so every server-side table that
        spans projects — leases (and the checkpoints they hold), the
        exactly-once dedup barrier — keys by this instead.

        Computed once per instance (it keys every scheduler and lease
        lookup); neither id is reassigned after construction.
        """
        return scoped_command_id(self.project_id, self.command_id)

    def to_payload(self) -> Dict:
        """Wire-format dict."""
        out = {
            "command_id": self.command_id,
            "project_id": self.project_id,
            "executable": self.executable,
            "payload": self.payload,
            "min_cores": int(self.min_cores),
            "preferred_cores": int(self.preferred_cores),
            "priority": int(self.priority),
            "origin_server": self.origin_server,
            "epoch": int(self.epoch),
        }
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_payload(cls, payload: Dict) -> "Command":
        """Inverse of :meth:`to_payload`."""
        return cls(
            command_id=payload["command_id"],
            project_id=payload["project_id"],
            executable=payload["executable"],
            payload=payload.get("payload", {}),
            min_cores=int(payload.get("min_cores", 1)),
            preferred_cores=int(payload.get("preferred_cores", 1)),
            priority=int(payload.get("priority", 0)),
            origin_server=payload.get("origin_server", ""),
            checkpoint=payload.get("checkpoint"),
            trace=payload.get("trace"),
            # pre-epoch payloads stamp as 0 (first ownership regime)
            epoch=int(payload.get("epoch", 0)),
        )
