"""Command leases with perfmodel-derived completion deadlines.

Every command handed to a worker becomes a :class:`Lease`: who runs
it, when it was granted, the last checkpoint its heartbeats reported
and when the server *expects* it back.  The lease table is the
server's one record of in-flight work.  The deadline comes from the strong-scaling
performance model (:mod:`repro.perfmodel.mdperf`): the simulated
nanoseconds remaining after the command's checkpoint, divided by the
modelled rate at the assigned core count, times a slack factor.

A worker that heartbeats happily but blows past its deadline is a
*straggler* — alive but useless — and is handled by speculative
re-execution (:meth:`CopernicusServer.check_liveness`), not by the
dead-worker requeue path.

The virtual overlay executes commands instantly, so ``hours_to_seconds``
is the calibration point mapping modelled wallclock hours onto the
runner's logical clock; scenarios shrink it to make deadlines land
within a few ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.command import Command
from repro.perfmodel.mdperf import MDPerformanceModel, VILLIN_MODEL
from repro.util.errors import ConfigurationError

#: Fallback estimate for payloads the perfmodel cannot price.
DEFAULT_ESTIMATE_SECONDS = 600.0


def estimate_command_seconds(
    command: Command,
    cores: int,
    model: MDPerformanceModel = VILLIN_MODEL,
    hours_to_seconds: float = 3600.0,
) -> float:
    """Expected virtual seconds for *command* on *cores* cores.

    Prices the MD payload's remaining steps (after any checkpoint)
    through the strong-scaling model; non-MD payloads fall back to
    :data:`DEFAULT_ESTIMATE_SECONDS`.
    """
    payload = command.payload or {}
    n_steps = payload.get("n_steps")
    if not isinstance(n_steps, (int, float)) or n_steps <= 0:
        return DEFAULT_ESTIMATE_SECONDS
    done = 0
    if isinstance(command.checkpoint, dict):
        step = command.checkpoint.get("step")
        if isinstance(step, (int, float)):
            done = max(0, int(step))
    remaining = max(0, int(n_steps) - done)
    if remaining == 0:
        return 0.0
    timestep_ps = float(payload.get("timestep", 0.02))
    ns = remaining * timestep_ps / 1000.0
    hours = model.hours_for(ns, max(1, int(cores)))
    return hours * hours_to_seconds


@dataclass(frozen=True)
class LeasePolicy:
    """How deadlines are derived from the perfmodel estimate.

    Attributes
    ----------
    slack:
        Multiplier on the estimate (heterogeneous hardware is allowed
        to be this much slower than the model before it is suspect).
    min_seconds:
        Deadline floor — at least a couple of heartbeat windows, so a
        worker is never declared a straggler faster than it could be
        declared dead.
    hours_to_seconds:
        Mapping from modelled wallclock hours to virtual clock seconds
        (see module docstring).
    """

    slack: float = 3.0
    min_seconds: float = 240.0
    hours_to_seconds: float = 3600.0
    model: MDPerformanceModel = VILLIN_MODEL

    def __post_init__(self) -> None:
        if self.slack <= 0:
            raise ConfigurationError("lease slack must be positive")
        if self.min_seconds <= 0:
            raise ConfigurationError("lease min_seconds must be positive")
        if self.hours_to_seconds <= 0:
            raise ConfigurationError("hours_to_seconds must be positive")

    def deadline_for(self, command: Command, cores: int, now: float) -> float:
        """Absolute virtual-time deadline for a grant at *now*."""
        estimate = estimate_command_seconds(
            command, cores, self.model, self.hours_to_seconds
        )
        return now + max(self.min_seconds, self.slack * estimate)


@dataclass
class Lease:
    """One outstanding (worker, command) grant: the server's only
    record of who runs a command and where it would resume."""

    worker: str
    command: Command
    granted_at: float
    deadline: float
    #: The latest checkpoint the worker's heartbeats acknowledged for
    #: this command; a requeue or a speculative copy resumes from it.
    checkpoint: Optional[dict] = None
    #: Set once a speculative copy has been queued, so the straggler
    #: is not re-speculated on every liveness sweep.
    speculated: bool = False


class LeaseTracker:
    """All outstanding leases of one server.

    Keys are ``(worker, scoped command key)`` — the scoped key (see
    :meth:`repro.core.command.Command.scoped_id`) namespaces the
    command by its project, so two tenants reusing a command id (both
    issuing a ``gen0_r0``, say) can never alias each other's leases.
    """

    def __init__(self) -> None:
        self._leases: Dict[Tuple[str, str], Lease] = {}
        self._metrics = None
        self._metric_labels: Dict[str, str] = {}

    def bind_metrics(self, registry, server: str) -> None:
        """Report lease activity to *registry*, labelled by *server*.

        Optional: an unbound tracker works identically, minus telemetry.
        """
        self._metrics = registry
        self._metric_labels = {"server": server}

    def _count(self, name: str, help: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, help=help, **self._metric_labels)

    def _set_outstanding(self) -> None:
        if self._metrics is not None:
            self._metrics.set_gauge(
                "repro_server_leases_outstanding",
                len(self._leases),
                help="Currently outstanding (worker, command) leases.",
                **self._metric_labels,
            )

    def grant(
        self, worker: str, command: Command, now: float, deadline: float
    ) -> Lease:
        """Record a workload grant; re-granting replaces the old lease."""
        lease = Lease(
            worker=worker, command=command, granted_at=now, deadline=deadline
        )
        self._leases[(worker, command.scoped_id)] = lease
        self._count(
            "repro_server_leases_granted_total",
            "Leases granted to workers.",
        )
        self._set_outstanding()
        return lease

    def get(self, worker: str, command_id: str) -> Optional[Lease]:
        """The lease for (worker, command), if outstanding."""
        return self._leases.get((worker, command_id))

    def clear(self, worker: str, command_id: str) -> Optional[Lease]:
        """Drop one lease (result arrived, or command requeued)."""
        lease = self._leases.pop((worker, command_id), None)
        if lease is not None:
            self._count(
                "repro_server_leases_cleared_total",
                "Leases cleared (result arrived or command requeued).",
            )
            self._set_outstanding()
        return lease

    def clear_worker(self, worker: str) -> List[Lease]:
        """Drop every lease held by *worker* (declared dead)."""
        gone = [l for (w, _), l in self._leases.items() if w == worker]
        self._leases = {
            key: lease for key, lease in self._leases.items()
            if key[0] != worker
        }
        if gone:
            self._set_outstanding()
        return gone

    def overdue(self, now: float) -> List[Lease]:
        """Leases past their deadline and not yet speculated."""
        overdue = [
            lease
            for lease in self._leases.values()
            if not lease.speculated and now > lease.deadline
        ]
        for _ in overdue:
            self._count(
                "repro_server_leases_overdue_total",
                "Leases found past their deadline by liveness sweeps.",
            )
        return overdue

    def active(self) -> List[Lease]:
        """Every outstanding lease."""
        return list(self._leases.values())

    def __len__(self) -> int:
        return len(self._leases)
