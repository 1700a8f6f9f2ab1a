"""Per-worker health scoring, probation and quarantine.

Donated and intercontinental resources are allowed to be bad (paper
section 2.3) — but a worker that keeps crashing, flapping or straggling
should stop receiving full workloads.  Each worker carries an EWMA
health score in [0, 1] fed by observed outcomes:

* a completed result counts 1.0;
* crashes (declared dead), flaps (dead/revived cycles) and straggler
  detections count 0.0;
* losing a speculation race counts 0.25 — slower than the model
  thought, but the work did finish.

Scores below ``probation_threshold`` put the worker on *probation*
(workloads capped at ``probation_commands``); below
``quarantine_threshold`` the worker is *quarantined* — zero workload —
for a cooldown that doubles on every repeat offence.  After the
cooldown the worker is re-admitted on probation and must earn its way
back with successes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.util.errors import ConfigurationError

#: EWMA target value per failure kind (success counts 1.0).
FAILURE_OUTCOMES: Dict[str, float] = {
    "crash": 0.0,
    "flap": 0.0,
    "straggler": 0.0,
    "speculation_loss": 0.25,
}


def ewma(score: float, outcome: float, alpha: float) -> float:
    """Fold *outcome* into *score* with smoothing factor *alpha*.

    The one health primitive shared by every liveness scorer: worker
    health here and shard liveness in
    :mod:`repro.server.shardmon` use the same update so their
    thresholds are comparable.
    """
    return (1.0 - alpha) * score + alpha * outcome


class HealthState(enum.Enum):
    """Scheduling posture toward one worker."""

    HEALTHY = "healthy"
    #: Workloads capped at ``probation_commands``.
    PROBATION = "probation"
    #: Zero workload until the cooldown expires.
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HealthPolicy:
    """Tuning for the EWMA score and the quarantine ladder."""

    #: EWMA smoothing: score <- (1-alpha)*score + alpha*outcome.
    alpha: float = 0.4
    #: Below this the worker is on probation (capped workloads).
    probation_threshold: float = 0.65
    #: Below this the worker is quarantined (no workload).
    quarantine_threshold: float = 0.3
    #: First quarantine cooldown, virtual seconds.
    quarantine_seconds: float = 600.0
    #: Cooldown multiplier per repeat quarantine.
    quarantine_backoff: float = 2.0
    #: Cap on the escalated cooldown.
    max_quarantine_seconds: float = 14400.0
    #: Workload cap while on probation.
    probation_commands: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if not 0.0 < self.quarantine_threshold < self.probation_threshold < 1.0:
            raise ConfigurationError(
                "need 0 < quarantine_threshold < probation_threshold < 1"
            )
        if self.quarantine_seconds <= 0:
            raise ConfigurationError("quarantine_seconds must be positive")
        if self.quarantine_backoff < 1.0:
            raise ConfigurationError("quarantine_backoff must be >= 1")
        if self.probation_commands < 1:
            raise ConfigurationError("probation_commands must be >= 1")


@dataclass
class WorkerHealth:
    """Mutable health state for one worker."""

    worker: str
    score: float = 1.0
    state: HealthState = HealthState.HEALTHY
    quarantined_until: float = 0.0
    #: Consecutive quarantines (drives the cooldown escalation).
    quarantine_count: int = 0
    successes: int = 0
    failures: Dict[str, int] = field(default_factory=dict)


class HealthRegistry:
    """Health scores for every worker one server has seen."""

    def __init__(self, policy: Optional[HealthPolicy] = None) -> None:
        self.policy = policy or HealthPolicy()
        self._records: Dict[str, WorkerHealth] = {}
        #: Lifetime accounting (surfaced through monitoring).
        self.quarantines = 0
        self.readmissions = 0
        self._metrics = None
        self._server = ""

    def bind_metrics(self, registry, server: str) -> None:
        """Export health scores/transitions to *registry* as *server*.

        Optional: an unbound registry works identically, minus telemetry.
        """
        self._metrics = registry
        self._server = server

    def _export(self, record: WorkerHealth) -> None:
        if self._metrics is None:
            return
        self._metrics.set_gauge(
            "repro_server_worker_health_score",
            round(record.score, 6),
            help="EWMA health score per worker (1.0 = perfect).",
            server=self._server,
            worker=record.worker,
        )

    def _count_transition(self, transition: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(
                "repro_server_health_transitions_total",
                help="Worker health-state transitions, by kind.",
                server=self._server,
                transition=transition,
            )

    def record_for(self, worker: str) -> WorkerHealth:
        """The worker's record (created healthy on first sight)."""
        record = self._records.get(worker)
        if record is None:
            record = WorkerHealth(worker=worker)
            self._records[worker] = record
        return record

    def score(self, worker: str) -> float:
        """Current EWMA score (1.0 for unseen workers)."""
        record = self._records.get(worker)
        return record.score if record is not None else 1.0

    def observe_success(self, worker: str, now: float) -> Optional[str]:
        """Fold a completed result into the score.

        Returns ``"recovered"`` when the success lifted the worker off
        probation, else ``None``.
        """
        record = self.record_for(worker)
        record.successes += 1
        record.score = self._ewma(record.score, 1.0)
        self._export(record)
        if (
            record.state is HealthState.PROBATION
            and record.score >= self.policy.probation_threshold
        ):
            record.state = HealthState.HEALTHY
            record.quarantine_count = 0
            self._count_transition("recovered")
            return "recovered"
        return None

    def observe_failure(self, worker: str, kind: str, now: float) -> Optional[str]:
        """Fold a failure of *kind* (see :data:`FAILURE_OUTCOMES`) in.

        Returns ``"quarantined"`` or ``"probation"`` when the score
        crossed a threshold, else ``None``.
        """
        record = self.record_for(worker)
        record.failures[kind] = record.failures.get(kind, 0) + 1
        record.score = self._ewma(record.score, FAILURE_OUTCOMES.get(kind, 0.0))
        self._export(record)
        if (
            record.state is not HealthState.QUARANTINED
            and record.score < self.policy.quarantine_threshold
        ):
            cooldown = min(
                self.policy.quarantine_seconds
                * self.policy.quarantine_backoff ** record.quarantine_count,
                self.policy.max_quarantine_seconds,
            )
            record.state = HealthState.QUARANTINED
            record.quarantined_until = now + cooldown
            record.quarantine_count += 1
            self.quarantines += 1
            self._count_transition("quarantined")
            return "quarantined"
        if (
            record.state is HealthState.HEALTHY
            and record.score < self.policy.probation_threshold
        ):
            record.state = HealthState.PROBATION
            self._count_transition("probation")
            return "probation"
        return None

    def admit(self, worker: str, now: float) -> Tuple[bool, Optional[int], Optional[str]]:
        """Gate a workload request.

        Returns ``(allowed, max_commands, transition)``:

        * quarantined with the cooldown running — ``(False, None, None)``;
        * quarantined but cooldown expired — re-admitted on probation:
          ``(True, probation_commands, "readmitted")``;
        * on probation — ``(True, probation_commands, None)``;
        * healthy/unseen — ``(True, None, None)`` (no cap).
        """
        record = self._records.get(worker)
        if record is None or record.state is HealthState.HEALTHY:
            return True, None, None
        if record.state is HealthState.QUARANTINED:
            if now < record.quarantined_until:
                return False, None, None
            record.state = HealthState.PROBATION
            # floor the score at the quarantine bar so a couple of
            # successes can lift the worker back over the probation bar
            record.score = max(record.score, self.policy.quarantine_threshold)
            self.readmissions += 1
            self._count_transition("readmitted")
            self._export(record)
            return True, self.policy.probation_commands, "readmitted"
        return True, self.policy.probation_commands, None

    def _ewma(self, score: float, outcome: float) -> float:
        return ewma(score, outcome, self.policy.alpha)

    def describe(self) -> Dict[str, dict]:
        """Schema-stable per-worker summary for monitoring."""
        return {
            worker: {
                "score": round(record.score, 4),
                "state": record.state.value,
                "successes": record.successes,
                "failures": dict(record.failures),
                "quarantines": record.quarantine_count,
                "quarantined_until": record.quarantined_until,
            }
            for worker, record in sorted(self._records.items())
        }
