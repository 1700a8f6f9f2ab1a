"""Gateway-side shard liveness: probe, score, declare dead.

The multi-tenant plane hashes every project onto a shard server; a
crashed shard therefore strands every project consistent-hashed onto
it.  This module gives the gateway the same posture toward shards that
:mod:`repro.server.health` gives a server toward workers: an EWMA
liveness score per shard, fed by explicit liveness probes
(``PROJECT_STATUS`` round-trips on the existing wire protocol — no new
message types) and by circuit-breaker transitions toward the shard.

A shard whose probes fail ``dead_after_misses`` times in a row *and*
whose score has sunk below ``dead_threshold`` is declared dead once
(never resurrected by the monitor — failover is one-way; a replacement
shard joins under a fresh name).  The caller —
:meth:`repro.core.multirunner.MultiProjectRunner._liveness_sweep` —
then drives the actual failover: ring removal, journal shipping,
replay and re-routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.circuit import BreakerState
from repro.net.protocol import MessageType
from repro.server.health import ewma
from repro.util.errors import CommunicationError, ConfigurationError

#: Probe outcomes folded into the EWMA (success counts 1.0).
PROBE_MISS = 0.0
#: A breaker opening toward the shard is strong badness, but softer
#: than a missed probe — the breaker may have opened for one flaky
#: link while the shard itself is healthy.
BREAKER_OPEN_OUTCOME = 0.25


@dataclass(frozen=True)
class ShardProbePolicy:
    """Tuning for shard liveness probes and the death verdict."""

    #: Virtual seconds between probes of the same shard.
    probe_interval: float = 5.0
    #: Consecutive missed probes before the shard may be declared dead.
    dead_after_misses: int = 3
    #: EWMA smoothing (same scale as :class:`HealthPolicy.alpha`).
    alpha: float = 0.4
    #: Score below which a miss streak is fatal.
    dead_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if self.probe_interval <= 0:
            raise ConfigurationError("probe_interval must be positive")
        if self.dead_after_misses < 1:
            raise ConfigurationError("dead_after_misses must be >= 1")
        if not 0.0 < self.dead_threshold < 1.0:
            raise ConfigurationError("dead_threshold must be in (0, 1)")


@dataclass
class ShardHealth:
    """Mutable liveness state for one shard, as seen by the gateway."""

    shard: str
    score: float = 1.0
    consecutive_misses: int = 0
    probes: int = 0
    misses: int = 0
    last_probe: float = float("-inf")
    dead: bool = False
    #: Last status payload a live probe returned (queue depth etc).
    last_status: dict = field(default_factory=dict)


class ShardMonitor:
    """Probes every shard from the gateway and reports the dead.

    ``check(now)`` is called from the runner's liveness sweep every
    drive cycle; it probes shards whose probe interval has elapsed and
    returns the names of shards *newly* declared dead this sweep (each
    shard is reported exactly once).
    """

    def __init__(
        self,
        gateway,
        shards: List[str],
        policy: Optional[ShardProbePolicy] = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("a shard monitor needs >= 1 shard")
        self.gateway = gateway
        self.policy = policy or ShardProbePolicy()
        self._records: Dict[str, ShardHealth] = {
            name: ShardHealth(shard=name) for name in shards
        }
        #: Ownership fences learned from failovers: {project_id:
        #: {"epoch": int, "owner": shard}}.  Carried on every probe so
        #: a healed zombie shard learns from its first answered probe
        #: that it lost those projects and demotes itself.
        self.fences: Dict[str, dict] = {}
        #: Demotion reports collected from healed zombies' probe
        #: answers (invariant 14 cross-checks these against the event
        #: log and the fencing-rejection counters).
        self.demotions: List[dict] = []
        self._metrics = gateway.obs.metrics
        # Breaker-open transitions toward a shard are liveness
        # evidence too: a wildcard fetch or a result forward tripping
        # the breaker tells us the shard is unreachable even between
        # probes.
        gateway.breaker_hooks.append(self._on_breaker_transition)

    # -- evidence ----------------------------------------------------------

    def _on_breaker_transition(self, breaker, state) -> None:
        record = self._records.get(breaker.peer)
        if record is None or record.dead:
            return
        if state is BreakerState.OPEN:
            record.score = ewma(
                record.score, BREAKER_OPEN_OUTCOME, self.policy.alpha
            )
            self._export(record)

    def _export(self, record: ShardHealth) -> None:
        self._metrics.set_gauge(
            "repro_shard_health_score",
            round(record.score, 6),
            help="EWMA liveness score per shard (1.0 = perfect).",
            shard=record.shard,
        )

    def _count_probe(self, record: ShardHealth, outcome: str) -> None:
        self._metrics.inc(
            "repro_shard_probes_total",
            help="Gateway liveness probes per shard, by outcome.",
            shard=record.shard,
            outcome=outcome,
        )

    # -- probing -----------------------------------------------------------

    def probe(self, shard: str, now: float) -> bool:
        """Probe one shard once; returns whether it answered."""
        record = self._records[shard]
        record.probes += 1
        record.last_probe = now
        try:
            # any hosted project id works for a liveness check; an
            # unknown project still answers with hosted=False, which
            # proves the shard process is alive and serving.  The
            # fence table rides along so a healed zombie demotes
            # itself from the very first probe it answers.
            status = self.gateway.send(
                shard,
                MessageType.PROJECT_STATUS,
                {"project_id": "__probe__", "fenced": dict(self.fences)},
            )
        except CommunicationError:
            record.misses += 1
            record.consecutive_misses += 1
            record.score = ewma(record.score, PROBE_MISS, self.policy.alpha)
            self._count_probe(record, "miss")
            self._export(record)
            return False
        record.consecutive_misses = 0
        record.score = ewma(record.score, 1.0, self.policy.alpha)
        record.last_status = status or {}
        for report in (status or {}).get("demoted") or []:
            self.demotions.append(dict(report))
        self._count_probe(record, "ok")
        self._export(record)
        return True

    def check(self, now: float) -> List[str]:
        """Probe due shards; return shards newly declared dead."""
        newly_dead: List[str] = []
        for name, record in self._records.items():
            if now - record.last_probe < self.policy.probe_interval:
                continue
            if record.dead:
                # zombie watch: a declared-dead shard stays on the
                # probe schedule (never resurrected — death is one-way)
                # so that if it was merely partitioned and heals, the
                # fence table riding on the probe demotes it.  Misses
                # are expected and quiet.
                self.probe(name, now)
                continue
            self.probe(name, now)
            if (
                record.consecutive_misses >= self.policy.dead_after_misses
                and record.score < self.policy.dead_threshold
            ):
                record.dead = True
                newly_dead.append(name)
                self._count_probe(record, "declared_dead")
        return newly_dead

    # -- bookkeeping -------------------------------------------------------

    def mark_dead(self, shard: str) -> None:
        """Record a death verdict reached outside :meth:`check` (an
        explicit drain, or a dispatch-path failover) so the shard
        joins the zombie watch instead of being probed as live."""
        record = self._records.get(shard)
        if record is None:
            record = ShardHealth(shard=shard)
            self._records[shard] = record
        record.dead = True

    def record_fence(self, project_id: str, epoch: int, owner: str) -> None:
        """Remember that *project_id* now lives at *owner* under
        *epoch*; every future probe carries this fence."""
        self.fences[project_id] = {"epoch": int(epoch), "owner": owner}

    def watch(self, shard: str) -> None:
        """Start monitoring a shard that joined after construction."""
        if shard not in self._records:
            self._records[shard] = ShardHealth(shard=shard)

    def describe(self) -> Dict[str, dict]:
        """Schema-stable per-shard summary for monitoring."""
        return {
            name: {
                "score": round(record.score, 4),
                "dead": record.dead,
                "probes": record.probes,
                "misses": record.misses,
                "consecutive_misses": record.consecutive_misses,
            }
            for name, record in sorted(self._records.items())
        }
