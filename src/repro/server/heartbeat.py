"""Worker liveness tracking via heartbeats.

Paper section 2.3: workers heartbeat every 120 s (default, ~200-byte
messages); a server that misses heartbeats for twice the interval
declares the worker dead and arranges for its commands to be requeued
— continuing from the last checkpoint when one is available.
Heartbeats are never forwarded past the nearest server.

This module tracks liveness only; the checkpoints a heartbeat carries
live on the command's lease (:mod:`repro.server.lease`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Default heartbeat interval in seconds (paper value).
DEFAULT_INTERVAL = 120.0


@dataclass
class WorkerRecord:
    """Liveness state for one worker."""

    worker: str
    last_heartbeat: float
    alive: bool = True


class HeartbeatMonitor:
    """Tracks worker heartbeats and detects failures."""

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval}")
        self.interval = float(interval)
        self._records: Dict[str, WorkerRecord] = {}

    def register(self, worker: str, now: float) -> bool:
        """Start tracking a worker (e.g. at announce time).

        Re-announcing is a liveness signal, not a reset: an existing
        record is revived in place.

        Returns ``True`` when the announce revived a worker previously
        declared dead (so the server can log the flap).
        """
        record = self._records.get(worker)
        if record is None:
            self._records[worker] = WorkerRecord(worker=worker, last_heartbeat=now)
            return False
        revived = not record.alive
        record.last_heartbeat = now
        record.alive = True
        return revived

    def beat(self, worker: str, now: float) -> bool:
        """Record a heartbeat.

        Returns ``True`` when the beat revived a worker previously
        declared dead (so the server can log the revival).  A beat is
        an announce's liveness half, so it shares :meth:`register`.
        """
        return self.register(worker, now)

    def is_alive(self, worker: str) -> bool:
        """Whether the worker is currently considered alive."""
        record = self._records.get(worker)
        return bool(record and record.alive)

    def check(self, now: float) -> List[str]:
        """Return workers newly declared dead at time *now*.

        A worker dies when no heartbeat arrived within twice the
        interval.  Each worker is reported dead at most once (until it
        beats again).
        """
        dead = []
        for record in self._records.values():
            if record.alive and now - record.last_heartbeat > 2.0 * self.interval:
                record.alive = False
                dead.append(record.worker)
        return dead

    def workers(self) -> List[str]:
        """All tracked worker names."""
        return list(self._records)
