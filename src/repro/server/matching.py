"""Worker capabilities: what a worker announces to be matched against.

The paper (section 2.3): the worker conveys its architecture, core
count and installed executables; the server "matches the available
executables to commands in its queue, and constructs a workload that
maximally utilizes the available resources given the preferred
resource requirements of the commands".  That matcher is
:meth:`repro.server.fairshare.FairShareScheduler.build`.  Stacking is
an installed executable too: a worker that announces ``mdrun_batch``
is handed rider commands (:mod:`repro.worker.coalesce`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.errors import SchedulingError


@dataclass
class WorkerCapabilities:
    """What a worker announced about itself."""

    worker: str
    platform: str
    cores: int
    executables: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SchedulingError(
                f"worker {self.worker!r} announced {self.cores} cores"
            )

    def to_payload(self) -> Dict:
        """Wire-format dict."""
        return {
            "worker": self.worker,
            "platform": self.platform,
            "cores": int(self.cores),
            "executables": list(self.executables),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "WorkerCapabilities":
        """Inverse of :meth:`to_payload`."""
        return cls(
            worker=payload["worker"],
            platform=payload["platform"],
            cores=int(payload["cores"]),
            executables=list(payload.get("executables", [])),
        )

