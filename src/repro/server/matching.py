"""Worker capabilities: what a worker announces to be matched against.

The paper (section 2.3): the worker conveys its architecture, core
count and installed executables; the server "matches the available
executables to commands in its queue, and constructs a workload that
maximally utilizes the available resources given the preferred
resource requirements of the commands".  That matcher is
:meth:`repro.server.fairshare.FairShareScheduler.build`.
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
    #: How many compatible MD commands the worker will coalesce into
    #: one batched kernel call (1 = no coalescing).
    batch_capacity: int = 1

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SchedulingError(
                f"worker {self.worker!r} announced {self.cores} cores"
            )
        if self.batch_capacity < 1:
            raise SchedulingError(
                f"worker {self.worker!r} announced batch capacity "
                f"{self.batch_capacity}"
            )

    def to_payload(self) -> Dict:
        """Wire-format dict."""
        return {
            "worker": self.worker,
            "platform": self.platform,
            "cores": int(self.cores),
            "executables": list(self.executables),
            "batch_capacity": int(self.batch_capacity),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "WorkerCapabilities":
        """Inverse of :meth:`to_payload`."""
        return cls(
            worker=payload["worker"],
            platform=payload["platform"],
            cores=int(payload["cores"]),
            executables=list(payload.get("executables", [])),
            batch_capacity=int(payload.get("batch_capacity", 1)),
        )

