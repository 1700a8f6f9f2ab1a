"""Resource matching: pairing queued commands with worker capabilities.

The paper (section 2.3): the worker conveys its architecture, core
count and installed executables; the server "matches the available
executables to commands in its queue, and constructs a workload that
maximally utilizes the available resources given the preferred
resource requirements of the commands".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.command import Command
from repro.server.queue import CommandQueue
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


def build_workload(
    queue: CommandQueue,
    caps: WorkerCapabilities,
    max_commands: Optional[int] = None,
) -> List[Tuple[Command, int]]:
    """Pop commands for a worker, packing its cores greedily.

    Commands are taken in priority order.  Each receives its preferred
    core count when available, degrading toward ``min_cores`` as the
    worker fills up; packing stops when no queued command fits in the
    remaining cores.

    ``max_commands`` caps the workload size regardless of free cores —
    the health layer's probation sizing for workers that have been
    crashing, flapping or straggling.

    A worker announcing ``batch_capacity > 1`` (and the batched MD
    executable) also receives *rider* commands: queued commands that
    share a popped command's coalesce key ride along on the same cores,
    up to the capacity, because the worker will merge them into one
    batched kernel call.  Riders are ordinary commands — each gets its
    own lease and trace.

    Returns
    -------
    List of ``(command, cores_assigned)``.
    """
    from repro.worker.coalesce import BATCH_EXECUTABLE, coalesce_key

    batching = (
        caps.batch_capacity > 1 and BATCH_EXECUTABLE in caps.executables
    )
    workload: List[Tuple[Command, int]] = []
    free = caps.cores
    while free > 0:
        if max_commands is not None and len(workload) >= max_commands:
            break
        command = queue.pop_matching(
            lambda c: c.executable in caps.executables and c.min_cores <= free
        )
        if command is None:
            break
        assigned = min(command.preferred_cores, free)
        assigned = max(assigned, command.min_cores)
        workload.append((command, assigned))
        free -= assigned
        if not batching:
            continue
        key = coalesce_key(command)
        if key is None:
            continue
        group = 1
        while group < caps.batch_capacity:
            if max_commands is not None and len(workload) >= max_commands:
                break
            rider = queue.pop_matching(lambda c: coalesce_key(c) == key)
            if rider is None:
                break
            workload.append((rider, assigned))
            group += 1
    return workload
