"""Priority command queue."""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Callable, List, Optional

from repro.core.command import Command


class CommandQueue:
    """Commands ordered by (priority, insertion sequence).

    The routing priority encoded on each command determines run order,
    matching the paper's description; FIFO breaks ties so generations
    drain in submission order.
    """

    def __init__(self) -> None:
        self._heap: List = []
        self._counter = itertools.count()
        #: Queued commands per project (the backpressure depth index).
        self._depth: Counter = Counter()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, command: Command) -> None:
        """Enqueue a command."""
        heapq.heappush(self._heap, (command.priority, next(self._counter), command))
        self._depth[command.project_id] += 1

    def peek(self) -> Optional[Command]:
        """The next command without removing it (None when empty)."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> Optional[Command]:
        """Remove and return the next command (None when empty)."""
        if not self._heap:
            return None
        command = heapq.heappop(self._heap)[2]
        self._depth[command.project_id] -= 1
        return command

    def pop_matching(
        self, predicate: Callable[[Command], bool]
    ) -> Optional[Command]:
        """Remove and return the best-priority command satisfying *predicate*."""
        for entry in sorted(self._heap):
            if predicate(entry[2]):
                self._heap.remove(entry)
                heapq.heapify(self._heap)
                self._depth[entry[2].project_id] -= 1
                return entry[2]
        return None

    def remove(self, command: Command) -> None:
        """Remove *command* itself (matched by identity, not equality).

        Raises ``ValueError`` when it is not queued.
        """
        for position, entry in enumerate(self._heap):
            if entry[2] is command:
                del self._heap[position]
                heapq.heapify(self._heap)
                self._depth[command.project_id] -= 1
                return
        raise ValueError(f"command {command.command_id!r} is not queued")

    def commands(self) -> List[Command]:
        """All queued commands in priority order (non-destructive)."""
        # sorting in place is free to do: a sorted list is a valid heap,
        # and the next call finds it already in order
        self._heap.sort()
        return [entry[2] for entry in self._heap]

    def depth(self, project_id: str) -> int:
        """How many commands of *project_id* are queued."""
        return self._depth[project_id]

    def remove_project(self, project_id: str) -> int:
        """Drop every command of a project; returns how many were removed."""
        keep = [e for e in self._heap if e[2].project_id != project_id]
        removed = len(self._heap) - len(keep)
        self._heap = keep
        heapq.heapify(self._heap)
        del self._depth[project_id]
        return removed
