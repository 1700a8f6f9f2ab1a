"""Priority command queue, kept as one lane per project."""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.command import Command

#: One queued command: ``(priority, insertion sequence, command)``.
Entry = Tuple[int, int, Command]


class CommandQueue:
    """Commands ordered by (priority, insertion sequence).

    The routing priority encoded on each command determines run order,
    matching the paper's description; FIFO breaks ties so generations
    drain in submission order.  Commands are held in per-project lanes,
    each in that same order, so a scheduler can read every tenant's
    queue without sorting or splitting the whole queue; the queue order
    is the merge of the lanes.
    """

    def __init__(self) -> None:
        #: project id -> its queued entries, in queue order (no empty lanes)
        self._lanes: Dict[str, List[Entry]] = {}
        self._counter = itertools.count()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, command: Command) -> None:
        """Enqueue a command."""
        entry = (command.priority, next(self._counter), command)
        bisect.insort(self._lanes.setdefault(command.project_id, []), entry)
        self._size += 1

    def _ordered(self) -> List[Entry]:
        # the lanes are sorted runs: the sort finds and merges them
        return sorted(itertools.chain.from_iterable(self._lanes.values()))

    def _discard(self, lane: List[Entry], position: int) -> None:
        project_id = lane.pop(position)[2].project_id
        if not lane:
            del self._lanes[project_id]
        self._size -= 1

    def peek(self) -> Optional[Command]:
        """The next command without removing it (None when empty)."""
        head = min((lane[0] for lane in self._lanes.values()), default=None)
        return head[2] if head is not None else None

    def pop(self) -> Optional[Command]:
        """Remove and return the next command (None when empty)."""
        command = self.peek()
        if command is not None:
            self._discard(self._lanes[command.project_id], 0)
        return command

    def remove(self, command: Command) -> None:
        """Remove *command* itself (matched by identity, not equality).

        Raises ``ValueError`` when it is not queued.
        """
        lane = self._lanes.get(command.project_id, ())
        for position, entry in enumerate(lane):
            if entry[2] is command:
                self._discard(lane, position)
                return
        raise ValueError(f"command {command.command_id!r} is not queued")

    def commands(self) -> List[Command]:
        """All queued commands in priority order (non-destructive)."""
        return [entry[2] for entry in self._ordered()]

    def lanes(self) -> Dict[str, List[Entry]]:
        """Project id -> its queued ``(priority, seq, command)`` entries in
        queue order.  A live view for schedulers: read it, and change
        the queue only through this class's methods."""
        return self._lanes

    def depth(self, project_id: str) -> int:
        """How many commands of *project_id* are queued."""
        return len(self._lanes.get(project_id, ()))

    def remove_project(self, project_id: str) -> int:
        """Drop every command of a project; returns how many were removed."""
        removed = len(self._lanes.pop(project_id, ()))
        self._size -= removed
        return removed
