"""Adaptive command coalescing: merge compatible MD commands into batches.

The batched kernel (:mod:`repro.md.batched`) makes R replicas of one
model nearly as cheap as one, but the distribution stack hands workers
*commands* — one replica each.  This module closes that gap: queued
``mdrun`` commands that agree on every batch-compatible field (model,
step budget, integrator parameters — see
:data:`repro.md.engine.BATCH_COMPATIBLE_FIELDS`) are merged into a
single ``mdrun_batch`` command whose payload is ``{"tasks": [...]}``,
a copy of each member's ``mdrun`` payload, executed through
:meth:`~repro.md.engine.MDEngine.run_batched`; its result
``{"results": [...]}`` is split back into per-command payloads.

The merge depth is *adaptive*: it is whatever compatible work is
actually present, capped at :data:`MAX_STACK` — a lone command runs as
a stack of one, a burst of ensemble generation coalesces to the cap.
A worker stacks when it has :data:`BATCH_EXECUTABLE` installed, which
it announces like any executable.  Commands carrying a resume
checkpoint never coalesce (a requeued command resumes alone), so
recovery paths are untouched.

Crucially, coalescing is invisible above the worker: every member
command keeps its own lease, trace span, heartbeat checkpoint, journal
record and result submission, and the per-command results are
those of running each command alone (the batched kernel's contract), so
the server's dedup barrier, speculation races and crash recovery work
unchanged on merged commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.command import Command
from repro.util.errors import ConfigurationError

#: The only executable whose commands coalesce.
COALESCIBLE_EXECUTABLE = "mdrun"
#: The executable a merged command runs under.
BATCH_EXECUTABLE = "mdrun_batch"
#: Most commands in one stack, for the worker's coalescer and the
#: server's rider matching alike (one kernel call propagating more
#: replicas than this stops paying for itself).
MAX_STACK = 64


@dataclass
class BatchCommand(Command):
    """A merged command: one ``mdrun_batch`` payload, many members.

    Exists only inside a worker (or its executor) between coalescing
    and result splitting; it never crosses the wire — the members do.
    """

    members: List[Command] = field(default_factory=list)


def coalesce_key(command: Command) -> Optional[Tuple]:
    """Grouping key for *command*, or ``None`` when it must run alone.

    Two commands with equal (non-``None``) keys propagate identically
    batched or not, so they may share one kernel call.  The stacking
    rule: a command stacks unless it resumes a checkpoint.
    """
    if command.executable != COALESCIBLE_EXECUTABLE:
        return None
    if command.checkpoint is not None:
        return None
    payload = command.payload
    if payload.get("checkpoint") is not None:
        return None
    try:
        return (
            # never merge across tenants: a batch carries one project's
            # journal/lease identity and its riders must share it
            command.project_id,
            command.executable,
            payload["model"],
            int(payload["n_steps"]),
            int(payload.get("report_interval", 100)),
            payload.get("integrator", "langevin"),
            float(payload.get("temperature", 300.0)),
            float(payload.get("friction", 1.0)),
            float(payload.get("timestep", 0.02)),
            repr(sorted(payload.get("model_params", {}).items())),
            # a refused precision must not take good riders down with it
            payload.get("precision", "float64"),
        )
    except (KeyError, TypeError, ValueError):
        return None


def merge_commands(group: Sequence[Command]) -> BatchCommand:
    """Merge same-key commands into one :class:`BatchCommand`."""
    if len(group) < 2:
        raise ConfigurationError("a batch needs >= 2 member commands")
    return BatchCommand(
        command_id="batch:" + "+".join(c.command_id for c in group),
        project_id=group[0].project_id,
        executable=BATCH_EXECUTABLE,
        # copies: the worker writes each segment's checkpoint into its
        # member's task, and a member's own payload goes back on the wire
        payload={"tasks": [dict(c.payload) for c in group]},
        min_cores=max(c.min_cores for c in group),
        preferred_cores=max(c.preferred_cores for c in group),
        priority=min(c.priority for c in group),
        origin_server=group[0].origin_server,
        members=list(group),
    )


def split_results(batch: BatchCommand, result: dict) -> List[Tuple[Command, dict]]:
    """Pair each member command with its per-command result payload."""
    payloads = result["results"]
    if len(payloads) != len(batch.members):
        raise ConfigurationError(
            f"batch result has {len(payloads)} entries for "
            f"{len(batch.members)} members"
        )
    return list(zip(batch.members, payloads))


def coalesce_commands(commands: Sequence[Command]) -> List[Command]:
    """Adaptively merge a command list, preserving first-seen order.

    Greedy over the list: each still-unmerged coalescible command
    starts a group and absorbs later same-key commands up to
    :data:`MAX_STACK`.  Groups of one (and non-coalescible commands,
    including already-merged :class:`BatchCommand` entries) pass
    through untouched, so the function is idempotent.
    """
    out: List[Command] = []
    used = [False] * len(commands)
    for i, command in enumerate(commands):
        if used[i]:
            continue
        used[i] = True
        key = coalesce_key(command)
        if key is None:
            out.append(command)
            continue
        group = [command]
        for j in range(i + 1, len(commands)):
            if len(group) >= MAX_STACK:
                break
            if not used[j] and coalesce_key(commands[j]) == key:
                group.append(commands[j])
                used[j] = True
        out.append(merge_commands(group) if len(group) > 1 else command)
    return out
