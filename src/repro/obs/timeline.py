"""Per-command lifecycle timelines and critical-path analysis.

The scaling claims of the paper (Figs. 7-9) rest on knowing where time
goes as commands flow server -> worker -> controller.  This module
reconstructs, for every command of a finished
:class:`~repro.core.runner.ProjectRunner` run, a timeline partitioned
into four phases:

``queue``
    Waiting for a worker: issue -> lease grant, plus every re-wait
    after a crash requeue or speculation (anything that is neither
    compute, transfer nor controller time).
``compute``
    A worker actually executing segments (the union of that command's
    ``worker.execute`` spans).
``transfer``
    The winning result travelling home — including retry backoff and
    parked-result cycles on a flaky uplink.
``controller``
    The project controller folding the result in and thinking about
    follow-ups (virtually instant on the logical clock; real clustering
    wall-time is surfaced separately as a metric).

The four phases partition each command's issue->completion window
*exactly* (the leftover after compute/transfer/controller is queue
wait), so the per-phase breakdown sums to the command's lifecycle
duration to within float rounding — the acceptance bar for honest
utilization numbers.

The same module computes the run's *critical path*: the dependency
chain of commands (each follow-up hangs off the completion that
triggered it) whose completion decided the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.events import EventKind, EventLog
from repro.obs.trace import Span, Tracer

#: Phase keys, in render order.
PHASES = ("queue", "compute", "transfer", "controller")


@dataclass
class CommandTimeline:
    """One command's reconstructed lifecycle."""

    command_id: str
    project_id: str
    issued_at: float
    assigned_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: The command that triggered this one's issue (None for the
    #: initial generation) — the edge set of the critical-path DAG.
    trigger: Optional[str] = None
    #: Workers whose execute spans touched this command.
    workers: Tuple[str, ...] = ()
    requeues: int = 0
    speculated: bool = False
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether the command's result reached the controller."""
        return self.completed_at is not None

    @property
    def duration(self) -> float:
        """Issue -> completion, virtual seconds (0 while incomplete)."""
        if not self.complete:
            return 0.0
        return self.completed_at - self.issued_at


@dataclass
class TimelineReport:
    """Aggregate of every command timeline in one run."""

    commands: List[CommandTimeline]
    #: Summed phase seconds over completed commands.
    phase_totals: Dict[str, float]
    #: Sum of completed commands' lifecycle durations.
    total_seconds: float
    #: Virtual span of the run: first issue -> last completion.
    makespan: float
    #: Command ids along the critical path, in dependency order.
    critical_path: List[str]
    #: Phase seconds summed along the critical path only.
    critical_path_phases: Dict[str, float]

    def utilization(self) -> float:
        """Compute seconds as a fraction of total lifecycle seconds."""
        if self.total_seconds <= 0:
            return 0.0
        return self.phase_totals.get("compute", 0.0) / self.total_seconds

    def render_text(self) -> str:
        """Human-readable timeline report (the CLI's output)."""
        lines = ["== command lifecycle timeline =="]
        header = (
            f"{'command':<12s} {'issued':>8s} {'done':>8s} "
            + " ".join(f"{p:>10s}" for p in PHASES)
        )
        lines.append(header)
        for tl in self.commands:
            if not tl.complete:
                lines.append(f"{tl.command_id:<12s} {tl.issued_at:>8.0f} "
                             f"{'--':>8s} (incomplete)")
                continue
            lines.append(
                f"{tl.command_id:<12s} {tl.issued_at:>8.0f} "
                f"{tl.completed_at:>8.0f} "
                + " ".join(f"{tl.phases.get(p, 0.0):>10.1f}" for p in PHASES)
                + (f"  ({tl.requeues} requeue(s))" if tl.requeues else "")
                + ("  [speculated]" if tl.speculated else "")
            )
        lines.append("-- totals --")
        for phase in PHASES:
            seconds = self.phase_totals.get(phase, 0.0)
            share = seconds / self.total_seconds if self.total_seconds else 0.0
            lines.append(f"  {phase:<10s} {seconds:>12.1f}s  {share:>6.1%}")
        lines.append(
            f"  {'lifecycle':<10s} {self.total_seconds:>12.1f}s  "
            f"(makespan {self.makespan:.1f}s, "
            f"utilization {self.utilization():.1%})"
        )
        if self.critical_path:
            lines.append(
                "-- critical path: " + " -> ".join(self.critical_path) + " --"
            )
            for phase in PHASES:
                lines.append(
                    f"  {phase:<10s} "
                    f"{self.critical_path_phases.get(phase, 0.0):>12.1f}s"
                )
        return "\n".join(lines)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def _execute_spans(tracer: Optional[Tracer]) -> Dict[str, List[Span]]:
    """Finished ``worker.execute`` spans grouped by command id."""
    out: Dict[str, List[Span]] = {}
    if tracer is None:
        return out
    for span in tracer.finished_spans():
        if span.name != "worker.execute":
            continue
        command = span.attributes.get("command")
        if command:
            out.setdefault(command, []).append(span)
    return out


def build_command_timelines(
    events: EventLog, tracer: Optional[Tracer] = None
) -> List[CommandTimeline]:
    """Reconstruct every command's lifecycle from events (+ spans).

    Works from the same audit trail the invariant checker replays, so
    a journal-recovered run reconstructs identically.  Replayed
    completions (results applied from a journal during recovery) carry
    no live lifecycle and are skipped.
    """
    timelines: Dict[str, CommandTimeline] = {}
    order: List[str] = []
    for record in events.all():
        kind, details = record.kind, record.details
        if kind is EventKind.COMMANDS_ISSUED:
            for command_id in details.get("ids", []):
                if command_id in timelines:
                    continue
                timelines[command_id] = CommandTimeline(
                    command_id=command_id,
                    project_id=record.project_id,
                    issued_at=record.time,
                    trigger=details.get("trigger"),
                )
                order.append(command_id)
        elif kind is EventKind.WORKLOAD_ASSIGNED:
            for command_id in details.get("commands", []):
                tl = timelines.get(command_id)
                if tl is not None and tl.assigned_at is None:
                    tl.assigned_at = record.time
        elif kind is EventKind.COMMAND_COMPLETED:
            if details.get("replayed"):
                continue
            tl = timelines.get(details.get("command"))
            if tl is not None and tl.completed_at is None:
                tl.completed_at = record.time
        elif kind is EventKind.COMMAND_REQUEUED:
            tl = timelines.get(details.get("command"))
            if tl is not None:
                tl.requeues += 1
        elif kind is EventKind.SPECULATION_STARTED:
            tl = timelines.get(details.get("command"))
            if tl is not None:
                tl.speculated = True

    spans_by_command = _execute_spans(tracer)
    controller_spans: Dict[str, float] = {}
    if tracer is not None:
        for span in tracer.finished_spans():
            if span.name == "controller.update":
                command = span.attributes.get("command")
                if command:
                    controller_spans[command] = (
                        controller_spans.get(command, 0.0) + span.duration
                    )

    for command_id in order:
        tl = timelines[command_id]
        if not tl.complete:
            continue
        window = (tl.issued_at, tl.completed_at)
        exec_spans = spans_by_command.get(command_id, [])
        tl.workers = tuple(sorted({s.component for s in exec_spans}))
        # the winning execution: the completed span whose end precedes
        # (or coincides with) the completion event
        winner_end: Optional[float] = None
        for span in exec_spans:
            if not span.attributes.get("completed"):
                continue
            if span.end <= window[1] + 1e-9:
                winner_end = span.end if winner_end is None else min(
                    winner_end, span.end
                )
        if winner_end is None:
            winner_end = window[1]
        compute = _union_length(
            [
                (max(s.start, window[0]), min(s.end, winner_end))
                for s in exec_spans
            ]
        )
        transfer = max(0.0, window[1] - winner_end)
        controller = min(
            controller_spans.get(command_id, 0.0),
            max(0.0, tl.duration - compute - transfer),
        )
        queue = max(0.0, tl.duration - compute - transfer - controller)
        tl.phases = {
            "queue": queue,
            "compute": compute,
            "transfer": transfer,
            "controller": controller,
        }
    return [timelines[c] for c in order]


def _critical_path(
    timelines: List[CommandTimeline],
) -> Tuple[List[str], Dict[str, float]]:
    """Walk trigger edges back from the completion that set the makespan."""
    complete = {tl.command_id: tl for tl in timelines if tl.complete}
    if not complete:
        return [], {phase: 0.0 for phase in PHASES}
    tail = max(complete.values(), key=lambda tl: (tl.completed_at, tl.command_id))
    path: List[str] = []
    node: Optional[CommandTimeline] = tail
    seen = set()
    while node is not None and node.command_id not in seen:
        path.append(node.command_id)
        seen.add(node.command_id)
        node = complete.get(node.trigger) if node.trigger else None
    path.reverse()
    phases = {phase: 0.0 for phase in PHASES}
    for command_id in path:
        for phase in PHASES:
            phases[phase] += complete[command_id].phases.get(phase, 0.0)
    return path, phases


def build_timeline_report(
    events: EventLog, tracer: Optional[Tracer] = None
) -> TimelineReport:
    """The full report: timelines + totals + critical path."""
    timelines = build_command_timelines(events, tracer)
    phase_totals = {phase: 0.0 for phase in PHASES}
    total_seconds = 0.0
    first_issue: Optional[float] = None
    last_done: Optional[float] = None
    for tl in timelines:
        first_issue = (
            tl.issued_at if first_issue is None else min(first_issue, tl.issued_at)
        )
        if not tl.complete:
            continue
        last_done = (
            tl.completed_at if last_done is None else max(last_done, tl.completed_at)
        )
        total_seconds += tl.duration
        for phase in PHASES:
            phase_totals[phase] += tl.phases.get(phase, 0.0)
    makespan = (
        (last_done - first_issue)
        if first_issue is not None and last_done is not None
        else 0.0
    )
    critical_path, critical_phases = _critical_path(timelines)
    return TimelineReport(
        commands=timelines,
        phase_totals=phase_totals,
        total_seconds=total_seconds,
        makespan=makespan,
        critical_path=critical_path,
        critical_path_phases=critical_phases,
    )


def timeline_report_for(runner) -> TimelineReport:
    """Report for a finished :class:`ProjectRunner` (events + its tracer)."""
    tracer = None
    obs = getattr(getattr(runner, "network", None), "obs", None)
    if obs is not None:
        tracer = obs.tracer
    return build_timeline_report(runner.events, tracer)
