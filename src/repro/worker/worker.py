"""The worker client: announce, fetch workloads, execute, heartbeat.

A worker bootstraps by conveying its platform resources and installed
executables to its nearest server, then loops: request a workload,
stack its compatible ``mdrun`` commands when ``mdrun_batch`` is
installed (:mod:`repro.worker.coalesce`), execute each command or
stack in checkpointed segments (heartbeating with the latest
checkpoint after every segment — the shared-filesystem recovery path
of paper section 2.3), and return results.

Failure injection: ``crash()`` makes the worker stop mid-segment and
never heartbeat again, which is exactly how a node loss looks to the
server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.command import Command
from repro.net.protocol import Message, MessageType
from repro.net.transport import Endpoint, Network
from repro.obs.trace import Span, trace_id_for
from repro.worker.coalesce import (
    BATCH_EXECUTABLE,
    BatchCommand,
    coalesce_commands,
    split_results,
)
from repro.worker.executable import ExecutableRegistry, default_registry
from repro.worker.platform import SMPPlatform
from repro.util.errors import ConfigurationError, TransientCommunicationError


@dataclass
class ExecutionRecord:
    """Bookkeeping for one executed command."""

    command_id: str
    segments: int = 0
    completed: bool = False


@dataclass
class _ActiveCommand:
    """A command mid-execution, parked between paced work cycles."""

    command: Command
    payload: dict
    record: ExecutionRecord
    accumulated: Optional[dict] = None
    #: The open ``worker.execute`` span covering this execution.
    span: Optional[Span] = None
    #: For a coalesced batch: per-member state (command, record, span).
    #: Members carry the observable identity — the batch itself opens
    #: no span and joins no history, so traces and records are
    #: indistinguishable from unmerged execution.
    members: Optional[List["_ActiveCommand"]] = None


class Worker(Endpoint):
    """A worker attached to a server.

    Parameters
    ----------
    name / network:
        Endpoint identity.
    server:
        Name of the nearest server (must be linked on the overlay).
    platform:
        A platform plugin instance (default: SMP with 1 core).
    executables:
        Installed executables (default: all built-ins).
    segment_steps:
        MD steps between checkpoint heartbeats while executing.
    segments_per_cycle:
        When set, at most this many segments execute per
        :meth:`work_once` call; the command parks and resumes next
        cycle.  This makes execution take *virtual time* — the pacing
        knob behind the chaos ``STRAGGLER`` fault (``None`` = run every
        command to completion within one cycle, the historic behavior).
    pending_results_limit:
        Cap on parked undeliverable results; beyond it the oldest is
        dropped (and counted) — a long partition must not grow worker
        memory without bound.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        server: str,
        platform=None,
        executables: Optional[ExecutableRegistry] = None,
        segment_steps: int = 2000,
        segments_per_cycle: Optional[int] = None,
        pending_results_limit: int = 64,
    ) -> None:
        super().__init__(name, network)
        if segment_steps < 1:
            raise ConfigurationError("segment_steps must be >= 1")
        if segments_per_cycle is not None and segments_per_cycle < 1:
            raise ConfigurationError("segments_per_cycle must be >= 1")
        if pending_results_limit < 1:
            raise ConfigurationError("pending_results_limit must be >= 1")
        self.server = server
        self.platform = platform or SMPPlatform(cores=1)
        self.executables = executables or default_registry()
        self.segment_steps = segment_steps
        self.segments_per_cycle = segments_per_cycle
        self.crashed = False
        #: Degradation factor in (0, 1]: fraction of ``segment_steps``
        #: actually executed per segment (chaos "slow worker" fault).
        self.throttle = 1.0
        #: Seconds this worker's heartbeat/poll schedule is offset from
        #: the deployment's cycle boundary (seeded jitter; breaks the
        #: thundering herd of every worker beating in lockstep).
        self.poll_offset = 0.0
        #: Executed-command log (for tests and reports).
        self.history: List[ExecutionRecord] = []
        #: Results that could not reach the server (partition/crash);
        #: resubmitted at the start of the next work cycle.  Bounded by
        #: ``pending_results_limit`` and deduplicated by scoped id.
        self._pending_results: List[Tuple[Command, dict]] = []
        self.pending_results_limit = pending_results_limit
        #: Parked results dropped because the bound was hit.
        self.pending_results_dropped = 0
        #: The command currently mid-execution under pacing, if any.
        self._active: Optional[_ActiveCommand] = None
        #: Commands fetched but not yet started (pacing backlog).
        self._backlog: List[Command] = []
        #: Crash trigger: called before each segment; return True to die.
        self._crash_hook: Optional[Callable[[str, int], bool]] = None
        #: Finished ``worker.execute`` spans by scoped id, kept until
        #: the result is delivered so retries re-send the same context.
        self._exec_spans: Dict[str, Span] = {}

    def _count(self, name: str, amount: float = 1.0, help: str = "") -> None:
        """Increment a worker-labelled counter on the shared registry."""
        self.obs.metrics.inc(name, amount, help=help, worker=self.name)

    # -- endpoint ------------------------------------------------------------

    def handle(self, message: Message) -> Optional[dict]:
        """Workers answer nothing (an overlay fetch keeps walking past
        them); they initiate all their traffic."""
        return None

    # -- failure injection --------------------------------------------------

    def crash(self) -> None:
        """Simulate node loss: stop executing and never heartbeat again."""
        self.crashed = True

    def set_crash_hook(self, hook: Callable[[str, int], bool]) -> None:
        """Install a predicate ``(command_id, segment_index) -> bool``
        that, when returning True, kills the worker mid-command."""
        self._crash_hook = hook

    # -- protocol actions --------------------------------------------------

    def capabilities_payload(self) -> dict:
        """The announce body: platform resources plus executables."""
        info = self.platform.detect()
        return {
            "worker": self.name,
            "platform": info.name,
            "cores": info.cores,
            "executables": self.executables.names,
        }

    def announce(self, now: float = 0.0) -> dict:
        """Present this worker to its server."""
        payload = self.capabilities_payload()
        payload["now"] = now
        return self.send(self.server, MessageType.WORKER_ANNOUNCE, payload)

    def heartbeat(
        self, now: float, checkpoints: Optional[Dict[str, dict]] = None
    ) -> Optional[dict]:
        """Send a liveness signal (suppressed when crashed).

        A heartbeat lost to a transient fault (partition, crashed
        server) is simply skipped — the worker keeps executing and
        retries liveness on the next cycle, exactly like a real node
        behind a flaky uplink.
        """
        if self.crashed:
            return None
        body = {"worker": self.name, "now": now}
        if checkpoints:
            body["checkpoints"] = checkpoints
        try:
            return self.send(self.server, MessageType.HEARTBEAT, body)
        except TransientCommunicationError:
            return None

    def request_workload(self, now: float = 0.0) -> List[Command]:
        """Ask the server for commands matching this worker.

        Returns an empty workload when the server is transiently
        unreachable (the worker idles this cycle and polls again).
        The request carries the worker's clock so the server can gate
        quarantined workers against virtual time.
        """
        if self.crashed:
            return []
        payload = self.capabilities_payload()
        payload["now"] = now
        try:
            response = self.send(
                self.server,
                MessageType.WORKLOAD_REQUEST,
                payload,
            )
        except TransientCommunicationError:
            return []
        return [Command.from_payload(p) for p in response.get("commands", [])]

    def run_command(self, command: Command, now: float = 0.0) -> Optional[dict]:
        """Execute one command, or a coalesced batch, in checkpointed
        segments.

        Returns the final result payload, or ``None`` if the worker
        crashed mid-command (the server will detect it by heartbeat
        timeout and requeue from the last checkpoint), if the
        executable refused the payload (counted in
        ``repro_worker_commands_rejected_total``) — or, under pacing
        (``segments_per_cycle``), if the command parked to resume on
        the next work cycle.

        Observability is per member: each member of a batch gets its
        own execution record and ``worker.execute`` span, exactly as if
        it ran unmerged; the batch wrapper itself stays invisible.
        """
        batch = isinstance(command, BatchCommand)
        tracked: List[_ActiveCommand] = []
        for member in command.members if batch else [command]:
            record = ExecutionRecord(command_id=member.command_id)
            self.history.append(record)
            tracked.append(
                _ActiveCommand(
                    command=member,
                    payload={},
                    record=record,
                    span=self._begin_exec_span(member, now),
                )
            )
        payload = dict(command.payload)
        if command.checkpoint is not None:
            payload["checkpoint"] = command.checkpoint
        if not batch:
            tracked[0].payload = payload
            return self._execute(tracked[0], now)
        self._count(
            "repro_worker_commands_coalesced_total",
            amount=len(tracked),
            help="Commands executed inside coalesced batches.",
        )
        active = _ActiveCommand(
            command=command,
            payload=payload,
            record=ExecutionRecord(command_id=command.command_id),
            members=tracked,
        )
        return self._execute(active, now)

    def _begin_exec_span(self, command: Command, now: float) -> Span:
        """Open the ``worker.execute`` span for one command."""
        ctx = command.trace or {}
        return self.obs.tracer.begin(
            "worker.execute",
            now,
            ctx.get("trace_id")
            or trace_id_for(command.project_id, command.command_id),
            component=self.name,
            parent_id=ctx.get("span_id"),
            command=command.command_id,
        )

    def _execute(self, active: _ActiveCommand, now: float) -> Optional[dict]:
        """Run (or resume) one command until done, crash, or budget.

        For a coalesced batch every observable action — crash-hook
        probe, span, execution record, heartbeat checkpoint — happens
        per member command, so the server sees exactly what unmerged
        execution would have produced.
        """
        command = active.command
        # observable identity: the member commands, or the command itself
        tracked = active.members if active.members is not None else [active]
        executed = 0
        while True:
            if self.crashed or (
                self._crash_hook
                and any(
                    self._crash_hook(t.command.command_id, t.record.segments)
                    for t in tracked
                )
            ):
                self.crashed = True
                self._active = None
                self._count(
                    "repro_worker_crashes_total",
                    help="Worker deaths (mid-command node loss).",
                )
                for t in tracked:
                    if t.span is not None:
                        self.obs.tracer.end(
                            t.span,
                            now,
                            crashed=True,
                            segments=t.record.segments,
                        )
                return None
            if (
                self.segments_per_cycle is not None
                and executed >= self.segments_per_cycle
            ):
                # budget exhausted: park; the latest checkpoint was
                # already heartbeated, so the server can still recover
                self._active = active
                return None
            try:
                result, completed = self.executables.run(
                    command.executable,
                    active.payload,
                    abort_after_steps=max(1, int(self.segment_steps * self.throttle)),
                )
            except ConfigurationError as exc:
                # the executable refuses this payload: reject this
                # command alone and let the cycle go on with the backlog
                self._active = None
                self._count(
                    "repro_worker_commands_rejected_total",
                    amount=len(tracked),
                    help="Commands whose payload the executable refused.",
                )
                for t in tracked:
                    if t.span is not None:
                        self.obs.tracer.end(
                            t.span,
                            now,
                            error=type(exc).__name__,
                            segments=t.record.segments,
                        )
                return None
            executed += 1
            for t in tracked:
                t.record.segments += 1
            self._count(
                "repro_worker_segments_total",
                help="Checkpointed execution segments run.",
            )
            active.accumulated = self._merge_segment(active.accumulated, result)
            if completed:
                self._active = None
                self._count(
                    "repro_worker_commands_completed_total",
                    amount=len(tracked),
                    help="Commands executed to completion.",
                )
                for t in tracked:
                    t.record.completed = True
                    if t.span is not None:
                        self.obs.tracer.end(
                            t.span,
                            now,
                            completed=True,
                            segments=t.record.segments,
                        )
                        self._exec_spans[t.command.scoped_id] = t.span
                self.heartbeat(now)
                return active.accumulated
            # continue from the returned checkpoint(s), heartbeating so
            # the server can recover the command(s) if this worker dies
            if active.members is not None:
                checkpoints = [r["checkpoint"] for r in result["results"]]
                # into the batch's task copies, never a member's payload
                for task, checkpoint in zip(active.payload["tasks"], checkpoints):
                    task["checkpoint"] = checkpoint
                self.heartbeat(
                    now,
                    # checkpoints are keyed by the *scoped* command key:
                    # this worker may hold work from several tenants
                    checkpoints={
                        t.command.scoped_id: cp
                        for t, cp in zip(active.members, checkpoints)
                    },
                )
            else:
                active.payload["checkpoint"] = result["checkpoint"]
                self.heartbeat(
                    now, checkpoints={command.scoped_id: result["checkpoint"]}
                )

    @staticmethod
    def _merge_segment(
        accumulated: Optional[dict], segment: dict
    ) -> dict:
        """Concatenate per-segment outputs into one command result."""
        if accumulated is None:
            return dict(segment)
        merged = dict(segment)
        if "results" in segment and "results" in accumulated:
            # batched payload: merge the per-member results elementwise
            merged["results"] = [
                Worker._merge_segment(prev, cur)
                for prev, cur in zip(accumulated["results"], segment["results"])
            ]
            return merged
        if "frames" in segment and "frames" in accumulated:
            import numpy as np

            prev_f, prev_t = accumulated["frames"], accumulated["times"]
            cur_f, cur_t = segment["frames"], segment["times"]
            if not len(cur_f):
                # a segment that crossed no report step adds no frames
                merged["frames"], merged["times"] = prev_f, prev_t
            elif len(prev_f):
                # a segment resumed on the report grid re-records the
                # checkpoint frame; drop the duplicate
                keep = cur_t > prev_t[-1] + 1e-12
                merged["frames"] = np.concatenate([prev_f, cur_f[keep]])
                merged["times"] = np.concatenate([prev_t, cur_t[keep]])
        if "steps_completed" in segment and "steps_completed" in accumulated:
            merged["steps_completed"] = (
                accumulated["steps_completed"] + segment["steps_completed"]
            )
        return merged

    def submit_result(self, command: Command, result: dict) -> Optional[dict]:
        """Return a finished command's output to the server.

        If the server is transiently unreachable the result is parked
        and resubmitted on the next work cycle — finished work is never
        thrown away just because the uplink flapped.  (The server
        deduplicates, so a result that *did* arrive before the response
        was lost completes the command exactly once.)
        """
        if self.crashed:
            return None
        headers: dict = {}
        span = self._exec_spans.get(command.scoped_id)
        if span is not None:
            # the execution span's context + end time ride in headers so
            # the server can stitch a result.transfer span onto the trace
            span.context().inject(headers)
            if span.finished:
                headers["exec_end"] = span.end
        try:
            response = self.send(
                self.server,
                MessageType.COMMAND_RESULT,
                {
                    "worker": self.name,
                    "command": command.to_payload(),
                    "result": result,
                },
                headers=headers,
            )
        except TransientCommunicationError:
            self._park_result(command, result)
            return None
        self._exec_spans.pop(command.scoped_id, None)
        self._count(
            "repro_worker_results_delivered_total",
            help="Results that reached the server.",
        )
        return response

    def _park_result(self, command: Command, result: dict) -> None:
        """Park an undeliverable result, deduplicated and bounded.

        A result re-parked for a command already waiting replaces the
        old entry (one delivery is enough — the server dedups anyway);
        when the bound is hit the oldest parked result is dropped and
        counted, trading that command's redelivery for bounded memory
        (the server's liveness sweep requeues it if it never arrives).
        """
        self._pending_results = [
            entry
            for entry in self._pending_results
            if entry[0].scoped_id != command.scoped_id
        ]
        self._pending_results.append((command, result))
        self._count(
            "repro_worker_results_parked_total",
            help="Results parked because the server was unreachable.",
        )
        while len(self._pending_results) > self.pending_results_limit:
            self._pending_results.pop(0)
            self.pending_results_dropped += 1
            self._count(
                "repro_worker_results_dropped_total",
                help="Parked results dropped at the memory bound.",
            )

    def flush_pending_results(self) -> int:
        """Resubmit parked results; returns how many got through."""
        if self.crashed or not self._pending_results:
            return 0
        pending, self._pending_results = self._pending_results, []
        delivered = 0
        for command, result in pending:
            # submit_result re-parks into _pending_results on failure
            if self.submit_result(command, result) is not None:
                delivered += 1
        return delivered

    @property
    def idle(self) -> bool:
        """Whether no command is parked mid-execution or fetched but
        unstarted — the next :meth:`work_once` polls for a workload."""
        return self._active is None and not self._backlog

    def work_once(self, now: float = 0.0) -> int:
        """One poll cycle: resume parked work, fetch and run commands.

        Without pacing every fetched command runs to completion within
        the cycle.  With ``segments_per_cycle`` set, a command that
        exhausts its segment budget parks in :attr:`_active` and
        resumes next cycle — only when both the active slot and the
        backlog are empty does the worker poll for a new workload.

        Returns the number of commands completed this cycle.
        """
        done = self.flush_pending_results()
        if self.crashed:
            return done
        if self.idle:
            fetched = self.request_workload(now=now)
            if BATCH_EXECUTABLE in self.executables.names:
                # stack whatever compatible work the workload contains
                fetched = coalesce_commands(fetched)
            self._backlog.extend(fetched)
        while True:
            if self._active is not None:
                command = self._active.command
                result = self._execute(self._active, now)
            elif self._backlog:
                command = self._backlog.pop(0)
                result = self.run_command(command, now=now)
            else:
                break
            if result is None:
                if self.crashed or self._active is not None:
                    break  # crashed mid-command, or parked until next cycle
                continue  # the executable refused the payload
            if isinstance(command, BatchCommand):
                # split the batch back into per-command results; each is
                # submitted (and deduplicated, journaled, traced) exactly
                # as if its command had run alone
                for member, member_result in split_results(command, result):
                    if self.submit_result(member, member_result) is not None:
                        done += 1
            else:
                response = self.submit_result(command, result)
                if response is not None:
                    done += 1
        return done
