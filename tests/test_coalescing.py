"""Adaptive command coalescing is invisible above the worker.

Two deployments run the same swarm, one with ``batch_capacity=1``
(serial execution) and one with ``batch_capacity=8`` (commands merged
into batched kernel calls).  Everything the server and observability
layers can see — per-command results, execution records, trace spans,
journal records, the dedup barrier — must be indistinguishable; only
wall-clock time may differ.
"""

import copy

import pytest

from repro.core.command import Command
from repro.core.project import Project, ProjectStatus
from repro.core.runner import ProjectRunner
from repro.md.engine import MDTask
from repro.net.transport import Network
from repro.server.fairshare import FairShareScheduler
from repro.server.matching import WorkerCapabilities
from repro.server.queue import CommandQueue
from repro.server.server import CopernicusServer
from repro.server.wal import ServerJournal
from repro.testing.scenarios import SwarmController
from repro.util.errors import ConfigurationError
from repro.util.serialization import encode_message
from repro.worker.coalesce import (
    BatchCommand,
    coalesce_commands,
    coalesce_key,
    merge_commands,
    split_results,
)
from repro.worker.platform import SMPPlatform
from repro.worker.worker import Worker

N_COMMANDS = 4
N_STEPS = 240
SEGMENT_STEPS = 80


def mdrun_command(k, n_steps=N_STEPS, model="double-well", **task_kw):
    return Command(
        command_id=f"cmd{k}",
        project_id="p",
        executable="mdrun",
        payload=MDTask(
            model=model,
            n_steps=n_steps,
            report_interval=60,
            seed=k,
            task_id=f"cmd{k}",
            **task_kw,
        ).to_payload(),
    )


# -- unit level: keys, merging, splitting -------------------------------------


def test_coalesce_key_groups_compatible_commands():
    a, b = mdrun_command(0), mdrun_command(1)
    assert coalesce_key(a) == coalesce_key(b) is not None
    different_steps = mdrun_command(2, n_steps=N_STEPS + 1)
    assert coalesce_key(different_steps) != coalesce_key(a)


def test_coalesce_key_refuses_checkpointed_and_foreign_commands():
    checkpointed = mdrun_command(0)
    checkpointed.checkpoint = {"step": 1}
    assert coalesce_key(checkpointed) is None
    foreign = Command(
        command_id="f", project_id="p", executable="fepsample", payload={}
    )
    assert coalesce_key(foreign) is None


def test_coalesce_commands_caps_and_preserves_order():
    commands = [mdrun_command(k) for k in range(5)]
    odd = mdrun_command(9, n_steps=N_STEPS + 1)
    merged = coalesce_commands(
        [commands[0], odd, *commands[1:]], capacity=3
    )
    assert isinstance(merged[0], BatchCommand)
    assert [m.command_id for m in merged[0].members] == ["cmd0", "cmd1", "cmd2"]
    assert merged[1].command_id == "cmd9"
    assert isinstance(merged[2], BatchCommand)
    assert [m.command_id for m in merged[2].members] == ["cmd3", "cmd4"]
    # idempotent: a second pass leaves merged entries untouched
    again = coalesce_commands(merged, capacity=3)
    assert again == merged


def test_merge_commands_requires_group():
    with pytest.raises(ConfigurationError):
        merge_commands([mdrun_command(0)])


def test_split_results_validates_lengths():
    batch = merge_commands([mdrun_command(0), mdrun_command(1)])
    with pytest.raises(ConfigurationError):
        split_results(batch, {"results": [{}]})


def test_a_multi_segment_batch_leaves_member_payloads_as_fetched(monkeypatch):
    """Segment checkpoints go into the batch's own task copies: every
    member's wire payload is what the server sent, byte for byte."""
    network = Network(seed=0)
    server = CopernicusServer("srv", network)
    worker = Worker(
        "w0",
        network,
        server="srv",
        platform=SMPPlatform(cores=1),
        segment_steps=SEGMENT_STEPS,
        batch_capacity=N_COMMANDS,
    )
    network.connect("srv", "w0")
    results = {}
    server.host_project("p", lambda c, r: results.setdefault(c.command_id, r))
    server.submit_commands([mdrun_command(k) for k in range(N_COMMANDS)])
    worker.announce(0.0)
    fetched = []
    request = worker.request_workload

    def recording_request(now=0.0):
        commands = request(now=now)
        fetched.extend((c, encode_message(c.to_payload())) for c in commands)
        return commands

    monkeypatch.setattr(worker, "request_workload", recording_request)
    assert worker.work_once(now=1.0) == N_COMMANDS
    assert len(fetched) == N_COMMANDS
    assert [r.segments for r in worker.history] == [N_STEPS // SEGMENT_STEPS] * (
        N_COMMANDS
    )
    for command, wire in fetched:
        assert "checkpoint" not in command.payload
        assert encode_message(command.to_payload()) == wire
    assert all(r["completed"] for r in results.values())


# -- matching level ------------------------------------------------------------


def test_build_workload_hands_riders_to_batch_capable_workers():
    queue = CommandQueue()
    for k in range(6):
        queue.push(mdrun_command(k))
    caps = WorkerCapabilities(
        worker="w0",
        platform="smp",
        cores=2,
        executables=["mdrun", "mdrun_batch"],
        batch_capacity=4,
    )
    workload = FairShareScheduler().build(queue, caps, now=0.0, queued_at={})
    ids = [c.command_id for c, _ in workload]
    # one host command + 3 riders sharing its cores, then a second host
    # command (+ rider) on the remaining core
    assert ids[:4] == ["cmd0", "cmd1", "cmd2", "cmd3"]
    assert len(ids) == 6
    cores = [a for _, a in workload]
    assert cores[0] == cores[1] == cores[2] == cores[3]


def test_build_workload_without_batch_executable_ignores_capacity():
    queue = CommandQueue()
    for k in range(4):
        queue.push(mdrun_command(k))
    caps = WorkerCapabilities(
        worker="w0",
        platform="smp",
        cores=1,
        executables=["mdrun"],
        batch_capacity=8,
    )
    workload = FairShareScheduler().build(queue, caps, now=0.0, queued_at={})
    assert [c.command_id for c, _ in workload] == ["cmd0"]


# -- deployment level: full indistinguishability ------------------------------


def run_swarm(batch_capacity, journal_root=None):
    network = Network(seed=0)
    server = CopernicusServer("srv", network)
    if journal_root is not None:
        server.attach_journal(ServerJournal(journal_root))
    worker = Worker(
        "w0",
        network,
        server="srv",
        platform=SMPPlatform(cores=1),
        segment_steps=SEGMENT_STEPS,
        batch_capacity=batch_capacity,
    )
    network.connect("srv", "w0")
    worker.announce(0.0)
    controller = SwarmController(n_commands=N_COMMANDS, n_steps=N_STEPS)
    runner = ProjectRunner(network, server, [worker], tick=60.0)
    project = Project("swarm")
    runner.submit(project, controller)
    runner.run(max_cycles=1000)
    if journal_root is not None:
        server.journal.close()
    return {
        "project": project,
        "controller": controller,
        "worker": worker,
        "network": network,
        "runner": runner,
    }


def journal_skeleton(root):
    """Per-command sequence of journal record types (+checkpoint steps).

    Assignment granularity is allowed to differ — the server hands a
    batch-capable worker several compatible commands in one workload
    message by design — but every individual command must leave the
    same records either way.
    """
    journal = ServerJournal(root)
    records = list(journal.project("swarm").wal.records())
    journal.close()
    per_command = {}
    for record in records:
        kind = record.get("type")
        ids = record.get("command_ids")
        if ids is None and record.get("command_id") is not None:
            ids = [record["command_id"]]
        if ids is None and isinstance(record.get("command"), dict):
            ids = [record["command"]["command_id"]]
        for command_id in ids or []:
            entry = (kind, record.get("step"))
            per_command.setdefault(command_id, []).append(entry)
    return per_command


def test_coalesced_swarm_indistinguishable_from_serial(tmp_path):
    serial = run_swarm(1, journal_root=tmp_path / "serial")
    merged = run_swarm(8, journal_root=tmp_path / "merged")

    # coalescing actually happened — and only in the merged deployment
    def coalesced(outcome):
        return outcome["network"].obs.metrics.value(
            "repro_worker_commands_coalesced_total", worker="w0"
        )

    assert coalesced(serial) == 0
    assert coalesced(merged) >= N_COMMANDS

    # per-command results: byte-identical
    for outcome in (serial, merged):
        assert outcome["project"].status is ProjectStatus.COMPLETE
    serial_log = dict(serial["project"].results_log)
    merged_log = dict(merged["project"].results_log)
    assert sorted(serial_log) == sorted(merged_log)
    for command_id in serial_log:
        assert encode_message(merged_log[command_id]) == encode_message(
            serial_log[command_id]
        )

    # execution records: same commands, same segment counts, no batch ids
    def history(outcome):
        return [
            (r.command_id, r.segments, r.completed)
            for r in outcome["worker"].history
        ]

    assert history(merged) == history(serial)
    assert all(not cid.startswith("batch:") for cid, _, _ in history(merged))

    # worker.execute spans: one per member command, identical attributes
    def exec_spans(outcome):
        return [
            (s.name, s.attributes.get("command"), s.attributes.get("completed"))
            for s in outcome["network"].obs.tracer.spans
            if s.name == "worker.execute"
        ]

    assert exec_spans(merged) == exec_spans(serial)

    # journal: same record kinds against the same command ids
    assert journal_skeleton(tmp_path / "merged") == journal_skeleton(
        tmp_path / "serial"
    )

    # dedup barrier untouched: nothing dropped, nothing doubled
    assert (
        merged["controller"].finished == serial["controller"].finished
    )


def test_coalesced_swarm_transcript_deterministic():
    first = run_swarm(8)
    second = run_swarm(8)
    assert first["runner"].events.to_text() == second["runner"].events.to_text()
