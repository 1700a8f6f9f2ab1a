"""Server-crash-restart chaos: kill the project server, resume from disk.

The acceptance scenario for the durable journal: the *project server*
(queue, leases, dedup barrier, controller — all in-memory state) dies
mid-project and a fresh deployment resumes the project from the
surviving journal directory.  The project must complete with every
recovery invariant green: no result lost, none applied twice, leased
commands resumed from their journaled checkpoints.  Seeds follow the
``CHAOS_SEED`` convention of ``test_chaos_recovery.py`` so CI's
recovery matrix can widen coverage.
"""

import os

import pytest

from repro.core.events import EventKind
from repro.core.project import ProjectStatus
from repro.core.runner import ProjectRunner
from repro.net import Network
from repro.net.protocol import Message, MessageType
from repro.server import CopernicusServer
from repro.testing import (
    FaultPlan,
    Invariants,
    SwarmController,
    run_swarm_with_server_restart,
)
from repro.util.errors import ConfigurationError

SEEDS = sorted({0, 1, 2, int(os.environ.get("CHAOS_SEED", "0"))})
N_COMMANDS = 3
N_STEPS = 3000
ALL_COMMANDS = [f"cmd{k}" for k in range(N_COMMANDS)]


def restart_after_one(plan: FaultPlan) -> None:
    plan.restart_server("srv", after_results=1)


# ------------------------------------------------------------- acceptance


@pytest.mark.parametrize("seed", SEEDS)
def test_restart_completes_with_invariants_green(seed, canned):
    out = canned(
        "run_swarm_with_server_restart", seed, configure=restart_after_one
    )
    assert out.project.status is ProjectStatus.COMPLETE
    # the kill genuinely interrupted the project
    assert 1 <= out.pre["results_applied"] < N_COMMANDS
    assert sorted(c for c, _ in out.controller.finished) == ALL_COMMANDS
    Invariants(out.runner).assert_ok()


def test_no_result_lost_or_doubled_across_restart(canned):
    out = canned(
        "run_swarm_with_server_restart", 1, configure=restart_after_one
    )
    events = out.runner.events
    completed = events.filter(kind=EventKind.COMMAND_COMPLETED)
    # every command completes exactly once across the restart boundary
    assert sorted(r.details["command"] for r in completed) == ALL_COMMANDS
    replayed = [r for r in completed if r.details.get("replayed")]
    assert len(replayed) == out.pre["results_applied"]

    recovered = events.filter(kind=EventKind.SERVER_RECOVERED)
    assert len(recovered) == 1
    details = recovered[0].details
    assert details["replayed"] == out.pre["results_applied"]
    # recovery accounts for every pre-crash command: replayed or restored
    assert details["replayed"] + details["restored"] == N_COMMANDS
    restored = events.filter(kind=EventKind.COMMAND_RESTORED)
    assert len(restored) == details["restored"]


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_reproduces_identical_transcripts(seed, reproducible):
    # both phases' transcripts and the chaos report among the digested
    # parts; the journal directory differs from the digest's and must not
    reproducible(
        "run_swarm_with_server_restart", seed, configure=restart_after_one
    )


# -------------------------------------------- exactly-once after recovery


def test_late_duplicate_result_after_restart_is_dropped(tmp_path):
    """A worker retransmits a pre-crash result long after the restart:
    the reseeded dedup barrier must drop it (the paper's exactly-once
    promise holds across the restart boundary)."""
    out = run_swarm_with_server_restart(
        tmp_path / "journal", configure=restart_after_one, seed=2
    )
    server = out.server
    command, result = server.journal.project("swarm").state.results[0]
    finished_before = len(out.controller.finished)
    dropped_before = server.duplicates_dropped
    response = server.handle(
        Message(
            type=MessageType.COMMAND_RESULT,
            src="w0",
            dst="srv",
            payload={
                "worker": "w0",
                "command": command.to_payload(),
                "result": result,
            },
        )
    )
    assert response == {"ok": True}  # the worker still gets its ack
    assert server.duplicates_dropped == dropped_before + 1
    assert len(out.controller.finished) == finished_before
    dropped = out.runner.events.filter(
        kind=EventKind.DUPLICATE_RESULT_DROPPED
    )
    assert [r.details["command"] for r in dropped] == [command.command_id]
    Invariants(out.runner).assert_ok()


# --------------------------------------------------- checkpoints survive


def test_leased_command_resumes_from_journaled_checkpoint(tmp_path):
    """A command in flight at the kill (its worker died too) restarts
    from the checkpoint the journal recorded, not from step zero."""

    def configure(plan):
        plan.restart_server("srv", after_results=1)
        plan.crash_worker("w0", at_segment=1)

    out = run_swarm_with_server_restart(
        tmp_path / "journal", configure=configure, seed=0
    )
    assert out.project.status is ProjectStatus.COMPLETE
    restored = out.runner.events.filter(kind=EventKind.COMMAND_RESTORED)
    assert any(r.details["has_checkpoint"] for r in restored)
    finished = dict(out.controller.finished)
    resumed = [steps for steps in finished.values() if steps < N_STEPS]
    assert resumed, "no command resumed from a checkpoint after restart"
    Invariants(out.runner).assert_ok()


# ------------------------------------------------------------- torn tails


def tear_tail(journal_root) -> None:
    """Cut the last bytes off the journal, as a mid-append crash would."""
    segments = sorted((journal_root / "swarm" / "wal").glob("wal-*.log"))
    assert segments, "scenario left no journal segments to tear"
    blob = segments[-1].read_bytes()
    segments[-1].write_bytes(blob[: len(blob) - 7])


def test_torn_journal_tail_still_recovers_and_completes(tmp_path):
    out = run_swarm_with_server_restart(
        tmp_path / "journal",
        configure=restart_after_one,
        mutate_journal=tear_tail,
        snapshot_every=None,  # keep all records in the log so the tear bites
        seed=3,
    )
    assert out.project.status is ProjectStatus.COMPLETE
    assert sorted(c for c, _ in out.controller.finished) == ALL_COMMANDS
    Invariants(out.runner).assert_ok()


# ------------------------------------------------------------- edge cases


def test_resume_without_journal_refuses(tmp_path):
    net = Network(seed=0)
    server = CopernicusServer("srv", net)
    runner = ProjectRunner(net, server, [])
    with pytest.raises(ConfigurationError):
        runner.resume("swarm", SwarmController(n_commands=1, n_steps=100))


def test_restart_rule_fires_and_is_reported(tmp_path):
    plan = FaultPlan(seed=0)
    out = run_swarm_with_server_restart(
        tmp_path / "journal", plan=plan, configure=restart_after_one, seed=0
    )
    rule = plan.server_restart_point("srv")
    assert rule.fired == 1
    assert any(f is rule for _, f in plan.firings)
    description = out.pre["runner"]  # phase-1 runner survives for audits
    assert description.events.filter(kind=EventKind.PROJECT_SUBMITTED)
    assert {"kind": "server_restart", "fired": 1, "after_index": 0,
            "dst": "srv", "after_results": 1} == rule.describe()
