"""Straggler detection and speculative re-execution, end to end.

The canned scenario throttles one worker to 10% speed while it keeps
heartbeating: the server must notice the overdue lease (the worker is
alive, so this is a straggler, not a death), launch a speculative copy
from the last checkpoint, accept the first result, and journal the
straggler's late duplicate as the race's loser -- exactly once.
"""

import pytest

from repro.core.events import EventKind
from repro.testing import Invariants


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_straggler_completes_via_speculation_in_bounded_time(seed, canned):
    out = canned("run_swarm_with_straggler", seed)
    runner, server = out.runner, out.server

    # the project finished in bounded virtual time: a handful of ticks,
    # not the ~10x stretch the straggler alone would have needed
    assert out.completed_at <= 20 * 90.0
    assert len(out.controller.finished) == 3

    # the slow worker was flagged as a straggler (not dead), and a
    # speculative copy raced it home
    events = runner.events
    detected = events.filter(kind=EventKind.STRAGGLER_DETECTED)
    assert [e.details.get("worker") for e in detected] == ["w0"]
    started = events.filter(kind=EventKind.SPECULATION_STARTED)
    assert len(started) == 1
    assert started[0].details.get("worker") == "w0"
    assert not any(
        e.details.get("worker") == "w0"
        for e in events.filter(kind=EventKind.WORKER_DEAD)
    )

    assert server.stragglers_detected == 1
    assert server.speculations_started == 1
    assert server.speculations_won == 1

    Invariants(runner).assert_ok()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_losing_copy_is_journaled_and_dropped_exactly_once(seed, canned):
    out = canned("run_swarm_with_straggler", seed)
    runner, server = out.runner, out.server
    events = runner.events

    # the straggler's late result arrived after the drain loop let it
    # finish; it must be recognized as the race's loser exactly once
    lost = events.filter(kind=EventKind.SPECULATION_LOST)
    assert len(lost) == 1
    assert lost[0].details.get("worker") == "w0"
    assert server.speculations_lost == 1

    # ...and exactly-once held: the speculated command completed once
    speculated_id = lost[0].details.get("command")
    completions = [
        e
        for e in events.filter(kind=EventKind.COMMAND_COMPLETED)
        if e.details.get("command") == speculated_id
    ]
    assert len(completions) == 1


def test_straggler_scenario_is_deterministic(reproducible):
    # transcript, completed_at and drain_cycles among the digested parts
    reproducible("run_swarm_with_straggler", 2)


def test_checkpoints_evicted_once_commands_complete(canned):
    # checkpoints must not leak: finished commands (including the
    # speculated one, reported by two workers) leave no lease, and so
    # no checkpoint, behind on any worker
    out = canned("run_swarm_with_straggler", 0)
    server = out.server
    finished_ids = [command_id for command_id, _ in out.controller.finished]
    assert finished_ids
    for worker in server.monitor.workers():
        for command_id in finished_ids:
            assert server.leases.get(worker, f"swarm::{command_id}") is None
