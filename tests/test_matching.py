"""Workload construction edge cases (the fair-share scheduler's matcher
under the default policy, one project)."""

import pytest

from repro.core.command import Command
from repro.server.fairshare import FairShareScheduler
from repro.server.matching import WorkerCapabilities
from repro.server.queue import CommandQueue
from repro.util.errors import SchedulingError


def _caps(cores, executables=("mdrun",), worker="w0"):
    return WorkerCapabilities(
        worker=worker, platform="smp", cores=cores,
        executables=list(executables),
    )


def _build(queue, caps, max_commands=None):
    return FairShareScheduler().build(
        queue, caps, now=0.0, queued_at={}, max_commands=max_commands
    )


def _cmd(command_id, min_cores=1, preferred_cores=1, priority=0,
         executable="mdrun"):
    return Command(
        command_id=command_id,
        project_id="p",
        executable=executable,
        min_cores=min_cores,
        preferred_cores=preferred_cores,
        priority=priority,
    )


def test_zero_core_capabilities_are_rejected():
    with pytest.raises(SchedulingError):
        _caps(cores=0)
    with pytest.raises(SchedulingError):
        _caps(cores=-2)


def test_preferred_below_min_cores_assigns_min():
    # a command may declare preferred < min (a misconfigured controller
    # or a deliberately narrow sweet spot); the floor always wins
    queue = CommandQueue()
    queue.push(_cmd("c0", min_cores=4, preferred_cores=2))
    workload = _build(queue, _caps(cores=8))
    assert workload == [(workload[0][0], 4)]
    assert workload[0][0].command_id == "c0"


def test_min_cores_never_overcommits_worker():
    # free cores below min_cores filters the command out entirely
    queue = CommandQueue()
    queue.push(_cmd("big", min_cores=4, preferred_cores=4))
    assert _build(queue, _caps(cores=2)) == []
    assert len(queue) == 1  # still queued for a bigger worker


def test_priority_order_under_partial_packing():
    # the high-priority wide command takes its preferred share first;
    # the low-priority narrow ones fill the remainder in order
    queue = CommandQueue()
    queue.push(_cmd("late", min_cores=1, preferred_cores=2, priority=5))
    queue.push(_cmd("wide", min_cores=2, preferred_cores=3, priority=0))
    queue.push(_cmd("mid", min_cores=1, preferred_cores=1, priority=1))
    workload = _build(queue, _caps(cores=4))
    ids = [c.command_id for c, _ in workload]
    cores = [k for _, k in workload]
    assert ids == ["wide", "mid"]
    assert cores == [3, 1]
    # the worker is full; the lowest-priority command waits
    assert [c.command_id for c in queue.commands()] == ["late"]


def test_preferred_degrades_toward_min_as_worker_fills():
    queue = CommandQueue()
    queue.push(_cmd("a", min_cores=1, preferred_cores=4, priority=0))
    queue.push(_cmd("b", min_cores=1, preferred_cores=4, priority=1))
    workload = _build(queue, _caps(cores=6))
    assert [(c.command_id, k) for c, k in workload] == [("a", 4), ("b", 2)]


def test_executable_mismatch_is_skipped_not_popped():
    queue = CommandQueue()
    queue.push(_cmd("other", executable="exotic"))
    queue.push(_cmd("ok"))
    workload = _build(queue, _caps(cores=1))
    assert [c.command_id for c, _ in workload] == ["ok"]
    assert [c.command_id for c in queue.commands()] == ["other"]


def test_max_commands_caps_workload_regardless_of_cores():
    # probation sizing: a many-core worker still gets at most the cap
    queue = CommandQueue()
    for k in range(5):
        queue.push(_cmd(f"c{k}", priority=k))
    workload = _build(queue, _caps(cores=16), max_commands=2)
    assert [c.command_id for c, _ in workload] == ["c0", "c1"]
    assert len(queue) == 3


def test_max_commands_zero_means_no_workload():
    queue = CommandQueue()
    queue.push(_cmd("c0"))
    assert _build(queue, _caps(cores=4), max_commands=0) == []
    assert len(queue) == 1
