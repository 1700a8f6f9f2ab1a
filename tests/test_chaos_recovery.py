"""End-to-end chaos runs: the paper's recovery story under injected faults.

The acceptance scenario injects a worker crash mid-segment *and* a
link partition, and the failure_recovery swarm must still complete
with every recovery invariant green.  Each scenario is exercised
across several fixed seeds (plus ``CHAOS_SEED`` from the environment,
so CI's chaos matrix can widen coverage), and a seed must reproduce
the identical event transcript (the committed digest; see
``conftest.reproducible``).
"""

import os

import pytest

from repro.core.events import EventKind
from repro.core.project import ProjectStatus
from repro.net.protocol import MessageType
from repro.testing import FaultPlan, Invariants, run_swarm_under_faults

SEEDS = sorted({0, 1, 2, int(os.environ.get("CHAOS_SEED", "0"))})


def crash_and_partition(plan: FaultPlan) -> None:
    """The acceptance fault mix: dead worker + flapping uplink."""
    plan.crash_worker("w0", at_segment=2)
    plan.partition("srv", "w1", after_index=8, until_index=14)


# ------------------------------------------------------------- acceptance


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_plus_partition_completes_with_invariants_green(seed, canned):
    scenario = canned(
        "run_swarm_under_faults", seed, configure=crash_and_partition
    )
    runner = scenario.runner
    project = runner._projects["swarm"]
    assert project.status is ProjectStatus.COMPLETE
    assert scenario.workers[0].crashed
    assert scenario.server.requeued_after_failure >= 1
    Invariants(runner).assert_ok()


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_reproduces_identical_event_log(seed, reproducible):
    # transcript, chaos report, finished commands, metrics and trace
    reproducible("run_swarm_under_faults", seed, configure=crash_and_partition)


def test_crashed_workers_command_resumes_from_checkpoint(canned):
    scenario = canned(
        "run_swarm_under_faults", 0, configure=crash_and_partition
    )
    finished = dict(scenario.controller.finished)
    # the command the dead worker started was NOT restarted from zero:
    # the finishing worker executed only the remaining steps
    resumed = [s for s in finished.values() if s < 5000]
    assert resumed, "no command resumed from a checkpoint"
    requeues = scenario.runner.events.filter(kind=EventKind.COMMAND_REQUEUED)
    assert any(r.details.get("has_checkpoint") for r in requeues)


@pytest.mark.parametrize("seed", SEEDS)
def test_probabilistic_heartbeat_drops_survived(seed):
    def configure(plan):
        plan.drop(
            message_type=MessageType.HEARTBEAT, probability=0.3, count=6
        )

    scenario = run_swarm_under_faults(configure=configure, seed=seed)
    assert scenario.runner._projects["swarm"].status is ProjectStatus.COMPLETE
    Invariants(scenario.runner).assert_ok()


# --------------------------------------------- exactly-once under duplicates


def test_duplicated_results_complete_exactly_once():
    def configure(plan):
        plan.duplicate(message_type=MessageType.COMMAND_RESULT)

    scenario = run_swarm_under_faults(configure=configure, seed=5)
    server = scenario.server
    assert server.duplicates_dropped >= 1
    Invariants(scenario.runner).assert_ok()
    completed = scenario.runner.events.filter(
        kind=EventKind.COMMAND_COMPLETED
    )
    assert len(completed) == 3  # one per command despite duplication


def test_false_death_then_late_result_deduplicated():
    """A worker whose uplink goes deaf is falsely declared dead; its
    command is requeued and finished by a peer.  When the original
    worker's parked result finally arrives it must be dropped, not
    double-completed."""

    def configure(plan):
        plan.drop(src="w1", message_type=MessageType.HEARTBEAT)
        plan.drop(src="w1", message_type=MessageType.COMMAND_RESULT, count=8)

    scenario = run_swarm_under_faults(configure=configure, seed=11)
    runner = scenario.runner
    assert runner._projects["swarm"].status is ProjectStatus.COMPLETE
    assert scenario.server.duplicates_dropped == 1
    dead = runner.events.filter(kind=EventKind.WORKER_DEAD)
    assert [r.details["worker"] for r in dead] == ["w1"]
    dropped = runner.events.filter(kind=EventKind.DUPLICATE_RESULT_DROPPED)
    assert len(dropped) == 1
    Invariants(runner).assert_ok()


# ---------------------------------------------------------- revive semantics


def test_partition_heals_and_worker_revives():
    """A long partition gets the worker declared dead; once the link
    heals its heartbeat revives it — logged exactly once per outage."""

    def configure(plan):
        plan.partition("srv", "w1", after_index=6, until_index=40)

    scenario = run_swarm_under_faults(configure=configure, seed=2)
    runner = scenario.runner
    events = runner.events
    dead = [
        r
        for r in events.filter(kind=EventKind.WORKER_DEAD)
        if r.details["worker"] == "w1"
    ]
    revived = [
        r
        for r in events.filter(kind=EventKind.WORKER_REVIVED)
        if r.details["worker"] == "w1"
    ]
    assert len(dead) == 1
    assert len(revived) == 1
    ordered = events.all()
    assert ordered.index(revived[0]) > ordered.index(dead[0])
    Invariants(runner).assert_ok()


# --------------------------------------------------------------- degradation


def test_slow_worker_takes_more_segments_but_finishes():
    def configure(plan):
        plan.slow_worker("w0", factor=0.5)

    scenario = run_swarm_under_faults(configure=configure, seed=4)
    assert scenario.workers[0].throttle == 0.5
    Invariants(scenario.runner).assert_ok()
    # half-size segments means more checkpoint heartbeats per command
    slow_segments = [r.segments for r in scenario.workers[0].history]
    assert all(s >= 9 for s in slow_segments)  # 5000 steps / 500-step segments


def test_retry_traffic_visible_after_chaos_run(canned):
    scenario = canned(
        "run_swarm_under_faults", 0, configure=crash_and_partition
    )
    rows = {row["link"]: row for row in scenario.network.traffic_report()}
    retry_rows = [k for k in rows if k.startswith("endpoint:")]
    assert retry_rows, "retries should surface in the traffic report"
    assert scenario.network.retries_total > 0
