"""The invariant checker must actually catch broken logs.

A checker that is green on good runs proves little unless it is also
red on doctored ones: each test here fabricates an event log violating
exactly one invariant and asserts the violation is reported.
"""

import pytest

from repro.core.command import Command
from repro.core.events import EventKind, EventLog
from repro.core.project import Project, ProjectStatus
from repro.net.circuit import BreakerPolicy, CircuitBreaker
from repro.server.fairshare import FairShareScheduler
from repro.server.lease import LeaseTracker
from repro.testing import Invariants
from repro.util.errors import InvariantViolation


class FakeQueue:
    def __init__(self, commands=()):
        self._commands = list(commands)

    def commands(self):
        return list(self._commands)


class FakeServer:
    def __init__(self, requeued_after_failure=0):
        self.queue = FakeQueue()
        self.leases = LeaseTracker()
        self.requeued_after_failure = requeued_after_failure
        self.fairshare = FairShareScheduler()


class FakeRunner:
    """Just enough runner surface for the checker."""

    def __init__(self, events=None, servers=None, projects=None, network=None):
        self.events = events or EventLog()
        self._servers = servers if servers is not None else [FakeServer()]
        self._projects = projects or {}
        if network is not None:
            self.network = network


def issue(log, ids, t=0.0):
    log.record(t, EventKind.COMMANDS_ISSUED, "p", count=len(ids), ids=ids)


def complete(log, command_id, t=1.0):
    log.record(t, EventKind.COMMAND_COMPLETED, "p", command=command_id)


def test_green_log_passes():
    log = EventLog()
    issue(log, ["c0", "c1"])
    complete(log, "c0")
    complete(log, "c1")
    checker = Invariants(FakeRunner(events=log))
    assert checker.check() == []
    checker.assert_ok()  # no raise


def test_lost_command_detected():
    log = EventLog()
    issue(log, ["c0", "c1"])
    complete(log, "c0")  # c1 vanished: not completed, queued or in flight
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("lost" in v and "c1" in v for v in violations)


def test_queued_or_in_flight_commands_are_not_lost():
    log = EventLog()
    issue(log, ["c0", "c1", "c2"])
    complete(log, "c0")
    server = FakeServer()

    class Cmd:
        def __init__(self, command_id):
            self.command_id = command_id

    server.queue = FakeQueue([Cmd("c1")])
    server.leases.grant(
        "w0", Command(command_id="c2", project_id="p", executable="mdrun"),
        now=0.0, deadline=100.0,
    )
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert violations == []


def test_phantom_completion_detected():
    log = EventLog()
    issue(log, ["c0"])
    complete(log, "c0")
    complete(log, "ghost")
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("never issued" in v for v in violations)


def test_double_completion_detected():
    log = EventLog()
    issue(log, ["c0"])
    complete(log, "c0")
    complete(log, "c0")
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("completed 2 times" in v for v in violations)


def test_checkpoint_step_regression_detected():
    log = EventLog()
    log.record(0.0, EventKind.CHECKPOINT_REPORTED, command="c0", step=2000)
    log.record(5.0, EventKind.CHECKPOINT_REPORTED, command="c0", step=1000)
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("checkpoint regression" in v for v in violations)


def test_checkpoint_monotone_across_commands_is_fine():
    log = EventLog()
    log.record(0.0, EventKind.CHECKPOINT_REPORTED, command="c0", step=2000)
    log.record(5.0, EventKind.CHECKPOINT_REPORTED, command="c1", step=1000)
    log.record(9.0, EventKind.CHECKPOINT_REPORTED, command="c0", step=2000)
    assert Invariants(FakeRunner(events=log)).check() == []


def test_requeue_counter_mismatch_detected():
    log = EventLog()
    log.record(0.0, EventKind.WORKER_DEAD, worker="w0", server="srv")
    log.record(0.0, EventKind.COMMAND_REQUEUED, worker="w0", command="c0")
    runner = FakeRunner(
        events=log, servers=[FakeServer(requeued_after_failure=2)]
    )
    violations = Invariants(runner).check()
    assert any("requeues after failure" in v for v in violations)


def test_requeue_without_death_detected():
    log = EventLog()
    log.record(0.0, EventKind.COMMAND_REQUEUED, worker="w0", command="c0")
    runner = FakeRunner(
        events=log, servers=[FakeServer(requeued_after_failure=1)]
    )
    violations = Invariants(runner).check()
    assert any("not declared dead" in v for v in violations)


def test_double_death_in_one_outage_detected():
    log = EventLog()
    log.record(0.0, EventKind.WORKER_DEAD, worker="w0", server="srv")
    log.record(9.0, EventKind.WORKER_DEAD, worker="w0", server="srv")
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("declared dead twice" in v for v in violations)


def test_death_revival_death_is_legal():
    log = EventLog()
    log.record(0.0, EventKind.WORKER_DEAD, worker="w0", server="srv")
    log.record(5.0, EventKind.WORKER_REVIVED, worker="w0", server="srv")
    log.record(99.0, EventKind.WORKER_DEAD, worker="w0", server="srv")
    assert Invariants(FakeRunner(events=log)).check() == []


def test_revival_without_death_detected():
    log = EventLog()
    log.record(0.0, EventKind.WORKER_REVIVED, worker="w0", server="srv")
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("without a preceding death" in v for v in violations)


def test_overcomplete_project_detected():
    project = Project("p", status=ProjectStatus.COMPLETE, issued=1, completed=2)
    runner = FakeRunner(projects={"p": project})
    violations = Invariants(runner).check()
    assert any("more completions" in v for v in violations)


def test_speculated_double_completion_detected():
    log = EventLog()
    issue(log, ["c0"])
    log.record(0.0, EventKind.SPECULATION_STARTED, command="c0", worker="w0")
    complete(log, "c0", t=1.0)
    complete(log, "c0", t=2.0)
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("speculated command 'c0' completed 2 times" in v for v in violations)


def test_speculation_lost_without_start_detected():
    log = EventLog()
    issue(log, ["c0"])
    complete(log, "c0", t=1.0)
    log.record(2.0, EventKind.SPECULATION_LOST, command="c0", worker="w0")
    server = FakeServer()
    server.speculations_lost = 1
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert any("without a preceding speculation start" in v for v in violations)


def test_speculation_lost_before_completion_detected():
    log = EventLog()
    issue(log, ["c0"])
    log.record(0.0, EventKind.SPECULATION_STARTED, command="c0", worker="w0")
    log.record(1.0, EventKind.SPECULATION_LOST, command="c0", worker="w0")
    server = FakeServer()
    server.speculations_started = 1
    server.speculations_lost = 1

    class Cmd:
        command_id = "c0"

    server.queue = FakeQueue([Cmd()])
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert any("race was not decided" in v for v in violations)


def test_speculation_counter_mismatch_detected():
    log = EventLog()
    issue(log, ["c0"])
    log.record(0.0, EventKind.SPECULATION_STARTED, command="c0", worker="w0")
    complete(log, "c0", t=1.0)
    log.record(2.0, EventKind.SPECULATION_LOST, command="c0", worker="w0")
    server = FakeServer()
    server.speculations_started = 1
    server.speculations_lost = 0  # the event log says 1
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert any("speculation losses" in v for v in violations)


def test_workload_to_quarantined_worker_detected():
    log = EventLog()
    log.record(0.0, EventKind.WORKER_QUARANTINED, worker="w0", server="srv")
    log.record(1.0, EventKind.WORKLOAD_ASSIGNED, worker="w0", server="srv")
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("assigned workload to quarantined" in v for v in violations)


def test_workload_after_readmission_is_legal():
    log = EventLog()
    log.record(0.0, EventKind.WORKER_QUARANTINED, worker="w0", server="srv")
    log.record(5.0, EventKind.WORKER_READMITTED, worker="w0", server="srv")
    log.record(6.0, EventKind.WORKLOAD_ASSIGNED, worker="w0", server="srv")
    assert Invariants(FakeRunner(events=log)).check() == []


def test_readmission_without_quarantine_detected():
    log = EventLog()
    log.record(0.0, EventKind.WORKER_READMITTED, worker="w0", server="srv")
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("without a preceding quarantine" in v for v in violations)


class FakeBreakerEndpoint:
    def __init__(self, breaker):
        self.peer_breakers = {breaker.peer: breaker}


class FakeBreakerNetwork:
    def __init__(self, endpoint):
        self._endpoint = endpoint

    def endpoints(self):
        return ["srv"]

    def endpoint(self, name):
        return self._endpoint


def test_breaker_skips_without_open_detected():
    breaker = CircuitBreaker("sick", BreakerPolicy())
    breaker.skips = 3  # a doctored history: skipped without ever opening
    network = FakeBreakerNetwork(FakeBreakerEndpoint(breaker))
    violations = Invariants(FakeRunner(network=network)).check()
    assert any("skipped 3 calls but never opened" in v for v in violations)


def test_breaker_closed_with_unbalanced_opens_detected():
    breaker = CircuitBreaker("sick", BreakerPolicy())
    breaker.opens = 2
    breaker.closes = 1  # ended CLOSED without balancing its opens
    network = FakeBreakerNetwork(FakeBreakerEndpoint(breaker))
    violations = Invariants(FakeRunner(network=network)).check()
    assert any("must balance its opens" in v for v in violations)


def test_assert_ok_raises_with_every_violation_listed():
    log = EventLog()
    issue(log, ["c0", "c1"])
    complete(log, "c0")
    complete(log, "c0")
    with pytest.raises(InvariantViolation) as exc:
        Invariants(FakeRunner(events=log)).assert_ok()
    text = str(exc.value)
    assert "lost" in text and "completed 2 times" in text
