"""Invariants 10-12 must be red on doctored multi-tenant histories.

Same philosophy as ``test_invariants.py``: a checker is only trusted
if it catches fabricated violations.  Each test here doctors exactly
one tenant-isolation / quota-ledger / aging promise and asserts the
checker names it.  Also covers the identity-scoping behaviour: a log
spanning projects must key commands by (project, command), so two
tenants reusing ``cmd0`` neither alias nor false-positive.
"""

from repro.core.command import Command
from repro.core.events import EventKind, EventLog
from repro.core.project import Project
from repro.server.fairshare import (
    FairSharePolicy,
    FairShareScheduler,
    TenantPolicy,
)
from repro.server.lease import LeaseTracker
from repro.testing import Invariants


class FakeQueue:
    def __init__(self, commands=()):
        self._commands = list(commands)

    def commands(self):
        return list(self._commands)


class FakeServer:
    def __init__(self):
        self.name = "srv"
        self.queue = FakeQueue()
        self.leases = LeaseTracker()
        self.requeued_after_failure = 0
        self.fairshare = FairShareScheduler()


class FakeRunner:
    def __init__(self, events=None, servers=None, projects=None):
        self.events = events or EventLog()
        self._servers = servers if servers is not None else [FakeServer()]
        self._projects = projects or {}


def cmd(tenant, cid):
    return Command(
        command_id=cid, project_id=tenant, executable="mdrun", payload={}
    )


def issue(log, pid, ids, t=0.0):
    log.record(t, EventKind.COMMANDS_ISSUED, pid, count=len(ids), ids=ids)


def complete(log, pid, cid, t=1.0):
    log.record(t, EventKind.COMMAND_COMPLETED, pid, command=cid)


# -- identity scoping ------------------------------------------------------

def test_two_tenants_sharing_a_command_id_do_not_false_positive():
    log = EventLog()
    issue(log, "p1", ["cmd0"])
    issue(log, "p2", ["cmd0"])
    complete(log, "p1", "cmd0")
    complete(log, "p2", "cmd0")
    # one completion each: NOT a double completion, nothing lost
    assert Invariants(FakeRunner(events=log)).check() == []


def test_scoped_in_flight_commands_are_not_lost():
    log = EventLog()
    issue(log, "p1", ["cmd0"])
    issue(log, "p2", ["cmd0"])
    complete(log, "p1", "cmd0")
    server = FakeServer()
    # the multi-tenant server keys leases by scoped id and the
    # checker must read the command objects, not the keys
    server.leases.grant("w0", cmd("p2", "cmd0"), now=0.0, deadline=100.0)
    assert Invariants(FakeRunner(events=log, servers=[server])).check() == []


def test_cross_tenant_loss_is_still_detected():
    log = EventLog()
    issue(log, "p1", ["cmd0"])
    issue(log, "p2", ["cmd0"])
    complete(log, "p1", "cmd0")  # p2's copy vanished
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("lost" in v and "p2::cmd0" in v for v in violations)


def test_deferred_commands_count_as_queued_not_lost():
    log = EventLog()
    issue(log, "p1", ["cmd0"])
    issue(log, "p2", ["cmd0"])
    complete(log, "p1", "cmd0")
    server = FakeServer()
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"p2": TenantPolicy(max_queued=1)})
    )
    scheduler.defer(cmd("p2", "cmd0"))
    server.fairshare = scheduler
    runner = FakeRunner(events=log, servers=[server])
    violations = [v for v in Invariants(runner).check() if "lost" in v]
    assert violations == []


# -- invariant 10: tenant isolation ---------------------------------------

def test_completion_delivered_to_wrong_tenant_detected():
    log = EventLog()
    issue(log, "p1", ["c0"])
    issue(log, "p2", ["other"])
    complete(log, "p2", "c0")  # p1's command completed under p2
    violations = Invariants(FakeRunner(events=log)).check()
    assert any("cross-tenant leak" in v for v in violations)


def test_foreign_results_in_project_log_detected():
    log = EventLog()
    issue(log, "p1", ["c0"])
    issue(log, "p2", ["x0"])
    complete(log, "p1", "c0")
    complete(log, "p2", "x0")
    p1 = Project("p1", issued=1, completed=1)
    p1.results_log.append(("c0", {}))
    p1.results_log.append(("x0", {}))  # leaked payload from p2
    runner = FakeRunner(
        events=log, projects={"p1": p1, "p2": Project("p2", issued=1, completed=1)}
    )
    violations = Invariants(runner).check()
    assert any("never issued" in v and "x0" in v for v in violations)


def test_queued_work_for_unknown_tenant_detected():
    log = EventLog()
    issue(log, "p1", ["c0"])
    complete(log, "p1", "c0")
    server = FakeServer()
    server.queue = FakeQueue([cmd("stranger", "s0")])
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert any("unknown tenant 'stranger'" in v for v in violations)


def test_assigned_work_for_unknown_tenant_detected():
    log = EventLog()
    issue(log, "p1", ["c0"])
    complete(log, "p1", "c0")
    server = FakeServer()
    server.leases.grant("w0", cmd("stranger", "s0"), now=0.0, deadline=100.0)
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert any("unknown tenant 'stranger'" in v for v in violations)


# -- invariant 11: exact quota accounting ---------------------------------

def test_ledger_imbalance_detected():
    server = FakeServer()
    scheduler = FairShareScheduler()
    scheduler._note_dispatch(cmd("a", "c0"))
    scheduler.ledgers["a"].released = 1  # credit without a release
    server.fairshare = scheduler
    violations = Invariants(FakeRunner(servers=[server])).check()
    assert any("ledger balance" in v for v in violations)


def test_quota_overrun_detected():
    server = FakeServer()
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(quota=1)})
    )
    # doctored history: two dispatches recorded against a quota of 1
    scheduler._note_dispatch(cmd("a", "c0"))
    scheduler._note_dispatch(cmd("a", "c1"))
    server.fairshare = scheduler
    violations = Invariants(FakeRunner(servers=[server])).check()
    assert any("over quota" in v for v in violations)


def test_zero_quota_dispatch_detected():
    server = FakeServer()
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"banned": TenantPolicy(quota=0)})
    )
    scheduler._note_dispatch(cmd("banned", "c0"))
    server.fairshare = scheduler
    violations = Invariants(FakeRunner(servers=[server])).check()
    assert any("zero-quota" in v for v in violations)


def test_deferral_ledger_event_mismatch_detected():
    server = FakeServer()
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(max_queued=1)})
    )
    scheduler.defer(cmd("a", "c0"))  # ledger says 1, log says 0
    server.fairshare = scheduler
    violations = Invariants(FakeRunner(servers=[server])).check()
    assert any("deferrals but the event log records 0" in v for v in violations)


def test_release_event_mismatch_detected():
    log = EventLog()
    log.record(0.0, EventKind.ADMISSION_DEFERRED, "a", command="c0")
    log.record(1.0, EventKind.ADMISSION_RELEASED, "a", command="c0")
    server = FakeServer()
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(max_queued=1)})
    )
    scheduler.defer(cmd("a", "c0"))  # still pending, but the log
    server.fairshare = scheduler     # claims it was released
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert any("released deferrals" in v for v in violations)


def test_consistent_deferral_history_is_green():
    log = EventLog()
    log.record(0.0, EventKind.ADMISSION_DEFERRED, "a", command="c0")
    server = FakeServer()
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(max_queued=1)})
    )
    scheduler.defer(cmd("a", "c0"))
    server.fairshare = scheduler
    assert Invariants(FakeRunner(events=log, servers=[server])).check() == []


# -- invariant 12: starvation-free aging ----------------------------------

def test_aging_violation_event_is_reported():
    log = EventLog()
    log.record(
        9.0, EventKind.AGING_VIOLATED, "starved",
        command="c0", server="srv", waited=4000.0,
    )
    server = FakeServer()
    scheduler = FairShareScheduler()
    scheduler.aging_violations = 1
    server.fairshare = scheduler
    violations = Invariants(FakeRunner(events=log, servers=[server])).check()
    assert any("bypassed after waiting" in v for v in violations)


def test_aging_counter_event_mismatch_detected():
    server = FakeServer()
    scheduler = FairShareScheduler()
    scheduler.aging_violations = 2  # counters claim bypasses the log lacks
    server.fairshare = scheduler
    violations = Invariants(FakeRunner(servers=[server])).check()
    assert any("aging violations" in v for v in violations)


def test_runner_without_fairshare_skips_tenancy_checks():
    # plain single-tenant doubles with default schedulers: invariants
    # 10-12 have nothing to report and stay silent
    log = EventLog()
    issue(log, "p", ["c0"])
    complete(log, "p", "c0")
    assert Invariants(FakeRunner(events=log)).check() == []
