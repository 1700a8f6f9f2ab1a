"""Fair-share scheduler unit tests: quotas, weights, aging, backpressure.

The edge cases the multi-tenant plane stands on: a zero-quota tenant
never dispatches a single command; a single unconstrained tenant gets
byte-for-byte the classic ``build_workload`` behaviour; backpressure
releases deferred submissions deterministically (tenant name order,
FIFO within a tenant); and the quota ledger is exact under speculation
clones and duplicate releases.
"""

import pytest

from repro.core.command import Command
from repro.server.fairshare import (
    DEFAULT_POLICY,
    FairSharePolicy,
    FairShareScheduler,
    TenantPolicy,
)
from repro.server.matching import WorkerCapabilities, build_workload
from repro.server.queue import CommandQueue
from repro.util.errors import ConfigurationError


def cmd(tenant, cid, priority=0, cores=1):
    return Command(
        command_id=cid,
        project_id=tenant,
        executable="mdrun",
        payload={},
        priority=priority,
        min_cores=cores,
        preferred_cores=cores,
    )


def caps(cores=1, batch=1):
    return WorkerCapabilities(
        worker="w0", platform="smp", cores=cores,
        executables=["mdrun"], batch_capacity=batch,
    )


def fill(queue, commands):
    for c in commands:
        queue.push(c)


def build(scheduler, queue, capabilities, now=0.0, queued_at=None):
    return scheduler.build(
        queue, capabilities, now=now, queued_at=queued_at or {}
    )


# -- policy validation -----------------------------------------------------

def test_policy_validation():
    with pytest.raises(ConfigurationError):
        TenantPolicy(quota=-1)
    with pytest.raises(ConfigurationError):
        TenantPolicy(weight=0.0)
    with pytest.raises(ConfigurationError):
        TenantPolicy(max_queued=0)
    with pytest.raises(ConfigurationError):
        FairSharePolicy(max_wait_seconds=0.0)
    policy = FairSharePolicy(tenants={"a": TenantPolicy(quota=3)})
    assert policy.for_tenant("a").quota == 3
    assert policy.for_tenant("stranger") == DEFAULT_POLICY


# -- zero quota ------------------------------------------------------------

def test_zero_quota_tenant_never_dispatches():
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"banned": TenantPolicy(quota=0)})
    )
    queue = CommandQueue()
    fill(queue, [cmd("banned", f"c{i}") for i in range(4)])
    fill(queue, [cmd("ok", "c0")])
    workload = build(scheduler, queue, caps(cores=8))
    assert [c.project_id for c, _ in workload] == ["ok"]
    # the banned tenant's commands stay queued, quota ledger untouched
    assert all(c.project_id == "banned" for c in queue.commands())
    assert scheduler.check_ledger() == []
    # even across repeated builds nothing ever leaks out
    for _ in range(5):
        assert build(scheduler, queue, caps(cores=8)) == []
    assert scheduler.ledgers.get("banned") is None or (
        scheduler.ledgers["banned"].dispatched == 0
    )


# -- single-tenant parity --------------------------------------------------

def _snapshot(workload):
    return [(c.command_id, cores) for c, cores in workload]


@pytest.mark.parametrize("cores,batch", [(1, 1), (4, 1), (4, 4)])
def test_single_default_tenant_matches_build_workload(cores, batch):
    commands = [cmd("solo", f"c{i}", priority=i % 3) for i in range(8)]
    plain_queue, fair_queue = CommandQueue(), CommandQueue()
    fill(plain_queue, [cmd("solo", c.command_id, priority=c.priority) for c in commands])
    fill(fair_queue, commands)
    scheduler = FairShareScheduler()
    # drain both queues through repeated builds: identical workloads
    while True:
        expected = build_workload(plain_queue, caps(cores=cores, batch=batch))
        got = build(scheduler, fair_queue, caps(cores=cores, batch=batch))
        assert _snapshot(got) == _snapshot(expected)
        if not expected:
            break
    # parity includes exhaustion — and the ledger still balanced
    assert len(plain_queue) == len(fair_queue) == 0
    assert scheduler.ledgers["solo"].dispatched == 8
    assert scheduler.check_ledger() == []


def test_single_tenant_with_explicit_policy_leaves_fast_path():
    # an explicit quota must be enforced even when only one tenant queues
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"solo": TenantPolicy(quota=2)})
    )
    queue = CommandQueue()
    fill(queue, [cmd("solo", f"c{i}") for i in range(5)])
    workload = build(scheduler, queue, caps(cores=8))
    assert len(workload) == 2
    assert scheduler.ledgers["solo"].peak_in_flight == 2


# -- weighted fairness -----------------------------------------------------

def test_weighted_deficit_interleaves_tenants():
    scheduler = FairShareScheduler(FairSharePolicy())
    queue = CommandQueue()
    fill(queue, [cmd("a", f"a{i}") for i in range(2)])
    fill(queue, [cmd("b", f"b{i}") for i in range(2)])
    workload = build(scheduler, queue, caps(cores=4))
    assert [c.command_id for c, _ in workload] == ["a0", "b0", "a1", "b1"]


def test_heavier_tenant_gets_proportional_share():
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"big": TenantPolicy(weight=2.0)})
    )
    queue = CommandQueue()
    fill(queue, [cmd("big", f"g{i}") for i in range(6)])
    fill(queue, [cmd("small", f"s{i}") for i in range(6)])
    workload = build(scheduler, queue, caps(cores=6))
    picked = [c.project_id for c, _ in workload]
    assert picked.count("big") == 4 and picked.count("small") == 2


# -- quota ledger exactness ------------------------------------------------

def test_ledger_is_idempotent_for_speculation_clones():
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(quota=1)})
    )
    queue = CommandQueue()
    original = cmd("a", "c0")
    queue.push(original)
    workload = build(scheduler, queue, caps())
    assert len(workload) == 1
    # a speculative clone is the same logical command: a second
    # dispatch neither double-counts nor trips the quota...
    clone = cmd("a", "c0")
    assert scheduler._admits(clone)
    assert scheduler._note_dispatch(clone) is False
    assert scheduler.ledgers["a"].dispatched == 1
    # ...and only the first release credits the ledger
    assert scheduler.release(original) is True
    assert scheduler.release(clone) is False
    assert scheduler.ledgers["a"].released == 1
    assert scheduler.check_ledger() == []


def test_release_of_unknown_command_is_a_noop():
    scheduler = FairShareScheduler()
    assert scheduler.release(cmd("ghost", "c0")) is False
    assert scheduler.check_ledger() == []


def test_quota_frees_up_after_release():
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(quota=1)})
    )
    queue = CommandQueue()
    fill(queue, [cmd("a", "c0"), cmd("a", "c1")])
    first = build(scheduler, queue, caps(cores=4))
    assert [c.command_id for c, _ in first] == ["c0"]
    assert build(scheduler, queue, caps(cores=4)) == []  # quota full
    scheduler.release(first[0][0])
    second = build(scheduler, queue, caps(cores=4))
    assert [c.command_id for c, _ in second] == ["c1"]
    assert scheduler.ledgers["a"].peak_in_flight == 1
    assert scheduler.check_ledger() == []


def test_riders_count_against_quota_and_stay_in_their_tenant():
    """A worker with batch capacity gets riders only from the seed
    command's own tenant, and only while that tenant's quota admits
    them: a quota-2 tenant's third replica waits and then runs alone."""
    from repro.md.engine import MDTask

    def replica(tenant, r):
        task = MDTask(model="double-well", n_steps=10, seed=r, task_id=f"r{r}")
        return Command(
            command_id=task.task_id, project_id=tenant,
            executable="mdrun", payload=task.to_payload(),
        )

    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(quota=2)})
    )
    queue = CommandQueue()
    fill(queue, [replica(t, r) for t in ("a", "b") for r in range(3)])
    batching = WorkerCapabilities(
        worker="w0", platform="smp", cores=1,
        executables=["mdrun", "mdrun_batch"], batch_capacity=3,
    )

    def ids(workload):
        return [(c.project_id, c.command_id) for c, _ in workload]

    first = build(scheduler, queue, batching)
    assert ids(first) == [("a", "r0"), ("a", "r1")]  # same keys in b: not taken
    second = build(scheduler, queue, batching)
    assert ids(second) == [("b", "r0"), ("b", "r1"), ("b", "r2")]
    assert build(scheduler, queue, batching) == []  # a/r2 held by the quota
    for command, _ in first:
        scheduler.release(command)
    assert ids(build(scheduler, queue, batching)) == [("a", "r2")]
    assert scheduler.ledgers["a"].peak_in_flight == 2
    assert scheduler.check_ledger() == []


# -- backpressure ----------------------------------------------------------

def test_backpressure_defers_beyond_max_queued():
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(max_queued=2)})
    )
    queue = CommandQueue()
    accepted, deferred = [], []
    for i in range(5):
        c = cmd("a", f"c{i}")
        if scheduler.should_defer(c, queue):
            scheduler.defer(c)
            deferred.append(c.command_id)
        else:
            queue.push(c)
            accepted.append(c.command_id)
    assert accepted == ["c0", "c1"]
    assert deferred == ["c2", "c3", "c4"]
    assert scheduler.ledgers["a"].deferred_total == 3


def test_backpressure_release_is_deterministic_and_fifo():
    scheduler = FairShareScheduler(
        FairSharePolicy(
            tenants={
                "a": TenantPolicy(max_queued=1),
                "b": TenantPolicy(max_queued=1),
            }
        )
    )
    queue = CommandQueue()
    # interleave submissions: b first, then a — drain order must still
    # be tenant-name order (a before b), FIFO within each tenant
    for tenant, cid in [("b", "b0"), ("b", "b1"), ("b", "b2"),
                        ("a", "a0"), ("a", "a1"), ("a", "a2")]:
        c = cmd(tenant, cid)
        if scheduler.should_defer(c, queue):
            scheduler.defer(c)
        else:
            queue.push(c)
    assert {c.command_id for c in queue.commands()} == {"a0", "b0"}
    # queues drain completely -> every deferred command releases
    workload = build(scheduler, queue, caps(cores=2))
    assert len(workload) == 2
    released = scheduler.drain(queue)
    assert [c.command_id for c in released] == ["a1", "b1"]
    for c in released:
        queue.push(c)
    # a second identical run from the same state reproduces exactly
    assert [c.command_id for c in scheduler.drain(queue)] == []
    workload = build(scheduler, queue, caps(cores=2))
    assert [c.command_id for c in scheduler.drain(queue)] == ["a2", "b2"]


def test_pending_deferral_forces_fifo_for_later_submissions():
    scheduler = FairShareScheduler(
        FairSharePolicy(tenants={"a": TenantPolicy(max_queued=3)})
    )
    queue = CommandQueue()
    for i in range(4):
        c = cmd("a", f"c{i}")
        if scheduler.should_defer(c, queue):
            scheduler.defer(c)
        else:
            queue.push(c)
    # c3 deferred; now the queue drains to 1 slot below the limit, but
    # a NEW submission must still defer behind c3 (FIFO)
    queue.pop_matching(lambda c: True)
    late = cmd("a", "late")
    assert scheduler.should_defer(late, queue) is True
    scheduler.defer(late)
    released = scheduler.drain(queue)
    assert [c.command_id for c in released] == ["c3"]


# -- aging -----------------------------------------------------------------

def test_aged_command_preempts_deficit_order():
    scheduler = FairShareScheduler(FairSharePolicy(max_wait_seconds=100.0))
    queue = CommandQueue()
    fill(queue, [cmd("fresh", f"f{i}") for i in range(2)])
    old = cmd("starving", "old0")
    queue.push(old)
    queued_at = {c.scoped_id: 0.0 for c in queue.commands()}
    queued_at[old.scoped_id] = -500.0  # waited 500s longer
    workload = scheduler.build(
        queue, caps(cores=1), now=50.0, queued_at=queued_at
    )
    # nothing aged yet at t=50 for the fresh ones, but old0 has: it
    # must come first even though "fresh" has the smaller deficit name
    assert workload[0][0].command_id == "old0"
    assert scheduler.aging_violations == 0
    assert scheduler.pop_violations() == []


def test_aging_self_check_reports_bypassed_commands():
    scheduler = FairShareScheduler(FairSharePolicy(max_wait_seconds=10.0))
    queue = CommandQueue()
    first, second = cmd("a", "c0"), cmd("a", "c1")
    fill(queue, [first, second])
    queued_at = {first.scoped_id: 0.0, second.scoped_id: 0.0}
    # one core: c1 (also aged) is necessarily left behind — that is
    # fine (no capacity), not a violation
    workload = scheduler.build(
        queue, caps(cores=1), now=100.0, queued_at=queued_at
    )
    assert len(workload) == 1
    assert scheduler.aging_violations == 0
