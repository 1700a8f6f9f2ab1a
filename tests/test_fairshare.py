"""Fair-share scheduler unit tests: quotas, weights, aging, backpressure.

The edge cases the multi-tenant plane stands on: a zero-quota tenant
never dispatches a single command; a single unconstrained tenant packs
in plain priority order, as a lone priority queue would (same-key
riders included on a stacking worker), and still honours the aging
bound; backpressure releases deferred submissions deterministically (tenant name order,
FIFO within a tenant); and the quota ledger is exact under speculation
clones and duplicate releases.
"""

import pytest

from repro.core.command import Command
from repro.md.engine import MDTask
from repro.server.fairshare import (
    DEFAULT_POLICY,
    FairSharePolicy,
    FairShareScheduler,
    TenantPolicy,
)
from repro.server.matching import WorkerCapabilities
from repro.server.queue import CommandQueue
from repro.util.errors import ConfigurationError
from repro.worker.coalesce import BATCH_EXECUTABLE, MAX_STACK, coalesce_key


def cmd(tenant, cid, priority=0, cores=1, payload=None):
    return Command(
        command_id=cid,
        project_id=tenant,
        executable="mdrun",
        payload=payload or {},
        priority=priority,
        min_cores=cores,
        preferred_cores=cores,
    )


def caps(cores=1, stacks=False):
    return WorkerCapabilities(
        worker="w0", platform="smp", cores=cores,
        executables=["mdrun", "mdrun_batch"] if stacks else ["mdrun"],
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


def priority_greedy(queue, capabilities):
    """A lone priority queue's matcher (paper section 2.3): commands in
    priority order, each given its preferred cores degrading toward
    ``min_cores``, while any still fits.  A worker with ``mdrun_batch``
    installed also takes each picked command's same-key commands, in
    priority order and on the same cores, up to ``MAX_STACK`` a stack."""
    stacking = BATCH_EXECUTABLE in capabilities.executables
    workload, free = [], capabilities.cores
    for command in queue.commands():
        if free <= 0:
            break
        if any(command is taken for taken, _ in workload):
            continue  # already a rider
        if (
            command.executable in capabilities.executables
            and command.min_cores <= free
        ):
            cores = max(min(command.preferred_cores, free), command.min_cores)
            queue.remove(command)
            workload.append((command, cores))
            free -= cores
            key = coalesce_key(command) if stacking else None
            if key is None:
                continue
            riders = [c for c in queue.commands() if coalesce_key(c) == key]
            for rider in riders[: MAX_STACK - 1]:
                queue.remove(rider)
                workload.append((rider, cores))
    return workload


@pytest.mark.parametrize(
    "cores,stacks",
    # ids: the cores, then 1 for a lone worker or 4 for a stacking one
    [
        pytest.param(1, False, id="1-1"),
        pytest.param(4, False, id="4-1"),
        pytest.param(4, True, id="4-4"),
    ],
)
def test_single_default_tenant_matches_build_workload(cores, stacks):
    def commands():
        # two coalesce keys, interleaved: a stacking worker takes riders
        return [
            cmd(
                "solo", f"c{i}", priority=i % 3,
                payload=MDTask(
                    model="double-well", n_steps=10 + i % 2, seed=i,
                    task_id=f"c{i}",
                ).to_payload(),
            )
            for i in range(8)
        ]

    plain_queue, fair_queue = CommandQueue(), CommandQueue()
    fill(plain_queue, commands())
    fill(fair_queue, commands())
    scheduler = FairShareScheduler()
    # drain both queues through repeated builds: identical workloads
    builds = []
    while True:
        expected = priority_greedy(plain_queue, caps(cores=cores, stacks=stacks))
        got = build(scheduler, fair_queue, caps(cores=cores, stacks=stacks))
        assert _snapshot(got) == _snapshot(expected)
        if not expected:
            break
        builds.append(len(got))
    # parity includes exhaustion — and the ledger still balanced
    assert len(plain_queue) == len(fair_queue) == 0
    assert scheduler.ledgers["solo"].dispatched == 8
    assert scheduler.check_ledger() == []
    # a stacking worker takes both keys' stacks in its first build
    assert builds == ([8] if stacks else [cores] * (8 // cores))


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
    """A stacking worker gets riders only from the seed
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
        executables=["mdrun", "mdrun_batch"],
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
    queue.pop()
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

    # one tenant under the default policy: the aged low-priority command
    # still beats a fresh urgent one to the only core
    scheduler = FairShareScheduler()
    queue = CommandQueue()
    aged = cmd("solo", "aged", priority=5)
    urgent = cmd("solo", "urgent", priority=0)
    fill(queue, [aged, urgent])
    queued_at = {aged.scoped_id: 0.0, urgent.scoped_id: 4000.0}
    workload = scheduler.build(
        queue, caps(cores=1), now=4000.0, queued_at=queued_at
    )
    assert [c.command_id for c, _ in workload] == ["aged"]
    assert scheduler.aging_violations == 0


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
