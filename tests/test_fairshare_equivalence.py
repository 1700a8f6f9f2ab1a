"""Fair-share dispatch: the indexed ``build`` against the scanning one.

``FairShareScheduler.build`` sorts the queue once into per-tenant lanes
and picks from cached lane heads.  The implementation it replaced
re-sorted and re-scanned the whole queue for every pick; its body is
kept here as the reference, popping through a scan of the queue's
priority order.  Neither side has a single-tenant shortcut, so draws
with one tenant compare the two schedulers too.  Hypothesis drives both over
the same queues, policies and worker capabilities and requires the
same workloads (the same command *objects*, by position), ledgers,
in-flight sets, aging violations, deferrals and remaining queue order,
round after round.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.command import Command
from repro.server.fairshare import (
    FairSharePolicy,
    FairShareScheduler,
    TenantPolicy,
)
from repro.server.matching import WorkerCapabilities
from repro.server.queue import CommandQueue
from repro.worker.coalesce import BATCH_EXECUTABLE, MAX_STACK, coalesce_key

# -- the reference: the scanning scheduler this one replaced ----------------


def _reference_is_aged(scheduler, command, now, queued_at) -> bool:
    enqueued = queued_at.get(command.scoped_id)
    if enqueued is None:
        return False
    return (now - enqueued) > scheduler.policy.max_wait_seconds


def _reference_pop(queue: CommandQueue, predicate) -> Optional[Command]:
    """Remove and return the best-priority command satisfying *predicate*."""
    for command in queue.commands():
        if predicate(command):
            queue.remove(command)
            return command
    return None


def _reference_queued_depth(queue: CommandQueue, tenant: str) -> int:
    return sum(1 for c in queue.commands() if c.project_id == tenant)


def reference_should_defer(scheduler, command, queue) -> bool:
    tenant = command.project_id
    limit = scheduler.policy.for_tenant(tenant).max_queued
    if limit is None:
        return False
    if scheduler._deferred.get(tenant):
        return True
    return _reference_queued_depth(queue, tenant) >= limit


def reference_drain(scheduler, queue) -> List[Command]:
    released: List[Command] = []
    for tenant in sorted(scheduler._deferred):
        pending = scheduler._deferred[tenant]
        limit = scheduler.policy.for_tenant(tenant).max_queued
        depth = _reference_queued_depth(queue, tenant)
        while pending and (limit is None or depth < limit):
            released.append(pending.pop(0))
            depth += 1
    return released


def reference_build(
    self: FairShareScheduler,
    queue: CommandQueue,
    caps: WorkerCapabilities,
    now: float,
    queued_at: Dict[str, float],
    max_commands: Optional[int] = None,
) -> List[Tuple[Command, int]]:
    batching = BATCH_EXECUTABLE in caps.executables
    workload: List[Tuple[Command, int]] = []
    free = caps.cores

    def full() -> bool:
        return (
            free <= 0
            or (max_commands is not None and len(workload) >= max_commands)
        )

    while not full():
        candidates = [
            c
            for c in queue.commands()
            if c.executable in caps.executables
            and c.min_cores <= free
            and self._admits(c)
        ]
        if not candidates:
            break
        aged = [
            c for c in candidates
            if _reference_is_aged(self, c, now, queued_at)
        ]
        if aged:
            pick = min(
                aged,
                key=lambda c: (
                    queued_at.get(c.scoped_id, now),
                    c.priority,
                    c.project_id,
                    c.command_id,
                ),
            )
            command = _reference_pop(queue, lambda c: c is pick)
        else:
            tenant = min(
                {c.project_id for c in candidates},
                key=lambda t: (
                    self.in_flight(t) / self.policy.for_tenant(t).weight,
                    t,
                ),
            )
            command = _reference_pop(
                queue,
                lambda c: c.project_id == tenant
                and c.executable in caps.executables
                and c.min_cores <= free
                and self._admits(c)
            )
        if command is None:
            break
        assigned = min(command.preferred_cores, free)
        assigned = max(assigned, command.min_cores)
        workload.append((command, assigned))
        self._note_dispatch(command)
        free -= assigned
        if not batching:
            continue
        key = coalesce_key(command)
        if key is None:
            continue
        group = 1
        while group < MAX_STACK and not (
            max_commands is not None and len(workload) >= max_commands
        ):
            rider = _reference_pop(
                queue, lambda c: coalesce_key(c) == key and self._admits(c)
            )
            if rider is None:
                break
            workload.append((rider, assigned))
            self._note_dispatch(rider)
            group += 1

    if workload:
        for leftover in queue.commands():
            if (
                _reference_is_aged(self, leftover, now, queued_at)
                and self._admits(leftover)
                and leftover.executable in caps.executables
                and leftover.min_cores <= free
                and not (
                    max_commands is not None
                    and len(workload) >= max_commands
                )
            ):
                waited = now - queued_at.get(leftover.scoped_id, now)
                self.aging_violations += 1
                self._violations.append(
                    (leftover.project_id, leftover.command_id, waited)
                )
    return workload


# -- generated scenarios -----------------------------------------------------

TENANTS = ["ta", "tb", "tc", "td"]
MAX_WAIT = 10.0
NOW = 100.0

#: Enqueue stamps on both sides of the aging bound (``None``: no stamp).
stamps = st.sampled_from(
    [None, NOW - 50.0, NOW - 10.5, NOW - MAX_WAIT, NOW - 9.5, NOW - 1.0, NOW]
)

mdrun_payloads = st.fixed_dictionaries(
    {
        # mostly one coalesce key, so riders are common
        "model": st.sampled_from(["villin", "villin", "villin", "ala2"]),
        "n_steps": st.sampled_from([100, 100, 100, 200]),
    },
    # nose-hoover has no batched form: a command that never rides
    optional={"integrator": st.sampled_from(["langevin", "nose-hoover"])},
)


@st.composite
def command_specs(draw):
    executable = draw(st.sampled_from(["mdrun", "mdrun", "noop", "gromacs"]))
    return dict(
        project_id=draw(st.sampled_from(TENANTS + TENANTS[:2])),
        # a small pool: ids repeat across tenants, and within one (the
        # twin of a queued or in-flight command is a speculative clone)
        command_id=draw(st.sampled_from(["c0", "c1", "c2", "c3", "c4"])),
        executable=executable,
        payload=draw(mdrun_payloads) if executable == "mdrun" else {},
        min_cores=draw(st.integers(0, 3)),
        preferred_cores=draw(st.integers(0, 4)),
        priority=draw(st.integers(0, 2)),
        checkpoint=draw(st.sampled_from([None, None, None, {"step": 5}])),
    )


tenant_policies = st.builds(
    TenantPolicy,
    quota=st.sampled_from([None, None, 0, 1, 2, 3]),
    weight=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    max_queued=st.sampled_from([None, None, 1, 2, 4]),
)

worker_caps = st.builds(
    WorkerCapabilities,
    worker=st.just("w0"),
    platform=st.just("smp"),
    cores=st.integers(1, 8),
    executables=st.sampled_from([["mdrun", BATCH_EXECUTABLE, "noop"]])
    | st.sets(
        st.sampled_from(["mdrun", "noop", "gromacs", BATCH_EXECUTABLE]),
        min_size=1,
    ).map(sorted),
)

rounds = st.lists(
    st.tuples(
        worker_caps,
        st.sampled_from([None, None, 1, 2, 5]),  # max_commands
        st.floats(0.0, 30.0),  # how far the clock moved on
        st.lists(st.booleans(), min_size=12, max_size=12),  # which to release
    ),
    min_size=1,
    max_size=4,
)


class Side:
    """One scheduler + queue + stamp table, driven like the server does."""

    def __init__(self, policy, specs, stamp_of, in_flight, reference):
        self.scheduler = FairShareScheduler(policy)
        self.queue = CommandQueue()
        self.queued_at: Dict[str, float] = {}
        self.reference = reference
        #: every command this side ever made, by position
        self.made = [Command(**spec) for spec in specs]
        self.position = {id(c): i for i, c in enumerate(self.made)}
        for index in in_flight:
            # dispatched earlier: a queued twin is a speculative clone
            self.scheduler._note_dispatch(Command(**specs[index]))
        for command in self.made:
            self.submit(command, stamp_of.get(command.scoped_id))

    def submit(self, command, stamp):
        if self.reference:
            defer = reference_should_defer(self.scheduler, command, self.queue)
        else:
            defer = self.scheduler.should_defer(command, self.queue)
        if defer:
            self.scheduler.defer(command)
            return
        if stamp is not None:
            self.queued_at[command.scoped_id] = stamp
        self.queue.push(command)

    def round(self, caps, max_commands, now, release):
        build = reference_build if self.reference else FairShareScheduler.build
        workload = build(
            self.scheduler, self.queue, caps, now, self.queued_at,
            max_commands=max_commands,
        )
        for (command, _), free_it in zip(workload, release):
            self.queued_at.pop(command.scoped_id, None)
            if free_it:
                self.scheduler.release(command)
        if self.reference:
            drained = reference_drain(self.scheduler, self.queue)
        else:
            drained = self.scheduler.drain(self.queue)
        for command in drained:
            self.queued_at[command.scoped_id] = now
            self.queue.push(command)
        return (
            [(self.position[id(c)], cores) for c, cores in workload],
            [self.position[id(c)] for c in drained],
        )

    def observable(self):
        scheduler = self.scheduler
        return dict(
            ledgers={t: vars(l) for t, l in scheduler.ledgers.items()},
            in_flight={t: set(k) for t, k in scheduler._in_flight.items()},
            violations=scheduler.pop_violations(),
            aging_violations=scheduler.aging_violations,
            deferred=[
                self.position[id(c)] for c in scheduler.deferred_commands()
            ],
            queued=[self.position[id(c)] for c in self.queue.commands()],
            depth={t: self.queue.depth(t) for t in TENANTS},
            snapshot=scheduler.snapshot(),
            ledger_check=scheduler.check_ledger(),
        )


@settings(max_examples=400, deadline=None)
@given(
    specs=st.lists(command_specs(), min_size=0, max_size=14),
    policies=st.dictionaries(st.sampled_from(TENANTS), tenant_policies),
    default=tenant_policies,
    data=st.data(),
    plan=rounds,
)
def test_indexed_build_equals_scanning_build(
    specs, policies, default, data, plan
):
    policy = FairSharePolicy(
        tenants=policies, default=default, max_wait_seconds=MAX_WAIT
    )
    scoped = sorted({f"{s['project_id']}::{s['command_id']}" for s in specs})
    stamp_of = {key: data.draw(stamps, label=key) for key in scoped}
    in_flight = data.draw(
        st.lists(st.integers(0, len(specs) - 1), max_size=4, unique=True)
        if specs
        else st.just([])
    )
    new = Side(policy, specs, stamp_of, in_flight, reference=False)
    old = Side(policy, specs, stamp_of, in_flight, reference=True)
    assert new.observable() == old.observable()
    now = NOW
    for caps, max_commands, elapsed, release in plan:
        now += elapsed
        assert new.round(caps, max_commands, now, release) == old.round(
            caps, max_commands, now, release
        )
        assert new.observable() == old.observable()
        assert new.queued_at == old.queued_at


def test_equal_twins_are_removed_by_identity():
    """Two queued commands equal field for field: each pick removes the
    object it dispatched, from the queue and from the tenant's lane."""
    policy = FairSharePolicy(tenants={"ta": TenantPolicy(quota=5)})
    scheduler, queue = FairShareScheduler(policy), CommandQueue()
    spec = dict(command_id="c0", project_id="ta", executable="noop")
    twins = [Command(**spec), Command(**spec)]
    other = Command(command_id="c0", project_id="tb", executable="noop")
    for command in (*twins, other):
        queue.push(command)
    caps = WorkerCapabilities("w0", "smp", cores=1, executables=["noop"])
    first = scheduler.build(queue, caps, now=0.0, queued_at={})
    assert first[0][0] is twins[0]
    assert [c for c in queue.commands() if c.project_id == "ta"][0] is twins[1]
    assert queue.depth("ta") == 1 and queue.depth("tb") == 1
