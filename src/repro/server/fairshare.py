"""Fair-share admission and dispatch across tenants.

The paper pitches Copernicus as a service plane ("millions of users"
behind one overlay); a single priority queue cannot deliver that — one
tenant submitting a huge ensemble starves everyone else.  The server
"matches the available executables to commands in its queue, and
constructs a workload that maximally utilizes the available resources"
(section 2.3): :meth:`FairShareScheduler.build` is that matcher, the
only one every server has, and it packs cores under these mechanisms:

* **Quotas** — a per-tenant cap on concurrently in-flight commands.
  ``None`` is unlimited; ``0`` means the tenant never dispatches (a
  suspended account).  Quota accounting is an exact ledger (checked by
  invariant 11): per tenant, ``dispatched == released + in_flight``
  at every instant, and ``peak_in_flight`` never exceeds the quota.
* **Weighted fairness** — among tenants under quota, the next command
  comes from the tenant with the smallest ``in_flight / weight``
  deficit, so capacity divides proportionally to weight under load.
* **Starvation-free aging** — any admissible command that has waited
  past ``max_wait_seconds`` dispatches *before* all deficit-ordered
  picks, oldest first, bounding every tenant's wait (invariant 12).
  Bypassing an aged admissible command is a scheduler bug; the
  scheduler self-checks and reports violations instead of hiding them.
* **Backpressure** — per-tenant queue-depth admission control: a
  submission beyond ``max_queued`` is *deferred* (journaled but not
  queued) and released FIFO, deterministically, as the tenant's queue
  drains.

Under the default policy (no quotas, weight 1, no queue bound) a
single tenant dispatches in plain priority order, as a lone priority
queue would, except that a command aged past ``max_wait_seconds``
goes first: the aging bound holds on one-project servers too.

Tenant identity is the project id.  All bookkeeping keys are *scoped*
command keys (:meth:`repro.core.command.Command.scoped_id`), so two
tenants reusing a command id never alias, and a speculative clone of
an in-flight command is recognised as the same logical command (it
neither double-counts on dispatch nor double-credits on release).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.command import Command
from repro.server.matching import WorkerCapabilities
from repro.server.queue import CommandQueue
from repro.util.errors import ConfigurationError

#: Default aging bound: an admissible command never waits longer than
#: this (virtual seconds) while the scheduler dispatches other work.
DEFAULT_MAX_WAIT_SECONDS = 3600.0


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's share of the service plane.

    Attributes
    ----------
    quota:
        Maximum concurrently in-flight commands.  ``None`` = unlimited,
        ``0`` = never dispatch.
    weight:
        Relative share among tenants competing under quota.
    max_queued:
        Queue-depth backpressure limit; submissions beyond it are
        deferred until the tenant's queue drains.  ``None`` = no limit.
    """

    quota: Optional[int] = None
    weight: float = 1.0
    max_queued: Optional[int] = None

    def __post_init__(self) -> None:
        if self.quota is not None and self.quota < 0:
            raise ConfigurationError("tenant quota cannot be negative")
        if self.weight <= 0:
            raise ConfigurationError("tenant weight must be positive")
        if self.max_queued is not None and self.max_queued < 1:
            raise ConfigurationError("max_queued must be >= 1 (or None)")


#: The policy applied to tenants without an explicit entry.
DEFAULT_POLICY = TenantPolicy()


@dataclass
class FairSharePolicy:
    """Deployment-wide fair-share configuration."""

    tenants: Dict[str, TenantPolicy] = field(default_factory=dict)
    default: TenantPolicy = DEFAULT_POLICY
    max_wait_seconds: float = DEFAULT_MAX_WAIT_SECONDS

    def __post_init__(self) -> None:
        if self.max_wait_seconds <= 0:
            raise ConfigurationError("max_wait_seconds must be positive")

    def for_tenant(self, tenant: str) -> TenantPolicy:
        """The effective policy for *tenant*."""
        return self.tenants.get(tenant, self.default)


@dataclass
class TenantLedger:
    """Exact per-tenant accounting (invariant 11's subject)."""

    dispatched: int = 0
    released: int = 0
    peak_in_flight: int = 0
    deferred_total: int = 0

    @property
    def in_flight_balance(self) -> int:
        return self.dispatched - self.released


def _remove_identical(items: List[Command], command: Command) -> None:
    """Delete *command* itself from *items*, if present (``list.remove``
    would compare whole payloads and stop at an equal twin)."""
    for position, item in enumerate(items):
        if item is command:
            del items[position]
            return


class FairShareScheduler:
    """Admission + dispatch policy for one server's command queue.

    Every :class:`~repro.server.server.CopernicusServer` holds one from
    construction (``server.fairshare``, default policy) and routes every
    workload build, submission and release through it; a deployment
    with quotas, weights or backpressure assigns
    ``server.fairshare = FairShareScheduler(policy)``.
    """

    def __init__(self, policy: Optional[FairSharePolicy] = None) -> None:
        self.policy = policy or FairSharePolicy()
        #: Scoped keys currently in flight, per tenant.
        self._in_flight: Dict[str, Set[str]] = {}
        #: Per-tenant dispatch/release/peak ledgers.
        self.ledgers: Dict[str, TenantLedger] = {}
        #: Deferred (admitted-but-not-queued) commands, FIFO per tenant.
        self._deferred: Dict[str, List[Command]] = {}
        #: Aging self-check reports not yet consumed by the server:
        #: ``(tenant, command_id, waited_seconds)``.
        self._violations: List[Tuple[str, str, float]] = []
        self.aging_violations = 0

    # -- ledger ------------------------------------------------------------

    def _ledger(self, tenant: str) -> TenantLedger:
        return self.ledgers.setdefault(tenant, TenantLedger())

    def in_flight(self, tenant: str) -> int:
        """Commands of *tenant* currently dispatched and unresolved."""
        return len(self._in_flight.get(tenant, ()))

    def _note_dispatch(self, command: Command) -> bool:
        """Count a command leaving the queue; idempotent per scoped key
        (a speculative clone is the same logical command)."""
        keys = self._in_flight.setdefault(command.project_id, set())
        if command.scoped_id in keys:
            return False
        keys.add(command.scoped_id)
        ledger = self._ledger(command.project_id)
        ledger.dispatched += 1
        ledger.peak_in_flight = max(ledger.peak_in_flight, len(keys))
        return True

    def release(self, command: Command) -> bool:
        """Resolve a dispatched command (result arrived, or requeued).

        Membership-guarded and therefore idempotent: the losing copy
        of a speculation race, a duplicated result and a requeue of a
        never-dispatched command are all no-ops.
        """
        keys = self._in_flight.get(command.project_id)
        if not keys or command.scoped_id not in keys:
            return False
        keys.remove(command.scoped_id)
        self._ledger(command.project_id).released += 1
        return True

    def check_ledger(self) -> List[str]:
        """Internal-consistency violations (feeds invariant 11)."""
        violations = []
        for tenant in sorted(self.ledgers):
            ledger = self.ledgers[tenant]
            balance = ledger.in_flight_balance
            live = self.in_flight(tenant)
            if balance != live:
                violations.append(
                    f"tenant {tenant!r} ledger balance {balance} != "
                    f"{live} live in-flight keys"
                )
            quota = self.policy.for_tenant(tenant).quota
            if quota is not None and ledger.peak_in_flight > quota:
                violations.append(
                    f"tenant {tenant!r} peaked at {ledger.peak_in_flight} "
                    f"in-flight commands over quota {quota}"
                )
            if quota == 0 and ledger.dispatched > 0:
                violations.append(
                    f"zero-quota tenant {tenant!r} dispatched "
                    f"{ledger.dispatched} commands"
                )
        return violations

    # -- admission (backpressure) ------------------------------------------

    def should_defer(self, command: Command, queue: CommandQueue) -> bool:
        """Whether a submission must wait for the tenant's queue to drain.

        Once a tenant has anything deferred, later submissions defer
        too — releases are strictly FIFO.
        """
        tenant = command.project_id
        limit = self.policy.for_tenant(tenant).max_queued
        if limit is None:
            return False
        if self._deferred.get(tenant):
            return True
        return queue.depth(tenant) >= limit

    def defer(self, command: Command) -> None:
        """Hold a submission back until :meth:`drain` releases it."""
        self._deferred.setdefault(command.project_id, []).append(command)
        self._ledger(command.project_id).deferred_total += 1

    def drain(self, queue: CommandQueue) -> List[Command]:
        """Deferred commands whose tenants have room again, in a
        deterministic order (tenants sorted by name, FIFO within)."""
        released: List[Command] = []
        for tenant in sorted(self._deferred):
            pending = self._deferred[tenant]
            limit = self.policy.for_tenant(tenant).max_queued
            depth = queue.depth(tenant)
            while pending and (limit is None or depth < limit):
                released.append(pending.pop(0))
                depth += 1
        return released

    def deferred_commands(self) -> List[Command]:
        """Every currently deferred command (for invariant accounting:
        deferred commands are issued but neither queued nor in flight)."""
        out: List[Command] = []
        for tenant in sorted(self._deferred):
            out.extend(self._deferred[tenant])
        return out

    # -- dispatch ----------------------------------------------------------

    def _admits(self, command: Command) -> bool:
        """Whether quota allows dispatching *command* right now."""
        quota = self.policy.for_tenant(command.project_id).quota
        if quota is None:
            return True
        keys = self._in_flight.get(command.project_id, ())
        if command.scoped_id in keys:
            # a speculative clone of an already-counted command adds
            # no net in-flight load
            return True
        return len(keys) < quota

    def build(
        self,
        queue: CommandQueue,
        caps: WorkerCapabilities,
        now: float,
        queued_at: Dict[str, float],
        max_commands: Optional[int] = None,
    ) -> List[Tuple[Command, int]]:
        """Pop a fair workload for *caps*; the server's only matcher.

        Selection order: aged admissible commands first (oldest
        enqueue wins), then smallest ``in_flight / weight`` tenant
        deficit (name-ordered on ties), then priority order within the
        tenant.  Each command receives its preferred core count when
        available, degrading toward ``min_cores`` as the worker fills
        up; packing stops when no queued command fits in the remaining
        cores.  ``max_commands`` caps the workload size regardless of
        free cores — the health layer's probation sizing.

        A worker announcing ``batch_capacity > 1`` and the batched MD
        executable also receives *rider* commands: queued commands that
        share a picked command's coalesce key ride along on the same
        cores, up to the capacity, because the worker merges them into
        one batched kernel call.  The key includes the project id, so a
        batch never spans tenants; each rider gets its own lease and
        counts against its tenant's quota like any dispatched command.
        """
        from repro.worker.coalesce import BATCH_EXECUTABLE, coalesce_key

        # per-tenant lanes in queue order, kept by the queue itself (a
        # live view: take() below shrinks them, and drops emptied ones)
        lanes = queue.lanes()
        batching = (
            caps.batch_capacity > 1 and BATCH_EXECUTABLE in caps.executables
        )
        workload: List[Tuple[Command, int]] = []
        free = caps.cores
        # Queued commands past the aging bound, in queue order.  Nothing
        # ages during a build (``now`` is fixed), so the aged pass and
        # the self-check below have nothing to select outside it; and it
        # is empty unless the oldest stamp is past the bound (a command
        # without a stamp never ages, a stale stamp only costs a scan).
        horizon = self.policy.max_wait_seconds
        aged: List[Command] = []
        if queued_at and now - min(queued_at.values()) > horizon:
            aged = [
                c for c in queue.commands()
                if now - queued_at.get(c.scoped_id, now) > horizon
            ]
        # the aged pass's pick order, oldest enqueue first (stable, so
        # equal keys keep queue order, as min() over ``aged`` would)
        by_age = sorted(
            aged,
            key=lambda c: (
                queued_at.get(c.scoped_id, now),
                c.priority,
                c.project_id,
                c.command_id,
            ),
        )
        #: tenant -> its first dispatchable command, or None
        heads: Dict[str, Optional[Command]] = {}

        def full() -> bool:
            return (
                free <= 0
                or (max_commands is not None and len(workload) >= max_commands)
            )

        def dispatchable(c: Command) -> bool:
            return (
                c.executable in caps.executables
                and c.min_cores <= free
                and self._admits(c)
            )

        def head(tenant: str) -> Optional[Command]:
            # A cached head stays the tenant's first dispatchable command
            # until the tenant is picked from (take() forgets it) or
            # ``free`` sinks below its min_cores: ``free`` only shrinks
            # and no other tenant's in-flight set changes in between, so
            # whatever was skipped before it is still skipped.
            if tenant in heads:
                found = heads[tenant]
                if found is None or found.min_cores <= free:
                    return found
            found = heads[tenant] = next(
                (c for _, _, c in lanes[tenant] if dispatchable(c)), None
            )
            return found

        def take(command: Command) -> None:
            queue.remove(command)
            heads.pop(command.project_id, None)
            _remove_identical(aged, command)
            _remove_identical(by_age, command)
            self._note_dispatch(command)

        while not full():
            command = next((c for c in by_age if dispatchable(c)), None)
            if command is None:
                tenant = min(
                    (t for t in lanes if head(t) is not None),
                    key=lambda t: (
                        self.in_flight(t) / self.policy.for_tenant(t).weight,
                        t,
                    ),
                    default=None,
                )
                if tenant is None:
                    break
                command = heads[tenant]
            assigned = min(command.preferred_cores, free)
            assigned = max(assigned, command.min_cores)
            workload.append((command, assigned))
            take(command)
            free -= assigned
            if not batching:
                continue
            key = coalesce_key(command)
            if key is None:
                continue
            # a coalesce key starts with the project id: riders can only
            # come from the seed command's own lane
            lane = lanes.get(command.project_id, ())
            group = 1
            while group < caps.batch_capacity and not (
                max_commands is not None and len(workload) >= max_commands
            ):
                rider = next(
                    (
                        c for _, _, c in lane
                        if coalesce_key(c) == key and self._admits(c)
                    ),
                    None,
                )
                if rider is None:
                    break
                workload.append((rider, assigned))
                take(rider)
                group += 1

        # self-check (invariant 12): an aged admissible command that
        # still fits must never remain behind a workload we just built
        if workload and not (
            max_commands is not None and len(workload) >= max_commands
        ):
            for leftover in aged:
                if dispatchable(leftover):
                    waited = now - queued_at.get(leftover.scoped_id, now)
                    self.aging_violations += 1
                    self._violations.append(
                        (leftover.project_id, leftover.command_id, waited)
                    )
        return workload

    def pop_violations(self) -> List[Tuple[str, str, float]]:
        """Drain unreported aging violations (server records events)."""
        out, self._violations = self._violations, []
        return out

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant ledger snapshot for status/metrics export."""
        return {
            tenant: {
                "dispatched": ledger.dispatched,
                "released": ledger.released,
                "in_flight": self.in_flight(tenant),
                "peak_in_flight": ledger.peak_in_flight,
                "deferred_total": ledger.deferred_total,
                "deferred_pending": len(self._deferred.get(tenant, ())),
            }
            for tenant, ledger in sorted(self.ledgers.items())
        }
