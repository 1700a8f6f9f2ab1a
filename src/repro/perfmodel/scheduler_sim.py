"""Simulation of the Copernicus controller's scheduling.

A project is G generations of ``n_commands`` trajectories, each needing
``ns_per_command`` nanoseconds of simulation.  Workers of ``cores_per_sim``
cores pull work greedily; a single trajectory cannot be spread over
more than one worker, so with more workers than trajectories the extra
capacity idles — the command-count ceiling that flattens Figs. 7 and 8.
Trajectories are scheduled in ``ns_per_quantum`` extension chunks, the
paper's model of the controller continuously extending runs as results
stream back, which is what lets utilisation stay near-perfect below the
ceiling.

Both a simulation (quantum by quantum, yields utilisation) and the
analytic closed form it converges to are provided; the test suite
checks they agree.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from repro.perfmodel.mdperf import MDPerformanceModel, VILLIN_MODEL
from repro.util.errors import ConfigurationError


@dataclass
class ProjectSpec:
    """One adaptive-MSM project for the scheduler model (villin defaults)."""

    total_cores: int = 5000
    cores_per_sim: int = 24
    n_commands: int = 225          # commands per generation (paper: 225)
    n_generations: int = 3         # first-folded stop criterion
    ns_per_command: float = 50.0   # trajectory length per generation
    ns_per_quantum: float = 10.0   # controller extension granularity
    cluster_overhead_hours: float = 0.05
    data_per_command_mb: float = 15.0   # compressed trajectory upload
    md_model: MDPerformanceModel = field(default_factory=lambda: VILLIN_MODEL)

    def __post_init__(self) -> None:
        if self.total_cores < 1 or self.cores_per_sim < 1:
            raise ConfigurationError("core counts must be >= 1")
        if self.cores_per_sim > self.total_cores:
            raise ConfigurationError(
                "cores_per_sim cannot exceed total_cores"
            )
        if self.n_commands < 1 or self.n_generations < 1:
            raise ConfigurationError("command/generation counts must be >= 1")
        if self.ns_per_command <= 0 or self.ns_per_quantum <= 0:
            raise ConfigurationError("ns parameters must be positive")
        if self.cluster_overhead_hours < 0 or self.data_per_command_mb < 0:
            raise ConfigurationError("overheads must be >= 0")

    @property
    def n_workers(self) -> int:
        """Concurrent simulations the core pool supports."""
        return max(1, self.total_cores // self.cores_per_sim)

    @property
    def total_ns(self) -> float:
        """Total simulated nanoseconds in the project."""
        return self.n_commands * self.n_generations * self.ns_per_command

    @property
    def effective_rate(self) -> float:
        """Per-simulation rate in ns/hour."""
        return self.md_model.rate(self.cores_per_sim)


@dataclass
class SchedulerResult:
    """Outcome of one scheduler run."""

    spec: ProjectSpec
    hours: float
    efficiency: float
    core_hours: float
    avg_bandwidth_mbps: float
    generation_hours: List[float]
    worker_utilization: float


def reference_time_single_core(spec: ProjectSpec) -> float:
    """t_res(1): hours for one core to run the whole command set."""
    return spec.total_ns / spec.md_model.rate(1) + (
        spec.n_generations * spec.cluster_overhead_hours
    )


def analytic_project_time(spec: ProjectSpec) -> float:
    """Closed-form makespan in hours.

    Per generation the makespan is bounded below by both the work
    bound (total ns over aggregate rate) and the chain bound (one
    trajectory's ns at the per-simulation rate); greedy scheduling of
    quantum chunks achieves the maximum of the two up to one quantum
    of tail.
    """
    rate = spec.effective_rate  # ns/hour per simulation
    active = min(spec.n_workers, spec.n_commands)
    work_bound = spec.n_commands * spec.ns_per_command / (active * rate)
    chain_bound = spec.ns_per_command / rate
    per_generation = max(work_bound, chain_bound)
    return spec.n_generations * (per_generation + spec.cluster_overhead_hours)


def simulate_project(spec: ProjectSpec) -> SchedulerResult:
    """Simulate the controller's scheduling and return timing/efficiency.

    Greedy list scheduling of ``ns_per_quantum`` trajectory extensions
    behind a generation barrier (the clustering step): a heap holds the
    running quanta by ``(finish_time, seq)``, a finished quantum puts
    its trajectory at the back of the FIFO, and the freed worker takes
    the head.
    """
    rate = spec.effective_rate
    quanta_per_traj = math.ceil(spec.ns_per_command / spec.ns_per_quantum)
    quantum_hours = spec.ns_per_quantum / rate
    last_quantum_hours = (
        spec.ns_per_command - (quanta_per_traj - 1) * spec.ns_per_quantum
    ) / rate
    n_workers = min(spec.n_workers, spec.n_commands)
    seq = itertools.count()
    now = busy_hours = 0.0
    generation_hours: List[float] = []
    for _ in range(spec.n_generations):
        start = now
        remaining = [quanta_per_traj] * spec.n_commands
        chains = deque(range(spec.n_commands))
        running: list = []

        def launch(at: float) -> None:
            traj = chains.popleft()
            hours = last_quantum_hours if remaining[traj] == 1 else quantum_hours
            heapq.heappush(running, (at + hours, next(seq), traj, hours))

        for _ in range(n_workers):
            launch(now)
        while running:
            now, _, traj, hours = heapq.heappop(running)
            busy_hours += hours
            remaining[traj] -= 1
            if remaining[traj]:
                chains.append(traj)
            if chains:
                launch(now)
        now += spec.cluster_overhead_hours
        generation_hours.append(now - start)

    hours = now
    t1 = reference_time_single_core(spec)
    efficiency = t1 / (spec.total_cores * hours)
    total_mb = spec.n_commands * spec.n_generations * spec.data_per_command_mb
    avg_bandwidth = total_mb / (hours * 3600.0)
    utilization = busy_hours / (n_workers * hours)
    return SchedulerResult(
        spec=spec,
        hours=hours,
        efficiency=efficiency,
        core_hours=spec.total_cores * hours,
        avg_bandwidth_mbps=avg_bandwidth,
        generation_hours=generation_hours,
        worker_utilization=utilization,
    )


def analytic_result(spec: ProjectSpec) -> SchedulerResult:
    """SchedulerResult from the closed form (no simulation) — fast for sweeps."""
    hours = analytic_project_time(spec)
    t1 = reference_time_single_core(spec)
    total_mb = spec.n_commands * spec.n_generations * spec.data_per_command_mb
    rate = spec.effective_rate
    active = min(spec.n_workers, spec.n_commands)
    per_gen = hours / spec.n_generations
    return SchedulerResult(
        spec=spec,
        hours=hours,
        efficiency=t1 / (spec.total_cores * hours),
        core_hours=spec.total_cores * hours,
        avg_bandwidth_mbps=total_mb / (hours * 3600.0),
        generation_hours=[per_gen] * spec.n_generations,
        worker_utilization=min(
            1.0,
            spec.n_commands
            * spec.ns_per_command
            / (active * rate * per_gen),
        ),
    )


@dataclass
class ResourcePool:
    """One contributed resource (a cluster) in a multi-site project.

    The paper's villin run used two simultaneously: "64-80 nodes on the
    Infiniband system and 96-144 nodes on the Cray".
    """

    name: str
    total_cores: int
    cores_per_sim: int
    rate_multiplier: float = 1.0  # relative per-core speed of this site

    def __post_init__(self) -> None:
        if self.total_cores < 1 or self.cores_per_sim < 1:
            raise ConfigurationError("pool core counts must be >= 1")
        if self.cores_per_sim > self.total_cores:
            raise ConfigurationError("cores_per_sim exceeds the pool")
        if self.rate_multiplier <= 0:
            raise ConfigurationError("rate_multiplier must be positive")

    @property
    def n_workers(self) -> int:
        """Concurrent simulations this pool can host."""
        return self.total_cores // self.cores_per_sim


def analytic_heterogeneous_time(
    pools: List[ResourcePool],
    n_commands: int = 225,
    n_generations: int = 3,
    ns_per_command: float = 50.0,
    cluster_overhead_hours: float = 0.05,
    md_model: Optional[MDPerformanceModel] = None,
) -> float:
    """Makespan (hours) of a project spread over several resource pools.

    Trajectories are pinned to a pool (a simulation cannot span sites);
    allocating commands proportionally to pool throughput makes all
    pools finish together, so the per-generation time is the larger of
    the aggregate work bound and the slowest-used-pool chain bound.
    Pools are engaged fastest-first when there are more workers than
    commands.
    """
    if not pools:
        raise ConfigurationError("need at least one pool")
    if n_commands < 1 or n_generations < 1 or ns_per_command <= 0:
        raise ConfigurationError("invalid project parameters")
    model = md_model or VILLIN_MODEL
    rated = sorted(
        (
            (p, model.rate(p.cores_per_sim) * p.rate_multiplier)
            for p in pools
        ),
        key=lambda item: -item[1],
    )
    throughput = 0.0
    slots_left = n_commands
    slowest_used_rate = None
    for pool, rate in rated:
        if slots_left <= 0:
            break
        used_workers = min(pool.n_workers, slots_left)
        throughput += used_workers * rate
        slots_left -= used_workers
        slowest_used_rate = rate
    work_bound = n_commands * ns_per_command / throughput
    chain_bound = ns_per_command / slowest_used_rate
    per_generation = max(work_bound, chain_bound)
    return n_generations * (per_generation + cluster_overhead_hours)


def sweep_total_cores(
    core_counts: List[int],
    cores_per_sim: int,
    **spec_kwargs,
) -> List[SchedulerResult]:
    """Evaluate the project across total core counts (one Fig. 7/8 line)."""
    results = []
    for n in core_counts:
        if n < cores_per_sim:
            continue
        spec = ProjectSpec(
            total_cores=n, cores_per_sim=cores_per_sim, **spec_kwargs
        )
        results.append(analytic_result(spec))
    return results
