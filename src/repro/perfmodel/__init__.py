"""Performance model and scheduler simulation (paper Figs. 6-9).

The paper's scaling figures were produced by benchmarking simulations
at a few core counts and then *simulating the controller's activity*
for other configurations ("we additionally benchmarked simulations
with different numbers of cores and then simulated the controller's
activity given different numbers of cores per task and total resources
allocated").  This subpackage implements that methodology:

* :mod:`repro.perfmodel.mdperf` — a Gromacs-like strong-scaling model
  for a single simulation, calibrated against the paper's anchors
  (t_res(1) = 1.1e5 hours, ~30 h at 5,000 cores, ~10 h and 53 %
  efficiency at 20,000 cores);
* :mod:`repro.perfmodel.scheduler_sim` — a simulation of the
  Copernicus controller scheduling generations of commands over a core
  pool (greedy list scheduling on a heap of finish times), plus the
  analytic closed form it converges to;
* :mod:`repro.perfmodel.bandwidth` — ensemble-level bandwidth use and
  the multi-level parallelism hierarchy of Fig. 6.
"""

from repro.perfmodel.mdperf import MDPerformanceModel, VILLIN_MODEL
from repro.perfmodel.scheduler_sim import (
    ProjectSpec,
    ResourcePool,
    SchedulerResult,
    simulate_project,
    analytic_project_time,
    analytic_heterogeneous_time,
    sweep_total_cores,
)
from repro.perfmodel.bandwidth import (
    ensemble_bandwidth,
    parallelism_hierarchy,
)

__all__ = [
    "MDPerformanceModel",
    "VILLIN_MODEL",
    "ProjectSpec",
    "ResourcePool",
    "SchedulerResult",
    "simulate_project",
    "analytic_project_time",
    "analytic_heterogeneous_time",
    "sweep_total_cores",
    "ensemble_bandwidth",
    "parallelism_hierarchy",
]
