"""Regenerate the paper's scaling analysis (Figs. 7, 8, 9).

Sweeps the calibrated performance model over total core counts and
cores-per-simulation, printing the efficiency, time-to-solution and
ensemble-bandwidth tables, and cross-checks the analytic model against
the discrete-event scheduler simulation at the paper's operating point.

Run:  python examples/scaling_study.py
"""

from repro.perfmodel import (
    ProjectSpec,
    VILLIN_MODEL,
    analytic_project_time,
    ensemble_bandwidth,
    simulate_project,
    sweep_total_cores,
)
from repro.perfmodel.scheduler_sim import analytic_result, reference_time_single_core

CORE_COUNTS = [96, 384, 1536, 5376, 20000, 100000]
CORES_PER_SIM = [1, 12, 24, 48, 96]


def main() -> None:
    print("single-simulation strong scaling (the Gromacs substitute):")
    for k in (1, 12, 24, 48, 96):
        print(
            f"  {k:3d} cores: {VILLIN_MODEL.rate_ns_per_day(k):7.1f} ns/day "
            f"(efficiency {VILLIN_MODEL.efficiency(k):.2f})"
        )

    t1 = reference_time_single_core(ProjectSpec(total_cores=1, cores_per_sim=1))
    print(f"\nt_res(1) = {t1:.3g} hours (paper: 1.1e5)")

    print("\nFig. 7 — scaling efficiency:")
    header = f"{'N cores':>9s} " + " ".join(f"k={k:>4d}" for k in CORES_PER_SIM)
    print(header)
    for n in CORE_COUNTS:
        cells = []
        for k in CORES_PER_SIM:
            if n < k:
                cells.append("     -")
                continue
            eff = analytic_result(
                ProjectSpec(total_cores=n, cores_per_sim=k)
            ).efficiency
            cells.append(f"{eff:6.2f}")
        print(f"{n:>9d} " + " ".join(cells))

    print("\nFig. 8 — time to first folded structure (hours):")
    print(header)
    for n in CORE_COUNTS:
        cells = []
        for k in CORES_PER_SIM:
            if n < k:
                cells.append("     -")
                continue
            cells.append(
                f"{analytic_project_time(ProjectSpec(total_cores=n, cores_per_sim=k)):6.1f}"
            )
        print(f"{n:>9d} " + " ".join(cells))

    print("\nFig. 9 — ensemble bandwidth (MB/s):")
    print(header)
    for n in CORE_COUNTS:
        cells = []
        for k in CORES_PER_SIM:
            if n < k:
                cells.append("     -")
                continue
            cells.append(
                f"{ensemble_bandwidth(ProjectSpec(total_cores=n, cores_per_sim=k)):6.3f}"
            )
        print(f"{n:>9d} " + " ".join(cells))

    print("\nSimulated cross-check at the paper's operating point (5,000 cores, k=24):")
    spec = ProjectSpec(total_cores=5000, cores_per_sim=24)
    simulated = simulate_project(spec)
    print(
        f"  simulated {simulated.hours:.1f} h vs analytic "
        f"{analytic_project_time(spec):.1f} h (paper: ~30 h); "
        f"worker utilisation {simulated.worker_utilization:.2f}"
    )


if __name__ == "__main__":
    main()
