"""Adaptive-strategy sweep (BENCH_adaptive.json + REPORT_adaptive.md).

Runs the laboratory's [scheme x adaptive-frequency x parallelism] grid
on the 20-state ground-truth chain (``markov-ala20``) and writes the
deterministic ``BENCH_adaptive.json`` payload plus the "which scheme
wins where" markdown report.

Run as a script (CI's ``lab`` job)::

    PYTHONPATH=src python benchmarks/bench_adaptive_sweep.py --seeds 0 1 2
    git diff --exit-code BENCH_adaptive.json REPORT_adaptive.md

The sweep is deterministic per seed, so the committed files are the
gate: CI regenerates them and fails if a byte moved.  The script also
prints the uncertainty-vs-uniform ratio on time-to-threshold at the
floor cell (400 steps/command, 8 trajectories), pooled over the given
seeds.  Pooling uses budget-censored times (a scheme that never
reaches the threshold is scored at the full step budget, a
conservative lower bound on its true time), because single-seed
time-to-threshold on a barrier chain is a first-passage time with
heavy-tailed noise.  The ratio is reported, not enforced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lab.sweep import SweepConfig, render_report, run_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent
FLOOR_STEPS = 400
FLOOR_TRAJS = 8


def _floor_config(seed: int) -> SweepConfig:
    """The single cell the pooled ratio is measured on."""
    return SweepConfig(
        schemes=("uniform", "uncertainty"),
        steps_per_command=(FLOOR_STEPS,),
        n_trajectories=(FLOOR_TRAJS,),
        seed=seed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2],
        help="seeds pooled into the reported ratio (grid artifacts "
        "come from the first seed)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_adaptive.json"),
        help="where to write the sweep JSON payload",
    )
    parser.add_argument(
        "--report", default=str(REPO_ROOT / "REPORT_adaptive.md"),
        help="where to write the markdown report",
    )
    args = parser.parse_args(argv)

    grid_seed = args.seeds[0]
    print(f"[lab] full grid sweep at seed {grid_seed} ...")
    grid = run_sweep(SweepConfig(seed=grid_seed), log=print)
    Path(args.out).write_text(grid.to_json() + "\n", encoding="utf-8")
    Path(args.report).write_text(render_report(grid), encoding="utf-8")
    print(f"[lab] wrote {args.out} and {args.report}")

    uniform_steps = 0.0
    uncertainty_steps = 0.0
    for seed in args.seeds:
        if seed == grid_seed:
            result = grid
        else:
            print(f"[lab] floor cell at seed {seed} ...")
            result = run_sweep(_floor_config(seed), log=print)
        tt_uniform = result.capped_time("uniform", FLOOR_STEPS, FLOOR_TRAJS)
        tt_uncertainty = result.capped_time(
            "uncertainty", FLOOR_STEPS, FLOOR_TRAJS
        )
        uniform_steps += tt_uniform
        uncertainty_steps += tt_uncertainty
        print(
            f"[lab] seed {seed}: uniform {tt_uniform:,.0f} steps, "
            f"uncertainty {tt_uncertainty:,.0f} steps "
            f"(ratio {tt_uniform / tt_uncertainty:.2f}x)"
        )

    pooled = uniform_steps / uncertainty_steps
    print(
        f"[lab] pooled uncertainty-vs-uniform speedup over seeds "
        f"{args.seeds}: {pooled:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
