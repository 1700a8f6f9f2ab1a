"""The adaptive-strategy laboratory.

`repro.lab` is the scoreboard for adaptive sampling: the spawning
schemes of :data:`repro.msm.adaptive.WEIGHTINGS`, exact-ground-truth
Markov-chain toy systems (:mod:`repro.md.models.markov_chain`), a
model-vs-truth :class:`ConvergenceChecker`
(:mod:`repro.lab.convergence`), and a sweep harness that drives the
[scheme x adaptive frequency x parallelism] grid through the DES and
reports which adaptive scheme wins where (:mod:`repro.lab.sweep`).
"""

from repro.lab.convergence import ConvergenceChecker, ConvergenceReport
from repro.lab.sweep import SweepConfig, SweepResult, render_report, run_sweep

__all__ = [
    "ConvergenceChecker",
    "ConvergenceReport",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "render_report",
]
