"""The laboratory sweep: scheme x adaptive frequency x parallelism.

MAccelerator's design-space claim is that three axes determine how
much adaptive sampling buys you: the *selection scheme* (which states
new trajectories start from), the *adaptive frequency* (how often the
model is rebuilt and spawns redirected — here, how few steps each
command runs before the generation boundary), and the *degree of
parallelization* (how many trajectories run per generation).  This
module drives that grid through the real deployment stack — every cell
is a full :func:`repro.api.run` with the adaptive MSM controller, a
ground-truth Markov-chain model and a
:class:`~repro.lab.convergence.ConvergenceChecker` — under one fixed
simulated-step budget, then scores each cell by time-to-threshold on a
model-vs-truth metric.

Outputs are deliberately wall-clock-free so ``BENCH_adaptive.json`` is
bit-identical across reruns at the same seed: simulated steps are the
only clock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lab.convergence import ConvergenceChecker, time_to_threshold
from repro.md.models.markov_chain import build_markov_chain
from repro.msm.adaptive import check_weighting
from repro.util.errors import ConfigurationError

__all__ = ["SweepConfig", "SweepResult", "run_sweep", "render_report"]


@dataclass
class SweepConfig:
    """One laboratory sweep: the grid, the budget and the scoring rule.

    Attributes
    ----------
    model / model_params:
        A registered ground-truth chain model (``markov-ala20`` /
        ``markov-mb``).
    schemes:
        Spawning-scheme names to race (keys of
        :data:`repro.msm.adaptive.WEIGHTINGS`).
    steps_per_command:
        The adaptive-frequency axis: steps each command runs before
        its generation boundary — smaller means the strategy adapts
        more often.
    n_trajectories:
        The parallelism axis: concurrent trajectories per generation.
    total_steps:
        Fixed aggregate simulated-step budget per cell; generations
        per cell are derived as ``total_steps // (steps * trajs)`` so
        every cell spends the same simulated time.
    metric / threshold:
        Scoring rule: simulated steps until *metric* (a
        :class:`ConvergenceChecker` key, default ``stationary_tv``)
        first drops to *threshold*.
    baseline:
        The scheme speedups are quoted against (must be in *schemes*).
    """

    model: str = "markov-ala20"
    model_params: Dict = field(default_factory=dict)
    schemes: Sequence[str] = ("uniform", "min-counts", "uncertainty")
    steps_per_command: Sequence[int] = (200, 400)
    n_trajectories: Sequence[int] = (4, 8)
    total_steps: int = 96000
    report_interval: int = 10
    lag_frames: int = 2
    n_clusters: int = 64
    seed: int = 0
    n_workers: int = 1
    metric: str = "stationary_tv"
    threshold: float = 0.35
    baseline: str = "uniform"

    def __post_init__(self) -> None:
        self.schemes = tuple(check_weighting(s) for s in self.schemes)
        self.steps_per_command = tuple(int(s) for s in self.steps_per_command)
        self.n_trajectories = tuple(int(p) for p in self.n_trajectories)
        self.baseline = check_weighting(self.baseline)
        if not self.schemes:
            raise ConfigurationError("sweep needs at least one scheme")
        if self.baseline not in self.schemes:
            raise ConfigurationError(
                f"baseline {self.baseline!r} must be one of the swept "
                f"schemes {list(self.schemes)}"
            )
        if any(s < 1 for s in self.steps_per_command) or not self.steps_per_command:
            raise ConfigurationError("steps_per_command entries must be >= 1")
        if any(p < 1 for p in self.n_trajectories) or not self.n_trajectories:
            raise ConfigurationError("n_trajectories entries must be >= 1")
        if self.total_steps < 1:
            raise ConfigurationError("total_steps must be >= 1")

    def generations_for(self, steps: int, trajs: int) -> int:
        """Generations a cell gets under the fixed step budget."""
        return max(2, self.total_steps // (steps * trajs))

    def to_dict(self) -> Dict:
        """JSON-ready copy of the grid definition."""
        return {
            "model": self.model,
            "model_params": dict(self.model_params),
            "schemes": list(self.schemes),
            "steps_per_command": list(self.steps_per_command),
            "n_trajectories": list(self.n_trajectories),
            "total_steps": self.total_steps,
            "report_interval": self.report_interval,
            "lag_frames": self.lag_frames,
            "n_clusters": self.n_clusters,
            "seed": self.seed,
            "n_workers": self.n_workers,
            "metric": self.metric,
            "threshold": self.threshold,
            "baseline": self.baseline,
        }


def _jsonable(value):
    """NaN/inf -> None so the JSON is strict and diff-stable."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _run_cell(config: SweepConfig, scheme: str, steps: int, trajs: int) -> Dict:
    """Run one grid cell through the full deployment stack."""
    from repro.api import run as api_run
    from repro.core.msm_controller import AdaptiveMSMController, MSMProjectConfig

    spec = build_markov_chain(config.model, **config.model_params).spec
    checker = ConvergenceChecker(spec)
    generations = config.generations_for(steps, trajs)
    msm_config = MSMProjectConfig(
        model=config.model,
        model_params=dict(config.model_params),
        n_starting_conformations=1,
        trajectories_per_start=trajs,
        steps_per_command=steps,
        report_interval=config.report_interval,
        n_clusters=config.n_clusters,
        lag_frames=config.lag_frames,
        n_generations=generations,
        weighting=scheme,
        integrator="markov-chain",
        seed=config.seed,
    )
    controller = AdaptiveMSMController(msm_config, convergence=checker)
    outcome = api_run(
        controller=controller,
        name=f"lab-{scheme}-f{steps}-p{trajs}",
        n_workers=config.n_workers,
        seed=config.seed,
        segment_steps=max(steps, 1),
    )
    history = [
        {key: _jsonable(value) for key, value in record.items()}
        for record in checker.history
    ]
    return {
        "scheme": scheme,
        "steps_per_command": steps,
        "n_trajectories": trajs,
        "n_generations": generations,
        "simulated_steps": controller.simulated_steps,
        "status": outcome.status,
        "time_to_threshold": _jsonable(
            time_to_threshold(
                checker.history,
                metric=config.metric,
                threshold=config.threshold,
            )
        ),
        "final": history[-1] if history else {},
        "history": history,
    }


def _compare_cell(
    config: SweepConfig, cells: List[Dict], steps: int, trajs: int
) -> Dict:
    """Baseline-relative scoring of one (frequency, parallelism) cell."""
    times = {
        cell["scheme"]: cell["time_to_threshold"]
        for cell in cells
        if cell["steps_per_command"] == steps
        and cell["n_trajectories"] == trajs
    }
    base = times.get(config.baseline)
    cap = float(config.total_steps)
    speedups: Dict[str, Optional[float]] = {}
    for scheme, tt in times.items():
        if scheme == config.baseline:
            continue
        if tt is None and base is None:
            # both censored at the budget: no information either way
            speedups[scheme] = None
        else:
            # censored sides are scored at the budget cap, so the ratio
            # is a bound (lower bound when the baseline is censored,
            # upper bound when the scheme is) rather than 0/inf
            speedups[scheme] = (cap if base is None else base) / (
                cap if tt is None else tt
            )
    reached = {s: t for s, t in times.items() if t is not None}
    winner = min(reached, key=reached.get) if reached else None
    return {
        "steps_per_command": steps,
        "n_trajectories": trajs,
        "baseline": config.baseline,
        "time_to_threshold": times,
        "speedup_vs_baseline": {
            scheme: _jsonable(value) for scheme, value in speedups.items()
        },
        "winner": winner,
    }


@dataclass
class SweepResult:
    """All cells of one sweep plus the baseline-relative comparisons."""

    config: SweepConfig
    cells: List[Dict]
    comparisons: List[Dict]

    def to_dict(self) -> Dict:
        """The ``BENCH_adaptive.json`` payload (wall-clock-free)."""
        return {
            "version": 1,
            "kind": "adaptive-strategy-sweep",
            "config": self.config.to_dict(),
            "cells": self.cells,
            "comparisons": self.comparisons,
        }

    def to_json(self) -> str:
        """Deterministic JSON text (sorted keys, strict floats)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    def speedup(
        self, scheme: str, steps: Optional[int] = None, trajs: Optional[int] = None
    ) -> Optional[float]:
        """Speedup of *scheme* vs the baseline in one cell.

        Defaults to the first grid cell; ``None`` means neither side
        reached the threshold.
        """
        steps = self.config.steps_per_command[0] if steps is None else steps
        trajs = self.config.n_trajectories[0] if trajs is None else trajs
        for comparison in self.comparisons:
            if (
                comparison["steps_per_command"] == steps
                and comparison["n_trajectories"] == trajs
            ):
                return comparison["speedup_vs_baseline"].get(scheme)
        return None

    def capped_time(
        self, scheme: str, steps: Optional[int] = None, trajs: Optional[int] = None
    ) -> float:
        """Time-to-threshold of *scheme* in one cell, capped at the budget.

        A scheme that never reached the threshold is scored at
        ``config.total_steps`` — a conservative lower bound on its true
        time-to-threshold, which makes cross-seed aggregates (the CI
        regression floor) well-defined for rare-event cells.
        """
        steps = self.config.steps_per_command[0] if steps is None else steps
        trajs = self.config.n_trajectories[0] if trajs is None else trajs
        for cell in self.cells:
            if (
                cell["scheme"] == scheme
                and cell["steps_per_command"] == steps
                and cell["n_trajectories"] == trajs
            ):
                tt = cell["time_to_threshold"]
                return float(self.config.total_steps if tt is None else tt)
        raise ConfigurationError(
            f"no cell for scheme={scheme!r} steps={steps} trajs={trajs}"
        )


def run_sweep(config: SweepConfig, log=None) -> SweepResult:
    """Run the full grid; deterministic for a fixed config.

    *log*, when given, receives one progress line per completed cell.
    """
    cells: List[Dict] = []
    for steps in config.steps_per_command:
        for trajs in config.n_trajectories:
            for scheme in config.schemes:
                cell = _run_cell(config, scheme, steps, trajs)
                cells.append(cell)
                if log is not None:
                    tt = cell["time_to_threshold"]
                    log(
                        f"[lab] {scheme:>16s} f={steps:<5d} p={trajs:<3d} "
                        f"time-to-threshold="
                        f"{'never' if tt is None else f'{tt:.0f} steps'}"
                    )
    comparisons = [
        _compare_cell(config, cells, steps, trajs)
        for steps in config.steps_per_command
        for trajs in config.n_trajectories
    ]
    return SweepResult(config=config, cells=cells, comparisons=comparisons)


def _format_tt(value) -> str:
    return "never" if value is None else f"{value:,.0f}"


def _format_speedup(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.2f}x"


def _speedup_label(comparison: Dict, scheme: str, baseline: str) -> str:
    """Speedup with a >=/<= prefix when one side was budget-censored."""
    value = comparison["speedup_vs_baseline"].get(scheme)
    if value is None:
        return "n/a"
    base_tt = comparison["time_to_threshold"].get(baseline)
    scheme_tt = comparison["time_to_threshold"].get(scheme)
    prefix = ">=" if base_tt is None else ("<=" if scheme_tt is None else "")
    return prefix + _format_speedup(value)


def render_report(result: SweepResult) -> str:
    """The "which adaptive scheme wins where" markdown report."""
    config = result.config
    lines = [
        "# Adaptive-strategy sweep report",
        "",
        f"Model: `{config.model}` | metric: `{config.metric}` <= "
        f"{config.threshold} | budget: {config.total_steps:,} simulated "
        f"steps per cell | seed: {config.seed}",
        "",
        "Time-to-threshold is in *simulated steps* (lower is better); "
        f"speedups are vs `{config.baseline}` in the same cell.",
        "",
        "## Grid",
        "",
        "| steps/command | parallel trajs | scheme | time-to-threshold "
        "| speedup vs baseline | final "
        + config.metric.replace("_", " ")
        + " |",
        "|---:|---:|:---|---:|---:|---:|",
    ]
    by_cell = {
        (c["steps_per_command"], c["n_trajectories"]): c
        for c in result.comparisons
    }
    for cell in result.cells:
        key = (cell["steps_per_command"], cell["n_trajectories"])
        comparison = by_cell[key]
        if cell["scheme"] == config.baseline:
            speedup = "1.00x"
        else:
            speedup = _speedup_label(comparison, cell["scheme"], config.baseline)
        final_metric = cell["final"].get(config.metric)
        lines.append(
            f"| {cell['steps_per_command']} | {cell['n_trajectories']} "
            f"| `{cell['scheme']}` | {_format_tt(cell['time_to_threshold'])} "
            f"| {speedup} "
            f"| {'n/a' if final_metric is None else f'{final_metric:.3f}'} |"
        )
    lines += ["", "## Which scheme wins where", ""]
    for comparison in result.comparisons:
        winner = comparison["winner"]
        lines.append(
            f"- steps/command={comparison['steps_per_command']}, "
            f"parallel={comparison['n_trajectories']}: "
            + (
                f"**`{winner}`** wins"
                if winner
                else "no scheme reached the threshold"
            )
        )
    lines += [
        "",
        "## Speedup vs baseline (time-to-threshold)",
        "",
        "```",
    ]
    for comparison in result.comparisons:
        header = (
            f"f={comparison['steps_per_command']} "
            f"p={comparison['n_trajectories']}"
        )
        for scheme, value in sorted(
            comparison["speedup_vs_baseline"].items()
        ):
            if value is None:
                bar, label = "", "n/a"
            else:
                bar = "#" * min(int(round(value * 10)), 40)
                label = _speedup_label(comparison, scheme, config.baseline)
            lines.append(f"{header}  {scheme:>16s} |{bar:<40s}| {label}")
    lines += ["```", ""]
    return "\n".join(lines)
