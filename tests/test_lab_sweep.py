"""Tests for the sweep harness, its report and the CLI verb."""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.lab.sweep import (
    SweepConfig,
    SweepResult,
    _compare_cell,
    render_report,
    run_sweep,
)
from repro.util.errors import ConfigurationError

#: Small enough to run in a couple of seconds, big enough to exercise
#: several generations of the full stack per cell.
TINY = dict(
    schemes=("uniform", "min-counts"),
    steps_per_command=(200,),
    n_trajectories=(4,),
    total_steps=4800,
)


# ------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SweepConfig(schemes=())
    with pytest.raises(ConfigurationError):
        SweepConfig(schemes=("uniform",), baseline="uncertainty")
    with pytest.raises(ConfigurationError):
        SweepConfig(steps_per_command=(0,))
    with pytest.raises(ConfigurationError):
        SweepConfig(n_trajectories=(0,))
    with pytest.raises(ConfigurationError):
        SweepConfig(total_steps=0)
    with pytest.raises(ConfigurationError):
        SweepConfig(schemes=("magic",))


def test_generations_respect_the_budget():
    config = SweepConfig(**TINY)
    assert config.generations_for(200, 4) == 6
    assert config.generations_for(10**6, 1) == 2  # floor of two


# ---------------------------------------------------------- the sweep


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sweep(SweepConfig(seed=1, **TINY))


def test_sweep_runs_every_cell(tiny_sweep):
    assert len(tiny_sweep.cells) == 2
    for cell in tiny_sweep.cells:
        assert cell["status"] == "complete"
        assert cell["n_generations"] == 6
        assert cell["simulated_steps"] == 4800
        assert len(cell["history"]) == cell["n_generations"]
    assert {c["scheme"] for c in tiny_sweep.cells} == {"uniform", "min-counts"}


def test_sweep_is_deterministic(tiny_sweep):
    again = run_sweep(SweepConfig(seed=1, **TINY))
    assert again.to_json() == tiny_sweep.to_json()


def test_sweep_json_is_strict_and_loadable(tiny_sweep):
    payload = json.loads(tiny_sweep.to_json())
    assert payload["kind"] == "adaptive-strategy-sweep"
    assert payload["version"] == 1
    assert payload["config"]["schemes"] == ["uniform", "min-counts"]
    # no NaN/inf anywhere: json.dumps with allow_nan=False round-trips
    json.dumps(payload, allow_nan=False)


def test_capped_time_and_speedup_helpers(tiny_sweep):
    config = tiny_sweep.config
    for scheme in config.schemes:
        capped = tiny_sweep.capped_time(scheme)
        assert 0 < capped <= config.total_steps
    assert tiny_sweep.speedup("uniform") is None  # baseline has no entry
    with pytest.raises(ConfigurationError):
        tiny_sweep.capped_time("uniform", steps=999)


# ----------------------------------------------- comparisons + report


def _result_with_times(times):
    config = SweepConfig(schemes=tuple(times), **{
        k: v for k, v in TINY.items() if k != "schemes"
    })
    cells = [
        {
            "scheme": scheme,
            "steps_per_command": 200,
            "n_trajectories": 4,
            "n_generations": 6,
            "simulated_steps": 4800,
            "status": "complete",
            "time_to_threshold": tt,
            "final": {"stationary_tv": 0.2},
            "history": [],
        }
        for scheme, tt in times.items()
    ]
    comparisons = [_compare_cell(config, cells, 200, 4)]
    return SweepResult(config=config, cells=cells, comparisons=comparisons)


def test_compare_cell_scoring():
    result = _result_with_times(
        {"uniform": 4000.0, "min-counts": 2000.0, "uncertainty": None}
    )
    comparison = result.comparisons[0]
    assert comparison["winner"] == "min-counts"
    assert comparison["speedup_vs_baseline"]["min-counts"] == 2.0
    # censored scheme: scored at the budget cap -> an upper bound
    assert comparison["speedup_vs_baseline"]["uncertainty"] == pytest.approx(
        4000.0 / 4800.0
    )


def test_compare_cell_censored_baseline():
    result = _result_with_times({"uniform": None, "uncertainty": 2400.0})
    comparison = result.comparisons[0]
    # baseline censored: the ratio is a lower bound, never inf/None
    assert comparison["speedup_vs_baseline"]["uncertainty"] == 2.0
    both = _result_with_times({"uniform": None, "uncertainty": None})
    assert both.comparisons[0]["speedup_vs_baseline"]["uncertainty"] is None
    assert both.comparisons[0]["winner"] is None


def test_report_renders_and_annotates_bounds():
    report = render_report(
        _result_with_times({"uniform": None, "uncertainty": 2400.0})
    )
    assert "# Adaptive-strategy sweep report" in report
    assert "Which scheme wins where" in report
    assert ">=2.00x" in report  # censored-baseline bound annotated
    assert "never" in report

    report = render_report(
        _result_with_times({"uniform": 4000.0, "uncertainty": None})
    )
    assert "<=0.83x" in report


def test_report_of_real_sweep(tiny_sweep):
    report = render_report(tiny_sweep)
    for scheme in tiny_sweep.config.schemes:
        assert f"`{scheme}`" in report
    assert "markov-ala20" in report


# ---------------------------------------------------------------- CLI


def test_cli_lab_sweep_writes_artifacts(tmp_path, capsys):
    json_path = tmp_path / "bench.json"
    report_path = tmp_path / "report.md"
    code = cli_main([
        "lab", "sweep",
        "--schemes", "uniform", "min-counts",
        "--steps-per-command", "200",
        "--trajs", "4",
        "--total-steps", "2400",
        "--seed", "7",
        "--json-out", str(json_path),
        "--out", str(report_path),
    ])
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["config"]["seed"] == 7
    assert payload["config"]["total_steps"] == 2400
    assert "# Adaptive-strategy sweep report" in report_path.read_text()
    assert "[lab]" in capsys.readouterr().out
