"""The scheduler model reproduces its pinned outputs bit for bit.

``tests/data/scheduler_golden.json`` holds ``simulate_project``'s
``hours``, ``generation_hours`` and ``worker_utilization`` for a grid of
project specs: 24 to 50 000 cores, 12 to 96 cores per simulation, 7, 20
and 225 commands, quanta of 10, 7 (not a divisor of 50 ns) and 50 ns,
one-worker pools, more workers than commands, and a few generation
counts and clustering overheads.  The file was written by the
coroutine event engine the scheduler model used to run on; every value
is compared with ``==``.

Regenerate (only when the model is meant to change) with the checkout
on ``PYTHONPATH``: ``python tests/test_scheduler_golden.py``.
"""

import json
import sys
from pathlib import Path

from repro.perfmodel import ProjectSpec, simulate_project

GOLDEN = Path(__file__).parent / "data" / "scheduler_golden.json"


def golden_specs():
    """The pinned grid, as ``ProjectSpec`` keyword dicts."""
    specs = []
    for cores in (24, 96, 500, 1000, 5000, 20000, 50000):
        for k in (12, 24, 48, 96):
            if k > cores:
                continue
            for n_commands in (7, 20, 225):
                for quantum in (10.0, 7.0, 50.0):
                    specs.append(dict(
                        total_cores=cores, cores_per_sim=k,
                        n_commands=n_commands, ns_per_quantum=quantum,
                    ))
    for k in (12, 48, 96):  # one worker
        for n_commands in (7, 20):
            for quantum in (10.0, 7.0, 50.0):
                specs.append(dict(
                    total_cores=k, cores_per_sim=k,
                    n_commands=n_commands, ns_per_quantum=quantum,
                ))
    for n_generations, overhead in ((1, 0.0), (5, 0.0), (2, 0.5)):
        for cores, k in ((100, 24), (2400, 24), (20000, 96)):
            specs.append(dict(
                total_cores=cores, cores_per_sim=k, n_commands=20,
                n_generations=n_generations, ns_per_quantum=7.0,
                ns_per_command=33.0, cluster_overhead_hours=overhead,
            ))
    return specs


def _outputs(kwargs):
    result = simulate_project(ProjectSpec(**kwargs))
    return {
        "hours": result.hours,
        "generation_hours": result.generation_hours,
        "worker_utilization": result.worker_utilization,
    }


def test_grid_covers_the_edge_cases():
    specs = [ProjectSpec(**kwargs) for kwargs in golden_specs()]
    assert len(specs) >= 200
    assert any(s.n_workers > s.n_commands for s in specs)
    assert any(s.n_workers == 1 for s in specs)
    assert any(s.ns_per_command % s.ns_per_quantum for s in specs)
    assert {s.cores_per_sim for s in specs} >= {12, 96}
    assert min(s.total_cores for s in specs) <= 24
    assert max(s.total_cores for s in specs) >= 50000


def test_simulate_project_matches_the_golden_file_exactly():
    cases = json.loads(GOLDEN.read_text())
    assert [case["spec"] for case in cases] == golden_specs()
    mismatched = [
        case["spec"] for case in cases
        if _outputs(case["spec"]) != case["result"]
    ]
    assert mismatched == []


if __name__ == "__main__":
    cases = [
        {"spec": kwargs, "result": _outputs(kwargs)} for kwargs in golden_specs()
    ]
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n")
    sys.stdout.write(f"{len(cases)} specs -> {GOLDEN}\n")
