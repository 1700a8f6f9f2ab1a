"""Golden bits of ``MDEngine.run``: every model x integrator it runs.

``tests/data/md_golden.json`` holds, per case, a sha256 over a short
run's frames, times, step count, completion flag and checkpoint (RNG
and thermostat state included), plus the run's final potential energy.
The digests were written by the engine that still had a separate
serial integrator and force path, so they pin the one-replica stack
that replaced it to the bits that path produced.  Energies are compared
to a relative 1e-12: the old serial sums (``np.dot``, pairwise
``np.sum``) and the kernel's left-to-right sums agree to rounding only.

Regenerate only from a checkout whose trajectories are meant to
change::

    PYTHONPATH=src python tests/test_md_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.md.engine import MDEngine, MDTask

GOLDEN = Path(__file__).parent / "data" / "md_golden.json"

N_STEPS = 60
REPORT = 10
SEGMENT = 25  # several engine segments per run
ABORT = 35  # a mid-run stop, off the report grid

_RUNS = [
    ("villin-fast", "langevin"),
    ("villin-full", "langevin"),
    ("double-well", "langevin"),
    ("muller-brown", "langevin"),
    ("lj-fluid", "langevin"),
    ("markov-ala20", "markov-chain"),
    ("villin-fast", "verlet"),
    ("villin-fast", "nose-hoover"),
    ("double-well", "verlet"),
    ("double-well", "nose-hoover"),
]
#: (model, integrator) pairs also run as stop-at-ABORT then resume.
_RESUMED = [
    ("villin-fast", "langevin"),
    ("double-well", "nose-hoover"),
    ("markov-ala20", "markov-chain"),
]
CASES = [f"{model}/{integrator}" for model, integrator in _RUNS] + [
    f"{model}/{integrator}/resume" for model, integrator in _RESUMED
]


def _canonical(value):
    """A JSON-able form that keeps every bit of floats and arrays."""
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), value.tobytes().hex()]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def result_digest(result) -> str:
    """sha256 of everything a run promises to reproduce from its seed."""
    blob = json.dumps(
        _canonical(
            {
                "frames": np.asarray(result.frames),
                "times": np.asarray(result.times),
                "steps_completed": int(result.steps_completed),
                "completed": bool(result.completed),
                "checkpoint": result.checkpoint,
            }
        ),
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def run_case(case: str):
    """The results of *case*: one run, or the stop and the resume."""
    model, integrator, *resume = case.split("/")
    task = MDTask(
        model=model,
        n_steps=N_STEPS,
        report_interval=REPORT,
        integrator=integrator,
        seed=7,
        task_id=case,
    )
    engine = MDEngine(segment_steps=SEGMENT)
    if not resume:
        return [engine.run(task)]
    partial = engine.run(task, abort_after_steps=ABORT)
    task.checkpoint = partial.checkpoint
    return [partial, engine.run(task)]


def case_record(case: str) -> dict:
    results = run_case(case)
    return {
        "digests": [result_digest(r) for r in results],
        "final_potential_energy": [r.final_potential_energy for r in results],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_engine_reproduces_golden_bits(golden, case):
    record = case_record(case)
    assert record["digests"] == golden[case]["digests"]
    np.testing.assert_allclose(
        record["final_potential_energy"],
        golden[case]["final_potential_energy"],
        rtol=1e-12,
        atol=1e-300,
    )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: case_record(case) for case in CASES}, indent=1)
        + "\n"
    )
