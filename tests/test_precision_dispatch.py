"""Float64 only, and the stacking rule.

Two layers under test:

- **Validation**: the kernel runs in float64 only.  A payload written
  by an older engine that stamped ``"precision": "float64"`` still
  loads; one that asks for anything else (``"float32"`` included)
  raises a typed :class:`ConfigurationError`, and no entry point takes
  a ``precision=`` argument.
- **The stacking rule**: a command coalesces unless it resumes a
  checkpoint — every integrator has a stacked form.  Payloads written
  before the rule (carrying a ``"dispatch"`` key) still load.
"""

import pytest

from repro.api import Ensemble
from repro.core.command import Command
from repro.md.engine import MDEngine, MDTask
from repro.md.simulation import Simulation
from repro.util.errors import ConfigurationError
from repro.util.serialization import encode_message
from repro.worker.coalesce import coalesce_commands, coalesce_key
from repro.worker.executable import run_executable

MODEL = "double-well"
STEPS = 60


def _task(seed=0, **kwargs):
    kwargs.setdefault("model", MODEL)
    kwargs.setdefault("n_steps", STEPS)
    kwargs.setdefault("report_interval", 20)
    return MDTask(seed=seed, task_id=f"t{seed}", **kwargs)


def _command(task, payload=None):
    return Command(
        command_id=task.task_id,
        project_id="p",
        executable="mdrun",
        payload=payload if payload is not None else task.to_payload(),
    )


# -- validation ---------------------------------------------------------------


def test_unknown_precision_rejected_everywhere():
    for precision in ("float16", "float32"):
        payload = {**_task().to_payload(), "precision": precision}
        with pytest.raises(ConfigurationError, match="float64 only"):
            MDTask.from_payload(payload)
    with pytest.raises(TypeError):
        _task(precision="float64")
    with pytest.raises(TypeError):
        Simulation.configure(model=MODEL, steps=10, precision="float64")
    with pytest.raises(TypeError):
        Ensemble(model=MODEL, precision="float64")


def test_float32_cannot_resume_from_a_checkpoint():
    checkpoint = {
        "positions": [[0.0]],
        "velocities": [[0.0]],
        "time": 0.0,
        "step": 0,
    }
    payload = _task(checkpoint=checkpoint).to_payload()
    MDTask.from_payload(payload)  # a float64 resume is fine
    with pytest.raises(ConfigurationError, match="float32"):
        MDTask.from_payload({**payload, "precision": "float32"})


def test_batched_stack_rejects_float32():
    """An ``mdrun_batch`` stack with one float32 member is refused."""
    tasks = [_task(seed=r).to_payload() for r in range(2)]
    tasks[1]["precision"] = "float32"
    with pytest.raises(ConfigurationError, match="float32"):
        run_executable("mdrun_batch", {"tasks": tasks})


# -- the stacking rule ----------------------------------------------------------


def test_every_integrator_coalesces():
    for integrator in ("langevin", "verlet", "nose-hoover"):
        assert coalesce_key(_command(_task(integrator=integrator))) is not None
    resuming = _task(checkpoint={"positions": [[0.0]]})
    assert coalesce_key(_command(resuming)) is None


def test_payloads_round_trip_and_default():
    task = _task()
    payload = task.to_payload()
    assert "precision" not in payload and "dispatch" not in payload
    assert MDTask.from_payload(payload).to_payload() == payload

    # an older writer stamped every command float64: the key is ignored
    legacy = {**payload, "precision": "float64"}
    assert MDTask.from_payload(legacy).to_payload() == payload


def test_a_parent_written_serial_payload_loads_and_now_coalesces():
    """Journals written while commands carried ``"dispatch"`` recover:
    the key is ignored, and an old ``"serial"`` request stacks."""
    tasks = [_task(seed=r) for r in range(3)]
    old = [{**task.to_payload(), "dispatch": "serial"} for task in tasks]
    for task, payload in zip(tasks, old):
        assert MDTask.from_payload(payload).to_payload() == task.to_payload()
    commands = [_command(t, p) for t, p in zip(tasks, old)]
    assert coalesce_key(commands[0]) == coalesce_key(_command(tasks[0]))
    (batch,) = coalesce_commands(commands)
    assert len(batch.members) == 3

    # the merged stack runs the old payloads as the new ones run
    result, completed = run_executable(batch.executable, batch.payload)
    expect = [r.to_payload() for r in MDEngine().run_batched(tasks)]
    assert completed
    assert encode_message(result["results"]) == encode_message(expect)

