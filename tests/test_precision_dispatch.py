"""The precision API and the stacking rule.

Three layers under test:

- **Validation**: unknown ``precision=`` values raise a typed
  :class:`ConfigurationError` at every entry point, and ``"float32"``
  is rejected wherever bit-identity is contractually required (resume
  checkpoints, batched stacks, coalesced commands).
- **The stacking rule**: a command coalesces unless it is float32 or
  its integrator is not in :data:`~repro.md.batched.BATCHED_INTEGRATORS`,
  and ``run_batched`` refuses a stack it cannot propagate instead of
  running it some other way.  Payloads written before the rule
  (carrying a ``"dispatch"`` key) still load.
- **Float32 tolerances**: the opt-in fast path meets the documented
  force-error and energy-drift bounds of :mod:`repro.md.precision`
  (tolerance tests — deliberately *not* bit-identity tests; see
  TESTING.md).
"""

import numpy as np
import pytest

from repro.api import MAX_AUTO_BATCH, Ensemble, Project
from repro.core.command import Command
from repro.md.engine import BatchedMDResult, BatchedMDTask, MDEngine, MDTask
from repro.md.precision import (
    FLOAT32_ENERGY_DRIFT_KT,
    FLOAT32_FORCE_RTOL,
    FusedForceEvaluator,
)
from repro.md.simulation import Simulation
from repro.util.errors import ConfigurationError
from repro.util.serialization import encode_message
from repro.util.units import KB
from repro.worker.coalesce import coalesce_commands, coalesce_key

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
    with pytest.raises(ConfigurationError):
        _task(precision="float16")
    with pytest.raises(ConfigurationError):
        Simulation.configure(model=MODEL, steps=10, precision="double")
    with pytest.raises(ConfigurationError):
        Ensemble(model=MODEL, precision="float16")


def test_float32_cannot_resume_from_a_checkpoint():
    checkpoint = {
        "positions": [[0.0]],
        "velocities": [[0.0]],
        "time": 0.0,
        "step": 0,
    }
    _task(checkpoint=checkpoint)  # float64 resume is fine
    with pytest.raises(ConfigurationError, match="checkpoint"):
        _task(precision="float32", checkpoint=checkpoint)


def test_batched_stack_rejects_float32():
    tasks = [_task(seed=r, precision="float32") for r in range(2)]
    with pytest.raises(ConfigurationError, match="float32"):
        BatchedMDTask.from_tasks(tasks, batch_id="b")


# -- the stacking rule ----------------------------------------------------------


def test_coalesce_refuses_float32_and_unbatched_integrators():
    assert coalesce_key(_command(_task())) is not None
    assert coalesce_key(_command(_task(precision="float32"))) is None
    assert coalesce_key(_command(_task(integrator="nose-hoover"))) is None
    for integrator in ("langevin", "verlet"):
        assert coalesce_key(_command(_task(integrator=integrator))) is not None


def test_payloads_round_trip_and_default():
    task = _task(precision="float32")
    restored = MDTask.from_payload(task.to_payload())
    assert restored.precision == "float32"
    assert "dispatch" not in task.to_payload()

    legacy = task.to_payload()
    del legacy["precision"]
    assert MDTask.from_payload(legacy).precision == "float64"

    btask = BatchedMDTask.from_tasks([_task(seed=r) for r in range(2)], batch_id="b")
    assert BatchedMDTask.from_payload(btask.to_payload()).to_payload() == (
        btask.to_payload()
    )


def test_a_parent_written_serial_payload_loads_and_now_coalesces():
    """Journals written while commands carried ``"dispatch"`` recover:
    the key is ignored, and an old ``"serial"`` request stacks."""
    tasks = [_task(seed=r) for r in range(3)]
    old = [{**task.to_payload(), "dispatch": "serial"} for task in tasks]
    for task, payload in zip(tasks, old):
        assert MDTask.from_payload(payload).to_payload() == task.to_payload()
    commands = [_command(t, p) for t, p in zip(tasks, old)]
    assert coalesce_key(commands[0]) == coalesce_key(_command(tasks[0]))
    (batch,) = coalesce_commands(commands, capacity=3)
    assert len(batch.members) == 3

    result = MDEngine().run_batched(BatchedMDTask.from_tasks(tasks))
    old_result = {**result.to_payload(), "dispatch": "serial"}
    restored = BatchedMDResult.from_payload(old_result)
    assert encode_message(restored.to_payload()) == encode_message(result.to_payload())
    old_btask = {**BatchedMDTask.from_tasks(tasks).to_payload(), "dispatch": "batched"}
    assert BatchedMDTask.from_payload(old_btask).n_replicas == 3


# -- the facades --------------------------------------------------------------


def test_ensemble_threads_precision_into_tasks():
    ensemble = Ensemble(model=MODEL, n_replicas=2, steps=STEPS, precision="float32")
    for task in ensemble.tasks():
        assert task.precision == "float32"
    for command in ensemble.commands("p"):
        assert command.payload["precision"] == "float32"
        assert coalesce_key(command) is None
    # the ensemble is the one place precision is set
    with pytest.raises(TypeError):
        Project("p", ensembles=[ensemble]).run(precision="float64")


def test_project_run_float32_end_to_end():
    ensemble = Ensemble(
        model=MODEL, n_replicas=2, steps=STEPS, precision="float32"
    )
    outcome = Project("p32", ensembles=[ensemble]).run(max_cycles=2000)
    assert outcome.status == "complete"
    assert len(outcome.ensemble_results(ensemble)) == 2


def test_custom_controller_projects_default_to_the_full_batch_cap():
    class _NullController:
        def on_project_start(self, project):
            return []

        def on_command_finished(self, project, command, result):
            return []

        def is_complete(self, project):
            return True

    from repro.api import _auto_batch_capacity

    project = Project("c", controller=_NullController())
    assert _auto_batch_capacity([project.ensembles]) == MAX_AUTO_BATCH


def test_simulation_configure_float32_runs_in_single_precision():
    simulation = Simulation.configure(
        model="lj-fluid",
        integrator="verlet",
        steps=20,
        precision="float32",
        model_params={"n_particles": 27},
    )
    assert simulation.precision == "float32"
    assert simulation.state.positions.dtype == np.float32
    simulation.run()
    assert simulation.state.positions.dtype == np.float32
    assert simulation.state.velocities.dtype == np.float32


def test_fused_evaluator_double_buffers_previous_forces():
    simulation = Simulation.configure(
        model="lj-fluid",
        integrator="verlet",
        steps=1,
        precision="float32",
        model_params={"n_particles": 27},
    )
    evaluator = simulation.system
    assert isinstance(evaluator, FusedForceEvaluator)
    positions = simulation.state.positions
    _, first = evaluator.energy_forces(positions)
    held = first.copy()
    evaluator.energy_forces(positions + np.float32(0.01))
    # The call in between must not clobber the previously returned
    # buffer — integrators hold it across the in-step force refresh.
    assert np.array_equal(first, held)


# -- float32 tolerance bounds -------------------------------------------------


def _configured(model, precision, model_params=None):
    return Simulation.configure(
        model=model,
        integrator="verlet",
        steps=500,
        report_interval=0,
        precision=precision,
        model_params=model_params or {},
    )


@pytest.mark.parametrize(
    "model,model_params",
    [("villin-fast", {}), ("lj-fluid", {"n_particles": 64})],
)
def test_float32_forces_meet_the_documented_bound(model, model_params):
    ref = _configured(model, "float64", model_params)
    fast = _configured(model, "float32", model_params)
    _, f64 = ref.system.energy_forces(ref.state.positions)
    _, f32 = fast.system.energy_forces(fast.state.positions)
    error = np.linalg.norm(f32.astype(np.float64) - f64)
    scale = np.linalg.norm(f64)
    assert scale > 0
    assert error / scale < FLOAT32_FORCE_RTOL


@pytest.mark.parametrize(
    "model,model_params",
    [("villin-fast", {}), ("lj-fluid", {"n_particles": 64})],
)
def test_float32_energy_drift_meets_the_documented_bound(model, model_params):
    def drift_kt(precision):
        simulation = _configured(model, precision, model_params)
        start = simulation.total_energy()
        simulation.run()
        end = simulation.total_energy()
        per_particle = abs(end - start) / simulation.system.n_atoms
        return per_particle / (KB * 300.0)

    assert drift_kt("float32") <= drift_kt("float64") + FLOAT32_ENERGY_DRIFT_KT
