"""The redesigned ``repro.api`` facade.

Covers the declarative surface (Ensemble / Project / run / RunOutcome),
the keyword-only :meth:`Simulation.configure` builder and the shared
model registry.
"""

import warnings

import numpy as np
import pytest

from repro.api import Ensemble, Project, RunOutcome, run
from repro.md.engine import (
    BuiltModel,
    MDEngine,
    MDTask,
    UnknownModelError,
    register_model,
    resolve_model,
)
from repro.md.integrators import make_integrator
from repro.md.simulation import Simulation
from repro.util.errors import ConfigurationError
from repro.util.serialization import encode_message

MODEL = "double-well"
STEPS = 120


# -- Ensemble -----------------------------------------------------------------


def test_ensemble_validates_at_declaration_time():
    with pytest.raises(UnknownModelError):
        Ensemble(model="no-such-model")
    with pytest.raises(ConfigurationError):
        Ensemble(model=MODEL, n_replicas=0)
    with pytest.raises(ConfigurationError):
        Ensemble(model=MODEL, steps=0)


def test_ensemble_tasks_are_batch_compatible_replicas():
    ensemble = Ensemble(
        model=MODEL, n_replicas=4, steps=STEPS, seed=7, name="fold"
    )
    tasks = ensemble.tasks()
    assert [t.seed for t in tasks] == [7, 8, 9, 10]
    assert [t.task_id for t in tasks] == [f"fold/r{r}" for r in range(4)]
    MDEngine().run_batched(tasks)  # must not raise: replicas coalesce


def test_ensemble_commands_carry_task_payloads():
    ensemble = Ensemble(model=MODEL, n_replicas=2, steps=STEPS)
    commands = ensemble.commands("p1")
    assert [c.executable for c in commands] == ["mdrun", "mdrun"]
    assert all(c.project_id == "p1" for c in commands)
    assert [MDTask.from_payload(c.payload).seed for c in commands] == [0, 1]


# -- Project / run / RunOutcome ----------------------------------------------


def test_project_rejects_ensembles_plus_controller():
    class _Stub:
        pass

    with pytest.raises(ConfigurationError):
        Project("p", ensembles=[Ensemble(model=MODEL)], controller=_Stub())


def test_project_run_requires_work():
    with pytest.raises(ConfigurationError):
        Project("empty").run()


def test_add_ensemble_chains_and_guards():
    project = Project("p").add_ensemble(Ensemble(model=MODEL))
    assert len(project.ensembles) == 1


def test_run_outcome_results_bit_identical_to_serial_engine():
    ensemble = Ensemble(
        model=MODEL, n_replicas=4, steps=STEPS, seed=3, name="e"
    )
    # one segment per command, so frames compare against an
    # uninterrupted engine run (resume re-primes a frame otherwise)
    outcome = run(ensemble, name="facade", segment_steps=STEPS)
    assert isinstance(outcome, RunOutcome)
    assert outcome.status == "complete"
    assert "facade" in outcome.transcript

    engine = MDEngine(segment_steps=STEPS)
    results = outcome.ensemble_results(ensemble)
    assert len(results) == 4
    for task, got in zip(ensemble.tasks(), results):
        expect = engine.run(task)
        np.testing.assert_array_equal(got.frames, expect.frames)
        assert encode_message(got.checkpoint) == encode_message(
            expect.checkpoint
        )


def test_run_stacks_ensembles_by_default():
    outcome = run(
        Ensemble(model=MODEL, n_replicas=6, steps=STEPS), segment_steps=60
    )
    coalesced = outcome.obs.metrics.value(
        "repro_worker_commands_coalesced_total", worker="w0"
    )
    assert coalesced >= 6
    assert len(outcome.md_results()) == 6


# -- Simulation.configure -----------------------------------------------------


def test_simulation_configure_is_keyword_only():
    with pytest.raises(TypeError):
        Simulation.configure(MODEL)  # noqa: B026 — positional must fail


def test_simulation_configure_matches_engine_run():
    task = MDTask(
        model=MODEL, n_steps=STEPS, report_interval=40, seed=5, task_id="t"
    )
    expect = MDEngine(segment_steps=STEPS).run(task)
    simulation = Simulation.configure(
        model=MODEL, steps=STEPS, seed=5, report_interval=40
    )
    simulation.run()  # default_steps supplies the budget
    assert encode_message(
        simulation.checkpoint().to_payload()
    ) == encode_message(expect.checkpoint)


def test_simulation_run_without_steps_raises():
    simulation = Simulation.configure(model=MODEL)
    with pytest.raises(ConfigurationError):
        simulation.run()


def test_simulation_configure_unknown_names_raise():
    with pytest.raises(UnknownModelError):
        Simulation.configure(model="no-such-model")
    with pytest.raises(ConfigurationError):
        Simulation.configure(model=MODEL, integrator="no-such-integrator")


# -- model registry -----------------------------------------------------------


def test_registry_shared_by_serial_and_batched_paths():
    built = resolve_model(MODEL, {})
    assert isinstance(built, BuiltModel)
    with pytest.raises(UnknownModelError) as err:
        resolve_model("bogus", {})
    assert "bogus" in str(err.value)


def test_register_model_round_trip():
    base = resolve_model(MODEL, {})

    def factory(name, params):
        return base

    register_model("facade-test-model", factory)
    try:
        assert resolve_model("facade-test-model", {}) is base
    finally:
        from repro.md.engine import MODEL_REGISTRY

        MODEL_REGISTRY.pop("facade-test-model")


def test_make_integrator_rejects_unknown_name():
    with pytest.raises(ConfigurationError):
        make_integrator("leapfrog", timestep=0.02)


def test_public_api_importable_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import importlib

        import repro.api

        importlib.reload(repro.api)
