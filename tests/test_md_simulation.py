"""Tests for the simulation driver, trajectories, checkpointing, engine."""

import numpy as np
import pytest

from repro.md import (
    Checkpoint,
    LangevinIntegrator,
    MDEngine,
    MDResult,
    MDTask,
    NoseHooverIntegrator,
    Simulation,
    Trajectory,
)
from repro.md.models.villin import build_villin
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.serialization import decode_message, encode_message


@pytest.fixture(scope="module")
def villin_fast():
    return build_villin("fast")


def _make_sim(model, seed=0, report=50):
    state = model.native_state(rng=seed, temperature=300.0)
    return Simulation(
        model.system,
        LangevinIntegrator(0.02, 300.0, rng=seed + 100),
        state,
        report_interval=report,
    )


def test_simulation_records_frames(villin_fast):
    sim = _make_sim(villin_fast)
    sim.run(500)
    # initial frame + every 50 steps
    assert len(sim.trajectory) == 11
    assert sim.trajectory.times[0] == 0.0
    assert sim.trajectory.times[-1] == pytest.approx(500 * 0.02)


def test_simulation_negative_steps_rejected(villin_fast):
    sim = _make_sim(villin_fast)
    with pytest.raises(ConfigurationError):
        sim.run(-1)


@pytest.mark.parametrize("report", [0, 50])
def test_simulation_raises_on_non_finite_coordinates(villin_fast, report):
    """A blown-up run must not return NaNs: the check made at report
    points is made once more at the end of run(), so report_interval=0
    (or a blow-up after the last report) is caught too."""
    sim = _make_sim(villin_fast, report=report)
    sim.state.positions[3, 1] = np.nan
    with pytest.raises(SimulationError, match="non-finite coordinates at step 7"):
        sim.run(7)


def test_simulation_shape_mismatch_rejected(villin_fast):
    from repro.md.system import State

    bad_state = State(np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        Simulation(villin_fast.system, LangevinIntegrator(0.02, 300.0), bad_state)


def test_checkpoint_resume_bitwise_for_deterministic_integrator(villin_fast):
    """Nosé-Hoover is deterministic: split run == continuous run exactly."""
    model = villin_fast

    def fresh_sim():
        state = model.native_state(rng=1, temperature=300.0)
        return Simulation(
            model.system, NoseHooverIntegrator(0.01, 300.0), state
        )

    continuous = fresh_sim()
    continuous.run(400)

    split = fresh_sim()
    split.run(150)
    chk = split.checkpoint()
    resumed = fresh_sim()
    resumed.restore(chk)
    resumed.run(250)

    np.testing.assert_allclose(
        resumed.state.positions, continuous.state.positions, atol=1e-10
    )
    assert resumed.state.step == continuous.state.step


def test_checkpoint_payload_roundtrip(villin_fast):
    sim = _make_sim(villin_fast)
    sim.run(100)
    chk = sim.checkpoint()
    payload = decode_message(encode_message(chk.to_payload()))
    restored = Checkpoint.from_payload(payload)
    np.testing.assert_array_equal(restored.positions, chk.positions)
    np.testing.assert_array_equal(restored.velocities, chk.velocities)
    assert restored.step == chk.step
    assert restored.time == chk.time


def test_restore_rejects_wrong_geometry(villin_fast):
    sim = _make_sim(villin_fast)
    bad = Checkpoint(
        positions=np.zeros((3, 3)),
        velocities=np.zeros((3, 3)),
        time=0.0,
        step=0,
    )
    with pytest.raises(ConfigurationError):
        sim.restore(bad)


def test_trajectory_append_and_frames():
    traj = Trajectory()
    for k in range(5):
        traj.append(np.full((2, 3), float(k)), time=k * 1.0)
    assert len(traj) == 5
    assert traj.frames.shape == (5, 2, 3)
    np.testing.assert_array_equal(traj.frames[3], np.full((2, 3), 3.0))


def test_trajectory_frames_are_copies():
    traj = Trajectory()
    pos = np.zeros((2, 3))
    traj.append(pos, 0.0)
    pos[0, 0] = 99.0
    assert traj.frames[0, 0, 0] == 0.0


def test_trajectory_extend_time_ordering():
    a = Trajectory()
    a.append(np.zeros((1, 3)), 0.0)
    a.append(np.zeros((1, 3)), 1.0)
    b = Trajectory()
    b.append(np.ones((1, 3)), 2.0)
    a.extend(b)
    assert len(a) == 3
    bad = Trajectory()
    bad.append(np.ones((1, 3)), 0.5)
    with pytest.raises(ConfigurationError):
        a.extend(bad)


def test_trajectory_subsample():
    traj = Trajectory(frames=np.random.rand(10, 2, 3))
    sub = traj.subsample(3)
    assert len(sub) == 4  # indices 0,3,6,9
    with pytest.raises(ConfigurationError):
        traj.subsample(0)


def test_engine_runs_task_to_completion():
    engine = MDEngine(segment_steps=200)
    task = MDTask(model="villin-fast", n_steps=600, report_interval=100, seed=3)
    result = engine.run(task)
    assert result.completed
    assert result.steps_completed == 600
    assert result.frames.shape[0] == 7  # t=0 plus 6 reports
    assert np.isfinite(result.final_potential_energy)


def test_engine_task_payload_roundtrip():
    task = MDTask(
        model="villin-fast",
        n_steps=100,
        seed=5,
        temperature=320.0,
        initial_positions=np.random.rand(19, 3),
        task_id="gen0_r1",
    )
    payload = decode_message(encode_message(task.to_payload()))
    restored = MDTask.from_payload(payload)
    assert restored.model == task.model
    assert restored.task_id == "gen0_r1"
    assert restored.temperature == 320.0
    np.testing.assert_allclose(restored.initial_positions, task.initial_positions)


def test_engine_result_payload_roundtrip():
    engine = MDEngine(segment_steps=100)
    result = engine.run(MDTask(model="muller-brown", n_steps=200, seed=1))
    payload = decode_message(encode_message(result.to_payload()))
    restored = MDResult.from_payload(payload)
    np.testing.assert_allclose(restored.frames, result.frames)
    assert restored.completed == result.completed


def test_engine_abort_and_resume_completes_task():
    """A command interrupted mid-run resumes from its checkpoint."""
    engine = MDEngine(segment_steps=100)
    task = MDTask(model="villin-fast", n_steps=500, seed=2, task_id="t")
    partial = engine.run(task, abort_after_steps=200)
    assert not partial.completed
    assert partial.steps_completed == 200

    resumed_task = MDTask.from_payload(task.to_payload())
    resumed_task.checkpoint = partial.checkpoint
    final = engine.run(resumed_task)
    assert final.completed
    assert final.steps_completed == 300
    assert final.checkpoint["step"] == 500


def test_engine_resume_matches_continuous_for_deterministic_integrator():
    def task_with(checkpoint=None, n_steps=400):
        return MDTask(
            model="villin-fast",
            n_steps=n_steps,
            integrator="nose-hoover",
            timestep=0.01,
            seed=4,
            checkpoint=checkpoint,
        )

    engine = MDEngine(segment_steps=100)
    continuous = engine.run(task_with())
    partial = engine.run(task_with(), abort_after_steps=200)
    final = engine.run(task_with(checkpoint=partial.checkpoint))
    np.testing.assert_allclose(
        final.checkpoint["positions"],
        continuous.checkpoint["positions"],
        atol=1e-10,
    )


def test_engine_unknown_model_rejected():
    engine = MDEngine()
    with pytest.raises(ConfigurationError):
        engine.run(MDTask(model="nonexistent", n_steps=10))


def test_engine_unknown_integrator_rejected():
    engine = MDEngine()
    with pytest.raises(ConfigurationError):
        engine.run(MDTask(model="villin-fast", n_steps=10, integrator="euler"))


def test_engine_all_registered_models_run():
    engine = MDEngine(segment_steps=50)
    for model in ("villin-fast", "muller-brown", "double-well"):
        result = engine.run(MDTask(model=model, n_steps=100, seed=0))
        assert result.completed, model


def test_engine_does_not_advance_the_callers_start_array():
    """Sibling tasks of one generation share a start array; the engine
    integrates in place, so it must copy on entry — each run equals its
    solo run and the caller's coordinates are untouched."""
    start = build_villin("fast").native_state(rng=0, temperature=300.0).positions
    shared = start.copy()

    def task(seed, positions):
        return MDTask(
            model="villin-fast",
            n_steps=120,
            report_interval=40,
            seed=seed,
            initial_positions=positions,
        )

    engine = MDEngine(segment_steps=50)
    together = [engine.run(task(seed, shared)) for seed in (1, 2)]
    assert shared.tobytes() == start.tobytes()
    for seed, result in zip((1, 2), together):
        solo = engine.run(task(seed, start.copy()))
        assert result.frames.tobytes() == solo.frames.tobytes()
        assert encode_message(result.checkpoint) == encode_message(solo.checkpoint)
