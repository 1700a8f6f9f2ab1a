"""Bit-identity contract of the stacked kernel.

Stacking is only allowed to change wall-clock time: every per-replica
observable — positions, velocities, trajectory frames, RNG and
thermostat state, checkpoint payloads, final energy — must be
byte-for-byte what R lone ``MDEngine.run`` calls (stacks of one) with
the same seeds produce, including across an abort / checkpoint /
restore cycle.  ``tests/test_md_golden.py`` pins the stack of one
itself; the force kernels are compared with the per-replica reference
kernels of ``tests/serial_oracle.py``.
"""

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.md import engine as md_engine
from repro.md.batched import (
    BatchedSimulation,
    make_batched_integrator,
)
from repro.md.engine import (
    BATCH_COMPATIBLE_FIELDS,
    MODEL_REGISTRY,
    MDEngine,
    MDTask,
    register_model,
    resolve_model,
)
from repro.md.integrators import make_integrator
from repro.md.models.doublewell import DoubleWellForce, TiltedDoubleWellForce
from repro.md.models.muller_brown import MullerBrownForce
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.serialization import encode_message
from repro.worker import Worker
from tests import serial_oracle

R = 8
N_STEPS = 250
MODEL = "double-well"


def make_tasks(model=MODEL, n_steps=N_STEPS, integrator="langevin", **kw):
    return [
        MDTask(
            model=model,
            n_steps=n_steps,
            report_interval=50,
            integrator=integrator,
            seed=10 + r,
            task_id=f"t{r}",
            **kw,
        )
        for r in range(R)
    ]


def checkpoint_bytes(payload):
    """Canonical bytes of a checkpoint payload (ndarray-safe compare)."""
    return encode_message(payload)


def resumed_from(tasks, partials):
    """*tasks* continuing from the checkpoints of their partial results."""
    return [
        MDTask(**{**task.__dict__, "checkpoint": partial.checkpoint})
        for task, partial in zip(tasks, partials)
    ]


def assert_results_identical(serial, batched):
    assert len(serial) == len(batched)
    for expect, got in zip(serial, batched):
        assert got.task_id == expect.task_id
        np.testing.assert_array_equal(got.frames, expect.frames)
        np.testing.assert_array_equal(got.times, expect.times)
        assert got.steps_completed == expect.steps_completed
        assert got.completed == expect.completed
        assert got.final_potential_energy == expect.final_potential_energy
        assert checkpoint_bytes(got.checkpoint) == checkpoint_bytes(
            expect.checkpoint
        )


@pytest.mark.parametrize("model", ["double-well", "muller-brown", "villin-fast"])
def test_batched_bit_identical_to_serial(model):
    engine = MDEngine(segment_steps=100)
    tasks = make_tasks(model=model)
    serial = [engine.run(task) for task in tasks]
    batched = engine.run_batched(tasks)
    assert_results_identical(serial, batched)


def test_batched_verlet_bit_identical():
    engine = MDEngine(segment_steps=100)
    tasks = make_tasks(integrator="verlet")
    serial = [engine.run(task) for task in tasks]
    batched = engine.run_batched(tasks)
    assert_results_identical(serial, batched)


@pytest.mark.parametrize("model", ["double-well", "villin-fast"])
def test_batched_nose_hoover_bit_identical(model):
    """Each replica keeps its own thermostat variable: a stack equals
    lone runs, straight through and across abort / resume (the
    checkpoints carry each replica's xi)."""
    engine = MDEngine(segment_steps=40)
    tasks = make_tasks(model=model, n_steps=120, integrator="nose-hoover")[:4]
    lone = [engine.run(task) for task in tasks]
    stacked = engine.run_batched(tasks)
    assert_results_identical(lone, stacked)
    assert len({r.checkpoint["thermostat_state"] for r in lone}) == len(tasks)

    partial = engine.run_batched(tasks, abort_after_steps=70)
    resumed = resumed_from(tasks, partial)
    final = engine.run_batched(resumed)
    assert_results_identical([engine.run(t) for t in resumed], final)
    for interrupted, straight in zip(final, lone):
        assert checkpoint_bytes(interrupted.checkpoint) == checkpoint_bytes(
            straight.checkpoint
        )


def test_batched_identity_across_checkpoint_restore():
    """Abort mid-run, resume each path from its checkpoint: still equal."""
    engine = MDEngine(segment_steps=40)
    tasks = make_tasks()

    serial_partial = [engine.run(t, abort_after_steps=90) for t in tasks]
    batched_partial = engine.run_batched(tasks, abort_after_steps=90)
    assert_results_identical(serial_partial, batched_partial)
    assert not any(r.completed for r in batched_partial)

    resumed_tasks = resumed_from(tasks, serial_partial)
    serial_final = [engine.run(t) for t in resumed_tasks]
    batched_final = engine.run_batched(resumed_tasks)
    assert_results_identical(serial_final, batched_final)
    assert all(r.completed for r in batched_final)

    # the resumed runs also equal an uninterrupted straight-through run
    straight = [engine.run(t) for t in tasks]
    for interrupted, uninterrupted in zip(serial_final, straight):
        assert checkpoint_bytes(interrupted.checkpoint) == checkpoint_bytes(
            uninterrupted.checkpoint
        )


def test_batched_rng_streams_independent_of_batch_shape():
    """Replica r's stream is a function of its seed, not the batch."""
    engine = MDEngine(segment_steps=100)
    tasks = make_tasks()
    full = engine.run_batched(tasks)
    halves = [
        engine.run_batched(tasks[:4]),
        engine.run_batched(tasks[4:]),
    ]
    assert_results_identical(full, halves[0] + halves[1])


def test_batched_early_exit_masks():
    """Replicas with unequal remaining work finish at their own targets."""
    engine = MDEngine(segment_steps=60)
    tasks = make_tasks()
    partial = engine.run_batched(tasks, abort_after_steps=100)
    resumed = resumed_from(tasks, partial)
    # one replica already finished separately: zero remaining steps
    done = MDEngine().run(resumed[0])
    resumed[0] = MDTask(**{**resumed[0].__dict__, "checkpoint": done.checkpoint})
    batched = engine.run_batched(resumed)
    assert batched[0].steps_completed == 0
    assert all(r.completed for r in batched)
    serial = [MDEngine(segment_steps=60).run(t) for t in resumed]
    assert_results_identical(serial, batched)


def test_batched_task_rejects_incompatible_members():
    tasks = make_tasks()
    tasks[3] = MDTask(**{**tasks[3].__dict__, "n_steps": N_STEPS + 1})
    with pytest.raises(ConfigurationError):
        MDEngine().run_batched(tasks)


def test_run_batched_refuses_an_empty_stack():
    with pytest.raises(ConfigurationError, match="at least one task"):
        MDEngine().run_batched([])


#: A value other than ``make_tasks``'s for every shared field.
OTHER_VALUE = {
    "model": "muller-brown",
    "n_steps": N_STEPS + 1,
    "report_interval": 25,
    "integrator": "verlet",
    "temperature": 310.0,
    "friction": 2.0,
    "timestep": 0.01,
    "model_params": {"barrier": 4.0},
}


@pytest.mark.parametrize("name", BATCH_COMPATIBLE_FIELDS)
def test_run_batched_refuses_members_differing_in_a_shared_field(name):
    tasks = make_tasks()[:2]
    assert getattr(tasks[1], name) != OTHER_VALUE[name]
    tasks[1] = MDTask(**{**tasks[1].__dict__, name: OTHER_VALUE[name]})
    with pytest.raises(ConfigurationError, match=repr(name)):
        MDEngine().run_batched(tasks)


def test_batched_simulation_checkpoints_match_serial_simulation():
    """The kernel's own checkpoints equal a lone engine run's."""
    tasks = make_tasks()[:4]
    built = resolve_model(MODEL, {})
    integrator = make_batched_integrator(
        "langevin", 0.02, 300.0, 1.0, [t.seed for t in tasks]
    )
    batched = BatchedSimulation(
        built.system,
        integrator,
        [built.state_builder(t) for t in tasks],
        report_interval=50,
    )
    batched.run_to(np.full(len(tasks), 120))
    for r, task in enumerate(tasks):
        serial = MDEngine(segment_steps=120).run(
            MDTask(**{**task.__dict__, "n_steps": 120})
        )
        assert checkpoint_bytes(
            batched.checkpoint(r).to_payload()
        ) == checkpoint_bytes(serial.checkpoint)


def off_grid_tasks(model, n_replicas):
    """900-step tasks reporting every 150 steps: a 400-step segment
    boundary falls off the report grid."""
    return [
        MDTask(
            model=model,
            n_steps=900,
            report_interval=150,
            seed=20 + r,
            task_id=f"g{r}",
        )
        for r in range(n_replicas)
    ]


@pytest.mark.parametrize("model", ["double-well", "villin-fast"])
def test_segments_resumed_off_the_report_grid_add_no_frames(model):
    """Three checkpointed 400-step segments, merged as a worker merges
    them, equal one direct run: a resumed segment records no priming
    frame at a step the report grid skips (here 400 and 800)."""
    engine = MDEngine()
    (task,) = off_grid_tasks(model, 1)
    merged, resumed, segments = None, task, 0
    while merged is None or not merged["completed"]:
        result = engine.run(resumed, abort_after_steps=400).to_payload()
        merged = Worker._merge_segment(merged, result)
        resumed = MDTask(**{**task.__dict__, "checkpoint": result["checkpoint"]})
        segments += 1
    direct = engine.run(task)
    assert segments == 3
    assert len(direct.times) == 7
    np.testing.assert_array_equal(merged["frames"], direct.frames)
    np.testing.assert_array_equal(merged["times"], direct.times)


def test_batched_segments_resumed_off_the_report_grid_add_no_frames():
    """The same on a batched R=3 stack: every replica's merged frames
    are bit-equal to its direct lone run."""
    engine = MDEngine()
    tasks = off_grid_tasks("double-well", 3)
    stack = tasks
    merged = None
    while merged is None or not all(r["completed"] for r in merged["results"]):
        results = engine.run_batched(stack, abort_after_steps=400)
        result = {"results": [r.to_payload() for r in results]}
        merged = Worker._merge_segment(merged, result)
        stack = [
            MDTask(**{**task.__dict__, "checkpoint": r.checkpoint})
            for task, r in zip(tasks, results)
        ]
    for task, got in zip(tasks, merged["results"]):
        direct = engine.run(task)
        np.testing.assert_array_equal(got["frames"], direct.frames)
        np.testing.assert_array_equal(got["times"], direct.times)


# -- the forces-only component-plane kernels, at the stack sizes they serve --


def make_villin_tasks(n_replicas):
    """villin-fast through the batched kernels whatever the stack size."""
    return make_tasks("villin-fast", n_steps=120)[:n_replicas]


@pytest.mark.parametrize("n_replicas", [1, 6])
def test_villin_resume_from_checkpoint_is_identical(n_replicas):
    """Abort, checkpoint, resume — at R=1 and at the adaptive loop's
    R=6 — equals lone runs and equals a straight-through run."""
    engine = MDEngine(segment_steps=40)
    tasks = make_villin_tasks(n_replicas)
    serial_partial = [engine.run(t, abort_after_steps=70) for t in tasks]
    batched_partial = engine.run_batched(tasks, abort_after_steps=70)
    assert_results_identical(serial_partial, batched_partial)
    assert not any(r.completed for r in batched_partial)

    resumed = resumed_from(tasks, batched_partial)
    serial_final = [engine.run(t) for t in resumed]
    batched_final = engine.run_batched(resumed)
    assert_results_identical(serial_final, batched_final)
    assert all(r.completed for r in batched_final)
    for interrupted, task in zip(batched_final, tasks):
        straight = engine.run(task)
        assert checkpoint_bytes(interrupted.checkpoint) == checkpoint_bytes(
            straight.checkpoint
        )
        assert interrupted.final_potential_energy == straight.final_potential_energy


@pytest.mark.parametrize("n_replicas", [1, 6])
def test_villin_early_exit_is_identical(n_replicas):
    """Replicas leave the stack at their own targets (the last one
    runs alone in a compacted stack of one): same bits as lone runs."""
    built = resolve_model("villin-fast", {})
    tasks = make_villin_tasks(n_replicas)
    stops = np.array([40 + 25 * r for r in range(n_replicas)])
    batched = BatchedSimulation(
        built.system,
        make_batched_integrator(
            "langevin", 0.02, 300.0, 1.0, [t.seed for t in tasks]
        ),
        [built.state_builder(t) for t in tasks],
        report_interval=tasks[0].report_interval,
    )
    batched.run_to(stops)
    energies = batched.potential_energies()
    for r, task in enumerate(tasks):
        serial = MDEngine(segment_steps=1000).run(
            MDTask(**{**task.__dict__, "n_steps": int(stops[r])})
        )
        assert checkpoint_bytes(
            batched.checkpoint(r).to_payload()
        ) == checkpoint_bytes(serial.checkpoint)
        np.testing.assert_array_equal(
            batched.trajectories[r].frames, serial.frames
        )
        # a stack's energies keep their own (sequential) summation order
        np.testing.assert_allclose(
            energies[r], serial.final_potential_energy, rtol=1e-12
        )


def test_batched_run_raises_on_non_finite_coordinates_without_reports():
    """report_interval=0 used to integrate NaNs to the end and return
    them; every span now ends with the check the report points make."""
    built = resolve_model("villin-fast", {})
    tasks = make_villin_tasks(3)
    states = [built.state_builder(t) for t in tasks]
    states[1].positions[4, 0] = np.nan
    batched = BatchedSimulation(
        built.system,
        make_batched_integrator(
            "langevin", 0.02, 300.0, 1.0, [t.seed for t in tasks]
        ),
        states,
        report_interval=0,
    )
    with pytest.raises(SimulationError, match=r"replica 1 at step 5"):
        batched.run(5)


# -- the small models: toy surfaces and exact chains as stacks ---------------

#: (model, model_params, integrator) of every small-model family.
SMALL_MODELS = [
    pytest.param("double-well", {}, "langevin", id="double-well"),
    pytest.param("double-well", {"dim": 2}, "langevin", id="double-well-2d"),
    pytest.param("double-well", {"slope": 0.8}, "langevin", id="tilted"),
    pytest.param("muller-brown", {}, "langevin", id="muller-brown"),
    pytest.param("markov-ala20", {}, "markov-chain", id="markov-ala20"),
    pytest.param("markov-mb", {}, "markov-chain", id="markov-mb"),
]


def make_small_tasks(model, params, integrator, n_replicas):
    return make_tasks(
        model, n_steps=230, integrator=integrator, model_params=params
    )[:n_replicas]


@pytest.mark.parametrize("n_replicas", [1, 2, 3, 9])
@pytest.mark.parametrize("model, params, integrator", SMALL_MODELS)
def test_small_model_stack_is_bit_identical(model, params, integrator, n_replicas):
    """Frames, times, checkpoint (PCG64 state included) and final energy
    of a stack equal ``MDEngine.run`` per task."""
    engine = MDEngine(segment_steps=100)
    tasks = make_small_tasks(model, params, integrator, n_replicas)
    serial = [engine.run(task) for task in tasks]
    batched = engine.run_batched(tasks)
    assert_results_identical(serial, batched)
    assert all(r.checkpoint["rng_state"] for r in batched)


@pytest.mark.parametrize("model, params, integrator", SMALL_MODELS)
def test_small_model_stack_compacts_identically(model, params, integrator):
    """Unequal stop steps: rows leave the stack one by one and the last
    runs in a compacted stack of one — same bits as lone runs."""
    built = resolve_model(model, params)
    tasks = make_small_tasks(model, params, integrator, 3)
    stops = np.array([40, 115, 90])
    batched = BatchedSimulation(
        built.system,
        make_batched_integrator(integrator, 0.02, 300.0, 1.0, [t.seed for t in tasks]),
        [built.state_builder(t) for t in tasks],
        report_interval=tasks[0].report_interval,
    )
    batched.run_to(stops)
    for r, task in enumerate(tasks):
        serial = MDEngine(segment_steps=1000).run(
            MDTask(**{**task.__dict__, "n_steps": int(stops[r])})
        )
        assert checkpoint_bytes(
            batched.checkpoint(r).to_payload()
        ) == checkpoint_bytes(serial.checkpoint)
        np.testing.assert_array_equal(batched.trajectories[r].frames, serial.frames)
        np.testing.assert_array_equal(batched.trajectories[r].times, serial.times)


@pytest.mark.parametrize("model, params, integrator", SMALL_MODELS)
def test_small_model_stack_resumes_identically(model, params, integrator):
    """Abort and resume from the returned checkpoints; then resume rows
    that sit at *different* step counts (their reports fall on
    different steps of one span): both equal lone runs."""
    engine = MDEngine(segment_steps=40)
    tasks = make_small_tasks(model, params, integrator, 3)
    serial_partial = [engine.run(t, abort_after_steps=70) for t in tasks]
    batched_partial = engine.run_batched(tasks, abort_after_steps=70)
    assert_results_identical(serial_partial, batched_partial)
    assert not any(r.completed for r in batched_partial)

    resumed = resumed_from(tasks, batched_partial)
    serial_final = [engine.run(t) for t in resumed]
    batched_final = engine.run_batched(resumed)
    assert_results_identical(serial_final, batched_final)
    for interrupted, task in zip(batched_final, tasks):
        assert checkpoint_bytes(interrupted.checkpoint) == checkpoint_bytes(
            engine.run(task).checkpoint
        )

    staggered = resumed_from(
        tasks,
        [engine.run(t, abort_after_steps=30 + 45 * r) for r, t in enumerate(tasks)],
    )
    assert_results_identical(
        [engine.run(t) for t in staggered],
        engine.run_batched(staggered),
    )


TOY_FORCES = [
    pytest.param(DoubleWellForce(5.0, 1.3), 1, id="double-well"),
    pytest.param(DoubleWellForce(4.0, 0.7), 2, id="double-well-2d"),
    pytest.param(TiltedDoubleWellForce(4.0, 1.1, 0.8), 1, id="tilted"),
    pytest.param(MullerBrownForce(0.05), 2, id="muller-brown"),
]


@pytest.mark.parametrize("n_replicas", [1, 2, 3, 9])
@pytest.mark.parametrize("force, dim", TOY_FORCES)
def test_toy_compute_batch_equals_serial_forces(force, dim, n_replicas):
    """Force planes are the per-replica reference bits, and skipping the
    energy never changes one."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        stack = rng.normal(scale=0.9, size=(n_replicas, 1, dim))
        planes = np.ascontiguousarray(stack.transpose(2, 1, 0))
        energies, forces = force.compute_batch(planes)
        none, forces_only = force.compute_batch(planes, need_energy=False)
        assert none is None
        np.testing.assert_array_equal(forces_only, forces)
        for r in range(n_replicas):
            energy, serial = serial_oracle.energy_forces(force, stack[r])
            np.testing.assert_array_equal(forces[:, :, r].T, serial)
            np.testing.assert_allclose(energies[r], energy, rtol=1e-13)


@pytest.mark.parametrize("n_replicas", [1, 2, 3, 9])
def test_exp_over_a_plane_equals_exp_over_the_serial_row(n_replicas):
    """The one transcendental of the toy kernels: ``np.exp`` of a
    contiguous ``(4, R)`` plane gives, element for element, what it
    gives for each replica's contiguous ``(1, 4)`` row."""
    rng = np.random.default_rng(11)
    rows = rng.uniform(-40.0, 3.0, size=(n_replicas, 1, 4))
    plane = np.ascontiguousarray(rows[:, 0, :].T)
    assert plane.flags.c_contiguous and plane.shape == (4, n_replicas)
    batched = np.exp(plane)
    for r in range(n_replicas):
        np.testing.assert_array_equal(batched[:, r], np.exp(rows[r])[0])


@pytest.mark.parametrize("n_replicas", [1, 3])
@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
def test_every_registered_force_term_vectorises(model, n_replicas):
    """Every registered model builds (its ``System`` checked each term
    against the Force protocol), and every term's ``compute_batch``
    returns force planes of the stack's shape."""
    built = resolve_model(model, {})
    states = [
        built.state_builder(MDTask(model=model, n_steps=1, seed=r))
        for r in range(n_replicas)
    ]
    stack = np.stack([state.positions for state in states])
    planes = np.ascontiguousarray(stack.transpose(2, 1, 0))
    for force in built.system.forces:
        energies, forces = force.compute_batch(
            planes, replica_ids=np.arange(n_replicas), need_energy=False
        )
        assert energies is None, type(force).__name__
        assert forces.shape == planes.shape, type(force).__name__


def test_every_integrator_has_a_batched_form():
    for name in ("langevin", "verlet", "nose-hoover", "markov-chain"):
        lone = make_integrator(name, timestep=0.02)
        stack = make_batched_integrator(name, 0.02, 300.0, 1.0, [0, 1])
        assert type(lone) is type(stack)
    with pytest.raises(ConfigurationError, match="unknown integrator"):
        make_batched_integrator("leapfrog", 0.02, 300.0, 1.0, [0, 1])


# -- block noise: every abort offset, pinned to the parent commit's bits ------

ABORT_GOLDEN = Path(__file__).parent / "data" / "abort_offsets.json"
#: (model, model_params) of the abort sweep: a 19-bead chain, one 1-D
#: particle (its noise block spans a whole chunk) and a periodic fluid.
ABORT_MODELS = {
    "villin-fast": {},
    "double-well": {},
    "lj-fluid": {"n_particles": 27},
}
ABORT_REPORT = 10


def _abort_digests():
    """sha256 of the positions, velocities and RNG state that an R = 3
    Langevin stack checkpoints when aborted after 1 .. report_interval
    + 1 steps (engine segments of 7 steps, so chunks end at reports,
    segments and aborts alike).  ``tests/data/abort_offsets.json`` is
    this dict as computed by the commit before noise was drawn in
    blocks (``python -c "import json, tests.test_batched_identity as t;
    print(json.dumps(t._abort_digests(), indent=0, sort_keys=True))"``)."""
    out = {}
    for model, params in ABORT_MODELS.items():
        tasks = [
            MDTask(
                model=model,
                n_steps=40,
                report_interval=ABORT_REPORT,
                seed=30 + r,
                model_params=params,
                task_id=f"a{r}",
            )
            for r in range(3)
        ]
        for offset in range(1, ABORT_REPORT + 2):
            result = MDEngine(segment_steps=7).run_batched(tasks, abort_after_steps=offset)
            digest = hashlib.sha256()
            for replica in result:
                checkpoint = replica.checkpoint
                digest.update(np.asarray(checkpoint["positions"]).tobytes())
                digest.update(np.asarray(checkpoint["velocities"]).tobytes())
                digest.update(
                    json.dumps(checkpoint["rng_state"], sort_keys=True).encode()
                )
            out[f"{model}/{offset}"] = digest.hexdigest()
    return out


def test_abort_at_every_offset_keeps_the_parent_commits_bits():
    """Noise drawn ahead in blocks never runs past a chunk: aborting at
    any step leaves each replica's state and PCG64 stream exactly where
    drawing one step at a time left them."""
    golden = json.loads(ABORT_GOLDEN.read_text())
    got = _abort_digests()
    assert sorted(got) == sorted(golden)
    assert {k: v for k, v in got.items() if golden[k] != v} == {}


def test_a_restore_mid_run_replays_the_same_steps():
    """Restoring earlier checkpoints into a running stack and stepping on
    replays the same bits: the kick a Langevin step keeps for the next
    one, and its noise block, belong to the arrays it last stepped."""
    built = resolve_model("villin-fast", {})
    tasks = make_villin_tasks(3)
    simulation = BatchedSimulation(
        built.system,
        make_batched_integrator(
            "langevin", 0.02, 300.0, 1.0, [t.seed for t in tasks]
        ),
        [built.state_builder(t) for t in tasks],
        report_interval=10,
    )
    simulation.run_to(np.full(3, 15))
    saved = [simulation.checkpoint(r) for r in range(3)]
    simulation.run_to(np.full(3, 40))
    first = [checkpoint_bytes(simulation.checkpoint(r).to_payload()) for r in range(3)]
    for replica, checkpoint in enumerate(saved):
        simulation.restore(replica, checkpoint)
    simulation.run_to(np.full(3, 40))
    assert [
        checkpoint_bytes(simulation.checkpoint(r).to_payload()) for r in range(3)
    ] == first


# -- the model cache ----------------------------------------------------------


@pytest.fixture
def empty_model_cache(monkeypatch):
    monkeypatch.setattr(md_engine, "_BUILT", OrderedDict())


CACHED_MODELS = [
    pytest.param("villin-fast", {}, id="villin-fast"),
    pytest.param("lj-fluid", {"n_particles": 27}, id="lj-fluid-all-pairs"),
    pytest.param(
        "lj-fluid", {"n_particles": 27, "neighborlist": "verlet"}, id="lj-fluid-verlet"
    ),
]


@pytest.mark.parametrize("model, params", CACHED_MODELS)
def test_a_run_after_another_equals_the_run_alone(
    model, params, empty_model_cache, monkeypatch
):
    """B after A on one cached system is B on a fresh build, byte for
    byte — the plan's scratch and the per-replica neighbour lists keep
    nothing of A."""

    def tasks(seed, n_replicas):
        return [
            MDTask(
                model=model,
                n_steps=60,
                report_interval=20,
                seed=seed + r,
                model_params=params,
                task_id=f"t{seed + r}",
            )
            for r in range(n_replicas)
        ]

    engine = MDEngine(segment_steps=25)
    built = resolve_model(model, params)
    engine.run_batched(tasks(5, 3))
    assert resolve_model(model, params) is built
    after_a = engine.run_batched(tasks(50, 2))
    monkeypatch.setattr(md_engine, "_BUILT", OrderedDict())
    alone = engine.run_batched(tasks(50, 2))
    assert resolve_model(model, params) is not built
    assert encode_message([r.to_payload() for r in after_a]) == encode_message(
        [r.to_payload() for r in alone]
    )


def test_the_model_cache_builds_afresh_on_a_registry_change(
    empty_model_cache, monkeypatch
):
    """Keyed by builder, name and parameters: a direct
    ``MODEL_REGISTRY`` edit and a ``register_model`` override each
    build afresh, and the cache holds a small constant number."""
    original = MODEL_REGISTRY["double-well"]
    first = resolve_model("double-well", {})
    assert resolve_model("double-well", None) is first
    assert resolve_model("double-well", {"barrier": 4.0}) is not first

    calls = []

    def edited(model, params):
        calls.append(model)
        return original(model, params)

    monkeypatch.setitem(MODEL_REGISTRY, "double-well", edited)
    second = resolve_model("double-well", {})
    assert second is not first and calls == ["double-well"]
    assert resolve_model("double-well", {}) is second and len(calls) == 1

    register_model("double-well", lambda model, params: original(model, params))
    assert resolve_model("double-well", {}) not in (first, second)

    for barrier in range(1, 3 * md_engine._BUILT_MODELS_KEPT):
        resolve_model("double-well", {"barrier": float(barrier)})
    assert len(md_engine._BUILT) == md_engine._BUILT_MODELS_KEPT
