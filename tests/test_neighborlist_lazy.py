"""Lazy Verlet neighbour lists: bit-exactness, thresholds, sharing.

The contract under test (module docstring of
:mod:`repro.md.neighborlist`): a cached candidate list reused while no
atom has moved more than ``skin/2`` produces forces *bit-identical* to
rebuilding every step — and to ``AllPairs`` — because candidates come
out in canonical order and every kernel filters ``r < cutoff`` before
accumulating.
"""

import numpy as np
import pytest

from repro.md.engine import MDEngine, MDTask
from repro.md.forcefield.nonbonded import LennardJonesForce
from repro.md.models.lj_fluid import lj_fluid_state, lj_fluid_system
from repro.md.neighborlist import AllPairs, SharedNeighborList, VerletList
from repro.util.errors import ConfigurationError

MODEL_PARAMS = {"n_particles": 27}
VERLET_PARAMS = {"n_particles": 27, "neighborlist": "verlet", "skin": 0.12}


def _fluid(neighborlist="all-pairs", skin=0.12):
    system, box = lj_fluid_system(
        n_particles=27, neighborlist=neighborlist, skin=skin
    )
    return system, box


def _positions(box, rng):
    system, _ = _fluid()
    return lj_fluid_state(system, box, rng=rng).positions


def test_verlet_matches_allpairs_bitwise():
    ap_system, box = _fluid("all-pairs")
    vl_system, _ = _fluid("verlet")
    positions = _positions(box, rng=3)
    e_ap, f_ap = ap_system.energy_forces(positions)
    e_vl, f_vl = vl_system.energy_forces(positions)
    assert e_ap == e_vl
    assert np.array_equal(f_ap, f_vl)


def test_lazy_reuse_is_bit_identical_along_a_walk():
    """Property: lazy reuse == rebuild-every-step, over a random walk.

    Displacements are kept under ``skin/2`` so the lazy list actually
    reuses its cache (asserted via the build counter), while the
    ``skin=0`` twin rebuilds on any movement — the strictest reference.
    """
    lazy_system, box = _fluid("verlet", skin=0.12)
    eager_system, _ = _fluid("verlet", skin=0.0)
    lazy_provider = lazy_system.forces[0].pair_provider
    eager_provider = eager_system.forces[0].pair_provider

    rng = np.random.default_rng(11)
    positions = _positions(box, rng=5)
    n_steps = 12
    for _ in range(n_steps):
        positions = positions + rng.normal(scale=0.004, size=positions.shape)
        e_lazy, f_lazy = lazy_system.energy_forces(positions)
        e_eager, f_eager = eager_system.energy_forces(positions)
        assert e_lazy == e_eager
        assert np.array_equal(f_lazy, f_eager)

    assert eager_provider.n_builds == n_steps
    assert lazy_provider.n_builds < n_steps
    assert lazy_provider.n_reuses > 0


def test_crossing_the_skin_threshold_triggers_a_rebuild():
    nl = VerletList(cutoff=1.0, skin=0.4)
    positions = np.array([[0.0, 0, 0], [0.5, 0, 0], [3.0, 0, 0]])
    nl.pairs(positions)
    assert (nl.n_builds, nl.n_reuses) == (1, 0)

    nudged = positions.copy()
    nudged[2, 0] += 0.19  # below skin/2 = 0.2: cache stays valid
    nl.pairs(nudged)
    assert (nl.n_builds, nl.n_reuses) == (1, 1)

    nudged[2, 0] = positions[2, 0] + 0.21  # past skin/2: must rebuild
    nl.pairs(nudged)
    assert (nl.n_builds, nl.n_reuses) == (2, 1)


def test_skin_zero_rebuilds_on_any_movement():
    nl = VerletList(cutoff=1.0, skin=0.0)
    positions = np.zeros((2, 3))
    positions[1, 0] = 0.8
    nl.pairs(positions)
    nl.pairs(positions + 1e-9)
    assert nl.n_builds == 2


def test_invalidate_drops_the_cache():
    nl = VerletList(cutoff=1.0, skin=0.5)
    positions = np.array([[0.0, 0, 0], [0.9, 0, 0]])
    nl.pairs(positions)
    nl.invalidate()
    nl.pairs(positions)
    assert nl.n_builds == 2


def test_shared_list_keeps_independent_per_replica_caches():
    shared = SharedNeighborList(cutoff=1.0, skin=0.4)
    base = np.array([[0.0, 0, 0], [0.7, 0, 0], [2.5, 0, 0]])
    shared.replica_pairs(0, base)
    shared.replica_pairs(7, base + 0.01)
    assert shared.n_builds == 2

    # Reuse replica 0's cache; replica 7 untouched.
    shared.replica_pairs(0, base + 0.05)
    assert (shared.n_builds, shared.n_reuses) == (2, 1)

    # Only the replica that moved past skin/2 rebuilds.
    moved = base.copy()
    moved[2, 0] += 0.5
    shared.replica_pairs(7, moved)
    assert shared.n_builds == 3

    # The serial-path list is yet another independent cache.
    shared.pairs(base)
    assert shared.n_builds == 4


def test_shared_list_replica_ids_survive_gaps():
    """Replica keys are ids, not row indices: id 5 without ids 0-4."""
    shared = SharedNeighborList(cutoff=1.0, skin=0.3)
    positions = np.array([[0.0, 0, 0], [0.6, 0, 0]])
    i, j = shared.replica_pairs(5, positions)
    assert len(i) == 1 and (i[0], j[0]) == (0, 1)
    assert shared.n_builds == 1


def test_unknown_neighborlist_name_rejected():
    with pytest.raises(ConfigurationError):
        lj_fluid_system(n_particles=27, neighborlist="octree")


def test_engine_verlet_run_matches_allpairs_bitwise():
    """Full engine runs: lazy verlet frames == all-pairs frames."""
    def _task(params):
        return MDTask(
            model="lj-fluid",
            n_steps=120,
            report_interval=20,
            seed=9,
            model_params=params,
            task_id="nl",
        )

    engine = MDEngine()
    reference = engine.run(_task(MODEL_PARAMS))
    lazy = engine.run(_task(VERLET_PARAMS))
    assert np.array_equal(reference.frames, lazy.frames)
    assert np.array_equal(
        np.asarray(reference.checkpoint["positions"]),
        np.asarray(lazy.checkpoint["positions"]),
    )


def test_batched_verlet_matches_serial_bitwise():
    """The shared manager under the batched kernel == serial replicas."""
    tasks = [
        MDTask(
            model="lj-fluid",
            n_steps=80,
            report_interval=20,
            seed=20 + r,
            model_params=VERLET_PARAMS,
            task_id=f"nl/r{r}",
        )
        for r in range(4)
    ]
    engine = MDEngine()
    serial = [engine.run(task) for task in tasks]
    batched = engine.run_batched(tasks)
    for serial_result, batched_result in zip(serial, batched):
        assert np.array_equal(serial_result.frames, batched_result.frames)
