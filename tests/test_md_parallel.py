"""Tests for the simulated domain decomposition (the MPI level)."""

import numpy as np
import pytest

from repro.md.models.villin import build_villin
from repro.md.parallel import (
    BYTES_PER_VECTOR,
    DomainDecomposition,
    slab_assignment,
)
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream


@pytest.fixture(scope="module")
def villin():
    return build_villin("fast")


def test_slab_assignment_balanced():
    rng = RandomStream(0)
    positions = rng.normal(size=(100, 3))
    owner = slab_assignment(positions, 4)
    counts = np.bincount(owner, minlength=4)
    assert counts.tolist() == [25, 25, 25, 25]


def test_slab_assignment_spatial_coherence():
    rng = RandomStream(1)
    positions = rng.normal(size=(60, 3))
    owner = slab_assignment(positions, 3, axis=0)
    # slabs are ordered along the axis: every atom of rank 0 sits left
    # of every atom of rank 2
    assert positions[owner == 0, 0].max() <= positions[owner == 2, 0].min()


def test_slab_assignment_validation():
    with pytest.raises(ConfigurationError):
        slab_assignment(np.zeros((5, 3)), 0)
    with pytest.raises(ConfigurationError):
        slab_assignment(np.zeros((2, 3)), 5)


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
def test_decomposed_forces_match_serial(villin, n_ranks):
    """The decomposed computation equals the serial one exactly."""
    rng = RandomStream(2)
    positions = villin.native + rng.normal(scale=0.05, size=villin.native.shape)
    e_serial, f_serial = villin.system.energy_forces(positions)
    dd = DomainDecomposition(villin.system, positions, n_ranks=n_ranks)
    e_dd, f_dd, stats = dd.compute_forces(positions)
    assert e_dd == pytest.approx(e_serial, rel=1e-12)
    np.testing.assert_allclose(f_dd, f_serial, atol=1e-10)
    assert stats.n_ranks == n_ranks


def test_single_rank_has_no_communication(villin):
    dd = DomainDecomposition(villin.system, villin.native, n_ranks=1)
    _, _, stats = dd.compute_forces(villin.native)
    assert stats.total_bytes_per_step == 0
    assert max(stats.halo_atoms_per_rank) == 0


def test_more_ranks_more_communication(villin):
    """Halo traffic grows with rank count (smaller slabs, same cutoff)."""
    vol = []
    for n_ranks in (2, 4, 8):
        dd = DomainDecomposition(villin.system, villin.native, n_ranks=n_ranks)
        _, _, stats = dd.compute_forces(villin.native)
        vol.append(stats.total_bytes_per_step)
    assert vol[0] < vol[-1]


def test_comm_stats_bytes_formula(villin):
    dd = DomainDecomposition(villin.system, villin.native, n_ranks=3)
    _, _, stats = dd.compute_forces(villin.native)
    assert stats.total_bytes_per_step == BYTES_PER_VECTOR * (
        sum(stats.halo_atoms_per_rank) + sum(stats.export_atoms_per_rank)
    )


def test_load_balance_reasonable(villin):
    dd = DomainDecomposition(villin.system, villin.native, n_ranks=3)
    balance = dd.load_balance()
    assert balance.shape == (3,)
    assert balance.mean() == pytest.approx(1.0)
    assert balance.max() < 2.5  # no rank holds the whole system


def test_decomposition_validates_positions(villin):
    with pytest.raises(ConfigurationError):
        DomainDecomposition(villin.system, np.zeros((3, 3)), n_ranks=2)


def test_decomposed_dynamics_track_serial(villin):
    """A short NVE run under the decomposed engine matches serial."""
    from repro.md import VelocityVerletIntegrator, Simulation
    from repro.md.system import State, System

    dd = DomainDecomposition(villin.system, villin.native, n_ranks=3)

    class DecomposedForce:
        """The decomposition as one force term, replica by replica."""

        def compute_batch(self, planes, replica_ids=None, need_energy=True):
            energies = np.empty(planes.shape[2])
            forces = np.empty(planes.shape)
            for r in range(planes.shape[2]):
                positions = np.ascontiguousarray(planes[:, :, r].T)
                energies[r], f, _ = dd.compute_forces(positions)
                forces[:, :, r] = f.T
            return energies, forces

    def run(system_like):
        state = State(villin.native.copy(), np.zeros_like(villin.native))
        sim = Simulation(system_like, VelocityVerletIntegrator(0.005), state)
        sim.run(100)
        return sim.state.positions

    serial = run(villin.system)
    parallel = run(System(villin.system.masses, forces=[DecomposedForce()]))
    np.testing.assert_allclose(parallel, serial, atol=1e-9)
