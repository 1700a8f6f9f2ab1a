"""Force-field correctness: analytic vs numerical gradients, invariances.

Every term is evaluated through its one kernel, ``compute_batch``: a
single configuration as a stack of one (:func:`energy_forces` below),
and the gradient check also column by column of an R = 3 stack.
"""

import numpy as np
import pytest

from repro.fep.sampling import _WindowForce
from repro.fep.systems import HarmonicWindow
from repro.md.forcefield.base import (
    composite_energy_forces,
    composite_energy_forces_batch,
    numerical_forces,
)
from repro.md.forcefield.bonded import (
    HarmonicAngleForce,
    HarmonicBondForce,
    PeriodicDihedralForce,
)
from repro.md.forcefield.go_model import GoContactForce
from repro.md.forcefield.nonbonded import (
    ExcludedVolumeForce,
    LennardJonesForce,
    ReactionFieldElectrostatics,
)
from repro.md.models.doublewell import DoubleWellForce, TiltedDoubleWellForce
from repro.md.models.muller_brown import MINIMA, MullerBrownForce
from repro.md.models.villin import build_villin
from repro.md.neighborlist import AllPairs, VerletList
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream


def energy_forces(force, positions):
    """*force* at one ``(N, dim)`` configuration: a stack of one."""
    return composite_energy_forces([force], positions)


@pytest.fixture(scope="module")
def perturbed_native():
    model = build_villin("fast")
    rng = RandomStream(3)
    return model, model.native + rng.normal(scale=0.05, size=model.native.shape)


def test_all_villin_terms_match_numerical_gradient(perturbed_native):
    model, pos = perturbed_native
    for force in model.system.forces:
        _, analytic = energy_forces(force, pos)
        numerical = numerical_forces(force, pos)
        scale = max(np.abs(numerical).max(), 1e-9)
        assert np.abs(analytic - numerical).max() / scale < 1e-5, type(force).__name__


def test_bond_force_zero_at_equilibrium():
    force = HarmonicBondForce([[0, 1]], [1.0], [100.0])
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    energy, forces = energy_forces(force, pos)
    assert energy == pytest.approx(0.0)
    np.testing.assert_allclose(forces, 0.0, atol=1e-12)


def test_bond_force_restoring_direction():
    force = HarmonicBondForce([[0, 1]], [1.0], [100.0])
    pos = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])  # stretched
    energy, forces = energy_forces(force, pos)
    assert energy == pytest.approx(0.5 * 100.0 * 0.25)
    assert forces[1, 0] < 0  # pulls atom 1 back
    assert forces[0, 0] > 0


def test_bond_force_misaligned_arrays_rejected():
    with pytest.raises(ConfigurationError):
        HarmonicBondForce([[0, 1]], [1.0, 2.0], [100.0])


def test_angle_force_zero_at_equilibrium():
    theta0 = np.deg2rad(90.0)
    force = HarmonicAngleForce([[0, 1, 2]], [theta0], [50.0])
    pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    energy, forces = energy_forces(force, pos)
    assert energy == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(forces, 0.0, atol=1e-8)


def test_angle_force_energy_value():
    # 90 degrees vs equilibrium 60 degrees: E = 0.5 k (pi/6)^2
    force = HarmonicAngleForce([[0, 1, 2]], [np.deg2rad(60.0)], [50.0])
    pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    energy, _ = energy_forces(force, pos)
    assert energy == pytest.approx(0.5 * 50.0 * (np.pi / 6) ** 2, rel=1e-6)


def test_dihedral_angles_known_geometry():
    # trans (phi = pi) configuration
    pos = np.array(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, -1.0, 0.0]]
    )
    quads = np.array([[0, 1, 2, 3]])
    phi = PeriodicDihedralForce.dihedral_angles(pos, quads)
    assert abs(abs(phi[0]) - np.pi) < 1e-10


def test_dihedral_cis_geometry():
    pos = np.array(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    )
    quads = np.array([[0, 1, 2, 3]])
    phi = PeriodicDihedralForce.dihedral_angles(pos, quads)
    assert abs(phi[0]) < 1e-10


def test_dihedral_force_minimum_at_native_phase():
    rng = RandomStream(11)
    pos = rng.normal(size=(4, 3))
    quads = np.array([[0, 1, 2, 3]])
    phi_native = PeriodicDihedralForce.dihedral_angles(pos, quads)
    force = PeriodicDihedralForce(quads, phi_native - np.pi, [3.0], [1])
    energy, forces = energy_forces(force, pos)
    assert energy == pytest.approx(0.0, abs=1e-9)  # k(1+cos(pi)) = 0
    np.testing.assert_allclose(forces, 0.0, atol=1e-7)


def test_lj_force_minimum_at_sigma_pow():
    # LJ minimum at r = 2^(1/6) sigma
    provider = AllPairs(2)
    force = LennardJonesForce(provider, sigma=0.3, epsilon=1.0, cutoff=2.0)
    r_min = 0.3 * 2 ** (1 / 6)
    pos = np.array([[0.0, 0.0, 0.0], [r_min, 0.0, 0.0]])
    _, forces = energy_forces(force, pos)
    np.testing.assert_allclose(forces, 0.0, atol=1e-9)


def test_lj_energy_shifted_to_zero_at_cutoff():
    provider = AllPairs(2)
    force = LennardJonesForce(provider, sigma=0.3, epsilon=1.0, cutoff=1.0)
    pos = np.array([[0.0, 0.0, 0.0], [0.999999, 0.0, 0.0]])
    energy, _ = energy_forces(force, pos)
    assert energy == pytest.approx(0.0, abs=1e-4)


def test_lj_numerical_gradient():
    rng = RandomStream(5)
    pos = rng.uniform(0, 1.0, size=(6, 3))
    force = LennardJonesForce(AllPairs(6), sigma=0.25, epsilon=0.8, cutoff=5.0)
    _, analytic = energy_forces(force, pos)
    numerical = numerical_forces(force, pos)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-4, atol=1e-5)


def test_lj_lorentz_berthelot_mixing():
    sigma = np.array([0.2, 0.4])
    eps = np.array([1.0, 4.0])
    force = LennardJonesForce(AllPairs(2), sigma=sigma, epsilon=eps, cutoff=10.0)
    # mixed sigma = 0.3, mixed eps = 2.0; at r=0.3 energy = 4*2*(1-1)-shift
    pos = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
    energy, _ = energy_forces(force, pos)
    sc6 = (0.3 / 10.0) ** 6
    shift = 4 * 2.0 * (sc6 * sc6 - sc6)
    assert energy == pytest.approx(0.0 - shift, abs=1e-9)


def test_reaction_field_opposite_charges_attract():
    charges = np.array([1.0, -1.0])
    force = ReactionFieldElectrostatics(AllPairs(2), charges, cutoff=2.0)
    pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    energy, forces = energy_forces(force, pos)
    assert energy < 0
    assert forces[1, 0] < 0  # pulled toward atom 0


def test_reaction_field_energy_zero_at_cutoff():
    charges = np.array([1.0, -1.0])
    force = ReactionFieldElectrostatics(AllPairs(2), charges, cutoff=1.0)
    pos = np.array([[0.0, 0.0, 0.0], [0.9999999, 0.0, 0.0]])
    energy, _ = energy_forces(force, pos)
    assert energy == pytest.approx(0.0, abs=1e-4)


def test_reaction_field_numerical_gradient():
    rng = RandomStream(6)
    pos = rng.uniform(0, 1.0, size=(5, 3))
    charges = rng.normal(size=5)
    force = ReactionFieldElectrostatics(AllPairs(5), charges, cutoff=5.0)
    _, analytic = energy_forces(force, pos)
    numerical = numerical_forces(force, pos)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-4, atol=1e-5)


def test_excluded_volume_purely_repulsive():
    force = ExcludedVolumeForce(AllPairs(2), sigma=0.4, epsilon=1.0)
    pos = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
    energy, forces = energy_forces(force, pos)
    assert energy > 0
    assert forces[1, 0] > 0  # pushed away


def test_go_contact_minimum_at_native_distance():
    force = GoContactForce([[0, 1]], [0.6], epsilon=2.0)
    pos = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0]])
    energy, forces = energy_forces(force, pos)
    assert energy == pytest.approx(-2.0)  # 5-6 = -1 times eps
    np.testing.assert_allclose(forces, 0.0, atol=1e-9)


def test_go_contact_numerical_gradient():
    rng = RandomStream(7)
    pos = rng.uniform(0, 1.5, size=(6, 3))
    pairs = np.array([[0, 3], [1, 4], [2, 5]])
    force = GoContactForce(pairs, [0.5, 0.6, 0.7], epsilon=1.5)
    _, analytic = energy_forces(force, pos)
    numerical = numerical_forces(force, pos)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-4, atol=1e-5)


def test_go_fraction_native_all_formed():
    force = GoContactForce([[0, 1]], [0.6])
    pos = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0]])
    assert force.fraction_native(pos) == 1.0


def test_go_fraction_native_none_formed():
    force = GoContactForce([[0, 1]], [0.6])
    pos = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    assert force.fraction_native(pos) == 0.0


def test_forces_sum_to_zero_translation_invariance(perturbed_native):
    """Newton's third law: net force vanishes for internal interactions."""
    model, pos = perturbed_native
    for force in model.system.forces:
        _, forces = energy_forces(force, pos)
        np.testing.assert_allclose(
            forces.sum(axis=0), 0.0, atol=1e-8
        ), type(force).__name__


def test_energy_invariant_under_rotation_translation(perturbed_native):
    model, pos = perturbed_native
    e_ref, _ = composite_energy_forces(model.system.forces, pos)
    # random rotation via QR
    rng = RandomStream(8)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = pos @ q.T + np.array([1.0, -2.0, 3.0])
    e_rot, _ = composite_energy_forces(model.system.forces, moved)
    assert e_rot == pytest.approx(e_ref, rel=1e-9)


def test_invalid_cutoffs_rejected():
    with pytest.raises(ConfigurationError):
        LennardJonesForce(AllPairs(2), 0.3, 1.0, cutoff=-1.0)
    with pytest.raises(ConfigurationError):
        ReactionFieldElectrostatics(AllPairs(2), np.zeros(2), cutoff=0.0)
    with pytest.raises(ConfigurationError):
        ExcludedVolumeForce(AllPairs(2), sigma=-0.1)
    with pytest.raises(ConfigurationError):
        GoContactForce([[0, 1]], [-0.5])


def test_lj_with_cell_list_matches_all_pairs():
    """Cell-list pruning changes nothing within the cutoff."""
    from repro.md.neighborlist import CellList

    rng = RandomStream(9)
    positions = rng.uniform(0, 2.0, size=(40, 3))
    cutoff = 0.6
    lj_all = LennardJonesForce(AllPairs(40), sigma=0.25, epsilon=1.0, cutoff=cutoff)
    lj_cell = LennardJonesForce(
        CellList(cutoff=cutoff, skin=0.0), sigma=0.25, epsilon=1.0, cutoff=cutoff
    )
    e_all, f_all = energy_forces(lj_all, positions)
    e_cell, f_cell = energy_forces(lj_cell, positions)
    assert e_cell == pytest.approx(e_all, rel=1e-12)
    np.testing.assert_allclose(f_cell, f_all, atol=1e-10)


def test_excluded_volume_with_cell_list_matches_all_pairs():
    from repro.md.neighborlist import CellList

    rng = RandomStream(10)
    positions = rng.uniform(0, 1.5, size=(30, 3))
    wall_all = ExcludedVolumeForce(AllPairs(30), sigma=0.3, epsilon=1.0)
    wall_cell = ExcludedVolumeForce(
        CellList(cutoff=0.9, skin=0.0), sigma=0.3, epsilon=1.0
    )
    e_all, f_all = energy_forces(wall_all, positions)
    e_cell, f_cell = energy_forces(wall_cell, positions)
    assert e_cell == pytest.approx(e_all, rel=1e-12)
    np.testing.assert_allclose(f_cell, f_all, atol=1e-10)


# -- F = -grad E for every term class, alone and in a stack -------------------


def _uniform(seed, n_atoms, dim=3, high=1.0):
    return lambda r: RandomStream(seed + r).uniform(0, high, size=(n_atoms, dim))


def _normal(seed, n_atoms, dim=3, scale=1.0, loc=0.0):
    return lambda r: loc + RandomStream(seed + r).normal(
        scale=scale, size=(n_atoms, dim)
    )


#: name -> (term, configuration of replica r).  Pair terms use a cutoff
#: no pair reaches, so the energy is smooth where it is differenced.
GRADIENT_CASES = {
    "bond": (
        HarmonicBondForce([[0, 1], [1, 2], [2, 3]], [1.0, 1.1, 0.9], [100.0, 80.0, 120.0]),
        _normal(20, 4),
    ),
    "angle": (
        HarmonicAngleForce([[0, 1, 2], [1, 2, 3]], [1.9, 2.1], [50.0, 70.0]),
        _normal(21, 4),
    ),
    "dihedral": (
        PeriodicDihedralForce(
            [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4]],
            [0.3, 1.2, -0.8],
            [3.0, 1.5, 2.0],
            [1, 3, 2],
        ),
        _normal(22, 5),
    ),
    "go": (
        GoContactForce([[0, 3], [1, 4], [2, 5]], [0.5, 0.6, 0.7], epsilon=1.5),
        _uniform(23, 6, high=1.5),
    ),
    "lennard-jones": (
        LennardJonesForce(AllPairs(6), sigma=0.25, epsilon=0.8, cutoff=5.0),
        _uniform(24, 6),
    ),
    "lennard-jones-verlet": (
        LennardJonesForce(VerletList(cutoff=5.0), sigma=0.25, epsilon=0.8, cutoff=5.0),
        _uniform(25, 6),
    ),
    "reaction-field": (
        ReactionFieldElectrostatics(
            AllPairs(5), RandomStream(26).normal(size=5), cutoff=5.0
        ),
        _uniform(27, 5),
    ),
    "excluded-volume": (
        ExcludedVolumeForce(AllPairs(5), sigma=0.3, epsilon=1.0, cutoff_factor=10.0),
        _uniform(28, 5),
    ),
    "double-well": (DoubleWellForce(5.0, 1.3), _normal(29, 1, dim=2, scale=0.9)),
    "tilted-double-well": (
        TiltedDoubleWellForce(4.0, 1.1, 0.8),
        _normal(30, 1, dim=1, scale=0.9),
    ),
    "muller-brown": (
        MullerBrownForce(0.05),
        _normal(31, 1, dim=2, scale=0.1, loc=MINIMA[1]),
    ),
    "fep-window": (
        _WindowForce(HarmonicWindow(k=3.0, x0=0.4)),
        _normal(32, 1, dim=1),
    ),
}


def _assert_gradient(analytic, numerical, name):
    scale = max(np.abs(numerical).max(), 1e-9)
    assert np.abs(analytic - numerical).max() / scale < 1e-5, name


@pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
def test_force_is_minus_energy_gradient_alone(name):
    force, configuration = GRADIENT_CASES[name]
    positions = configuration(0)
    _, analytic = energy_forces(force, positions)
    _assert_gradient(analytic, numerical_forces(force, positions), name)


@pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
def test_force_is_minus_energy_gradient_in_a_stack(name):
    """Each column of an R = 3 stack, differenced through the stack's
    own energies (the R >= 2 summation order)."""
    force, configuration = GRADIENT_CASES[name]
    stack = np.stack([configuration(r) for r in range(3)])
    _, analytic = composite_energy_forces_batch([force], stack)
    eps = 1e-6
    for r in range(3):
        numerical = np.empty(stack.shape[1:])
        for index in np.ndindex(*numerical.shape):
            moved = stack.copy()
            moved[(r, *index)] += eps
            e_plus = composite_energy_forces_batch([force], moved)[0][r]
            moved[(r, *index)] -= 2 * eps
            e_minus = composite_energy_forces_batch([force], moved)[0][r]
            numerical[index] = -(e_plus - e_minus) / (2 * eps)
        _assert_gradient(analytic[r], numerical, f"{name} column {r}")
