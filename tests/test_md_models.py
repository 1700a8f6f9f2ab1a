"""Tests for the model builders (villin bundle, polymers, surfaces)."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from repro.md.forcefield.base import composite_energy_forces, numerical_forces
from repro.md.models.doublewell import (
    DoubleWellForce,
    TiltedDoubleWellForce,
    double_well_initial_state,
    double_well_system,
)
from repro.md.models.muller_brown import (
    MINIMA,
    MullerBrownForce,
    muller_brown_initial_state,
    muller_brown_system,
)
from repro.md.models.polymer import (
    CA_SPACING,
    build_extended_chain,
    build_helix,
    build_loop,
    chain_topology_from_native,
    native_contact_pairs,
)
from repro.md.models.villin import build_native_bundle, build_villin
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream


# ---------------------------------------------------------------- helix


def test_helix_consecutive_spacing_is_ca_like():
    helix = build_helix(12, np.zeros(3), np.array([0, 0, 1.0]))
    spacing = np.linalg.norm(np.diff(helix, axis=0), axis=1)
    # ideal C-alpha helix spacing ~0.38 nm
    assert np.all(np.abs(spacing - CA_SPACING) < 0.05)


def test_helix_rise_along_axis():
    helix = build_helix(10, np.zeros(3), np.array([0, 0, 1.0]))
    z = helix[:, 2]
    np.testing.assert_allclose(np.diff(z), 0.15, atol=1e-12)


def test_helix_arbitrary_axis():
    axis = np.array([1.0, 1.0, 0.0])
    helix = build_helix(8, np.array([1.0, 2.0, 3.0]), axis)
    proj = (helix - helix[0]) @ (axis / np.linalg.norm(axis))
    np.testing.assert_allclose(np.diff(proj), 0.15, atol=1e-12)


def test_helix_invalid_args():
    with pytest.raises(ConfigurationError):
        build_helix(0, np.zeros(3), np.array([0, 0, 1.0]))
    with pytest.raises(ConfigurationError):
        build_helix(5, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------- loop


def test_loop_segments_near_ideal_spacing_close_anchors():
    start = np.zeros(3)
    end = np.array([0.5, 0.0, 0.0])  # closer than 3 * 0.38
    loop = build_loop(start, end, 2)
    path = np.vstack([start, loop, end])
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    assert np.all(seg > 0.25)
    assert np.all(seg < 0.55)


def test_loop_far_anchors_straight():
    start = np.zeros(3)
    end = np.array([2.0, 0.0, 0.0])
    loop = build_loop(start, end, 3)
    # points lie on the straight line
    assert np.allclose(loop[:, 1:], 0.0, atol=1e-9)


def test_loop_invalid_count():
    with pytest.raises(ConfigurationError):
        build_loop(np.zeros(3), np.ones(3), 0)


# ----------------------------------------------------------- extended chain


def test_extended_chain_spacing():
    chain = build_extended_chain(20)
    spacing = np.linalg.norm(np.diff(chain, axis=0), axis=1)
    np.testing.assert_allclose(spacing, CA_SPACING, atol=1e-9)


def test_extended_chain_noise_distinct():
    rngs = RandomStream(0).spawn(2)
    a = build_extended_chain(15, rng=rngs[0])
    b = build_extended_chain(15, rng=rngs[1])
    assert not np.allclose(a, b)


def test_extended_chain_too_short_rejected():
    with pytest.raises(ConfigurationError):
        build_extended_chain(1)


# ------------------------------------------------------------- topology


def test_chain_topology_counts():
    native = build_extended_chain(10)
    topo = chain_topology_from_native(native)
    assert topo.n_atoms == 10
    assert len(topo.bonds) == 9
    assert len(topo.angles) == 8
    assert len(topo.dihedrals) == 7


def test_chain_topology_equilibrium_from_native():
    native = build_native_bundle((5, 5, 5), (2, 2))
    topo = chain_topology_from_native(native)
    d = np.linalg.norm(native[topo.bonds[:, 1]] - native[topo.bonds[:, 0]], axis=1)
    np.testing.assert_allclose(topo.bond_r0, d)


def test_chain_topology_minimum_size():
    with pytest.raises(ConfigurationError):
        chain_topology_from_native(np.zeros((1, 3)))


def test_native_contact_pairs_sequence_separation():
    native = build_native_bundle()
    pairs, dists = native_contact_pairs(native, cutoff=1.1, min_separation=4)
    assert np.all(pairs[:, 1] - pairs[:, 0] >= 4)
    assert np.all(dists < 1.1)


# ---------------------------------------------------------------- bundle


def test_bundle_has_reasonable_geometry():
    native = build_native_bundle((10, 11, 10), (2, 2))
    assert native.shape == (35, 3)
    bond_lengths = np.linalg.norm(np.diff(native, axis=0), axis=1)
    assert bond_lengths.min() > 0.25
    assert bond_lengths.max() < 0.5
    assert pdist(native).min() > 0.25  # no overlapping beads


def test_bundle_is_compact():
    """Bundle radius of gyration is far below the extended chain's."""
    native = build_native_bundle()
    extended = build_extended_chain(len(native))

    def rg(x):
        c = x - x.mean(axis=0)
        return np.sqrt((c**2).sum(axis=1).mean())

    assert rg(native) < 0.4 * rg(extended)


def test_bundle_invalid_shape():
    with pytest.raises(ConfigurationError):
        build_native_bundle((5, 5), (2,))


# ---------------------------------------------------------------- villin


def test_villin_full_has_35_residues():
    model = build_villin("full")
    assert model.n_residues == 35  # matches the real villin headpiece


def test_villin_fast_is_smaller():
    assert build_villin("fast").n_residues == 19


def test_villin_native_is_energy_minimum():
    model = build_villin("fast")
    e_native, forces = model.system.energy_forces(model.native)
    # tiny residual from the excluded-volume wall's cutoff tail
    assert np.abs(forces).max() < 1e-3
    rng = RandomStream(0)
    for _ in range(5):
        perturbed = model.native + rng.normal(scale=0.03, size=model.native.shape)
        assert model.system.potential_energy(perturbed) > e_native


def test_villin_native_energy_is_minus_eps_times_contacts():
    model = build_villin("fast", contact_epsilon=2.0)
    expected = -2.0 * len(model.go_force.pairs)
    assert model.system.potential_energy(model.native) == pytest.approx(expected)


def test_villin_extended_state_unfolded():
    model = build_villin("fast")
    state = model.extended_state(rng=0)
    assert model.go_force.fraction_native(state.positions) < 0.1


def test_villin_distinct_unfolded_starts():
    model = build_villin("fast")
    a = model.extended_state(rng=1).positions
    b = model.extended_state(rng=2).positions
    assert not np.allclose(a, b)


def test_villin_unknown_variant():
    with pytest.raises(ConfigurationError):
        build_villin("giant")


# ------------------------------------------------------------ muller-brown


def test_muller_brown_minima_are_local_minima():
    force = MullerBrownForce(scale=1.0)
    for minimum in MINIMA:
        _, f = composite_energy_forces([force], minimum[None, :])
        assert np.abs(f).max() < 35.0  # near-stationary at tabulated minima
        e0, _ = composite_energy_forces([force], minimum[None, :])
        rng = RandomStream(4)
        for _ in range(4):
            e, _ = composite_energy_forces([force], 
                minimum[None, :] + rng.normal(scale=0.12, size=(1, 2))
            )
            assert e > e0 - 10.0


def test_muller_brown_numerical_gradient():
    rng = RandomStream(5)
    force = MullerBrownForce(scale=0.05)
    pos = rng.uniform(-1.0, 1.0, size=(1, 2))
    _, analytic = composite_energy_forces([force], pos)
    numerical = numerical_forces(force, pos)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-5, atol=1e-7)


def test_muller_brown_grid_matches_pointwise():
    force = MullerBrownForce(scale=0.05)
    xs = np.linspace(-1.5, 1.0, 5)
    ys = np.linspace(-0.2, 2.0, 5)
    X, Y = np.meshgrid(xs, ys)
    grid = force.energy_grid(X, Y)
    e_pt, _ = composite_energy_forces([force], np.array([[X[2, 3], Y[2, 3]]]))
    assert grid[2, 3] == pytest.approx(e_pt)


def test_muller_brown_system_is_2d():
    system = muller_brown_system()
    assert system.dim == 2
    state = muller_brown_initial_state(minimum=0, rng=0)
    assert state.positions.shape == (1, 2)


# ------------------------------------------------------------- double well


def test_double_well_minima():
    force = DoubleWellForce(barrier=3.0, width=0.7)
    for x in (-force.width, force.width):
        e, f = composite_energy_forces([force], np.array([[x]]))
        assert e == pytest.approx(0.0)
        np.testing.assert_allclose(f, 0.0, atol=1e-12)
    e_top, _ = composite_energy_forces([force], np.array([[0.0]]))
    assert e_top == pytest.approx(3.0)


def test_double_well_numerical_gradient():
    force = DoubleWellForce(barrier=2.0, width=0.5)
    pos = np.array([[0.3]])
    _, analytic = composite_energy_forces([force], pos)
    numerical = numerical_forces(force, pos)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-6)


def test_tilted_double_well_asymmetric():
    force = TiltedDoubleWellForce(barrier=2.0, width=1.0, slope=0.5)
    e_left, _ = composite_energy_forces([force], np.array([[-1.0]]))
    e_right, _ = composite_energy_forces([force], np.array([[1.0]]))
    assert e_left < e_right


def test_tilted_double_well_gradient():
    force = TiltedDoubleWellForce(barrier=2.0, width=1.0, slope=0.5)
    pos = np.array([[0.4]])
    _, analytic = composite_energy_forces([force], pos)
    numerical = numerical_forces(force, pos)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-6)


def test_double_well_system_factory():
    system = double_well_system(slope=0.3)
    assert isinstance(system.forces[0], TiltedDoubleWellForce)
    state = double_well_initial_state(side=1, rng=0)
    assert state.positions[0, 0] > 0
