"""Tests for Kabsch alignment and RMSD, incl. hypothesis invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rmsd import (
    kabsch_align,
    rmsd,
    rmsd_to_reference,
)
from repro.md.models.villin import build_villin
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_rmsd_identical_is_zero():
    x = RandomStream(0).normal(size=(10, 3))
    assert rmsd(x, x) == pytest.approx(0.0, abs=1e-10)


def test_rmsd_rotated_translated_copy_is_zero():
    rng = RandomStream(1)
    x = rng.normal(size=(12, 3))
    moved = x @ random_rotation(rng).T + np.array([3.0, -1.0, 2.0])
    assert rmsd(moved, x) == pytest.approx(0.0, abs=1e-9)


def test_rmsd_without_alignment_sees_displacement():
    x = RandomStream(2).normal(size=(8, 3))
    moved = x + np.array([1.0, 0.0, 0.0])
    assert rmsd(moved, x, align=False) == pytest.approx(1.0)
    assert rmsd(moved, x, align=True) == pytest.approx(0.0, abs=1e-9)


def test_rmsd_known_value():
    # two atoms displaced by d each -> rmsd = d (after centering both have
    # the same centroid, so disable alignment for the raw value)
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.5, 0.0], [1.0, 0.5, 0.0]])
    assert rmsd(a, b, align=False) == pytest.approx(0.5)


def test_rmsd_shape_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        rmsd(np.zeros((3, 3)), np.zeros((4, 3)))


def test_kabsch_align_single_frame_shape():
    rng = RandomStream(3)
    x = rng.normal(size=(7, 3))
    aligned = kabsch_align(x, x)
    assert aligned.shape == (7, 3)


def test_kabsch_align_batch_matches_loop():
    rng = RandomStream(4)
    ref = rng.normal(size=(9, 3))
    frames = rng.normal(size=(5, 9, 3))
    batch = kabsch_align(frames, ref)
    for k in range(5):
        single = kabsch_align(frames[k], ref)
        np.testing.assert_allclose(batch[k], single, atol=1e-12)


def test_kabsch_never_mirrors():
    """Alignment must use proper rotations only (det = +1)."""
    rng = RandomStream(5)
    ref = rng.normal(size=(6, 3))
    mirrored = ref.copy()
    mirrored[:, 0] = -mirrored[:, 0]
    value = rmsd(mirrored, ref)
    assert value > 0.1  # a mirror image cannot be aligned to zero


def test_rmsd_to_reference_batch():
    rng = RandomStream(6)
    ref = rng.normal(size=(11, 3))
    frames = np.stack([ref, ref + 0.5 * rng.normal(size=(11, 3))])
    values = rmsd_to_reference(frames, ref)
    assert values.shape == (2,)
    assert values[0] == pytest.approx(0.0, abs=1e-9)
    assert values[1] > 0.05


def test_rmsd_to_reference_requires_3d():
    with pytest.raises(ConfigurationError):
        rmsd_to_reference(np.zeros((5, 3)), np.zeros((5, 3)))


def test_villin_native_vs_extended_rmsd_scale():
    model = build_villin("fast")
    extended = model.extended_state(rng=0).positions
    value = rmsd(extended, model.native)
    assert value > 0.5  # unfolded chain is far from native (nm scale)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_property_rmsd_rotation_invariant(n_atoms, seed):
    rng = RandomStream(seed)
    x = rng.normal(size=(n_atoms, 3))
    y = rng.normal(size=(n_atoms, 3))
    base = rmsd(x, y)
    rotated = x @ random_rotation(rng).T + rng.normal(size=3)
    assert rmsd(rotated, y) == pytest.approx(base, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_property_rmsd_symmetric(n_atoms, seed):
    rng = RandomStream(seed)
    x = rng.normal(size=(n_atoms, 3))
    y = rng.normal(size=(n_atoms, 3))
    assert rmsd(x, y) == pytest.approx(rmsd(y, x), abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_property_aligned_rmsd_not_above_raw(n_atoms, seed):
    """Optimal alignment can only reduce the RMSD."""
    rng = RandomStream(seed)
    x = rng.normal(size=(n_atoms, 3))
    y = rng.normal(size=(n_atoms, 3))
    # compare against centered raw distance (alignment includes centering)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    raw = np.sqrt(np.mean(np.sum((xc - yc) ** 2, axis=1)))
    assert rmsd(x, y) <= raw + 1e-8
