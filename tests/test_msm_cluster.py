"""Tests for clustering and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rmsd import rmsd
from repro.msm.cluster import KCentersClustering
from repro.msm.metrics import EuclideanMetric, RMSDMetric
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream


def three_blobs(n_per=40, seed=0, spread=0.2):
    rng = RandomStream(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    pts = np.concatenate(
        [c + rng.normal(scale=spread, size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(3), n_per)
    return pts, labels


def test_euclidean_metric_values():
    m = EuclideanMetric()
    frames = np.array([[0.0, 0.0], [3.0, 4.0]])
    d = m.to_target(frames, np.array([0.0, 0.0]))
    np.testing.assert_allclose(d, [0.0, 5.0])


def test_euclidean_metric_shape_mismatch():
    with pytest.raises(ConfigurationError):
        EuclideanMetric().to_target(np.zeros((3, 2)), np.zeros(3))


def test_rmsd_metric_matches_rmsd_function():
    rng = RandomStream(1)
    frames = rng.normal(size=(4, 6, 3))
    target = rng.normal(size=(6, 3))
    d = RMSDMetric().to_target(frames, target)
    for k in range(4):
        assert d[k] == pytest.approx(rmsd(frames[k], target), abs=1e-10)


def test_rmsd_metric_shape_validation():
    with pytest.raises(ConfigurationError):
        RMSDMetric().to_target(np.zeros((3, 2)), np.zeros((2, 3)))


def test_kcenters_separates_blobs():
    pts, labels = three_blobs()
    result = KCentersClustering(n_clusters=3, seed=2).fit(pts)
    assert result.n_clusters == 3
    # every true blob maps to exactly one cluster
    for blob in range(3):
        assigned = result.assignments[labels == blob]
        assert len(set(assigned.tolist())) == 1
    assert result.cover_radius < 1.5


def test_kcenters_radius_cutoff_mode():
    pts, _ = three_blobs()
    result = KCentersClustering(radius_cutoff=1.0, seed=0).fit(pts)
    assert result.cover_radius <= 1.0
    assert result.n_clusters >= 3


def test_kcenters_more_clusters_than_frames():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    result = KCentersClustering(n_clusters=10, seed=0).fit(pts)
    assert result.n_clusters <= 2


def test_kcenters_deterministic_given_seed():
    pts, _ = three_blobs()
    a = KCentersClustering(n_clusters=5, seed=3).fit(pts)
    b = KCentersClustering(n_clusters=5, seed=3).fit(pts)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.center_indices, b.center_indices)


def test_kcenters_empty_input_rejected():
    with pytest.raises(ConfigurationError):
        KCentersClustering(n_clusters=2).fit(np.zeros((0, 2)))


def test_kcenters_requires_some_criterion():
    with pytest.raises(ConfigurationError):
        KCentersClustering()


def test_kcenters_populations_sum():
    pts, _ = three_blobs()
    result = KCentersClustering(n_clusters=4, seed=1).fit(pts)
    assert result.populations().sum() == len(pts)


def test_cluster_result_assign_new_frames():
    pts, _ = three_blobs()
    result = KCentersClustering(n_clusters=3, seed=2).fit(pts)
    new = np.array([[0.1, -0.1], [5.1, 0.2]])
    labels = result.assign(new)
    # both near-centre points must land in the clusters holding (0,0)/(5,0)
    assert labels[0] == result.assignments[0]
    assert labels[1] == result.assignments[40]


def test_kcenters_with_rmsd_metric_on_conformations():
    model_frames = RandomStream(5).normal(size=(30, 8, 3))
    # append rotated copies of frame 0 — they must cluster with frame 0
    rng = RandomStream(6)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rotated = model_frames[0] @ q.T + 2.0
    frames = np.concatenate([model_frames, rotated[None]])
    result = KCentersClustering(
        n_clusters=10, metric=RMSDMetric(), seed=0
    ).fit(frames)
    assert result.assignments[-1] == result.assignments[0]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=12, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_kcenters_cover_radius_shrinks(k, n, seed):
    """More centres never increase the cover radius; assignment is nearest."""
    rng = RandomStream(seed)
    pts = rng.uniform(-1, 1, size=(n, 3))
    r_few = KCentersClustering(n_clusters=k, seed=0).fit(pts)
    r_more = KCentersClustering(n_clusters=k + 2, seed=0).fit(pts)
    assert r_more.cover_radius <= r_few.cover_radius + 1e-12
    # each frame's recorded distance equals distance to its centre and is
    # not larger than to any other centre
    metric = EuclideanMetric()
    for c in range(r_few.n_clusters):
        d = metric.to_target(pts, r_few.centers[c])
        assert np.all(r_few.distances <= d + 1e-9)
