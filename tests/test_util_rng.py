"""Tests for repro.util.rng determinism and independence."""

import numpy as np
import pytest

from repro.util.rng import RandomStream, ensure_stream


def test_same_seed_same_sequence():
    a = RandomStream(7).normal(size=100)
    b = RandomStream(7).normal(size=100)
    np.testing.assert_array_equal(a, b)


def test_different_seed_different_sequence():
    a = RandomStream(7).normal(size=100)
    b = RandomStream(8).normal(size=100)
    assert not np.array_equal(a, b)


def test_spawn_independent_streams():
    children = RandomStream(0).spawn(3)
    draws = [c.normal(size=50) for c in children]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])


def test_spawn_is_deterministic():
    a = [s.uniform(size=10) for s in RandomStream(3).spawn(2)]
    b = [s.uniform(size=10) for s in RandomStream(3).spawn(2)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_spawn_negative_rejected():
    with pytest.raises(ValueError):
        RandomStream(0).spawn(-1)


def test_ensure_stream_passthrough():
    s = RandomStream(5)
    assert ensure_stream(s) is s


def test_ensure_stream_from_int():
    a = ensure_stream(9).integers(0, 1000, size=20)
    b = RandomStream(9).integers(0, 1000, size=20)
    np.testing.assert_array_equal(a, b)


def test_integers_bounds():
    vals = RandomStream(1).integers(0, 10, size=1000)
    assert vals.min() >= 0 and vals.max() < 10


def test_choice_subset():
    pool = np.arange(50)
    picked = RandomStream(2).choice(pool, size=5, replace=False)
    assert len(set(picked.tolist())) == 5
    assert set(picked.tolist()) <= set(pool.tolist())