"""Tests for repro.util.units."""

import math

import pytest

from repro.util import units


def test_kb_matches_gromacs_value():
    assert units.KB == pytest.approx(0.008314462, rel=1e-6)


def test_time_constants_consistent():
    assert units.PS_PER_NS * units.NS_PER_US == pytest.approx(1e6)
    assert math.isclose(units.SECONDS_PER_HOUR, 3600.0)
