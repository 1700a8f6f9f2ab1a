"""Lease deadlines from the performance model (repro.server.lease)."""

import pytest

from repro.core.command import Command
from repro.md.engine import MDTask
from repro.perfmodel.mdperf import VILLIN_MODEL
from repro.server.lease import (
    DEFAULT_ESTIMATE_SECONDS,
    LeasePolicy,
    LeaseTracker,
    estimate_command_seconds,
)
from repro.util.errors import ConfigurationError


def _md_command(command_id="c0", n_steps=5000, checkpoint_step=None):
    command = Command(
        command_id=command_id,
        project_id="p",
        executable="mdrun",
        payload=MDTask(
            model="villin-fast", n_steps=n_steps, report_interval=200,
            seed=0, task_id=command_id,
        ).to_payload(),
    )
    if checkpoint_step is not None:
        command.checkpoint = {"step": checkpoint_step}
    return command


def test_estimate_scales_with_remaining_steps():
    full = estimate_command_seconds(_md_command(n_steps=5000), cores=1)
    half = estimate_command_seconds(
        _md_command(n_steps=5000, checkpoint_step=2500), cores=1
    )
    assert full > 0
    assert half == pytest.approx(full / 2, rel=1e-6)


def test_estimate_matches_perfmodel_hours():
    command = _md_command(n_steps=5000)
    ns = 5000 * command.payload["timestep"] / 1000.0
    expected = VILLIN_MODEL.hours_for(ns, 4) * 3600.0
    assert estimate_command_seconds(command, cores=4) == pytest.approx(expected)


def test_estimate_zero_when_checkpoint_past_end():
    done = _md_command(n_steps=1000, checkpoint_step=1000)
    assert estimate_command_seconds(done, cores=1) == 0.0


def test_non_md_payload_falls_back_to_default():
    command = Command(command_id="x", project_id="p", executable="analyze")
    assert (
        estimate_command_seconds(command, cores=1)
        == DEFAULT_ESTIMATE_SECONDS
    )


def test_policy_applies_slack_and_floor():
    command = _md_command(n_steps=5000)
    policy = LeasePolicy(slack=2.0, min_seconds=50.0, hours_to_seconds=300.0)
    estimate = estimate_command_seconds(
        command, 1, hours_to_seconds=300.0
    )
    assert policy.deadline_for(command, 1, now=100.0) == pytest.approx(
        100.0 + 2.0 * estimate
    )
    # a tiny command hits the floor instead
    tiny = _md_command(n_steps=10)
    assert policy.deadline_for(tiny, 1, now=100.0) == pytest.approx(150.0)


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        LeasePolicy(slack=0.0)
    with pytest.raises(ConfigurationError):
        LeasePolicy(min_seconds=-1.0)
    with pytest.raises(ConfigurationError):
        LeasePolicy(hours_to_seconds=0.0)


def test_tracker_grant_overdue_and_clear():
    tracker = LeaseTracker()
    a = _md_command("a")
    b = _md_command("b")
    tracker.grant("w0", a, now=0.0, deadline=100.0)
    tracker.grant("w0", b, now=0.0, deadline=300.0)
    tracker.grant("w1", a, now=0.0, deadline=150.0)
    assert len(tracker) == 3
    assert {l.command.command_id for l in tracker.overdue(200.0)} == {"a"}
    assert len(tracker.overdue(200.0)) == 2  # both workers' "a" leases

    # a speculated lease stops being reported as overdue
    lease = tracker.get("w0", "p::a")
    lease.speculated = True
    assert [l.worker for l in tracker.overdue(200.0)] == ["w1"]

    assert tracker.clear("w1", "p::a").worker == "w1"
    assert len(tracker) == 2
    tracker.clear_worker("w0")
    assert len(tracker) == 0
    assert tracker.clear("w0", "p::b") is None  # already gone


def test_tracker_regrant_replaces_lease():
    tracker = LeaseTracker()
    a = _md_command("a")
    tracker.grant("w0", a, now=0.0, deadline=100.0)
    tracker.grant("w0", a, now=50.0, deadline=400.0)
    assert len(tracker) == 1
    assert tracker.get("w0", "p::a").deadline == 400.0
    assert tracker.overdue(200.0) == []
