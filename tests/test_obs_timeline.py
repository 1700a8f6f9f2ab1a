"""Per-command lifecycle timelines and the critical path.

The acceptance bar: for a villin swarm run, every completed command's
queue/compute/transfer/controller breakdown must sum to its lifecycle
duration to within 1% — and hence the report's phase totals to the
total simulated lifecycle seconds.  The phases are an exact partition
by construction; these tests pin that property against live runs,
paced runs (non-trivial queue time) and degraded runs (speculation,
requeues).
"""

import pytest

from repro.obs.timeline import (
    PHASES,
    build_timeline_report,
    timeline_report_for,
)
from repro.testing import run_swarm_under_faults


def _assert_phases_partition(report):
    total = 0.0
    for tl in report.commands:
        if not tl.complete:
            continue
        phase_sum = sum(tl.phases.get(p, 0.0) for p in PHASES)
        # within 1% of the command's wall-clock (virtual) lifecycle
        assert phase_sum == pytest.approx(tl.duration, rel=0.01, abs=1e-6), (
            tl.command_id
        )
        assert all(tl.phases.get(p, 0.0) >= 0.0 for p in PHASES)
        total += tl.duration
    assert sum(report.phase_totals.values()) == pytest.approx(
        total, rel=0.01, abs=1e-6
    )
    assert report.total_seconds == pytest.approx(total)


@pytest.mark.parametrize("seed", [0, 1])
def test_villin_swarm_phases_sum_to_lifecycle(seed, canned):
    out = canned("run_swarm_under_faults", seed)
    report = timeline_report_for(out.runner)
    assert len(report.commands) == 3
    assert all(tl.complete for tl in report.commands)
    _assert_phases_partition(report)


def test_paced_single_worker_swarm_partitions():
    # a single paced worker (one segment per cycle, via the straggler
    # knob at full speed): commands genuinely wait in the queue while
    # earlier ones grind through segments tick by tick
    out = run_swarm_under_faults(
        seed=0,
        n_workers=1,
        configure=lambda plan: plan.straggler(
            "w0", factor=1.0, segments_per_cycle=1
        ),
    )
    report = timeline_report_for(out.runner)
    _assert_phases_partition(report)
    assert report.makespan > 0.0
    assert 0.0 <= report.utilization() <= 1.0


def test_straggler_timeline_marks_speculation(canned):
    out = canned("run_swarm_with_straggler", 0)
    report = timeline_report_for(out.runner)
    _assert_phases_partition(report)
    by_id = {tl.command_id: tl for tl in report.commands}
    assert by_id["cmd0"].speculated
    # two workers touched the speculated command
    assert len(by_id["cmd0"].workers) >= 2
    # the speculated command decided the makespan, so it ends the
    # critical path
    assert report.critical_path[-1] == "cmd0"
    assert report.render_text().count("[speculated]") == 1


def test_timeline_without_tracer_still_partitions(canned):
    out = canned("run_swarm_under_faults", 0)
    report = build_timeline_report(out.runner.events, tracer=None)
    # no spans: everything that isn't transfer/controller is queue wait
    _assert_phases_partition(report)
    assert report.phase_totals["compute"] == 0.0


def test_report_renders_every_command(canned):
    out = canned("run_swarm_under_faults", 0)
    report = timeline_report_for(out.runner)
    text = report.render_text()
    for tl in report.commands:
        assert tl.command_id in text
    assert "critical path" in text
    assert "utilization" in text
