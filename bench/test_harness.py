"""Self-tests of the benchmark harness: ``python -m pytest bench/``.

They check the harness, not the program: span arithmetic, that tracing
leaves ``repro`` exactly as it found it, that tracing does not change
results, and that the metric names printed, reported and declared in
``BENCHMARK.json`` are one set.
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (BENCH, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_self_time_is_duration_minus_children():
    names = [tracing.ROOT_SPAN, "a", "b"]
    spans = [  # (sid, name, parent, t0, t1, trace, value), in exit order
        (2, 2, 1, 10, 40, None, None),
        (3, 2, 1, 50, 70, None, None),
        (1, 1, 0, 0, 100, None, None),
        (4, 1, 0, 100, 150, None, None),
    ]
    ledger = tracing.self_times(names, spans, root=(0, 200))
    assert ledger.self_s == pytest.approx({tracing.ROOT_SPAN: 50e-9, "a": 100e-9, "b": 50e-9})
    assert ledger.total_s["a"] == pytest.approx(150e-9)
    assert ledger.calls == {tracing.ROOT_SPAN: 1, "a": 2, "b": 2}
    assert sum(ledger.self_s.values()) == pytest.approx(ledger.wall_s)
    assert ledger.unattributed_frac() == pytest.approx(0.25)


def _owner(site: tracing.Site):
    owner = importlib.import_module(site.module)
    path, _, attr = site.attr.rpartition(".")
    for part in filter(None, path.split(".")):
        owner = getattr(owner, part)
    return owner, attr


def test_patch_then_unpatch_restores_every_attribute_by_identity():
    import repro.net.transport as transport
    import repro.server.wal as wal
    import repro.worker.worker as worker

    before = []  # (owner, attribute, original)
    for site in tracing.SITES + tracing._controller_sites():
        owner, attr = _owner(site)
        if attr in vars(owner):
            before.append((owner, attr, vars(owner)[attr]))
    # a from-imported copy of a wrapped function is a site of its own
    before += [
        (wal, "encode_message", wal.encode_message),
        (transport, "message_size", transport.message_size),
        (worker, "coalesce_commands", worker.coalesce_commands),
    ]

    patch = tracing.patch_all(tracing.Recorder())
    try:
        assert len(patch.bound) >= len(before)
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        patch.undo()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)
    assert patch.bound == []


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracing_changes_no_result_and_counts_repeat(workload):
    plain = run.run_child(workload, 0, "quick")
    traced = run.run_child(workload, 0, "quick", untraced_wall_s=plain["wall_s"])
    again = run.run_child(workload, 0, "quick", untraced_wall_s=plain["wall_s"])
    assert run.check([plain, traced, again]) == []
    assert plain["digest"] == traced["digest"] == again["digest"]
    for count in run.EXACT_COUNTS:
        assert traced["per_layer"][count] == again["per_layer"][count], count
    assert 0.0 <= traced["per_layer"]["trace.unattributed_frac"] <= 1.0
    events = json.loads((ROOT / traced["trace_file"]).read_text())["traceEvents"]
    assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(events[0])
    assert any(e["args"]["trace"] for e in events)


def test_benchmark_json_matches_the_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]
    # 0.25 is the cap of the contract BENCHMARK.json is written to
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    for name in [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]:
        assert NAME.match(name) and len(name) <= 64


def _suite_result(wall_s, steps_per_s):
    e2e = {metric: {"median": 1.0} for metric in run.END_TO_END}
    e2e["wall_s"] = {"median": wall_s}
    e2e["replica_steps_per_s"] = steps_per_s and {"median": steps_per_s}
    return {"workloads": {"w": {"end_to_end": e2e}}}


def test_aa_gate_is_two_sided():
    bounds = dict.fromkeys(run.END_TO_END, 0.10)
    slow, fast = _suite_result(1.3, 770.0), _suite_result(1.0, 1000.0)
    for first, second in ((slow, fast), (fast, slow)):  # the order means nothing
        rows = {r["metric"]: r for r in run.disagreement(first, second, bounds)}
        assert rows["wall_s"]["breach"] and rows["wall_s"]["apart"] == pytest.approx(0.3)
        assert rows["replica_steps_per_s"]["breach"]
        assert not rows["setup_s"]["breach"]
    near = _suite_result(1.09, 1000.0)
    assert not any(r["breach"] for r in run.disagreement(fast, near, bounds))
    # a metric the workload does not have (no MD steps) is not compared
    no_md = _suite_result(1.0, None)
    assert "replica_steps_per_s" not in {
        r["metric"] for r in run.disagreement(no_md, no_md, bounds)
    }


def _last_json(argv):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_reports_exactly_the_declared_metrics(trace, section):
    result = _last_json(
        ["--workload", "control_plane", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick"]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_printed_metric_names_are_the_declared_set():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--workload", "serial_swarm"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "NOT for comparison" in out
    units = {m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[1] in units and re.match(r"^-?[\d.]", fields[2]):
            assert NAME.match(fields[0]), line
            printed.add(fields[0])
    assert printed == {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
