"""Distributed tracing across the overlay.

The headline property: one trace id follows a command from the
server's issue span through the worker's execution to the result
landing back at the server and the controller folding it in — the
context crosses the server/worker boundary in message headers and
command payloads, so the spans stitch together without any shared
state beyond the deployment's tracer.
"""

import json

import pytest

from repro.obs import SpanContext, Tracer, to_chrome_trace, trace_id_for, validate_chrome_trace


def _trace(tracer, trace_id):
    """Every span (open or closed) of one trace."""
    return [s for s in tracer.spans if s.trace_id == trace_id]


def _spans_by_name(spans):
    out = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


def test_tracer_basics_and_context_propagation():
    tracer = Tracer()
    root = tracer.begin("issue", 0.0, "t" * 16, component="srv")
    assert not root.finished and root.duration == 0.0
    tracer.end(root, 5.0, outcome="ok")
    assert root.finished and root.duration == 5.0
    assert root.attributes["outcome"] == "ok"
    # ending before the start clamps (virtual clocks never run backward)
    clamped = tracer.record("x", 10.0, 9.0, "t" * 16, component="srv")
    assert clamped.end == clamped.start

    headers = root.context().inject({})
    ctx = SpanContext.extract(headers)
    assert ctx.trace_id == root.trace_id
    assert ctx.span_id == root.span_id
    assert SpanContext.extract({}) is None


def test_trace_ids_are_deterministic():
    assert trace_id_for("swarm", "cmd0") == trace_id_for("swarm", "cmd0")
    assert trace_id_for("swarm", "cmd0") != trace_id_for("swarm", "cmd1")
    assert len(trace_id_for("p", "c")) == 16


def test_end_to_end_command_trace_spans_server_and_worker(canned):
    out = canned("run_swarm_under_faults", 0)
    tracer = out.obs.tracer
    worker_names = {w.name for w in out.workers}

    for k in range(3):
        trace_id = trace_id_for("swarm", f"cmd{k}")
        spans = _spans_by_name(_trace(tracer, trace_id))
        # the full arc, all sharing the command's trace id
        for name in (
            "command.issue",
            "queue.wait",
            "worker.execute",
            "result.transfer",
            "result.apply",
            "controller.update",
        ):
            assert name in spans, f"cmd{k} missing {name} span"
        issue = spans["command.issue"][0]
        execute = spans["worker.execute"][0]
        assert issue.component == "srv"
        assert execute.component in worker_names
        # the worker's span hangs off the server's issue span: the
        # context crossed the boundary inside the command payload
        assert execute.parent_id == issue.span_id
        assert execute.attributes.get("completed") is True
        # the result transfer was stitched from the worker's headers
        transfer = spans["result.transfer"][0]
        assert transfer.parent_id == execute.span_id
        # causality on the virtual clock
        assert issue.start <= execute.start <= execute.end
        assert spans["controller.update"][0].start >= execute.end


def test_speculation_shares_the_trace_across_workers(canned):
    out = canned("run_swarm_with_straggler", 0)
    tracer = out.obs.tracer
    trace_id = trace_id_for("swarm", "cmd0")
    executes = [
        s for s in _trace(tracer, trace_id) if s.name == "worker.execute"
    ]
    # the straggler's doomed copy and the speculative winner are
    # chapters of the same trace, told by different components
    assert len(executes) >= 2
    assert len({s.component for s in executes}) >= 2


def test_chrome_trace_export_validates_and_is_deterministic(reproducible):
    # the export is one of the digested parts of every scenario run
    out = reproducible("run_swarm_under_faults", 1)
    first = to_chrome_trace(out.obs.tracer)
    assert validate_chrome_trace(first) == []
    assert validate_chrome_trace(json.dumps(first)) == []

    names = {e["name"] for e in first["traceEvents"]}
    assert {"process_name", "thread_name", "worker.execute"} <= names
    threads = {
        e["args"]["name"]
        for e in first["traceEvents"]
        if e["name"] == "thread_name"
    }
    assert {"srv", "w0", "w1", "controller"} <= threads


def test_validator_flags_malformed_traces():
    assert validate_chrome_trace("not json")
    assert validate_chrome_trace({"nope": []})
    bad_order = {
        "traceEvents": [
            {"name": "a", "ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 1},
        ]
    }
    assert any("before previous" in p for p in validate_chrome_trace(bad_order))
    unbalanced = {
        "traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
        ]
    }
    assert any("unclosed" in p for p in validate_chrome_trace(unbalanced))
