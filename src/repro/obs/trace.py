"""Lightweight distributed tracing over the overlay's virtual clock.

One *trace* follows one command through its whole lifecycle: the
controller issues it, the server queues it, a worker leases and
executes it (checkpointing along the way), the result travels home,
the dedup barrier admits it exactly once and the controller folds it
into the project.  Each step is a :class:`Span` sharing the command's
deterministic trace id; the context crosses endpoint boundaries in
:class:`~repro.net.protocol.Message` headers (and rides inside command
payloads server -> worker), so the server and worker halves of a trace
stitch together exactly as OpenTelemetry-style propagation would.

Everything is clocked on *virtual* seconds and seeded ids — a rerun of
the same scenario produces byte-identical exports.  The exporter emits
Chrome trace-event JSON ("X" complete events), loadable in Perfetto or
``chrome://tracing``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Message-header keys used for context propagation.
TRACE_ID_HEADER = "trace_id"
SPAN_ID_HEADER = "span_id"


def trace_id_for(project_id: str, command_id: str) -> str:
    """Deterministic 16-hex-digit trace id for one command's lifecycle.

    Speculative copies and requeued resumptions of a command share its
    trace — they are chapters of the same story, distinguished by the
    component (worker) that emitted each span.
    """
    digest = hashlib.md5(
        f"{project_id}/{command_id}".encode("utf-8")
    ).hexdigest()
    return digest[:16]


@dataclass
class SpanContext:
    """The propagated part of a span: enough to parent remote children."""

    trace_id: str
    span_id: str

    def inject(self, headers: Dict[str, Any]) -> Dict[str, Any]:
        """Write this context into a message-header dict (returned)."""
        headers[TRACE_ID_HEADER] = self.trace_id
        headers[SPAN_ID_HEADER] = self.span_id
        return headers

    @classmethod
    def extract(cls, headers: Dict[str, Any]) -> Optional["SpanContext"]:
        """Read a context out of message headers (None when absent)."""
        trace_id = headers.get(TRACE_ID_HEADER)
        if not trace_id:
            return None
        return cls(trace_id=str(trace_id), span_id=str(headers.get(SPAN_ID_HEADER, "")))


@dataclass(slots=True)
class Span:
    """One operation within a trace, on the virtual clock.

    ``start == end`` marks an instant event (rendered with a minimal
    duration so Perfetto still shows it).
    """

    name: str
    trace_id: str
    span_id: str
    component: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """Whether :meth:`Tracer.end` closed this span."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Virtual seconds between start and end (0 while open)."""
        return (self.end - self.start) if self.finished else 0.0

    def context(self) -> SpanContext:
        """The propagatable identity of this span."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)


class Tracer:
    """Collects spans for one deployment; ids are a deterministic sequence."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._sequence = 0

    def _next_span_id(self) -> str:
        self._sequence += 1
        return f"s{self._sequence:06d}"

    def begin(
        self,
        name: str,
        start: float,
        trace_id: str,
        component: str,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span; close it later with :meth:`end`."""
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._next_span_id(),
            component=component,
            start=float(start),
            parent_id=parent_id,
            attributes=attributes,  # **kwargs is a fresh dict: ours to keep
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, end: float, **attributes: Any) -> Span:
        """Close *span* at virtual time *end* (never before its start)."""
        span.end = max(float(end), span.start)
        span.attributes.update(attributes)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: str,
        component: str,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Record an already-complete span in one call."""
        start = float(start)
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._next_span_id(),
            component=component,
            start=start,
            end=max(float(end), start),
            parent_id=parent_id,
            attributes=attributes,
        )
        self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Closed spans, in creation order."""
        return [s for s in self.spans if s.finished]


# -- Chrome trace-event export ----------------------------------------------

#: Minimum rendered duration (µs) so instant spans stay visible.
_MIN_DUR_US = 1


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Render finished spans as a Chrome trace-event JSON object.

    Perfetto/``chrome://tracing`` load the result directly.  Each
    overlay component (server, worker, controller) becomes a named
    thread; spans are complete ("X") events with microsecond virtual
    timestamps, sorted by ``ts`` as the validators downstream require.
    """
    components = sorted({s.component for s in tracer.finished_spans()})
    tids = {name: i + 1 for i, name in enumerate(components)}
    events: List[Dict[str, Any]] = []
    for span in tracer.finished_spans():
        events.append(
            {
                "name": span.name,
                "cat": span.trace_id,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": max(round(span.duration * 1e6, 3), _MIN_DUR_US),
                "pid": 1,
                "tid": tids[span.component],
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    **({"parent_id": span.parent_id} if span.parent_id else {}),
                    **span.attributes,
                },
            }
        )
    events.sort(key=lambda e: (e["ts"], e["tid"], e["name"]))
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "copernicus"},
        }
    ]
    for name, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: Any) -> List[str]:
    """Structural checks on a Chrome trace-event object (or JSON string).

    Returns human-readable problems (empty list = valid): the document
    must parse, duration ("X") events need non-negative ``dur`` and
    ascending ``ts``, and any begin/end ("B"/"E") events must balance
    per thread.  CI runs this over exported artifacts and fails the
    job on any finding.
    """
    problems: List[str] = []
    if isinstance(trace, (str, bytes)):
        try:
            trace = json.loads(trace)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["top level must be an object with a traceEvents array"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    last_ts: Optional[float] = None
    open_stacks: Dict[Tuple[Any, Any], int] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        for key in ("name", "ph"):
            if key not in event:
                problems.append(f"event {i} missing {key!r}")
        ph = event.get("ph")
        if ph == "M":
            continue  # metadata carries no timestamp ordering contract
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i} ({event.get('name')}) missing numeric ts")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i} ({event.get('name')}) ts {ts} before previous {last_ts}"
            )
        last_ts = ts
        key = (event.get("pid"), event.get("tid"))
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i} ({event.get('name')}) X event with bad dur {dur!r}"
                )
        elif ph == "B":
            open_stacks[key] = open_stacks.get(key, 0) + 1
        elif ph == "E":
            if open_stacks.get(key, 0) <= 0:
                problems.append(f"event {i} E without matching B on {key}")
            else:
                open_stacks[key] -= 1
    for key, depth in open_stacks.items():
        if depth:
            problems.append(f"{depth} unclosed B event(s) on thread {key}")
    return problems
