"""Process-local metrics registry: counters, gauges, histograms.

The paper's users watch Copernicus through a web interface; its modern
equivalent is a metrics endpoint.  This module is the registry behind
`repro`'s observability layer (:mod:`repro.obs`): every component of
the overlay — transport, servers, workers, controllers, the chaos
harness — registers labelled instruments here, and exporters render
the whole registry as Prometheus text format or JSON lines.

Design notes
------------
* Instruments are *families* keyed by metric name; a family fans out
  into children per label-value tuple (``family.labels(server="srv")``).
  Re-registering a name returns the existing family, so instrumented
  code can call :meth:`MetricsRegistry.inc` without coordinating setup.
* Histograms use fixed, cumulative buckets (Prometheus semantics:
  ``le`` upper bounds plus ``+Inf``), so exporting and re-parsing is
  lossless — the round-trip property the test suite checks.
* Everything is deterministic and wall-clock-free: values change only
  when instrumented code runs, so two runs of the same seeded scenario
  produce identical dumps, byte-accounting series included.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError

#: Default histogram upper bounds (virtual seconds / generic sizes).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
    100.0, 500.0, 1000.0, 5000.0,
)


class Sample:
    """One exported time-series point: name + labels -> value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str], value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def key(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        """Hashable identity (name + sorted label pairs)."""
        return (self.name, tuple(sorted(self.labels.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sample({self.name}, {self.labels}, {self.value})"


class _Child:
    """Base class for one labelled instrument instance."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Counter(_Child):
    """Monotonically increasing value."""

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError("counters can only increase")
        self.value += amount


class Gauge(_Child):
    """A value that can go up and down."""

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (may be negative)."""
        self.value += amount


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ConfigurationError("histogram needs at least one bucket")
        self.counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        out, running = [], 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


_TYPES = ("counter", "gauge", "histogram")


class MetricFamily:
    """All children of one metric name, sharing label names and type."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if kind not in _TYPES:
            raise ConfigurationError(f"unknown metric type {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: str):
        """The child instrument for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.buckets)
            self._children[key] = child
        return child

    def samples(self) -> Iterable[Sample]:
        """Flatten children into exportable samples.

        Histograms expand into ``_bucket``/``_sum``/``_count`` series,
        exactly as Prometheus clients do.
        """
        for key in sorted(self._children):
            labels = dict(zip(self.labelnames, key))
            child = self._children[key]
            if self.kind == "histogram":
                for le, cum in child.cumulative():
                    le_str = "+Inf" if math.isinf(le) else _format_value(le)
                    yield Sample(
                        f"{self.name}_bucket", {**labels, "le": le_str}, cum
                    )
                yield Sample(f"{self.name}_sum", dict(labels), child.sum)
                yield Sample(f"{self.name}_count", dict(labels), child.count)
            else:
                yield Sample(self.name, labels, child.value)


class MetricsRegistry:
    """All metric families of one process/deployment."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._families: Dict[str, MetricFamily] = {}
        #: Children already resolved by :meth:`inc` / :meth:`set_gauge` /
        #: :meth:`observe`, keyed ``(kind, name, label items)``.
        self._handles: Dict[tuple, object] = {}

    # -- registration ------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(
                name, kind, help=help, labelnames=labelnames, buckets=buckets
            )
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {family.kind}"
            )
        if set(family.labelnames) != set(labelnames):
            raise ConfigurationError(
                f"metric {name!r} already registered with labels "
                f"{sorted(family.labelnames)}, got {sorted(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family."""
        return self._family(name, "histogram", help, labelnames, buckets)

    # -- one-line instrumentation helpers ----------------------------------

    def _bind(
        self, kind: str, name: str, help: str, labels: Dict[str, object]
    ) -> object:
        """Resolve (registering on first use) the child behind one
        helper call and remember it in the handle cache.

        Kind and label names are validated here, on the cache fill;
        ``kind`` is part of the key, so a clashing re-registration
        misses the cache and raises as an uncached call would.  Only
        all-``str`` label sets are remembered: ``1``, ``1.0`` and
        ``True`` are equal as dict keys but name different children.
        """
        child = self._family(name, kind, help, sorted(labels)).labels(**labels)
        if all(type(v) is str for v in labels.values()):
            self._handles[(kind, name, tuple(labels.items()))] = child
        return child

    def inc(self, name: str, amount: float = 1.0, help: str = "", **labels) -> None:
        """Increment counter *name* (auto-registering it on first use)."""
        child = self._handles.get(("counter", name, tuple(labels.items())))
        if child is None:
            child = self._bind("counter", name, help, labels)
        child.inc(amount)

    def set_gauge(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set gauge *name* (auto-registering it on first use)."""
        child = self._handles.get(("gauge", name, tuple(labels.items())))
        if child is None:
            child = self._bind("gauge", name, help, labels)
        child.set(value)

    def observe(self, name: str, value: float, help: str = "", **labels) -> None:
        """Observe *value* into histogram *name* (auto-registering)."""
        child = self._handles.get(("histogram", name, tuple(labels.items())))
        if child is None:
            child = self._bind("histogram", name, help, labels)
        child.observe(value)

    # -- reading -----------------------------------------------------------

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of one counter/gauge child (0.0 when absent).

        The read-side twin of :meth:`inc`/:meth:`set_gauge`: dashboards
        pull their numbers from here instead of scraping component
        attributes.
        """
        family = self._families.get(name)
        if family is None or family.kind == "histogram":
            return default
        key = tuple(str(labels.get(n, "")) for n in family.labelnames)
        child = family._children.get(key)
        return child.value if child is not None else default

    def total(self, name: str) -> float:
        """Sum of one counter/gauge family across all label sets."""
        family = self._families.get(name)
        if family is None or family.kind == "histogram":
            return 0.0
        return sum(child.value for child in family._children.values())

    def families(self) -> List[MetricFamily]:
        """Registered families in name order."""
        return [self._families[n] for n in sorted(self._families)]

    def collect(self) -> List[Sample]:
        """Every exportable sample, deterministically ordered."""
        out: List[Sample] = []
        for family in self.families():
            out.extend(family.samples())
        return out

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Nested ``{name: {label-string: value}}`` view for dashboards."""
        out: Dict[str, Dict[str, float]] = {}
        for sample in self.collect():
            label_str = ",".join(
                f"{k}={v}" for k, v in sorted(sample.labels.items())
            )
            out.setdefault(sample.name, {})[label_str] = sample.value
        return out


# -- exporters ---------------------------------------------------------------


def _format_value(value: float) -> str:
    """Render a float the way Prometheus does (ints stay ints)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples():
            if sample.labels:
                label_str = ",".join(
                    f'{k}="{_escape_label(str(v))}"'
                    for k, v in sample.labels.items()
                )
                lines.append(
                    f"{sample.name}{{{label_str}}} {_format_value(sample.value)}"
                )
            else:
                lines.append(f"{sample.name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def to_json_lines(registry: MetricsRegistry) -> str:
    """One JSON object per sample, one sample per line."""
    lines = []
    for family in registry.families():
        for sample in family.samples():
            lines.append(
                json.dumps(
                    {
                        "name": sample.name,
                        "type": family.kind,
                        "labels": sample.labels,
                        "value": sample.value,
                    },
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + "\n"


def _parse_label_block(block: str) -> Dict[str, str]:
    """Parse ``k="v",k2="v2"`` respecting escaped quotes."""
    labels: Dict[str, str] = {}
    i, n = 0, len(block)
    while i < n:
        eq = block.index("=", i)
        key = block[i:eq].strip().lstrip(",").strip()
        assert block[eq + 1] == '"', f"malformed label block {block!r}"
        j = eq + 2
        out = []
        while j < n:
            ch = block[j]
            if ch == "\\":
                nxt = block[j + 1]
                out.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt)
                )
                j += 2
                continue
            if ch == '"':
                break
            out.append(ch)
            j += 1
        labels[key] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus_text(
    text: str,
) -> Tuple[Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float], Dict[str, str]]:
    """Parse Prometheus text format back into ``{sample-key: value}``.

    Returns ``(values, types)`` where *values* maps
    ``(name, sorted-label-pairs)`` to the parsed float and *types* maps
    family name to its declared type.  Used by the exporter round-trip
    tests; intentionally strict — malformed lines raise.
    """
    values: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name = line[: line.index("{")]
            block = line[line.index("{") + 1 : line.rindex("}")]
            labels = _parse_label_block(block)
            value_str = line[line.rindex("}") + 1 :].strip()
        else:
            name, value_str = line.rsplit(None, 1)
            labels = {}
        if value_str == "+Inf":
            value = math.inf
        elif value_str == "-Inf":
            value = -math.inf
        else:
            value = float(value_str)
        values[(name, tuple(sorted(labels.items())))] = value
    return values, types
