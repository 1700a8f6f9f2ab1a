"""Fixtures shared by more than one test module.

Importing this file also wraps the eight public scenario runners of
:mod:`repro.testing` so that every run made under pytest — by a test,
through the ``canned`` fixture or through the CLI — is compared with
its committed digest in ``tests/data/scenario_digests.json``.  The file
was generated from the commit before the runners were rewritten, by::

    SCENARIO_DIGESTS=write PYTHONPATH=<that checkout>/src python -m pytest tests/

and is regenerated only by a change that means to alter a transcript.
"""

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import sys
from pathlib import Path

import pytest

import repro.testing
from repro.obs.trace import to_chrome_trace
from repro.server.wal import ProjectJournal, WriteAheadLog
from repro.testing import FaultPlan

DIGESTS = Path(__file__).parent / "data" / "scenario_digests.json"
WRITE_DIGESTS = os.environ.get("SCENARIO_DIGESTS") == "write"
RUNNERS = [name for name in repro.testing.__all__ if name.startswith("run_")]


def _shown(value):
    """An argument as it appears in a digest key: stable across runs,
    hosts and checkouts (no addresses, no paths)."""
    if isinstance(value, FaultPlan):
        return value.describe()
    if isinstance(value, (list, tuple)):
        return [_shown(item) for item in value]
    if dataclasses.is_dataclass(value):
        return repr(value)
    if callable(value):
        module = value.__module__.rpartition(".")[2]
        return f"{module}.{value.__qualname__}"
    return value


def scenario_key(name: str, arguments: dict) -> str:
    """``runner(arg=value, ...)`` over the arguments actually passed."""
    shown = ", ".join(
        f"{arg}={_shown(value)!r}"
        for arg, value in sorted(arguments.items())
        if arg != "journal_root"  # where the journal lives changes no byte
    )
    return f"{name}({shown})"


def _sha256(value) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(value.encode()).hexdigest()


def fingerprint(result) -> dict:
    """sha256 of everything a run promises to reproduce from its seed."""
    parts = {
        "transcript": result.transcript,
        "chaos": result.chaos,
        "metrics": result.obs.metrics.snapshot(),
        "trace": to_chrome_trace(result.obs.tracer),
    }
    for extra in ("report", "completed_at", "drain_cycles", "victim"):
        if getattr(result, extra, None) is not None:
            parts[extra] = getattr(result, extra)
    if hasattr(result, "controller"):
        parts["finished"] = sorted(result.controller.finished)
    if getattr(result, "pre", None) is not None:
        parts["pre_transcript"] = result.pre["transcript"]
    if getattr(result, "breaker", None) is not None:
        parts["breaker"] = result.breaker.describe()
    if getattr(result, "baseline", None) is not None:
        parts["baseline_transcript"] = result.baseline.transcript
    return {name: _sha256(value) for name, value in parts.items()}


class DigestBook:
    """The committed digests, and the check every wrapped run goes through."""

    def __init__(self) -> None:
        self.entries = {} if WRITE_DIGESTS else json.loads(DIGESTS.read_text())
        self._depth = 0

    def wrap(self, name, runner):
        signature = inspect.signature(runner)

        @functools.wraps(runner)
        def checked(*args, **kwargs):
            if self._depth:  # a churn runner's own crash-free baseline
                return runner(*args, **kwargs)
            # keyed before the run: a passed-in plan counts its firings
            key = scenario_key(name, signature.bind(*args, **kwargs).arguments)
            self._depth += 1
            try:
                result = runner(*args, **kwargs)
            finally:
                self._depth -= 1
            self.check(key, fingerprint(result))
            return result

        return checked

    def check(self, key: str, found: dict) -> None:
        # no entry when checking: arguments tier-1 does not use
        # (CHAOS_SEED=101); twice when writing: the two must agree
        lookup = self.entries.setdefault if WRITE_DIGESTS else self.entries.get
        expected = lookup(key, found)
        differing = sorted(k for k in found if found[k] != expected.get(k))
        assert not differing, (
            f"{key}: {differing} differ from tests/data/scenario_digests.json"
        )


BOOK = DigestBook()
for _name in RUNNERS:
    _runner = getattr(repro.testing, _name)
    _checked = BOOK.wrap(_name, _runner)
    setattr(sys.modules[_runner.__module__], _name, _checked)
    setattr(repro.testing, _name, _checked)


def pytest_sessionfinish(session):
    if WRITE_DIGESTS:
        DIGESTS.write_text(
            json.dumps(BOOK.entries, indent=1, sort_keys=True) + "\n"
        )


def _run(tmp_path_factory, name, seed, kwargs):
    runner = getattr(repro.testing, name)
    if "journal_root" in inspect.signature(runner).parameters:
        kwargs = dict(kwargs, journal_root=tmp_path_factory.mktemp(name))
    return runner(seed=seed, **kwargs)


@pytest.fixture(scope="session")
def canned(tmp_path_factory):
    """``canned(name, seed, **kwargs)``: the result of that runner call,
    executed once per session however many tests ask for it (journaled
    runners get a fresh ``journal_root``).  For tests that only *read*
    the result; one that mutates it keeps a private run."""
    cache = {}

    def get(name, seed, **kwargs):
        key = scenario_key(name, dict(kwargs, seed=seed))
        if key not in cache:
            cache[key] = _run(tmp_path_factory, name, seed, kwargs)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def reproducible(canned, tmp_path_factory):
    """``reproducible(name, seed, **kwargs)``: the canned result, proven
    a pure function of its arguments — against its committed digest
    (checked as it ran), or against a second run for arguments that
    have none."""

    def get(name, seed, **kwargs):
        first = canned(name, seed, **kwargs)
        if scenario_key(name, dict(kwargs, seed=seed)) not in BOOK.entries:
            second = _run(tmp_path_factory, name, seed, kwargs)
            assert fingerprint(first) == fingerprint(second)
        return first

    return get


def _journal_of(path: Path) -> Path:
    """The project journal directory a file or directory belongs to
    (``<journal>``, ``<journal>/wal`` or a file in either)."""
    if not path.is_dir():
        path = path.parent
    return path.parent if path.name == "wal" else path


@pytest.fixture
def journal_io(monkeypatch):
    """What every project journal wrote during the test, counted at the
    journal's own entry points and keyed by journal directory:
    ``appended`` log bytes (segment headers included), the size of the
    ``last_record``, record ``types`` in append order, the ``snapshots``
    written as ``(results covered, bytes)``, log ``segments`` started,
    and ``fsyncs`` of the journal's files and directories (an fd is
    resolved to its path through ``/proc/self/fd``, so Linux only)."""
    io = {
        "appended": {},
        "last_record": {},
        "types": {},
        "snapshots": {},
        "segments": {},
        "fsyncs": {},
    }
    real_append = WriteAheadLog.append
    real_start_segment = WriteAheadLog._start_segment
    real_snapshot = ProjectJournal.snapshot
    real_fsync = os.fsync

    def append(self, record):
        before = self.size_bytes
        seq = real_append(self, record)
        grown = self.size_bytes - before
        owner = self.directory.parent  # <project journal>/wal
        io["appended"][owner] = io["appended"].get(owner, 0) + grown
        io["last_record"][owner] = grown
        io["types"].setdefault(owner, []).append(record.get("type"))
        return seq

    def start_segment(self):
        owner = self.directory.parent
        io["segments"][owner] = io["segments"].get(owner, 0) + 1
        real_start_segment(self)

    def snapshot(self):
        path = real_snapshot(self)
        io["snapshots"].setdefault(self.directory, []).append(
            (len(self.state.results), path.stat().st_size)
        )
        return path

    def fsync(fd):
        owner = _journal_of(Path(os.readlink(f"/proc/self/fd/{fd}")))
        io["fsyncs"][owner] = io["fsyncs"].get(owner, 0) + 1
        real_fsync(fd)

    monkeypatch.setattr(WriteAheadLog, "append", append)
    monkeypatch.setattr(WriteAheadLog, "_start_segment", start_segment)
    monkeypatch.setattr(ProjectJournal, "snapshot", snapshot)
    monkeypatch.setattr(os, "fsync", fsync)
    return io
