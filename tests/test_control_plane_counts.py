"""Host-independent counts of a small control-plane run.

The benchmark's ``control_plane`` workload measures seconds; this is
its quick-size analogue through the same public call
(:func:`repro.api.run_tenants`: tenants of noop commands in waves,
mixed quota and weight, journaled to disk), asserting only what is the
same on every machine:

* journal write amplification stays linear — per project, the snapshot
  bytes written never exceed the log bytes appended plus the newest
  snapshot — and compaction is rarer than one snapshot per
  ``snapshot_every`` results;
* one result record per completed command, one issued record per wave,
  no lease records, and a cold recovery reads back exactly the
  completed commands, parsing each blob once (none holds a tag to
  rebuild);
* the only encodes are the journal's: one per record and one per
  snapshot (which splices its history from the records' bytes), none
  for the messages, whose wire sizes are summed without encoding;
* fsyncs per journal are exactly one per result record no snapshot
  covers, one per issued record, two per snapshot (file, then the
  rename's directory) and one per log segment started (its directory);
* the scheduler's dispatch transcript (the ordered ``WORKLOAD_ASSIGNED``
  events) equals ``tests/data/control_plane_dispatch.txt``, produced by
  this file's scenario at the commit *before* dispatch was indexed
  (``PYTHONPATH=<that checkout>/src python
  tests/test_control_plane_counts.py``).

A change that brings back work proportional to project history, or that
perturbs dispatch order, fails here without a clock.
"""

import sys
import tempfile
from pathlib import Path

import repro.util.serialization as serialization
from repro.api import Tenant, run_tenants
from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.events import EventKind
from repro.server.wal import ServerJournal
from repro.worker import executable
from repro.worker.executable import register_executable

TENANTS, WAVES, WIDTH = 6, 4, 10
TRANSCRIPT = Path(__file__).parent / "data" / "control_plane_dispatch.txt"


def _noop(payload, abort_after_steps=None):
    return {"echo": payload["echo"]}, True


class WaveController(Controller):
    """Waves of noop commands; the next wave once the last is complete."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.wave = self.pending = self.done = 0

    def _issue(self, project):
        self.pending = WIDTH
        return [
            Command(
                command_id=f"w{self.wave}_c{i}",
                project_id=project.project_id,
                executable="noop",
                payload={"echo": f"{self.tenant}/{self.wave}/{i}"},
            )
            for i in range(WIDTH)
        ]

    def on_project_start(self, project):
        return self._issue(project)

    def on_command_finished(self, project, command, result):
        self.done += 1
        self.pending -= 1
        if self.pending:
            return []
        self.wave += 1
        return self._issue(project) if self.wave < WAVES else []

    def is_complete(self, project):
        return self.done >= WAVES * WIDTH


def run_scenario(journal_root):
    """The scenario's run; the caller installs the ``noop`` executable."""
    tenants = [
        Tenant(
            f"t{k:02d}",
            controller=WaveController(f"t{k:02d}"),
            quota=4 if k % 5 == 0 else None,
            weight=2.0 if k % 3 == 0 else 1.0,
        )
        for k in range(TENANTS)
    ]
    return run_tenants(
        tenants,
        n_shards=3,
        workers_per_shard=2,
        cores=2,
        seed=0,
        journal_root=journal_root,
    )


def dispatch_transcript(out) -> str:
    events = out.runner.events.filter(EventKind.WORKLOAD_ASSIGNED)
    return "".join(f"{event}\n" for event in events)


def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_control_plane_counts(tmp_path, journal_io, monkeypatch):
    # every encode, whichever name it is called by, ends in the encoder
    encodes = _counting(monkeypatch, serialization._ENCODER, "encode")
    # installed for this test alone: every worker announces the global
    # executables, so a leftover one would add bytes to later runs
    monkeypatch.setitem(executable._GLOBAL_EXECUTABLES, "noop", _noop)
    out = run_scenario(tmp_path)
    records = sum(len(types) for types in journal_io["types"].values())
    compactions = sum(len(p) for p in journal_io["snapshots"].values())
    assert len(encodes) == records + compactions
    completed = {
        name: len(project.results_log) for name, project in out.projects.items()
    }
    assert completed == {f"t{k:02d}": WAVES * WIDTH for k in range(TENANTS)}

    snapshots = count_only = 0
    second_walks = _counting(monkeypatch, serialization, "_decode_value")
    for shard in out.shards:
        spacing = shard.journal.snapshot_every
        shard.journal.close()
        cold = ServerJournal(tmp_path / shard.name)
        for tenant in cold.project_ids():
            directory = tmp_path / shard.name / tenant
            n = completed[tenant]
            assert len(cold.project(tenant).recover().results) == n

            types = journal_io["types"][directory]
            assert types.count("result") == n
            assert types.count("issued") == WAVES
            assert set(types) == {"issued", "result"}

            points = journal_io["snapshots"][directory]
            assert journal_io["fsyncs"][directory.resolve()] == (
                (n - len(points))
                + WAVES
                + 2 * len(points)
                + journal_io["segments"][directory]
            )
            assert points[0][0] == spacing
            written = sum(size for _, size in points)
            assert written <= journal_io["appended"][directory] + points[-1][1]
            assert len(points) <= n // spacing
            snapshots += len(points)
            count_only += n // spacing
        cold.close()
    # the count-only rule snapshots every `snapshot_every` results
    # however large the state has grown; the size rule spaces them out
    assert snapshots < count_only
    assert second_walks == []

    assert dispatch_transcript(out) == TRANSCRIPT.read_text()


if __name__ == "__main__":
    register_executable("noop", _noop)
    with tempfile.TemporaryDirectory() as root:
        sys.stdout.write(dispatch_transcript(run_scenario(root)))
