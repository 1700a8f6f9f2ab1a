"""Fixtures shared by more than one test module."""

import pytest

from repro.server.wal import ProjectJournal, WriteAheadLog


@pytest.fixture
def journal_io(monkeypatch):
    """What every project journal wrote during the test, counted at the
    journal's own entry points and keyed by journal directory:
    ``appended`` log bytes (segment headers included), the size of the
    ``last_record``, record ``types`` in append order, and the
    ``snapshots`` written as ``(results covered, bytes)``."""
    io = {"appended": {}, "last_record": {}, "types": {}, "snapshots": {}}
    real_append = WriteAheadLog.append
    real_snapshot = ProjectJournal.snapshot

    def append(self, record):
        before = self.size_bytes
        seq = real_append(self, record)
        grown = self.size_bytes - before
        owner = self.directory.parent  # <project journal>/wal
        io["appended"][owner] = io["appended"].get(owner, 0) + grown
        io["last_record"][owner] = grown
        io["types"].setdefault(owner, []).append(record.get("type"))
        return seq

    def snapshot(self):
        path = real_snapshot(self)
        io["snapshots"].setdefault(self.directory, []).append(
            (len(self.state.results), path.stat().st_size)
        )
        return path

    monkeypatch.setattr(WriteAheadLog, "append", append)
    monkeypatch.setattr(ProjectJournal, "snapshot", snapshot)
    return io
