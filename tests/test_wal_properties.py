"""Seeded property tests for the write-ahead journal (crash shapes).

The WAL's crash-consistency contract, exercised byte by byte:

* **Torn tail** — a crash mid-append leaves the final record cut
  short at an arbitrary byte.  Reopening must recover every earlier
  record, repair the file and accept fresh appends, for *every*
  possible cut offset of the final record.
* **Mid-log corruption** is a different animal: flipped bits in a
  non-final segment mean the disk is lying, and recovery must refuse
  (raise ``JournalCorruptionError``) rather than silently drop data.
* **Segment rotation / compaction** never reuses segment numbers, and
  snapshot + remaining log always recovers to exactly the live
  mirrored state.

Pure stdlib ``random.Random`` with fixed seeds, so failures replay.
"""

import base64
import json
import os
import random
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.server.wal as wal_module
from repro.core.command import Command
from repro.server.wal import (
    SEGMENT_MAGIC,
    JournalState,
    ProjectJournal,
    WriteAheadLog,
)
from repro.util.errors import ConfigurationError, JournalCorruptionError
from repro.util.serialization import encode_message

HEADER_SIZE = 8  # length (4B) + crc32 (4B), see wal._RECORD_HEADER


def command(k):
    return Command(f"c{k}", "p", "mdrun", {"k": k})


# ------------------------------------------------------------- torn tails


@pytest.mark.parametrize("seed", range(3))
def test_torn_tail_at_every_byte_recovers_last_full_record(tmp_path, seed):
    """Truncate the final record at *every* byte offset: recovery must
    land on the last fully written record and stay appendable."""
    rng = random.Random(seed)
    log = WriteAheadLog(tmp_path / "src", fsync=False)
    sizes = []
    for k in range(6):
        log.append({"type": "op", "k": k, "pad": "x" * rng.randint(0, 30)})
        sizes.append(log.segments()[-1].stat().st_size)
    log.close()
    segment = log.segments()[-1]
    pristine = segment.read_bytes()
    assert sizes[-1] == len(pristine)

    tail_start = sizes[-2]  # first byte of the final record's header
    for cut in range(tail_start, len(pristine)):
        scratch = tmp_path / f"cut{cut}"
        scratch.mkdir()
        (scratch / segment.name).write_bytes(pristine[:cut])
        reopened = WriteAheadLog(scratch, fsync=False)
        assert [r["k"] for r in reopened.records()] == list(range(5))
        assert reopened.next_seq == 5
        # the torn bytes are physically gone; appends continue the log
        reopened.append({"type": "op", "k": 99})
        assert [r["k"] for r in reopened.records()] == [0, 1, 2, 3, 4, 99]
        reopened.close()

    # sanity: the untruncated log still holds all six
    assert [
        r["k"] for r in WriteAheadLog(tmp_path / "src", fsync=False).records()
    ] == list(range(6))


@pytest.mark.parametrize("seed", range(5))
def test_bit_flip_in_final_record_payload_truncates_it(tmp_path, seed):
    rng = random.Random(seed)
    log = WriteAheadLog(tmp_path, fsync=False)
    sizes = []
    for k in range(4):
        log.append({"type": "op", "k": k, "pad": "y" * 20})
        sizes.append(log.segments()[-1].stat().st_size)
    log.close()
    segment = log.segments()[-1]
    blob = bytearray(segment.read_bytes())
    # flip one payload byte of the final record (skip its header so the
    # corruption is a CRC mismatch, not a bogus length)
    victim = rng.randrange(sizes[-2] + HEADER_SIZE, sizes[-1])
    blob[victim] ^= 0xFF
    segment.write_bytes(bytes(blob))
    reopened = WriteAheadLog(tmp_path, fsync=False)
    assert [r["k"] for r in reopened.records()] == [0, 1, 2]
    assert reopened.next_seq == 3
    reopened.close()


def test_headerless_trailing_segment_is_dropped(tmp_path):
    log = WriteAheadLog(tmp_path, fsync=False)
    log.append({"type": "op", "k": 0})
    log.close()
    # a crash after creating the next segment but before its magic
    (tmp_path / "wal-00000001.log").write_bytes(SEGMENT_MAGIC[:3])
    reopened = WriteAheadLog(tmp_path, fsync=False)
    assert [r["k"] for r in reopened.records()] == [0]
    assert len(reopened.segments()) == 1
    reopened.close()


# ----------------------------------------------------- mid-log corruption


def _multi_segment_log(tmp_path, n=30):
    log = WriteAheadLog(tmp_path, segment_bytes=256, fsync=False)
    for k in range(n):
        log.append({"type": "op", "k": k, "pad": "z" * 24})
    log.close()
    assert len(log.segments()) >= 3
    return log


def test_corrupt_record_in_non_final_segment_refuses_to_load(tmp_path):
    log = _multi_segment_log(tmp_path)
    first = log.segments()[0]
    blob = bytearray(first.read_bytes())
    blob[len(SEGMENT_MAGIC) + HEADER_SIZE + 2] ^= 0xFF
    first.write_bytes(bytes(blob))
    with pytest.raises(JournalCorruptionError):
        WriteAheadLog(tmp_path, segment_bytes=256, fsync=False)


def test_bad_magic_in_non_final_segment_refuses_to_load(tmp_path):
    log = _multi_segment_log(tmp_path)
    first = log.segments()[0]
    blob = bytearray(first.read_bytes())
    blob[0] ^= 0xFF
    first.write_bytes(bytes(blob))
    with pytest.raises(JournalCorruptionError):
        WriteAheadLog(tmp_path, segment_bytes=256, fsync=False)


# ------------------------------------------------- rotation and compaction


def test_rotation_preserves_order_and_numbering_is_monotone(tmp_path):
    log = _multi_segment_log(tmp_path)
    reopened = WriteAheadLog(tmp_path, segment_bytes=256, fsync=False)
    assert [r["k"] for r in reopened.records()] == list(range(30))
    old_indices = [
        WriteAheadLog._segment_index(p) for p in reopened.segments()
    ]
    assert old_indices == sorted(old_indices)
    reopened.truncate_all()
    assert reopened.segments() == []
    reopened.append({"type": "op", "k": 100})
    new_index = WriteAheadLog._segment_index(reopened.segments()[0])
    assert new_index > max(old_indices)  # compaction never reuses numbers
    reopened.close()


def test_segment_bytes_must_fit_a_header(tmp_path):
    with pytest.raises(ConfigurationError):
        WriteAheadLog(tmp_path, segment_bytes=4)


# ------------------------------------------------------- project journal


@pytest.mark.parametrize("seed", range(4))
def test_recover_always_equals_live_mirror(tmp_path, seed):
    """Whatever the snapshot cadence, what a restart reads from disk is
    exactly the state the writer was mirroring in memory."""
    rng = random.Random(seed)
    journal = ProjectJournal(
        tmp_path,
        segment_bytes=1 << 12,
        snapshot_every=rng.choice([1, 2, 3, None]),
        fsync=False,
    )
    for k in range(10):
        cmd = command(k)
        journal.record_issued([cmd])
        worker = f"w{k % 2}"
        if rng.random() < 0.5:
            journal.record_checkpoint(
                worker, cmd.command_id, {"step": k * 100}
            )
        journal.record_result(cmd, {"value": k})
    recovered = journal.recover()
    live = journal.state
    assert [c.command_id for c, _ in recovered.results] == [
        c.command_id for c, _ in live.results
    ]
    assert [r for _, r in recovered.results] == [r for _, r in live.results]
    assert recovered.completed_ids == live.completed_ids
    assert recovered.issued_ids == live.issued_ids
    assert recovered.checkpoints == live.checkpoints
    journal.close()


def test_sequence_continues_past_snapshot_after_reopen(tmp_path):
    """Post-compaction appends must sequence past the snapshot, or a
    later recovery would skip them as already-covered."""
    journal = ProjectJournal(tmp_path, snapshot_every=2, fsync=False)
    journal.record_result(command(0), {"k": 0})
    journal.record_result(command(1), {"k": 1})
    assert journal.snapshots_written == 1
    assert journal.wal.segments() == []  # compacted away
    journal.close()

    reopened = ProjectJournal(tmp_path, snapshot_every=2, fsync=False)
    reopened.record_result(command(9), {"k": 9})
    reopened.close()

    final = ProjectJournal(tmp_path, snapshot_every=2, fsync=False)
    assert [c.command_id for c, _ in final.recover().results] == [
        "c0", "c1", "c9",
    ]
    final.close()


def test_torn_tail_behind_a_snapshot_loses_only_the_torn_record(tmp_path):
    journal = ProjectJournal(tmp_path, snapshot_every=2, fsync=False)
    for k in range(3):  # snapshot covers c0+c1; c2 lives in the log
        journal.record_result(command(k), {"k": k})
    journal.close()
    segments = sorted((tmp_path / "wal").glob("wal-*.log"))
    assert segments
    blob = segments[-1].read_bytes()
    segments[-1].write_bytes(blob[: len(blob) - 3])
    recovered = ProjectJournal(
        tmp_path, snapshot_every=2, fsync=False
    ).recover()
    assert [c.command_id for c, _ in recovered.results] == ["c0", "c1"]


def test_interrupted_snapshot_temp_file_is_swept(tmp_path):
    journal = ProjectJournal(tmp_path, snapshot_every=None, fsync=False)
    journal.record_result(command(0), {"k": 0})
    journal.close()
    (tmp_path / ".snapshot-00000007.tmp").write_bytes(b"half-written junk")
    reopened = ProjectJournal(tmp_path, snapshot_every=None, fsync=False)
    assert not list(tmp_path.glob(".*.tmp"))
    assert len(reopened.recover().results) == 1
    reopened.close()


def test_duplicate_result_records_apply_idempotently(tmp_path):
    journal = ProjectJournal(tmp_path, snapshot_every=None, fsync=False)
    journal.record_result(command(0), {"k": 0})
    journal.record_result(command(0), {"k": 0})  # retried transition
    assert journal.results_applied == 1
    assert len(journal.recover().results) == 1
    journal.close()


def test_journal_state_payload_roundtrip():
    state = JournalState()
    state.apply({"type": "issued", "command_ids": ["c0", "c1"]})
    state.apply(
        {
            "type": "checkpoint",
            "worker": "w0",
            "command": "c0",
            "checkpoint": {"step": 100},
        }
    )
    state.apply(
        {
            "type": "result",
            "command": command(1).to_payload(),
            "result": {"k": 1},
        }
    )
    clone = JournalState.from_payload(state.to_payload())
    assert clone.completed_ids == state.completed_ids
    assert clone.issued_ids == state.issued_ids
    assert clone.checkpoints == state.checkpoints


def test_unknown_record_type_is_corruption():
    with pytest.raises(JournalCorruptionError):
        JournalState().apply({"type": "mystery"})


@pytest.mark.parametrize("kind", ["assigned", "requeued"])
def test_journal_holding_a_lease_record_refuses_to_open(tmp_path, kind):
    """Leases are no longer journaled; a log that holds one is from an
    older format, and opening it names the record type."""
    log = WriteAheadLog(tmp_path / "wal", fsync=False)
    log.append({"type": "issued", "command_ids": ["c0"]})
    log.append({"type": kind, "worker": "w0", "command_ids": ["c0"]})
    log.close()
    with pytest.raises(JournalCorruptionError, match=kind):
        ProjectJournal(tmp_path, fsync=False)


# ------------------------------------------------- size-triggered compaction
#
# A snapshot is written when at least ``snapshot_every`` results were
# applied since the last one AND the log has grown to at least that
# snapshot's size.  The properties below are what that rule promises.


def _same_state(a, b):
    assert [c.to_payload() for c, _ in a.results] == [
        c.to_payload() for c, _ in b.results
    ]
    assert [r for _, r in a.results] == [r for _, r in b.results]
    assert a.completed_ids == b.completed_ids
    assert a.issued_ids == b.issued_ids
    assert a.checkpoints == b.checkpoints
    assert a.epoch == b.epoch


def _record_stream(rng, n_results):
    """``(method name, args)`` journal calls ending in *n_results* results
    of varying size, with the other transitions mixed in."""
    ops = []
    for k in range(n_results):
        cmd = command(k)
        worker = f"w{k % 2}"
        ops.append(("record_issued", ([cmd],)))
        if rng.random() < 0.4:
            ops.append(
                ("record_checkpoint", (worker, cmd.command_id, {"step": k}))
            )
        if rng.random() < 0.1:
            ops.append(("record_epoch", (k + 1,)))
        pad = "r" * rng.choice([0, 5, 40, 300])
        ops.append(("record_result", (cmd, {"value": k, "pad": pad})))
    return ops


def _on_disk(directory):
    """(newest snapshot name or None, its size, log bytes) of a journal."""
    snapshots = sorted(directory.glob("snapshot-*.bin"))
    log = sum(p.stat().st_size for p in (directory / "wal").glob("wal-*.log"))
    if not snapshots:
        return None, 0, log
    return snapshots[-1].name, snapshots[-1].stat().st_size, log


@pytest.mark.parametrize("snapshot_every", [1, 2, 3, 8, None])
@pytest.mark.parametrize("seed", range(3))
def test_compaction_properties(tmp_path, journal_io, seed, snapshot_every):
    rng = random.Random(seed)
    ops = _record_stream(rng, n_results=40)
    kept_open = tmp_path / "kept-open"
    reopened = tmp_path / "reopened"

    def open_journal(directory):
        return ProjectJournal(
            directory,
            segment_bytes=1 << 11,  # rotates: sizes span several segments
            snapshot_every=snapshot_every,
            fsync=False,
        )

    live = open_journal(kept_open)
    for method, args in ops:
        getattr(live, method)(*args)
        # a twin that restarts before every single append
        twin = open_journal(reopened)
        getattr(twin, method)(*args)

        for journal in (live, twin):
            directory = journal.directory
            _same_state(journal.recover(), journal.state)
            name, snapshot_bytes, log_bytes = _on_disk(directory)
            # the journal's own counters are the files' sizes
            assert journal.wal.size_bytes == log_bytes
            assert journal._snapshot_bytes == snapshot_bytes
            if method == "record_result" and snapshot_every is not None:
                covered = int(name[9:17]) if name else 0
                since = journal.results_applied - covered
                assert since < snapshot_every or (
                    log_bytes
                    < snapshot_bytes + journal_io["last_record"][directory]
                )
        twin.close()
        # restarting changes neither where compaction happens nor what
        # is left on disk: both byte counters persist
        assert _on_disk(kept_open) == _on_disk(reopened)
        _same_state(open_journal(reopened).recover(), live.state)
    live.close()

    points = journal_io["snapshots"].get(kept_open, [])
    assert points == journal_io["snapshots"].get(reopened, [])
    if snapshot_every is None:
        assert points == []
        return
    # the first snapshot lands exactly where the count-only rule put it
    assert points[0][0] == snapshot_every
    assert all(
        later[0] - earlier[0] >= snapshot_every
        for earlier, later in zip(points, points[1:])
    )
    # write amplification is linear: every snapshot but the last is no
    # larger than the log interval that triggered the next one
    written = sum(size for _, size in points)
    assert written <= journal_io["appended"][kept_open] + points[-1][1]
    # and the rule actually spaces snapshots out as the state grows
    if snapshot_every <= 3:
        assert len(points) < 40 // snapshot_every


def test_torn_tail_at_every_byte_after_two_compactions(tmp_path):
    """The every-byte-offset torn-tail case, on a journal whose log tail
    sits behind a snapshot written by the second (or later) compaction."""
    source = tmp_path / "src"
    journal = ProjectJournal(source, snapshot_every=2, fsync=False)
    k = 0
    while journal.snapshots_written < 3:
        journal.record_result(command(k), {"k": k, "pad": "t" * 25})
        k += 1
    sizes = []
    for _ in range(2):  # two records behind the newest snapshot
        journal.record_result(command(k), {"k": k, "pad": "t" * 25})
        sizes.append(journal.wal.size_bytes)
        k += 1
    assert journal.snapshots_written == 3  # neither of them compacted
    journal.close()
    snapshot = sorted(source.glob("snapshot-*.bin"))[-1]
    (segment,) = sorted((source / "wal").glob("wal-*.log"))
    pristine = segment.read_bytes()
    assert sizes[-1] == len(pristine)
    survivors = [f"c{i}" for i in range(k - 1)]

    for cut in range(sizes[0], len(pristine)):
        scratch = tmp_path / f"cut{cut}"
        (scratch / "wal").mkdir(parents=True)
        (scratch / snapshot.name).write_bytes(snapshot.read_bytes())
        (scratch / "wal" / segment.name).write_bytes(pristine[:cut])
        reopened = ProjectJournal(scratch, snapshot_every=2, fsync=False)
        assert [
            c.command_id for c, _ in reopened.recover().results
        ] == survivors
        assert reopened.wal.size_bytes == sizes[0]  # torn bytes are gone
        # appends continue, and so does compaction
        for extra in range(100, 120):
            reopened.record_result(command(extra), {"k": extra})
        assert reopened.snapshots_written >= 1
        _same_state(reopened.recover(), reopened.state)
        reopened.close()


# ------------------------------------------------------ crash windows
#
# Three writes are not fsync'd because others already make them durable
# (see the module docstring of repro.server.wal).  Each case below
# replays the crash that skipped fsync leaves open.


def _crash_copy(source, destination):
    """The journal directory *source* as a crash would leave it."""
    (destination / "wal").mkdir(parents=True)
    for path in source.glob("snapshot-*.bin"):
        (destination / path.name).write_bytes(path.read_bytes())
    for path in (source / "wal").glob("wal-*.log"):
        (destination / "wal" / path.name).write_bytes(path.read_bytes())


@pytest.mark.parametrize("seed", range(3))
def test_compaction_whose_unlinks_never_persisted(tmp_path, monkeypatch, seed):
    """A crash right after a compaction may bring back the segments it
    deleted, their last record possibly torn (the snapshot, not an
    fsync, made it durable).  Recovery equals the live mirror, and the
    next append continues the sequence past the snapshot."""
    lost = {}
    truncate_all = WriteAheadLog.truncate_all

    def remembering_truncate_all(self):
        lost.clear()
        lost.update({p.name: p.read_bytes() for p in self.segments()})
        truncate_all(self)

    monkeypatch.setattr(
        WriteAheadLog, "truncate_all", remembering_truncate_all
    )
    rng = random.Random(seed)
    journal = ProjectJournal(
        tmp_path / "live", segment_bytes=1 << 11, snapshot_every=2,
        fsync=False,
    )
    crashes = 0
    for method, args in _record_stream(rng, n_results=40):
        written = journal.snapshots_written
        getattr(journal, method)(*args)
        if journal.snapshots_written == written:
            continue
        newest = max(lost)
        for cut in (0, rng.randrange(1, 9)):  # whole, or torn tail
            crashes += 1
            crashed = tmp_path / f"crash{crashes}"
            _crash_copy(journal.directory, crashed)
            for name, blob in lost.items():
                if name == newest and cut:
                    blob = blob[:-cut]
                (crashed / "wal" / name).write_bytes(blob)
            reopened = ProjectJournal(
                crashed, segment_bytes=1 << 11, snapshot_every=2,
                fsync=False,
            )
            _same_state(reopened.state, journal.state)
            _same_state(reopened.recover(), journal.state)
            assert reopened.wal.next_seq == journal.wal.next_seq
            extra = command(1000 + crashes)
            reopened.record_result(extra, {"value": "after"})
            recovered = reopened.recover()
            assert recovered.results[-1][0].command_id == extra.command_id
            assert len(recovered.results) == len(journal.state.results) + 1
            reopened.close()
    assert crashes >= 4
    journal.close()


@pytest.mark.parametrize("seed", range(3))
def test_fresh_segment_cut_before_its_first_sync(tmp_path, seed):
    """A segment's magic bytes are made durable by its first record's
    fsync.  A crash before that leaves the new segment empty or with
    half its magic: opening drops it, loses no acknowledged record,
    and appends continue."""
    rng = random.Random(seed)
    journal = ProjectJournal(
        tmp_path / "live", segment_bytes=1 << 10, snapshot_every=None,
        fsync=False,
    )
    cases = 0
    for method, args in _record_stream(rng, n_results=30):
        acknowledged = journal.recover()
        next_seq = journal.wal.next_seq
        segments = journal.wal.segments()
        getattr(journal, method)(*args)
        fresh = journal.wal.segments()[-1]
        if segments and fresh == segments[-1]:
            continue  # the record went into an existing segment
        for keep in (0, len(SEGMENT_MAGIC) // 2):
            cases += 1
            crashed = tmp_path / f"crash{cases}"
            _crash_copy(journal.directory, crashed)
            torn = crashed / "wal" / fresh.name
            torn.write_bytes(torn.read_bytes()[:keep])
            reopened = ProjectJournal(
                crashed, segment_bytes=1 << 10, snapshot_every=None,
                fsync=False,
            )
            assert not torn.exists()  # the tail was repaired
            _same_state(reopened.state, acknowledged)
            assert reopened.wal.next_seq == next_seq
            getattr(reopened, method)(*args)  # the retried transition
            _same_state(reopened.recover(), journal.state)
            reopened.close()
    assert cases >= 4
    journal.close()


def test_result_compacted_away_is_durable_through_the_snapshot(
    tmp_path, monkeypatch
):
    """The result that triggers a snapshot is not fsync'd in the log:
    the snapshot (file fsync, rename, directory fsync) covers it before
    ``record_result`` returns, and a reopen finds it."""
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
    )
    journal = ProjectJournal(tmp_path, snapshot_every=2)
    journal.record_result(command(0), {"k": 0})
    # one for the record, one for the new segment's directory entry
    assert len(fsyncs) == 2
    del fsyncs[:]
    journal.record_result(command(1), {"k": 1})
    assert journal.snapshots_written == 1
    assert len(fsyncs) == 2  # the snapshot file and its directory only
    assert journal.wal.segments() == []  # the record was compacted away
    journal.close()
    reopened = ProjectJournal(tmp_path, snapshot_every=2)
    assert [c.command_id for c, _ in reopened.state.results] == ["c0", "c1"]
    reopened.close()


def test_cold_open_and_recover_decode_each_record_once_each(
    tmp_path, monkeypatch
):
    """Opening a journal decodes the snapshot and each surviving log
    record once (tail repair and state fold share one scan); recover()
    re-reads the disk once more."""
    journal = ProjectJournal(tmp_path, snapshot_every=3, fsync=False)
    for k in range(5):  # the snapshot covers c0-c2; c3, c4 stay in the log
        journal.record_issued([command(k)])
        journal.record_result(command(k), {"k": k})
    journal.record_checkpoint("w0", "c5", {"step": 7})
    journal.close()
    assert journal.snapshots_written == 1
    in_log = 5  # issued c3, result c3, issued c4, result c4, checkpoint c5

    decodes = []
    real_decode = wal_module.decode_message

    def counting(blob):
        decodes.append(len(blob))
        return real_decode(blob)

    monkeypatch.setattr(wal_module, "decode_message", counting)
    reopened = ProjectJournal(tmp_path, snapshot_every=3, fsync=False)
    assert len(decodes) == 1 + in_log
    state = reopened.recover()
    assert len(decodes) == 2 * (1 + in_log)
    _same_state(state, reopened.state)
    assert [c.command_id for c, _ in state.results] == [
        f"c{k}" for k in range(5)
    ]
    reopened.close()


# ------------------------------------------------- snapshot byte identity
#
# A snapshot splices each result's entry out of the bytes of its own log
# record instead of encoding the history again; results loaded from disk
# have no such bytes until a snapshot encodes them.  Either way the file
# must be exactly the full encoding of the mirrored state.


def _same_results(a, b):
    """:func:`_same_state` for results that may hold arrays."""
    assert [c.to_payload() for c, _ in a.results] == [
        c.to_payload() for c, _ in b.results
    ]
    assert encode_message([r for _, r in a.results]) == encode_message(
        [r for _, r in b.results]
    )
    assert (a.completed_ids, a.issued_ids, a.checkpoints, a.epoch) == (
        b.completed_ids, b.issued_ids, b.checkpoints, b.epoch
    )


def _full_encoding(journal):
    return encode_message(
        dict(journal.state.to_payload(), last_seq=journal.wal.next_seq - 1)
    )


def _rich_result(rng, k):
    """Results of every shape a worker sends home."""
    return rng.choice(
        [
            {"value": k},
            {"value": k, "note": "é \"quoted\" \\ 😀"},
            {"frames": np.arange(k % 4 + 1, dtype=np.float32), "n": np.int64(k)},
            {"nested": [{"a": None, "b": [1.5, True]}], "empty": {}},
            {"text": "__ndarray__ in a string"},
        ]
    )


@pytest.mark.parametrize("seed", range(4))
def test_each_snapshot_equals_a_full_encode_across_reopens(
    tmp_path, monkeypatch, seed
):
    rng = random.Random(seed)
    written = []
    real_snapshot = ProjectJournal.snapshot

    def checked_snapshot(self):
        expected = _full_encoding(self)
        path = real_snapshot(self)
        assert path.read_bytes() == expected
        written.append(path.name)
        return path

    monkeypatch.setattr(ProjectJournal, "snapshot", checked_snapshot)

    def open_journal():
        return ProjectJournal(
            tmp_path, segment_bytes=1 << 10, snapshot_every=3, fsync=False
        )

    journal = open_journal()
    for k in range(60):
        cmd = command(k)
        journal.record_issued([cmd])
        if rng.random() < 0.3:
            journal.record_checkpoint("w0", cmd.command_id, {"step": k})
        if rng.random() < 0.1:
            journal.record_epoch(k)
        journal.record_result(cmd, _rich_result(rng, k))
        if rng.random() < 0.2:
            journal.record_result(cmd, {"value": "duplicate"})
        if rng.random() < 0.15:
            journal.close()
            journal = open_journal()
            if rng.random() < 0.5:
                # a reloaded state holds no cached entries yet
                journal.snapshot()
        _same_results(journal.recover(), journal.state)
    journal.close()
    assert len(written) >= 5


def test_snapshot_right_after_reopen_encodes_the_loaded_history(tmp_path):
    journal = ProjectJournal(tmp_path, snapshot_every=2, fsync=False)
    for k in range(5):  # a snapshot covers c0-c3, c4 stays in the log
        journal.record_result(command(k), {"k": k, "s": "ü"})
    journal.close()
    reopened = ProjectJournal(tmp_path, snapshot_every=2, fsync=False)
    expected = _full_encoding(reopened)
    assert reopened.snapshot().read_bytes() == expected
    # entries encoded at the reopen, then one sliced from its record
    reopened.record_result(command(5), {"k": 5})
    assert reopened.snapshot().read_bytes() == _full_encoding(reopened)
    reopened.close()


def test_result_write_path_keeps_the_given_command(tmp_path, monkeypatch):
    journal = ProjectJournal(tmp_path, snapshot_every=2, fsync=False)

    def rebuilt(payload):
        raise AssertionError("the write path rebuilt a Command")

    monkeypatch.setattr(Command, "from_payload", rebuilt)
    given = [command(k) for k in range(3)]
    for cmd in given:
        journal.record_result(cmd, {"k": cmd.command_id})
    assert [id(c) for c, _ in journal.state.results] == [id(c) for c in given]
    journal.close()


# ----------------------------------------- journals across the format change
#
# ``tests/data/journal_v1`` is a journal written by the commit before
# snapshots were spliced from log bytes (``_write_fixture_journal``, run
# as ``PYTHONPATH=<that checkout>/src python tests/test_wal_properties.py``).
# Replaying the same calls today must write the same bytes, and either
# side must read the other's journal.

FIXTURE_JOURNAL = Path(__file__).parent / "data" / "journal_v1"


def _write_fixture_journal(directory):
    """Deterministic calls covering rotation, compaction, a reopen, a
    duplicate, checkpoints, an epoch and array-bearing results."""

    def open_journal():
        return ProjectJournal(
            directory, segment_bytes=1 << 10, snapshot_every=3, fsync=False
        )

    journal = open_journal()
    for k in range(14):
        cmd = Command(
            f"gen{k // 5}_r{k}", "villin", "mdrun", {"n_steps": 100 * k},
            priority=k % 3, origin_server="srv0", epoch=k // 7,
        )
        journal.record_issued([cmd])
        if k % 3 == 0:
            journal.record_checkpoint(f"w{k % 2}", cmd.command_id, {"step": k})
        if k == 7:
            journal.record_epoch(1)
        result = {
            "frames": np.linspace(0.0, 1.0, k % 4 + 1),
            "steps": np.int64(100 * k),
            "note": "naïve" if k % 2 else "plain",
        }
        journal.record_result(cmd, result)
        if k == 4:
            journal.record_result(cmd, result)  # a retried transition
        if k == 9:
            journal.close()
            journal = open_journal()
    journal.close()
    return journal


def _tree(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _two_pass_decode(blob):
    """The decode the fixture's writer used: parse, then rebuild every
    tagged array and scalar by walking the whole record."""

    def walk(value):
        if isinstance(value, dict):
            if "__ndarray__" in value:
                raw = base64.b64decode(value["__ndarray__"])
                arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
                return arr.reshape(value["shape"]).copy()
            if "__npscalar__" in value:
                return np.dtype(value["dtype"]).type(value["__npscalar__"])
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return walk(json.loads(blob.decode("utf-8")))


def test_today_writes_the_fixture_journal_byte_for_byte(tmp_path):
    _write_fixture_journal(tmp_path / "today")
    assert _tree(tmp_path / "today") == _tree(FIXTURE_JOURNAL)
    assert any(name.startswith("snapshot-") for name in _tree(FIXTURE_JOURNAL))


def test_fixture_journal_recovers_and_continues_today(tmp_path):
    live = _write_fixture_journal(tmp_path / "today")
    copy = tmp_path / "fixture"
    shutil.copytree(FIXTURE_JOURNAL, copy)
    journal = ProjectJournal(copy, snapshot_every=3, fsync=False)
    _same_results(journal.state, live.state)
    _same_results(journal.recover(), live.state)
    # the reloaded history has no cached entries: the next snapshot
    # encodes it, and must still be the full encoding
    assert journal.snapshot().read_bytes() == _full_encoding(journal)
    journal.close()


def test_journal_written_today_recovers_with_the_two_pass_decode(
    tmp_path, monkeypatch
):
    live = _write_fixture_journal(tmp_path / "today")
    monkeypatch.setattr(wal_module, "decode_message", _two_pass_decode)
    journal = ProjectJournal(tmp_path / "today", snapshot_every=3, fsync=False)
    _same_results(journal.recover(), live.state)
    journal.close()


if __name__ == "__main__":
    # regenerate the fixture journal with the checkout on PYTHONPATH
    shutil.rmtree(FIXTURE_JOURNAL, ignore_errors=True)
    _write_fixture_journal(FIXTURE_JOURNAL)
    sys.stdout.write("".join(f"{name}\n" for name in _tree(FIXTURE_JOURNAL)))
