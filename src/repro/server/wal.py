"""Crash-consistent project journal: write-ahead log + snapshots.

The paper's operational promise is that a Copernicus project is one
long-lived job that survives the loss of *any* component — including
the project server itself.  This module provides the durable half of
that promise:

* :class:`WriteAheadLog` — an append-only log of length-prefixed,
  CRC-checksummed records split into rotating segment files.  Opening
  it decodes each surviving record once, tolerating a torn tail (a
  record cut short by the crash) by truncating back to the last fully
  written record; corruption anywhere else raises
  :class:`~repro.util.errors.JournalCorruptionError`.
* :class:`ProjectJournal` — typed state transitions for one project
  (commands issued, checkpoint reported, result applied, ownership
  epoch bumped), durable *before* they are acknowledged, plus
  size-triggered snapshot compaction: once the log has outgrown the
  previous snapshot, the full mirrored state is written atomically and
  the covered log segments deleted.
* :class:`ServerJournal` — the per-server root directory handing out
  one :class:`ProjectJournal` per hosted project.

Recovery (:meth:`ProjectJournal.recover`) returns the ordered result
history, the exactly-once barrier (completed command ids), the issued
ids, the last checkpoint per command and the ownership epoch —
everything :meth:`repro.core.runner.ProjectRunner.resume` needs to
rebuild queue and controller state and continue the project.  Leases
are not journaled: a resumed project requeues every outstanding
command, leased or not, so live leases stay in the server's memory.

Each record costs one fsync, except where other writes already make
it durable: a result that triggers a snapshot is covered by the
snapshot's own fsyncs, and a fresh segment's magic bytes by its first
record's.  Deleting compacted segments is not fsync'd either: an
unlink lost in a crash can only bring back records the snapshot
covers, which loading skips by sequence number.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.command import Command
from repro.util.errors import (
    ConfigurationError,
    JournalCorruptionError,
    PersistenceError,
)
from repro.util.serialization import decode_message, encode_message

#: Magic + format version written at the head of every segment file.
SEGMENT_MAGIC = b"CPWAL001"

#: Per-record header: payload length and CRC32 of the payload bytes.
_RECORD_HEADER = struct.Struct(">II")


def _fsync_path(path: Path) -> None:
    """fsync a file or directory by path (directory fsync makes renames
    and unlinks durable on POSIX filesystems)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sweep_temp_files(directory: Path) -> int:
    """Delete leftover ``*.tmp`` files from interrupted atomic writes."""
    removed = 0
    for stale in directory.glob("*.tmp"):
        stale.unlink()
        removed += 1
    for stale in directory.glob(".*.tmp"):
        stale.unlink()
        removed += 1
    return removed


class WriteAheadLog:
    """Append-only, checksummed record log with segment rotation.

    :meth:`append` writes and flushes a record; :meth:`sync` makes every
    appended record durable.  Opening a log repairs a torn tail and
    keeps the surviving records, decoded once, for the owner to take
    (:meth:`take_recovered`).

    Parameters
    ----------
    directory:
        Where segment files (``wal-<n>.log``) live; created if missing.
    segment_bytes:
        Rotate to a fresh segment once the current one exceeds this size.
    fsync:
        Whether :meth:`sync` and segment creation fsync (disable only in
        tests that measure something else).
    """

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = 1 << 20,
        fsync: bool = True,
    ) -> None:
        if segment_bytes < len(SEGMENT_MAGIC) + _RECORD_HEADER.size:
            raise ConfigurationError(
                f"segment_bytes too small: {segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        self._handle = None
        #: Encoded payload of the newest appended record (its owner
        #: reuses these bytes instead of encoding the record again).
        self.last_payload = b""
        _sweep_temp_files(self.directory)
        existing = self.segments()
        #: Index of the next segment file to create (monotone across
        #: compactions so old and new segments can never collide).
        self._next_index = (
            self._segment_index(existing[-1]) + 1 if existing else 0
        )
        #: Records that survived the open's tail repair, in order.
        self._recovered: List[dict] = list(self._scan(repair=True))
        #: Next record's sequence number (continues the surviving log).
        self.next_seq = (
            int(self._recovered[-1]["seq"]) + 1 if self._recovered else 0
        )
        #: Bytes the surviving segments hold (headers included) — what a
        #: recovery has to read back; zero again after a compaction.
        self.size_bytes = sum(p.stat().st_size for p in self.segments())

    # -- segment bookkeeping ----------------------------------------------

    def segments(self) -> List[Path]:
        """Segment files in log order."""
        return sorted(self.directory.glob("wal-*.log"))

    @staticmethod
    def _segment_index(path: Path) -> int:
        return int(path.stem.split("-", 1)[1])

    def _open_for_append(self) -> None:
        if self._handle is not None:
            return
        segments = self.segments()
        if segments and segments[-1].stat().st_size < self.segment_bytes:
            self._handle = open(segments[-1], "ab")
        else:
            self._start_segment()

    def _start_segment(self) -> None:
        if self._handle is not None:
            self._handle.close()
        path = self.directory / f"wal-{self._next_index:08d}.log"
        self._next_index += 1
        self._handle = open(path, "ab")
        self._handle.write(SEGMENT_MAGIC)
        self._handle.flush()
        self.size_bytes += len(SEGMENT_MAGIC)
        # the directory entry is durable now; the magic bytes become
        # durable with the first record's sync (a crash before it leaves
        # a short headerless final segment, which opening drops)
        if self.fsync:
            _fsync_path(self.directory)

    def close(self) -> None:
        """Close the append handle (the log can be reopened later)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- writing -----------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one record; returns its sequence number.

        The record is written and flushed when this returns, and
        durable after the next :meth:`sync` — only then may the caller
        acknowledge the transition it describes.
        """
        seq = self.next_seq
        payload = encode_message(dict(record, seq=seq))
        self._open_for_append()
        if self._handle.tell() + _RECORD_HEADER.size + len(payload) > (
            self.segment_bytes
        ) and self._handle.tell() > len(SEGMENT_MAGIC):
            self._start_segment()
        self._handle.write(
            _RECORD_HEADER.pack(len(payload), zlib.crc32(payload))
        )
        self._handle.write(payload)
        self._handle.flush()
        self.next_seq = seq + 1
        self.size_bytes += _RECORD_HEADER.size + len(payload)
        self.last_payload = payload
        return seq

    def sync(self) -> None:
        """fsync the open segment: every appended record is durable."""
        if self.fsync and self._handle is not None:
            os.fsync(self._handle.fileno())

    def truncate_all(self) -> None:
        """Delete every segment (after a snapshot made them redundant).

        Segment numbering keeps increasing, so a snapshot racing an old
        directory listing can never confuse old and new segments.  The
        unlinks are not fsync'd: segments a crash brings back hold only
        records the snapshot covers, and the next segment's directory
        fsync makes the deletions durable.
        """
        self.close()
        for path in self.segments():
            path.unlink()
        self.size_bytes = 0

    # -- reading / recovery ------------------------------------------------

    def take_recovered(self) -> List[dict]:
        """The records the open decoded, once (later calls get ``[]``)."""
        records, self._recovered = self._recovered, []
        return records

    def records(self) -> Iterator[dict]:
        """Re-read every surviving record from disk, in order."""
        return self._scan(repair=True)

    def _scan(self, repair: bool) -> Iterator[dict]:
        segments = self.segments()
        for position, path in enumerate(segments):
            is_last = position == len(segments) - 1
            blob = path.read_bytes()
            offset = len(SEGMENT_MAGIC)
            if blob[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
                if is_last and repair:
                    # a segment created but not fully headered
                    self._truncate_segment(path, 0, remove_empty=True)
                    return
                raise JournalCorruptionError(
                    f"{path.name}: bad segment magic"
                )
            while offset < len(blob):
                record, end = self._read_record(blob, offset)
                if record is None:
                    if not (is_last and repair):
                        raise JournalCorruptionError(
                            f"{path.name}: corrupt record at offset {offset} "
                            f"in a non-final segment"
                        )
                    self._truncate_segment(path, offset)
                    return
                yield record
                offset = end

    @staticmethod
    def _read_record(blob: bytes, offset: int) -> Tuple[Optional[dict], int]:
        """Decode one record; ``(None, offset)`` marks a torn/corrupt one."""
        header_end = offset + _RECORD_HEADER.size
        if header_end > len(blob):
            return None, offset
        length, crc = _RECORD_HEADER.unpack(blob[offset:header_end])
        end = header_end + length
        if end > len(blob):
            return None, offset
        payload = blob[header_end:end]
        if zlib.crc32(payload) != crc:
            return None, offset
        try:
            record = decode_message(payload)
        except Exception:
            return None, offset
        if not isinstance(record, dict):
            return None, offset
        return record, end

    def _truncate_segment(
        self, path: Path, offset: int, remove_empty: bool = False
    ) -> None:
        """Physically cut a torn tail so future appends start clean."""
        if remove_empty or offset <= len(SEGMENT_MAGIC):
            # nothing valid in this segment at all: drop the file
            path.unlink(missing_ok=True)
        else:
            with open(path, "rb+") as handle:
                handle.truncate(offset)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        if self.fsync:
            _fsync_path(self.directory)


# ---------------------------------------------------------------------------
# typed project journal + snapshots
# ---------------------------------------------------------------------------

#: Snapshot format version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1

#: How a result record's encoding opens, before its snapshot entry.
_RESULT_HEAD = b'{"type":"result",'


@dataclass
class JournalState:
    """The recovered (or live-mirrored) durable state of one project."""

    #: Ordered (command, result) history, the controller replay input.
    results: List[Tuple[Command, dict]] = field(default_factory=list)
    #: Exactly-once barrier: ids of commands whose result was applied.
    completed_ids: Set[str] = field(default_factory=set)
    #: Every command id ever journaled as issued.
    issued_ids: Set[str] = field(default_factory=set)
    #: Latest reported checkpoint per in-flight command id.
    checkpoints: Dict[str, dict] = field(default_factory=dict)
    #: Ownership epoch: monotonic per project, bumped on failover before
    #: the journal ships, reseeded into the successor on resume.  Every
    #: effectful write is fenced against it (invariant 14).
    epoch: int = 0

    def apply(self, record: dict, command: Optional[Command] = None) -> None:
        """Fold one journal record into the mirrored state.

        A result record's *command*, when the caller holds it, is kept
        as it is instead of being rebuilt from the record."""
        kind = record.get("type")
        if kind == "issued":
            self.issued_ids.update(record["command_ids"])
        elif kind == "checkpoint":
            self.checkpoints[record["command"]] = record["checkpoint"]
        elif kind == "result":
            if command is None:
                command = Command.from_payload(record["command"])
            if command.command_id in self.completed_ids:
                return  # replaying an idempotent duplicate
            self.results.append((command, record["result"]))
            self.completed_ids.add(command.command_id)
            self.issued_ids.add(command.command_id)
            self.checkpoints.pop(command.command_id, None)
        elif kind == "epoch":
            # epochs only move forward; a replayed stale bump is a no-op
            self.epoch = max(self.epoch, int(record["epoch"]))
        else:
            raise JournalCorruptionError(
                f"unknown journal record type {kind!r}"
            )

    # -- snapshot (de)serialisation ---------------------------------------

    def to_payload(self) -> dict:
        return self._payload(
            [{"command": c.to_payload(), "result": r} for c, r in self.results]
        )

    def _payload(self, results: list) -> dict:
        return {
            "version": SNAPSHOT_VERSION,
            "results": results,
            "completed_ids": sorted(self.completed_ids),
            "issued_ids": sorted(self.issued_ids),
            "checkpoints": dict(self.checkpoints),
            "epoch": int(self.epoch),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalState":
        if payload.get("version") != SNAPSHOT_VERSION:
            raise JournalCorruptionError(
                f"unsupported snapshot version {payload.get('version')!r}"
            )
        return cls(
            results=[
                (Command.from_payload(e["command"]), e["result"])
                for e in payload["results"]
            ],
            completed_ids=set(payload["completed_ids"]),
            issued_ids=set(payload["issued_ids"]),
            checkpoints=dict(payload["checkpoints"]),
            # pre-epoch snapshots load at epoch 0 (first ownership)
            epoch=int(payload.get("epoch", 0)),
        )


class ProjectJournal:
    """Durable, typed state transitions for one project.

    Every ``record_*`` call makes its record durable *before*
    returning — by the log's fsync, or by the snapshot the record
    triggered — so the caller can acknowledge the transition knowing a
    restart will see it.  Recovery returns results, completed and
    issued ids, checkpoints and the epoch; leases live in the server's
    memory only.  A full in-memory mirror of the
    durable state is maintained and compacted into a snapshot when
    **both** hold: at least ``snapshot_every`` results were applied
    since the last snapshot (``None`` disables compaction), and the log
    has grown to at least that snapshot's size (any size, when there is
    none — the first snapshot lands at exactly ``snapshot_every``
    results).  Snapshot points therefore space out as the state grows:
    the snapshots written so far never total more than the log bytes
    written so far plus the newest snapshot, and recovery reads one
    snapshot plus a log of about its size at most.  Both sizes are read
    off the files on reopen, so the rule survives a restart.
    """

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = 1 << 20,
        snapshot_every: Optional[int] = 8,
        fsync: bool = True,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1 or None, got {snapshot_every}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.fsync = bool(fsync)
        _sweep_temp_files(self.directory)
        self.wal = WriteAheadLog(
            self.directory / "wal", segment_bytes=segment_bytes, fsync=fsync
        )
        #: Live mirror of the durable state (== recover() at all times),
        #: folded from the records the log's open already decoded.
        self.state, snapshot_seq = self._load(self.wal.take_recovered())
        #: Per applied result, its snapshot entry's encoded interior
        #: (``"command":…,"result":…``), sliced from its log record;
        #: ``None`` for results loaded from disk until a snapshot
        #: encodes them.
        self._entries: List[Optional[bytes]] = [None] * len(self.state.results)
        # a compaction empties the log; new records must keep sequencing
        # past the snapshot or recovery would skip them
        self.wal.next_seq = max(self.wal.next_seq, snapshot_seq + 1)
        paths = self._snapshot_paths()
        self._results_at_last_snapshot = (
            int(paths[-1].stem.split("-", 1)[1]) if paths else 0
        )
        #: Byte size of the newest snapshot (0 when there is none).
        self._snapshot_bytes = paths[-1].stat().st_size if paths else 0
        #: Snapshots written by this process (for reports/tests).
        self.snapshots_written = 0

    # -- snapshot files ----------------------------------------------------

    def _snapshot_paths(self) -> List[Path]:
        return sorted(self.directory.glob("snapshot-*.bin"))

    def _load(self, records: Iterable[dict]) -> Tuple[JournalState, int]:
        """Newest snapshot + surviving log *records* -> mirrored state.

        Returns ``(state, snapshot_seq)`` where ``snapshot_seq`` is the
        last journal sequence number the snapshot covers (-1 if none).
        """
        state = JournalState()
        paths = self._snapshot_paths()
        snapshot_seq = -1
        if paths:
            try:
                payload = decode_message(paths[-1].read_bytes())
            except Exception as exc:
                raise JournalCorruptionError(
                    f"snapshot {paths[-1].name} unreadable: {exc}"
                ) from exc
            snapshot_seq = int(payload.get("last_seq", -1))
            state = JournalState.from_payload(payload)
        for record in records:
            if int(record.get("seq", -1)) <= snapshot_seq:
                continue  # already folded into the snapshot
            state.apply(record)
        return state, snapshot_seq

    def recover(self) -> JournalState:
        """Re-read snapshot + log from disk (what a restart would see)."""
        return self._load(self.wal.records())[0]

    def _snapshot_blob(self) -> bytes:
        """``encode_message`` of the state's payload plus ``last_seq``,
        with the result history spliced in from the cached entries."""
        for i, entry in enumerate(self._entries):
            if entry is None:
                command, result = self.state.results[i]
                self._entries[i] = encode_message(
                    {"command": command.to_payload(), "result": result}
                )[1:-1]
        skeleton = encode_message(
            dict(self.state._payload([]), last_seq=self.wal.next_seq - 1)
        )
        # only {"version":N, precedes the history: the first match is it
        head, tail = skeleton.split(b'"results":[', 1)
        history = b"},{".join(self._entries)
        if history:
            history = b"{" + history + b"}"
        return b"".join((head, b'"results":[', history, tail))

    def snapshot(self) -> Path:
        """Write the mirrored state atomically and compact the log."""
        n = len(self.state.results)
        blob = self._snapshot_blob()
        final = self.directory / f"snapshot-{n:08d}.bin"
        temp = self.directory / f".snapshot-{n:08d}.tmp"
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        temp.rename(final)
        if self.fsync:
            _fsync_path(self.directory)
        # the snapshot now covers everything: drop old snapshots + log
        for path in self._snapshot_paths():
            if path != final:
                path.unlink()
        self.wal.truncate_all()
        self._results_at_last_snapshot = n
        self._snapshot_bytes = len(blob)
        self.snapshots_written += 1
        return final

    def _maybe_snapshot(self) -> bool:
        """Snapshot if the compaction rule says so; whether it did."""
        if self.snapshot_every is None:
            return False
        applied = len(self.state.results)
        if (
            applied - self._results_at_last_snapshot >= self.snapshot_every
            and self.wal.size_bytes >= self._snapshot_bytes
        ):
            self.snapshot()
            return True
        return False

    # -- journaled transitions --------------------------------------------

    @property
    def results_applied(self) -> int:
        """Results durably applied so far."""
        return len(self.state.results)

    def _append(self, record: dict) -> None:
        """Journal and fold *record*; durable on return."""
        self.wal.append(record)
        self.state.apply(record)
        self.wal.sync()

    def record_issued(self, commands: List[Command]) -> None:
        """Commands entered the queue (journal before acknowledging).

        Only the ids are journaled: a resume gets the commands back
        from the deterministic controller replay."""
        if not commands:
            return
        self._append(
            {"type": "issued", "command_ids": [c.command_id for c in commands]}
        )

    def record_checkpoint(
        self, worker: str, command_id: str, checkpoint: dict
    ) -> None:
        """A heartbeat carried a fresh checkpoint for a leased command."""
        self._append(
            {
                "type": "checkpoint",
                "worker": worker,
                "command": command_id,
                "checkpoint": checkpoint,
            }
        )

    def record_result(self, command: Command, result: dict) -> None:
        """A result is about to be applied to the project (journal first).

        The record's own bytes, ``{"type":"result",<entry>,"seq":N}``,
        keep the entry a later snapshot writes for this result."""
        applied = len(self.state.results)
        record = {
            "type": "result",
            "command": command.to_payload(),
            "result": result,
        }
        seq = self.wal.append(record)
        self.state.apply(record, command)
        if len(self.state.results) > applied:
            payload = self.wal.last_payload
            self._entries.append(
                payload[len(_RESULT_HEAD) : -len(b',"seq":%d}' % seq)]
            )
        if not self._maybe_snapshot():
            self.wal.sync()

    def record_epoch(self, epoch: int) -> None:
        """The project's ownership epoch moved forward (journal before
        the new owner acts under it)."""
        if int(epoch) <= self.state.epoch:
            return  # idempotent: epochs only move forward
        self._append({"type": "epoch", "epoch": int(epoch)})

    def close(self) -> None:
        """Release the log's append handle."""
        self.wal.close()


class ServerJournal:
    """Per-server journal root: one :class:`ProjectJournal` per project."""

    def __init__(
        self,
        root: str | Path,
        segment_bytes: int = 1 << 20,
        snapshot_every: Optional[int] = 8,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.snapshot_every = snapshot_every
        self.fsync = bool(fsync)
        self._journals: Dict[str, ProjectJournal] = {}

    def project(self, project_id: str) -> ProjectJournal:
        """The (lazily opened) journal for *project_id*."""
        if not project_id or "/" in project_id or project_id.startswith("."):
            raise ConfigurationError(f"bad project id {project_id!r}")
        journal = self._journals.get(project_id)
        if journal is None:
            journal = ProjectJournal(
                self.root / project_id,
                segment_bytes=self.segment_bytes,
                snapshot_every=self.snapshot_every,
                fsync=self.fsync,
            )
            self._journals[project_id] = journal
        return journal

    def project_ids(self) -> List[str]:
        """Projects with journals on disk."""
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def release(self, project_id: str) -> None:
        """Close and forget one project's journal (zombie demotion).

        The on-disk files stay — they are the fenced regime's history,
        useful for audits — but this server stops holding the append
        handle and will not journal under the project again unless it
        is re-adopted via :meth:`project`.
        """
        journal = self._journals.pop(project_id, None)
        if journal is not None:
            journal.close()

    def close(self) -> None:
        """Close every open project journal."""
        for journal in self._journals.values():
            journal.close()


# -- journal shipping (shard failover) ------------------------------------

@dataclass(frozen=True)
class ShipmentReport:
    """What one journal shipment moved (for migration accounting)."""

    project_id: str
    snapshots: int
    segments: int
    bytes: int


def _copy_durably(src: Path, dst: Path, fsync: bool = True) -> int:
    """Copy *src* to *dst* atomically (temp + rename); returns bytes."""
    blob = src.read_bytes()
    temp = dst.parent / f".{dst.name}.tmp"
    with open(temp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    temp.rename(dst)
    return len(blob)


def ship_project_journal(
    src_root: str | Path,
    dst_root: str | Path,
    project_id: str,
    fsync: bool = True,
) -> ShipmentReport:
    """Copy a project's snapshot + WAL segments between journal roots.

    The transport half of a :class:`ProjectMigration`: the dead
    shard's on-disk journal (``<src_root>/<project_id>``) is copied
    byte-for-byte into the successor's root, after which the successor
    recovers it exactly as if the project had always been its own.

    Shipping is *idempotent and convergent*: files are copied via
    temp + rename (a crash mid-ship leaves no torn file), a re-ship
    overwrites with identical bytes, and destination files that no
    longer exist at the source (e.g. a snapshot that compacted away
    log segments between two ships) are removed — after shipping, the
    destination directory mirrors the source exactly, so replaying it
    yields the same :class:`JournalState` no matter how many times the
    shipment ran or raced a late recovery on the first shard.
    """
    src = Path(src_root) / project_id
    dst = Path(dst_root) / project_id
    if not src.is_dir():
        raise PersistenceError(
            f"no journal for project {project_id!r} under {src_root}"
        )
    dst.mkdir(parents=True, exist_ok=True)
    (dst / "wal").mkdir(exist_ok=True)
    _sweep_temp_files(dst)
    _sweep_temp_files(dst / "wal")
    shipped_bytes = 0
    snapshots = [p.name for p in sorted(src.glob("snapshot-*.bin"))]
    segments = [p.name for p in sorted((src / "wal").glob("wal-*.log"))]
    for name in snapshots:
        shipped_bytes += _copy_durably(src / name, dst / name, fsync)
    for name in segments:
        shipped_bytes += _copy_durably(
            src / "wal" / name, dst / "wal" / name, fsync
        )
    # converge: drop destination files the source no longer has, so
    # the copy is byte-for-byte the source (double-migration safe)
    for stale in dst.glob("snapshot-*.bin"):
        if stale.name not in snapshots:
            stale.unlink()
    for stale in (dst / "wal").glob("wal-*.log"):
        if stale.name not in segments:
            stale.unlink()
    if fsync:
        _fsync_path(dst / "wal")
        _fsync_path(dst)
    return ShipmentReport(
        project_id=project_id,
        snapshots=len(snapshots),
        segments=len(segments),
        bytes=shipped_bytes,
    )
