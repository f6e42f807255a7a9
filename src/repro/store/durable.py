"""``DurableStore``: the on-disk layout of one durable session.

A durable session directory holds three kinds of files::

    meta.json                          the session's estimator spec
    wal-<offset>.log                   WAL segments (repro.store.wal)
    snapshot-<offset>.json             snapshots (repro.store.snapshots)

``<offset>`` is a zero-padded global element offset: a WAL segment's
name is the offset of its **first** record, a snapshot's name is the
number of elements its state covers.  Segments rotate at every durable
checkpoint, so segment bases are exactly the historical checkpoint
offsets (plus the initial 0).

**The recovery contract** (``docs/persistence.md``): opening a
directory after a crash loads the newest loadable snapshot at offset
``S``, truncates the torn tail of the final WAL segment, replays every
intact WAL record with global offset ``>= S``, and the resulting
estimator state is **bit-identical** — estimate *and* complete
``state_to_dict()`` — to a process that ingested the same intact
prefix uninterrupted.  ``tests/store/test_recovery.py`` enforces this
for a kill at every byte of the log.

>>> import tempfile
>>> from repro.types import insertion
>>> store = DurableStore(tempfile.mkdtemp())
>>> store.has_state
False
>>> store.initialize("abacus:budget=64,seed=7")
>>> store.append(insertion("alice", "matrix"))
>>> store.offset
1
>>> store.close()
>>> reopened = DurableStore(store.directory)
>>> recovered = reopened.recover()
>>> recovered.spec, recovered.offset, len(recovered.tail)
('abacus:budget=64,seed=7', 1, 1)
"""

from __future__ import annotations

import json
import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import StoreError
from repro.faults import fault_point
from repro.store.snapshots import SnapshotStore, _fsync_directory
from repro.store.wal import WalWriter, iter_wal, read_wal, scan_wal
from repro.types import StreamElement

__all__ = ["DEFAULT_FSYNC_EVERY", "DurableStore", "RecoveredState"]

#: Default WAL fsync batch: one barrier per this many appended records.
DEFAULT_FSYNC_EVERY = 256

#: ``meta.json`` format version.
META_FORMAT = 1

#: Snapshots kept per directory (older ones are pruned at checkpoint,
#: together with the WAL segments only they needed).
KEEP_SNAPSHOTS = 2

_SEGMENT = re.compile(r"^wal-(\d{20})\.log$")


@dataclass(frozen=True)
class RecoveredState:
    """What :meth:`DurableStore.recover` reconstructed.

    Attributes:
        spec: the canonical estimator spec recorded in ``meta.json``.
        snapshot: the newest loadable session snapshot envelope, or
            None when the directory never checkpointed.
        tail: intact WAL records past the snapshot, in stream order —
            the elements to replay.
        offset: the global element offset after replay (snapshot
            offset + ``len(tail)``, or the snapshot offset when the
            log ends before it).
    """

    spec: str
    snapshot: Optional[Dict[str, Any]]
    tail: List[StreamElement] = field(repr=False)
    offset: int = 0


class DurableStore:
    """WAL + snapshots + meta behind one durable session directory.

    The store is deliberately estimator-agnostic: it persists opaque
    snapshot payloads and framed stream elements, and leaves building
    estimators to the session layer (:func:`repro.api.open_session`
    with ``durable_dir=``) so the registry stays the single authority
    on construction.

    Args:
        directory: the session directory (created when missing).
        fsync_every: WAL fsync batch size (see
            :class:`~repro.store.wal.WalWriter`).
        wal_format: payload format for **new** WAL segments (default
            :data:`~repro.store.wal.DEFAULT_WAL_FORMAT`).  Existing
            segments keep the format in their header regardless — a
            directory may mix formats across its segment history, and
            recovery reads all of them.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        wal_format: Optional[int] = None,
    ) -> None:
        self._dir = pathlib.Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fsync_every = fsync_every
        self._wal_format = wal_format
        self._snapshots = SnapshotStore(self._dir)
        self._writer: Optional[WalWriter] = None
        self._offset = 0
        self._spec: Optional[str] = None
        meta_path = self._dir / "meta.json"
        if meta_path.exists():
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
                self._spec = str(meta["spec"])
            except (OSError, json.JSONDecodeError, KeyError) as exc:
                raise StoreError(
                    f"unreadable durable-store meta {meta_path}: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> pathlib.Path:
        return self._dir

    @property
    def has_state(self) -> bool:
        """Whether the directory already belongs to a durable session."""
        return self._spec is not None

    @property
    def spec(self) -> Optional[str]:
        """The canonical spec string recorded at initialization."""
        return self._spec

    @property
    def offset(self) -> int:
        """Global element offset of the next WAL append."""
        return self._offset

    @property
    def snapshots(self) -> SnapshotStore:
        return self._snapshots

    def segments(self) -> Tuple[Tuple[int, pathlib.Path], ...]:
        """WAL segments as ``(base_offset, path)``, ascending."""
        found = []
        for entry in self._dir.iterdir():
            match = _SEGMENT.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return tuple(sorted(found))

    def _segment_path(self, base: int) -> pathlib.Path:
        return self._dir / f"wal-{base:020d}.log"

    def oldest_offset(self) -> int:
        """The oldest global element offset the WAL still covers.

        Elements below it were pruned at a checkpoint and can only be
        reconstructed from a snapshot — replication catch-up uses this
        as its start-offset negotiation floor.
        """
        segments = self.segments()
        return segments[0][0] if segments else self._offset

    def read_records(
        self, start: int, end: int
    ) -> Iterator[StreamElement]:
        """Yield the logged elements with global offsets in [start, end).

        This is the WAL as a **replication log**: the primary of
        :mod:`repro.cluster.primary` ships follower catch-up batches
        straight from these frames.  Callers are responsible for
        bounding ``end`` at an offset that is already synced to the
        file (``sync()`` first); ``start`` below :meth:`oldest_offset`
        raises — those records are gone, bootstrap from a snapshot.
        """
        if start < 0 or end < start:
            raise StoreError(
                f"invalid WAL read range [{start}, {end})"
            )
        if start == end:
            return
        segments = self.segments()
        if not segments or start < segments[0][0]:
            raise StoreError(
                f"WAL records from offset {start} were pruned "
                f"(oldest available: {self.oldest_offset()}); "
                "catch up from a snapshot instead"
            )
        for base, path in segments:
            if base >= end:
                break
            for index, element in enumerate(iter_wal(path)):
                offset = base + index
                if offset >= end:
                    break
                if offset >= start:
                    yield element

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(self, spec: str) -> None:
        """Claim an empty directory for ``spec`` and open the log.

        Writes ``meta.json`` atomically, then opens the first WAL
        segment at offset 0.  Raises when the directory already has a
        meta (reopen with :meth:`recover` instead).
        """
        if self._spec is not None:
            raise StoreError(
                f"{self._dir} already holds a durable session "
                f"(spec {self._spec!r}); recover it instead"
            )
        meta_path = self._dir / "meta.json"
        temporary = meta_path.with_name(".tmp-meta.json")
        payload = {"format": META_FORMAT, "spec": spec}
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, meta_path)
        _fsync_directory(self._dir)
        self._spec = spec
        self._attach_writer(0)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Reconstruct the session: snapshot + intact WAL tail.

        Truncates the torn tail of the final segment (so the writer
        can append at a clean boundary), verifies that the surviving
        segments cover the stream contiguously from the snapshot
        offset, and opens the log for appending at the recovered
        offset.
        """
        if self._spec is None:
            raise StoreError(
                f"{self._dir} has no durable session to recover "
                "(missing meta.json); initialize it instead"
            )
        latest = self._snapshots.latest()
        snapshot_offset = latest[0] if latest else 0
        payload = latest[1] if latest else None
        segments = self.segments()
        scans = []
        tail: List[StreamElement] = []
        for index, (base, path) in enumerate(segments):
            # One pass per segment; records the snapshot already covers
            # are checksummed but never decoded.
            scan, elements = read_wal(
                path, start=max(0, snapshot_offset - base)
            )
            if not scan.clean:
                if index != len(segments) - 1:
                    raise StoreError(
                        f"WAL segment {path.name} is corrupt in the "
                        "middle of the log (only the final segment "
                        "may be torn)"
                    )
                with open(path, "r+b") as handle:
                    handle.truncate(scan.valid_bytes)
            scans.append((base, path, scan.records))
            tail.extend(elements)
        end = snapshot_offset
        if scans:
            if scans[0][0] > snapshot_offset:
                raise StoreError(
                    f"WAL starts at offset {scans[0][0]} but the "
                    f"newest snapshot covers only {snapshot_offset} "
                    "elements; the log has a gap"
                )
            expected = scans[0][0]
            for base, path, records in scans:
                if base != expected:
                    raise StoreError(
                        f"WAL gap: segment {path.name} starts at "
                        f"{base}, expected {expected}"
                    )
                expected = base + records
            end = max(expected, snapshot_offset)
            self._attach_writer(end, wal_end=expected)
        else:
            self._attach_writer(end)
        self._offset = end
        return RecoveredState(
            spec=self._spec,
            snapshot=payload,
            tail=tail,
            offset=end,
        )

    def _attach_writer(
        self, offset: int, wal_end: Optional[int] = None
    ) -> None:
        """Open the WAL for appending records starting at ``offset``.

        ``wal_end`` is the log's known end offset when the caller just
        scanned it (recovery); omitted, the final segment is scanned
        here.
        """
        if self._writer is not None:
            self._writer.close()
        segments = self.segments()
        if segments and wal_end is None:
            base, path = segments[-1]
            wal_end = base + scan_wal(path).records
        if not segments:
            wal_end = None
        if wal_end == offset:
            target = segments[-1][1]
        else:
            if wal_end is not None and offset < wal_end:
                raise StoreError(
                    f"cannot append at offset {offset}: the WAL "
                    f"already extends to {wal_end}"
                )
            if wal_end is not None:
                # Snapshot ran ahead of a pruned/lost log tail; the
                # old segments are fully covered by it and a fresh
                # segment must restart the contiguous numbering.
                for _, path in segments:
                    path.unlink(missing_ok=True)
            target = self._segment_path(offset)
        self._writer = WalWriter(
            target,
            fsync_every=self._fsync_every,
            format=self._wal_format,
        )
        self._offset = offset

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def _require_writer(self) -> WalWriter:
        if self._writer is None:
            raise StoreError(
                "durable store is not open for writing; call "
                "initialize() or recover() first"
            )
        return self._writer

    def append(self, element: StreamElement) -> None:
        """Log one element ahead of processing it."""
        self._require_writer().append(element)
        self._offset += 1

    def append_batch(self, elements: Sequence[StreamElement]) -> int:
        """Log a contiguous run of elements; returns the count."""
        count = self._require_writer().append_batch(elements)
        self._offset += count
        return count

    def mark(self) -> Tuple[int, int]:
        """An undo point ``(byte_position, element_offset)``.

        Take one before appending elements whose processing may still
        be refused; :meth:`rollback` then removes the refused records
        so the log only ever contains *ingested* elements and
        checkpoint offsets stay aligned.
        """
        return (self._require_writer().position(), self._offset)

    def rollback(self, mark: Tuple[int, int]) -> None:
        """Undo every append since ``mark`` (see :meth:`mark`)."""
        position, offset = mark
        self._require_writer().truncate_to(
            position, self._offset - offset
        )
        self._offset = offset

    def sync(self) -> None:
        """Force every logged element to durable storage."""
        self._require_writer().sync()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(
        self,
        payload: Dict[str, Any],
        offset: int,
        *,
        keep: int = KEEP_SNAPSHOTS,
    ) -> pathlib.Path:
        """Write a durable snapshot at ``offset`` and rotate the log.

        Order matters for crash safety: the WAL is synced first (the
        snapshot must never be *ahead* of durable log coverage), the
        snapshot is written atomically, and only then does the log
        rotate to a fresh segment based at ``offset``.  Old snapshots
        beyond ``keep`` — and the WAL segments only they needed — are
        pruned last; a crash anywhere in between leaves a directory
        that recovers to exactly the checkpointed state.
        """
        writer = self._require_writer()
        if offset != self._offset:
            raise StoreError(
                f"checkpoint offset {offset} does not match the "
                f"logged element count {self._offset}"
            )
        writer.sync()
        fault_point("checkpoint.synced")
        path = self._snapshots.save(payload, offset)
        fault_point("checkpoint.snapshotted")
        writer.close()
        self._writer = WalWriter(
            self._segment_path(offset),
            fsync_every=self._fsync_every,
            format=self._wal_format,
        )
        fault_point("checkpoint.rotated")
        kept = self._snapshots.offsets()[-keep:]
        self._snapshots.prune(keep=keep)
        self._prune_segments(min(kept))
        return path

    def _prune_segments(self, min_offset: int) -> List[pathlib.Path]:
        """Delete segments that end at or before ``min_offset``.

        A segment's end is the next segment's base (bases are the
        historical checkpoint offsets), so every segment except the
        last is prunable exactly when its successor's base is at or
        below the oldest offset recovery may still need.
        """
        segments = self.segments()
        doomed = []
        for (base, path), (next_base, _) in zip(segments, segments[1:]):
            if next_base <= min_offset:
                doomed.append(path)
        for path in doomed:
            path.unlink(missing_ok=True)
        return doomed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Sync and close the log (the store may be reopened later)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableStore({str(self._dir)!r}, offset={self._offset}, "
            f"spec={self._spec!r})"
        )
