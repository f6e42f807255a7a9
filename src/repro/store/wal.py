"""The write-ahead log: CRC-framed stream elements on disk.

A WAL file is an 8-byte magic header followed by framed records::

    header  := b"RWAL" <format:u8> b"\\x00\\x00\\x00"
    record  := <payload_len:u32 LE> <crc32(payload):u32 LE> <payload>
    payload := format 1: UTF-8 JSON of StreamElement.to_record()
                         ([op, u, v] or [op, u, v, time])
               format 2: the packed binary element encoding of
                         :mod:`repro.store.codec`

The **format byte** in the magic selects the payload grammar for the
whole segment.  New segments are written in :data:`DEFAULT_WAL_FORMAT`
(packed, format 2); format-1 segments written by earlier versions stay
readable forever — :func:`scan_wal` and :func:`iter_wal` dispatch per
segment on the header, so a durable directory may mix formats across
its segment history (``docs/persistence.md`` pins this promise).

Records are framed individually so a crash can only tear the **tail**:
:func:`scan_wal` walks frames until the first short read or CRC
mismatch and reports the prefix that is intact — everything before a
torn frame is trusted, everything from it on is discarded (recovery
truncates the file there before appending again).  The corruption
model is format-independent: the CRC guards the payload bytes, so a
bit flip inside a packed record is caught exactly like one inside a
JSON record (``tests/store/test_wal_edges.py`` flips every byte of
both to prove it).

:class:`WalWriter` appends through a buffered file handle and batches
``fsync``: the default :data:`~repro.store.durable.DEFAULT_FSYNC_EVERY`
records per sync amortises the flush cost across the ingest hot path,
and :meth:`WalWriter.sync` forces the barrier whenever the caller needs
one (snapshots do).

>>> import pathlib, tempfile
>>> from repro.types import insertion, timed_deletion
>>> path = pathlib.Path(tempfile.mkdtemp()) / "wal-0.log"
>>> with WalWriter(path, fsync_every=2) as wal:
...     wal.append(insertion("alice", "matrix"))
...     wal.append(timed_deletion(3, 7, 2.5))
>>> [str(element) for element in iter_wal(path)]
['(alice, matrix, +)', '(3, 7, -, t=2.5)']
>>> scan_wal(path).records, scan_wal(path).clean, scan_wal(path).format
(2, True, 2)
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import CodecError, StoreError
from repro.store import codec
from repro.types import StreamElement

__all__ = [
    "DEFAULT_WAL_FORMAT",
    "WAL_MAGIC",
    "WAL_MAGIC_V2",
    "WalScan",
    "WalWriter",
    "iter_wal",
    "read_wal",
    "scan_wal",
    "wal_magic",
]

#: File magic of a format-1 (JSON payload) WAL segment.
WAL_MAGIC = b"RWAL\x01\x00\x00\x00"

#: File magic of a format-2 (packed payload) WAL segment.
WAL_MAGIC_V2 = b"RWAL\x02\x00\x00\x00"

#: Format for segments created without an explicit ``format=``.
#: Module-level so tests can pin it back to 1 and build v1 directories
#: through the unmodified session/serve paths.
DEFAULT_WAL_FORMAT = 2

_MAGICS = {1: WAL_MAGIC, 2: WAL_MAGIC_V2}

#: Frame header: little-endian payload length + CRC32 of the payload.
_FRAME = struct.Struct("<II")

#: Upper bound on a sane payload; a longer declared length is treated
#: as corruption (stops the scan) instead of being allocated.
_MAX_PAYLOAD = 1 << 20

PathLike = Union[str, os.PathLike]


def wal_magic(format: int) -> bytes:
    """The 8-byte header for a WAL segment of ``format`` (1 or 2)."""
    try:
        return _MAGICS[format]
    except KeyError:
        raise StoreError(
            f"unknown WAL format {format!r} (supported: 1, 2)"
        ) from None


def _encode(element: StreamElement, format: int) -> bytes:
    if format == 2:
        payload = codec.encode_element(element)
    else:
        payload = json.dumps(
            element.to_record(), separators=(",", ":")
        ).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode(payload: bytes, format: int, path: PathLike) -> StreamElement:
    try:
        if format == 2:
            return codec.decode_element(payload)
        return StreamElement.from_record(json.loads(payload))
    except (json.JSONDecodeError, ValueError, CodecError) as exc:
        raise StoreError(
            f"WAL record with a valid checksum failed to "
            f"decode in {os.fspath(path)!r}: {exc}"
        ) from exc


@dataclass(frozen=True)
class WalScan:
    """What :func:`scan_wal` found in one WAL file.

    Attributes:
        records: intact records before any torn/corrupt frame.
        valid_bytes: file length of the intact prefix (header
            included) — recovery truncates the file here.
        clean: True when the file ends exactly on a frame boundary
            (no torn tail).
        format: the segment's payload format from its magic header
            (1 = JSON, 2 = packed); 0 for a torn header.
    """

    records: int
    valid_bytes: int
    clean: bool
    format: int = 1


def _check_header(head: bytes, path: PathLike) -> Optional[int]:
    """The header's format number, or None for a torn magic prefix.

    A file shorter than the magic whose bytes *are* a prefix of some
    supported magic is a crash during file creation — recoverable
    (0 records).  Anything else is not a repro WAL and raises.
    """
    for format, magic in _MAGICS.items():
        if head == magic:
            return format
    if len(head) < 8 and any(
        magic.startswith(head) for magic in _MAGICS.values()
    ):
        return None
    raise StoreError(f"{os.fspath(path)!r} is not a repro WAL file")


def scan_wal(path: PathLike) -> WalScan:
    """Walk a WAL's frames; report the intact prefix and tail state."""
    return read_wal(path, start=None)[0]


def read_wal(
    path: PathLike, start: Optional[int] = 0
) -> Tuple[WalScan, List[StreamElement]]:
    """Walk a WAL once: its :class:`WalScan` plus the decoded records.

    Every intact frame is checksummed, but only records at index
    ``start`` or later are decoded (``None`` decodes none), so a reader
    that only needs the tail past a snapshot pays for nothing before
    it.  Raises :class:`~repro.errors.StoreError` like :func:`iter_wal`
    for a decoded record that is not a valid element.
    """
    records = 0
    elements: List[StreamElement] = []
    with open(path, "rb") as handle:
        format = _check_header(handle.read(8), path)
        if format is None:
            return WalScan(0, 0, False, 0), elements
        valid = 8
        while True:
            header = handle.read(_FRAME.size)
            if not header:
                return WalScan(records, valid, True, format), elements
            if len(header) < _FRAME.size:
                return WalScan(records, valid, False, format), elements
            length, crc = _FRAME.unpack(header)
            if length == 0 or length > _MAX_PAYLOAD:
                # No element encodes to an empty payload in either
                # format, so a zero-length frame is corruption —
                # typically a zero-filled tail a filesystem left
                # after a crash (crc32(b"") == 0 makes it
                # checksum-"valid").
                return WalScan(records, valid, False, format), elements
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return WalScan(records, valid, False, format), elements
            if start is not None and records >= start:
                elements.append(_decode(payload, format, path))
            records += 1
            valid += _FRAME.size + length


def iter_wal(path: PathLike) -> Iterator[StreamElement]:
    """Yield the intact records of a WAL file as stream elements.

    Stops silently at a torn tail (use :func:`scan_wal` to learn
    whether one exists); raises :class:`~repro.errors.StoreError` for
    a record whose intact payload is not a valid element record in
    the segment's format.
    """
    with open(path, "rb") as handle:
        format = _check_header(handle.read(8), path)
        if format is None:
            return
        while True:
            header = handle.read(_FRAME.size)
            if len(header) < _FRAME.size:
                return
            length, crc = _FRAME.unpack(header)
            if length == 0 or length > _MAX_PAYLOAD:
                return
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return
            yield _decode(payload, format, path)


class WalWriter:
    """Append-only writer for one WAL segment file.

    Args:
        path: segment file.  A missing or empty file gets the magic
            header; an existing file must start with one (recovery
            truncates torn state *before* constructing a writer).
        fsync_every: force ``fsync`` after this many appended records.
            Appends between barriers live in OS/file buffers — a crash
            may tear them, which is exactly the tail :func:`scan_wal`
            discards.  ``sync()``/``close()`` always force a barrier.
        format: payload format for a **new** segment (default
            :data:`DEFAULT_WAL_FORMAT`).  An existing non-empty file
            keeps the format in its header — a segment is
            single-format by construction, so appends *adopt* it and
            ``format=`` is ignored there.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        fsync_every: int = 256,
        format: Optional[int] = None,
    ) -> None:
        if fsync_every <= 0:
            raise StoreError(
                f"fsync_every must be positive, got {fsync_every}"
            )
        self._path = path
        self._fsync_every = fsync_every
        self._pending = 0
        self._appended = 0
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if size:
            with open(path, "rb") as handle:
                existing = _check_header(handle.read(8), path)
                if existing is None:
                    raise StoreError(
                        f"cannot append to {os.fspath(path)!r}: torn "
                        "header (run recovery first)"
                    )
            self._format = existing
        else:
            self._format = (
                format if format is not None else DEFAULT_WAL_FORMAT
            )
        magic = wal_magic(self._format)
        self._handle = open(path, "ab")
        if size == 0:
            self._handle.write(magic)
            self._barrier()

    @property
    def path(self) -> PathLike:
        return self._path

    @property
    def format(self) -> int:
        """The segment's payload format (1 = JSON, 2 = packed)."""
        return self._format

    @property
    def appended(self) -> int:
        """Records appended through this writer instance."""
        return self._appended

    def position(self) -> int:
        """Current end-of-log byte position (buffered bytes included).

        Pair with :meth:`truncate_to` to undo appends whose elements
        the estimator then refused — a record must leave the log when
        its element was never ingested, or log and session desync.
        """
        return self._handle.tell()

    def truncate_to(self, position: int, records: int) -> None:
        """Undo the last ``records`` appends, back to ``position``.

        ``position`` must come from :meth:`position` taken before the
        appends being undone.  The truncation is flushed and fsynced —
        a rolled-back record must never resurface after a crash.
        """
        current = self._handle.tell()
        if position > current:
            raise StoreError(
                f"cannot truncate forward: {position} > {current}"
            )
        self._handle.flush()
        os.ftruncate(self._handle.fileno(), position)
        self._handle.seek(position)
        os.fsync(self._handle.fileno())
        self._appended -= records
        self._pending = 0

    def append(self, element: StreamElement) -> None:
        """Frame and append one element; fsync when the batch fills."""
        self._handle.write(_encode(element, self._format))
        self._appended += 1
        self._pending += 1
        if self._pending >= self._fsync_every:
            self._barrier()

    def append_batch(self, elements: Iterable[StreamElement]) -> int:
        """Append a run of elements; returns how many were appended."""
        count = 0
        write = self._handle.write
        format = self._format
        for element in elements:
            write(_encode(element, format))
            count += 1
        self._appended += count
        self._pending += count
        if self._pending >= self._fsync_every:
            self._barrier()
        return count

    def _barrier(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending = 0

    def sync(self) -> None:
        """Force buffered appends to durable storage now."""
        self._barrier()

    def close(self) -> None:
        if self._handle.closed:
            return
        self._barrier()
        self._handle.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalWriter({os.fspath(self._path)!r}, "
            f"format={self._format}, appended={self._appended})"
        )
