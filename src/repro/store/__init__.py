"""Durable persistence for estimator sessions.

Everything an estimate needs to survive a process death lives here:

* :mod:`repro.store.wal` — a CRC-framed, fsync-batched **write-ahead
  log** of stream elements (:class:`WalWriter`, :func:`iter_wal`,
  :func:`scan_wal`).  Every element a durable session ingests is
  framed and appended *before* the estimator processes it.
* :mod:`repro.store.codec` — the **packed binary record codec**
  (format 2): the payload grammar of new WAL segments and of the
  opt-in binary batch payloads on the serve and replication wires
  (:func:`encode_element`, :func:`decode_element`,
  :func:`encode_batch`, :func:`decode_batch`).  Format-1 JSON
  segments stay readable forever; ``tests/store/wire_corpus/`` pins
  both grammars byte-for-byte.
* :mod:`repro.store.snapshots` — a :class:`SnapshotStore` of durable
  session snapshots (the :meth:`repro.api.session.Session.snapshot`
  JSON envelope), written atomically (tmp + fsync + rename).
* :mod:`repro.store.durable` — :class:`DurableStore`, the directory
  layout that ties both together, and the **recovery contract**: load
  the latest snapshot, replay the WAL tail, and land **bit-identical**
  to the uninterrupted run (``docs/persistence.md``; enforced
  kill-at-every-byte by ``tests/store/test_recovery.py``).

The user-facing entry point is
``open_session(spec, durable_dir=...)`` — see
:mod:`repro.api.session`; this package is the machinery underneath.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_FSYNC_EVERY",
    "DEFAULT_WAL_FORMAT",
    "DurableStore",
    "MAX_KEY_BYTES",
    "PACKED_FORMAT",
    "RecoveredState",
    "SnapshotStore",
    "WalScan",
    "WalWriter",
    "decode_batch",
    "decode_element",
    "encode_batch",
    "encode_element",
    "iter_wal",
    "scan_wal",
    "wal_magic",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.store.codec": (
            "MAX_KEY_BYTES",
            "PACKED_FORMAT",
            "decode_batch",
            "decode_element",
            "encode_batch",
            "encode_element",
        ),
        "repro.store.durable": (
            "DEFAULT_FSYNC_EVERY",
            "DurableStore",
            "RecoveredState",
        ),
        "repro.store.snapshots": ("SnapshotStore",),
        "repro.store.wal": (
            "DEFAULT_WAL_FORMAT",
            "WalScan",
            "WalWriter",
            "iter_wal",
            "scan_wal",
            "wal_magic",
        ),
    },
)
