"""Shared machinery for the fault-injection chaos suite.

The suite proves one sentence: **killing the process at any declared
fault point during a topology change leaves a durable directory that
recovers bit-identically to an uninterrupted run** — landing on
exactly one side of the reshard cut, never between.

A "crash" here is :class:`repro.faults.SimulatedCrash` unwinding out
of an armed :func:`repro.faults.fault_point` and the live session
being *abandoned* (never closed): the same observable sequence a
``kill -9`` leaves behind, namely only the on-disk state.  The torn-
*file* side of the story is PR-5's kill-at-every-byte matrix in
``tests/store/test_recovery.py``, whose fingerprinting this reuses.

``CHAOS_FULL=1`` (the nightly CI job) runs the full spec × fault-point
matrix; the default run keeps a quick deterministic sample so the
harness rides along in tier-1.
"""

import os

import pytest
from suite_utils import load_recovery_harness

from repro.api import open_session
from repro.faults import SimulatedCrash, crash_at

#: Full matrix under CHAOS_FULL=1 (nightly); quick sample otherwise.
CHAOS_FULL = os.environ.get("CHAOS_FULL") == "1"

#: The reshardable durable specs: (id, spec, shards).  ABACUS is the
#: always-on sample; the rest join under CHAOS_FULL.
RESHARD_SPECS = [
    ("abacus", "abacus:budget=48,seed=11", 2),
    ("parabacus", "parabacus:budget=64,seed=11,batch_size=7", 2),
    ("abacus-3shard", "abacus:budget=32,seed=5", 3),
]

#: Fault points during ``Session.reshard`` on a durable session, with
#: the side of the cut recovery must land on: "pre" (the reshard never
#: happened) or "post" (the new topology is committed).  The flip
#: happens exactly when the post-reshard snapshot hits the disk.
RESHARD_CUT = [
    ("reshard.prepared", "pre"),
    ("reshard.built", "pre"),
    ("reshard.swapped", "pre"),
    ("reshard.pre_checkpoint", "pre"),
    ("checkpoint.synced", "pre"),
    ("checkpoint.snapshotted", "post"),
    ("checkpoint.rotated", "post"),
]

#: Fault points that never fire inside ``Session.reshard`` — they
#: belong to tenant-catalog admin paths and are crashed-and-recovered
#: by ``tests/tenancy/test_tenant_recovery.py`` instead.  Listing a
#: point here is still a stance: the coverage test demands every
#: declared fault point appear in exactly one of the two tables.
RESHARD_IRRELEVANT = frozenset(
    {
        "tenant.create_committed",
        "tenant.drop_committed",
    }
)


def sampled(matrix, keep=1):
    """The full ``matrix`` under CHAOS_FULL, else its first ``keep``."""
    return matrix if CHAOS_FULL else matrix[:keep]


_recovery = load_recovery_harness()
fingerprint = _recovery._fingerprint


def build_durable(directory, spec, stream, *, shards, checkpoint_at=None):
    """Ingest ``stream`` into a fresh sharded durable session.

    The session is synced and **abandoned** (not closed) — chaos runs
    continue from the on-disk state alone.
    """
    session = open_session(spec, shards=shards, durable_dir=directory)
    if checkpoint_at:
        session.ingest(stream[:checkpoint_at])
        session.checkpoint()
        session.ingest(stream[checkpoint_at:])
    else:
        session.ingest(stream)
    session.sync()
    return session


def crash_reshard(directory, point, new_shards, **reshard_kwargs):
    """Recover ``directory``, reshard with a crash armed at ``point``.

    Returns after the simulated crash; the session is abandoned, so
    the only surviving state is on disk — exactly like a real kill.
    """
    session = open_session(durable_dir=directory)
    with pytest.raises(SimulatedCrash) as failure:
        with crash_at(point):
            session.reshard(new_shards, **reshard_kwargs)
    assert failure.value.point == point
    return session  # abandoned by the caller; never closed


def recover_fingerprint(directory):
    """Open the durable dir; return (topology, elements, fingerprint)."""
    session = open_session(durable_dir=directory)
    try:
        return session.topology, session.elements, fingerprint(session)
    finally:
        session.close()
