"""Chaos for the process backend: dead workers and crashed reshards.

A shard worker process dying mid-stream must surface as a loud
:class:`~repro.errors.EstimatorError` on the next command — never a
hang, never a silently wrong estimate — and the coordinator must stay
closable.  For a **durable** session the recovery story then takes
over: reopening the directory rebuilds the workers from the last
durable state bit-identically.  A reshard that crashes while its new
process-backend workers are already running must reap them all.
"""

import json
import multiprocessing
import random

import pytest
from chaos_utils import build_durable, fingerprint, sampled
from suite_utils import wait_until

from repro.api import open_session
from repro.errors import EstimatorError
from repro.faults import SimulatedCrash, crash_at
from repro.graph.generators import bipartite_erdos_renyi
from repro.shard.engine import ShardedEstimator
from repro.streams import make_fully_dynamic
from repro.types import insertion

SPEC = "abacus:budget=48,seed=11"


def _stream(seed=3):
    edges = bipartite_erdos_renyi(12, 12, 50, random.Random(seed))
    return list(
        make_fully_dynamic(edges, alpha=0.25, rng=random.Random(seed + 1))
    )


def _alive_workers():
    return sum(
        1 for process in multiprocessing.active_children()
        if process.is_alive()
    )


def _backend_blind_fingerprint(session):
    """The recovery fingerprint minus the backend name — the backend
    is an execution detail, every other byte must match."""
    state = session.snapshot()["state"]
    state.pop("backend")
    return json.dumps(
        {"estimate": session.estimate, "state": state}, sort_keys=True
    )


@pytest.mark.chaos
@pytest.mark.parametrize("victim", sampled([0, 1], keep=1))
def test_killed_worker_fails_loud_and_closes_clean(victim):
    engine = ShardedEstimator(SPEC, shards=2, backend="process")
    try:
        engine.process_batch(_stream())
        workers = engine._backend.processes
        assert len(workers) == 2
        workers[victim].kill()
        workers[victim].join(timeout=5.0)
        with pytest.raises(EstimatorError, match="worker"):
            # A batch spanning every shard must raise — never hang,
            # never return a fabricated estimate.  (Two calls cover
            # the race where the first send lands in the dying pipe's
            # OS buffer.)
            for attempt in range(2):
                engine.process_batch(
                    [insertion(f"post-kill-{attempt}-{i}", f"pv{i}")
                     for i in range(8)]
                )
    finally:
        engine.close()  # must not hang on the corpse


@pytest.mark.chaos
def test_durable_restart_after_worker_kill_is_bit_identical(tmp_path):
    """kill -9 a shard worker, abandon the coordinator, reopen the
    directory: the rebuilt cluster is bit-identical to a run that
    never crashed."""
    baseline = _alive_workers()
    stream = _stream(seed=5)
    reference_dir = tmp_path / "reference"
    session = build_durable(
        reference_dir, SPEC, stream, shards=2, checkpoint_at=25
    )
    reference = _backend_blind_fingerprint(session)
    session.close()

    chaos_dir = tmp_path / "chaos"
    session = open_session(
        SPEC, shards=2, backend="process", durable_dir=chaos_dir
    )
    session.ingest(stream[:25])
    session.checkpoint()
    session.ingest(stream[25:])
    session.sync()
    engine = session.estimator
    engine._backend.processes[0].kill()
    with pytest.raises(EstimatorError):
        for attempt in range(2):
            session.ingest(
                [insertion(f"lost-{attempt}-{i}", f"lv{i}")
                 for i in range(8)]
            )
    # Abandon the wounded session (simulated coordinator death) and
    # recover from disk: the post-kill ingest attempts never became
    # durable, so the state is the pre-kill stream, exactly.
    recovered = open_session(durable_dir=chaos_dir)
    assert recovered.elements == len(stream)
    assert _backend_blind_fingerprint(recovered) == reference
    # The recovered session reshards fine (serial replay semantics).
    recovered.reshard(4)
    assert recovered.topology["shards"] == 4
    recovered.close()
    # The wounded session stays abandoned (a clean close would flush
    # through the dead pipe); reap its surviving worker directly.
    engine._backend.close()
    wait_until(lambda: _alive_workers() <= baseline)


@pytest.mark.chaos
def test_crashed_reshard_reaps_its_new_workers():
    """A reshard that dies after building process-backend workers
    leaves no orphans and keeps the old topology fully live."""
    baseline = _alive_workers()
    engine = ShardedEstimator(SPEC, shards=2, backend="process")
    try:
        engine.process_batch(_stream(seed=7))
        assert _alive_workers() == baseline + 2
        before = json.dumps(engine.state_to_dict(), sort_keys=True)
        with pytest.raises(SimulatedCrash):
            with crash_at("reshard.built"):
                engine.reshard(4, backend="process")
        # The 4 freshly spawned workers were reaped by the unwind...
        wait_until(lambda: _alive_workers() == baseline + 2)
        # ...and the old 2-shard topology never noticed.
        assert engine.num_shards == 2
        assert json.dumps(
            engine.state_to_dict(), sort_keys=True
        ) == before
        engine.process_batch([insertion("survivor-u", "survivor-v")])
    finally:
        engine.close()
    wait_until(lambda: _alive_workers() <= baseline)


@pytest.mark.chaos
def test_reshard_across_backends_matches_serial(tmp_path):
    """serial -> process reshard lands on the same durable state as
    serial -> serial (the backend is an execution detail)."""
    baseline = _alive_workers()
    stream = _stream(seed=15)
    fingerprints = {}
    for backend in ("serial", "process"):
        directory = tmp_path / backend
        session = build_durable(directory, SPEC, stream, shards=2)
        session.reshard(3, backend=backend)
        session.close()
        recovered = open_session(durable_dir=directory)
        state = recovered.snapshot()["state"]
        state.pop("backend")
        fingerprints[backend] = json.dumps(
            {"estimate": recovered.estimate, "state": state},
            sort_keys=True,
        )
        recovered.close()
    assert fingerprints["serial"] == fingerprints["process"]
    wait_until(lambda: _alive_workers() <= baseline)
