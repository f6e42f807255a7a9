"""Failover bit-identity: promoting a follower == single-node recovery.

ISSUE 6 acceptance, generalizing the kill-at-every-offset harness of
``tests/store/test_recovery.py`` to the replicated cluster:

1. A primary ingests a fully-dynamic stream while a follower
   replicates it (WAL shipping re-logged to the follower's own disk).
2. The primary is killed mid-stream and, for the whole-node-failure
   case, the *follower's* WAL is additionally torn at an arbitrary
   byte — the matrix cuts the ABACUS log at **every** byte and the
   heavier specs (PARABACUS, sharded, windowed) at every record
   boundary plus torn-header/torn-payload offsets.
3. Promoting the follower is exactly
   ``open_session(durable_dir=follower_dir)``: the torn tail is
   truncated and the result must be bit-identical — estimate *and*
   complete ``state_to_dict()`` — to an uninterrupted single-node run
   over the surviving prefix.
4. Continuing to write to the promoted node ends bit-identical to the
   uninterrupted full run.
"""

import json
import random

import pytest
from suite_utils import wait_until

from repro.api import open_session
from repro.cluster import ClusterClient, follow_in_background
from repro.graph.generators import bipartite_erdos_renyi
from repro.serve import ServeClient
from repro.serve.protocol import elements_to_records, records_to_elements
from repro.streams import make_fully_dynamic

# The same acceptance matrix as tests/store/test_recovery.py — the
# failover proof must hold for every estimator family the recovery
# proof holds for.
from suite_utils import load_recovery_harness

_recovery = load_recovery_harness()
SPECS = _recovery.SPECS
_fingerprint = _recovery._fingerprint
_kill_points = _recovery._kill_points
_last_segment = _recovery._last_segment
_reference_fingerprints = _recovery._reference_fingerprints


def _stream(seed=3):
    edges = bipartite_erdos_renyi(12, 12, 50, random.Random(seed))
    return list(
        make_fully_dynamic(edges, alpha=0.25, rng=random.Random(seed + 1))
    )


def _wire_round_trip(elements):
    """Elements exactly as replication delivers them (wire-decoded)."""
    return records_to_elements(elements_to_records(elements))


def _replicate_stream(
    tmp_path, spec, stream, *, checkpoint_at=None, chunk=7
):
    """Run a primary + follower cluster over ``stream``; return the
    follower's durable directory (its session closed and synced)."""
    from repro.cluster import replicate_in_background

    primary_dir = tmp_path / "primary"
    follower_dir = tmp_path / "follower"
    primary = replicate_in_background(
        open_session(spec, durable_dir=primary_dir)
    )
    follower = follow_in_background(
        primary.server.replication_address,
        follower_dir,
        reconnect_backoff=0.05,
    )
    try:
        with ServeClient(*primary.address) as client:
            for start in range(0, len(stream), chunk):
                client.ingest(stream[start : start + chunk])
                if checkpoint_at is not None and (
                    start + chunk >= checkpoint_at > start
                ):
                    # Checkpoint the *primary* mid-stream; replication
                    # itself must stay checkpoint-oblivious.
                    client.checkpoint()
        wait_until(
            lambda: follower.server.view.elements == len(stream)
        )
    finally:
        follower.stop()
        primary.stop()
    return follower_dir


@pytest.mark.parametrize(
    "spec,granularity",
    [(spec, granularity) for _, spec, granularity in SPECS],
    ids=[name for name, _, _ in SPECS],
)
def test_promotion_is_bit_identical_at_every_kill_point(
    tmp_path, spec, granularity
):
    """Tear the replica's WAL anywhere; promotion recovers exactly."""
    stream = _wire_round_trip(_stream())
    references = _reference_fingerprints(spec, stream)
    follower_dir = _replicate_stream(tmp_path, spec, stream)
    segment = _last_segment(follower_dir)
    data = segment.read_bytes()
    recovered_counts = set()
    for cut in _kill_points(data, granularity):
        segment.write_bytes(data[:cut])
        promoted = open_session(durable_dir=follower_dir)
        count = promoted.elements
        assert _fingerprint(promoted) == references[count], (
            f"promotion after a kill at byte {cut} of the replica's "
            f"WAL (= {count} elements) is not bit-identical to the "
            "uninterrupted single-node run"
        )
        promoted.close()
        recovered_counts.add(count)
    assert min(recovered_counts) == 0
    assert max(recovered_counts) == len(stream)
    assert len(recovered_counts) > 2


@pytest.mark.parametrize(
    "spec",
    [spec for _, spec, _ in SPECS],
    ids=[name for name, _, _ in SPECS],
)
def test_promotion_after_snapshot_bootstrap_is_bit_identical(
    tmp_path, spec
):
    """The kill matrix holds when the primary checkpointed mid-stream.

    The checkpoint prunes the primary's wal-0, so a follower joining
    afterwards bootstraps from the snapshot — its local log then
    starts at the snapshot offset, and tearing it must still recover
    bit-identically (snapshot restore + local WAL-tail replay).
    """
    stream = _wire_round_trip(_stream(seed=5))
    checkpoint_at = len(stream) // 2
    references = _reference_fingerprints(spec, stream)
    follower_dir = _replicate_stream(
        tmp_path, spec, stream, checkpoint_at=checkpoint_at
    )
    segment = _last_segment(follower_dir)
    data = segment.read_bytes()
    recovered_counts = set()
    for cut in _kill_points(data, "record"):
        segment.write_bytes(data[:cut])
        promoted = open_session(durable_dir=follower_dir)
        count = promoted.elements
        assert _fingerprint(promoted) == references[count], (
            f"kill at byte {cut}: replica recovery diverged"
        )
        promoted.close()
        recovered_counts.add(count)
    assert max(recovered_counts) == len(stream)
    assert len(recovered_counts) > 2


@pytest.mark.parametrize(
    "spec",
    [spec for _, spec, _ in SPECS],
    ids=[name for name, _, _ in SPECS],
)
def test_live_promotion_and_continuation_matches_uninterrupted(
    tmp_path, spec
):
    """Kill the primary mid-stream, promote, finish the stream.

    The promoted follower accepts the remaining writes and its final
    state — estimate and full estimator state, read over the wire —
    is bit-identical to a single node that ingested everything
    uninterrupted.
    """
    from repro.cluster import replicate_in_background

    stream = _wire_round_trip(_stream(seed=9))
    half = len(stream) // 2
    references = _reference_fingerprints(spec, stream)
    primary = replicate_in_background(
        open_session(spec, durable_dir=tmp_path / "primary")
    )
    follower = follow_in_background(
        primary.server.replication_address,
        tmp_path / "follower",
        reconnect_backoff=0.05,
    )
    try:
        cluster = ClusterClient(
            primary.address, [follower.address]
        )
        cluster.ingest(stream[:half])
        wait_until(lambda: follower.server.view.elements == half)
        primary.stop()  # the failover
        result = cluster.promote(follower.address)
        assert result["promoted"] is True
        assert result["elements"] == half
        cluster.ingest(stream[half:])
        estimate = cluster.estimate(read_mode="read_your_writes")
        snapshot = cluster.snapshot()
        cluster.close()
    finally:
        follower.stop()
        primary.stop()
    assert estimate["elements"] == len(stream)
    wire_fingerprint = json.dumps(
        {
            "estimate": estimate["estimate"],
            "state": snapshot["state"],
        },
        sort_keys=True,
    )
    assert wire_fingerprint == references[len(stream)]


def test_promoted_node_serves_writes_and_checkpoints(
    tmp_path,
):
    """After promotion the node is a full durable primary."""
    from cluster_utils import SPEC, unique_edges
    from repro.cluster import replicate_in_background

    primary = replicate_in_background(
        open_session(SPEC, durable_dir=tmp_path / "primary")
    )
    follower = follow_in_background(
        primary.server.replication_address, tmp_path / "follower"
    )
    try:
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(10))
        wait_until(lambda: follower.server.view.elements == 10)
        primary.stop()
        with ServeClient(*follower.address) as client:
            assert client.call("promote")["promoted"] is True
            assert client.stats()["role"] == "primary"
            client.ingest(unique_edges(5, start=10))
            assert client.checkpoint() == 15
            # Promote is idempotent.
            assert client.call("promote")["promoted"] is False
    finally:
        follower.stop()
        primary.stop()
    # The promoted node's directory recovers like any durable dir.
    session = open_session(durable_dir=tmp_path / "follower")
    assert session.elements == 15
    session.close()


def test_operator_promotes_the_most_caught_up_follower(tmp_path):
    """The lag stats identify which follower is safe to promote."""
    from cluster_utils import SPEC, unique_edges
    from repro.cluster import replicate_in_background

    primary = replicate_in_background(
        open_session(SPEC, durable_dir=tmp_path / "primary")
    )
    replication = primary.server.replication_address
    ahead = follow_in_background(replication, tmp_path / "ahead")
    behind = follow_in_background(replication, tmp_path / "behind")
    try:
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(12))
        wait_until(lambda: ahead.server.view.elements == 12)
        wait_until(lambda: behind.server.view.elements == 12)
        behind.stop()  # this replica stops applying...
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(8, start=12))  # ...misses these
        wait_until(lambda: ahead.server.view.elements == 20)
        primary.stop()
        cluster = ClusterClient(
            primary.address, [ahead.address, behind.address]
        )
        # The operator playbook: ask every reachable node where it
        # stands, promote the highest applied offset.
        reachable = {
            node: stats
            for node, stats in cluster.stats_all().items()
            if "error" not in stats and stats.get("role") == "follower"
        }
        best = max(
            reachable,
            key=lambda node: reachable[node]["replication"][
                "applied_offset"
            ],
        )
        ahead_host, ahead_port = ahead.address
        assert best == f"{ahead_host}:{ahead_port}"
        assert (
            reachable[best]["replication"]["applied_offset"] == 20
        )
        result = cluster.promote((ahead_host, ahead_port))
        assert result["elements"] == 20
        assert cluster.estimate()["elements"] == 20
        cluster.close()
    finally:
        ahead.stop()
        behind.stop()
        primary.stop()
