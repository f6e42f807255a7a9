"""Read rotation across a reshard when a follower dies mid-flight.

The regression this pins: a live reshard on the primary must not
strand the cluster client on a dead follower or on a **stale
topology**.  Followers keep replaying the element log through their
own fixed topology (they do not reshard with the primary), so
:meth:`ClusterClient.topology` is deliberately primary-only — a read
rotated to a follower mid-transition must still serve, but the
topology answer must come from the node that actually switched.
"""

import pytest
from cluster_utils import unique_edges
from suite_utils import wait_until

from repro.api import open_session
from repro.cluster import (
    ClusterClient,
    follow_in_background,
    replicate_in_background,
)
from repro.errors import ClusterError
from repro.serve import ServeClient

#: A sharded durable primary — the only topology that can reshard.
SHARDED_SPEC = "abacus:budget=48,seed=11"


def _cluster(tmp_path, followers=2):
    primary = replicate_in_background(
        open_session(
            SHARDED_SPEC, shards=2, durable_dir=tmp_path / "primary"
        )
    )
    nodes = [
        follow_in_background(
            primary.server.replication_address,
            tmp_path / f"follower-{index}",
            reconnect_backoff=0.05,
        )
        for index in range(followers)
    ]
    return primary, nodes


def test_follower_death_mid_reshard_does_not_strand_reads(tmp_path):
    primary, (dead, alive) = _cluster(tmp_path)
    cluster = ClusterClient(
        primary.address, [dead.address, alive.address]
    )
    try:
        cluster.ingest(unique_edges(30))
        wait_until(lambda: dead.server.view.elements == 30)
        wait_until(lambda: alive.server.view.elements == 30)
        assert cluster.topology()["shards"] == 2

        # The follower dies; the topology change lands anyway.
        dead.stop()
        report = cluster.reshard(4)
        assert report["shards"] == 4
        assert report["epoch"] == 1
        assert report["topology"]["shards"] == 4

        # Reads rotate past the corpse — every call answers, and the
        # rotation genuinely cycles (it does not pin to one node).
        for _ in range(4):
            view = cluster.estimate()
            assert view["elements"] == 30

        # The authoritative topology is the new one, immediately.
        topology = cluster.topology()
        assert topology["shards"] == 4
        assert topology["epoch"] == 1

        # The surviving follower *is* on the old topology — which is
        # exactly why topology() never asks a follower.
        with ServeClient(*alive.address) as direct:
            follower_topology = direct.stats()["topology"]
        assert follower_topology["shards"] == 2
        assert follower_topology["epoch"] == 0

        # Post-reshard writes replicate and read-your-writes holds.
        cluster.ingest(unique_edges(10, start=30))
        view = cluster.estimate(read_mode="read_your_writes")
        assert view["elements"] == 40
        cluster.close()
    finally:
        alive.stop()
        primary.stop()


def test_reshard_without_any_follower_left(tmp_path):
    """Every follower gone: writes, reshard, and reads all fall back
    to the primary."""
    primary, (f1, f2) = _cluster(tmp_path)
    cluster = ClusterClient(primary.address, [f1.address, f2.address])
    try:
        cluster.ingest(unique_edges(12))
        wait_until(lambda: f1.server.view.elements == 12)
        f1.stop()
        f2.stop()
        assert cluster.reshard(3)["shards"] == 3
        assert cluster.estimate()["elements"] == 12
        assert cluster.topology()["epoch"] == 1
        cluster.close()
    finally:
        primary.stop()


def test_reshard_of_an_unsharded_primary_is_a_clean_error(tmp_path):
    primary = replicate_in_background(
        open_session(SHARDED_SPEC, durable_dir=tmp_path / "primary")
    )
    cluster = ClusterClient(primary.address)
    try:
        cluster.ingest(unique_edges(5))
        with pytest.raises(ClusterError, match="reshard"):
            cluster.reshard(2)
        assert cluster.topology() is None
        # The failed reshard left the node fully serviceable.
        assert cluster.estimate()["elements"] == 5
        cluster.close()
    finally:
        primary.stop()
