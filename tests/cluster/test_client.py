"""``ClusterClient``: routing, rotation, and failure-aware retry."""

import pytest
from cluster_utils import unique_edges
from suite_utils import wait_until

from repro.cluster import ClusterClient, follow_in_background
from repro.errors import ClusterError, NotPrimaryError
from repro.serve import ServeClient


def _operations(address):
    with ServeClient(*address) as client:
        return client.stats()["operations"]


@pytest.fixture
def second_follower(tmp_path, primary):
    background = follow_in_background(
        primary.server.replication_address,
        tmp_path / "follower2",
        stale_timeout=10.0,
        reconnect_backoff=0.05,
    )
    yield background
    background.stop()


class TestRouting:
    def test_mutations_go_to_the_primary(self, primary, follower):
        with ClusterClient(
            primary.address, [follower.address]
        ) as cluster:
            cluster.ingest(unique_edges(4))
            cluster.flush()
            assert cluster.checkpoint() == 4
            assert cluster.snapshot()["session"]["elements"] == 4
        operations = _operations(primary.address)
        assert operations["ingest"] == 1
        assert operations["flush"] == 1
        assert operations["checkpoint"] == 1
        follower_ops = _operations(follower.address)
        for op in ("ingest", "flush", "checkpoint", "snapshot"):
            assert op not in follower_ops

    def test_reads_rotate_across_followers(
        self, primary, follower, second_follower
    ):
        with ClusterClient(
            primary.address,
            [follower.address, second_follower.address],
        ) as cluster:
            for _ in range(4):
                cluster.estimate()
        # stats() hits one more node; count only the estimates.
        first = _operations(follower.address).get("estimate", 0)
        second = _operations(second_follower.address).get("estimate", 0)
        assert first == 2
        assert second == 2

    def test_reads_fall_back_to_the_primary_without_followers(
        self, primary
    ):
        with ClusterClient(primary.address) as cluster:
            cluster.ingest(unique_edges(3))
            assert cluster.estimate()["elements"] == 3

    def test_watermark_tracks_acknowledged_writes(
        self, primary, follower
    ):
        with ClusterClient(
            primary.address, [follower.address]
        ) as cluster:
            assert cluster.last_offset == 0
            cluster.ingest(unique_edges(5))
            assert cluster.last_offset == 5
            cluster.ingest(unique_edges(2, start=5))
            assert cluster.last_offset == 7


class TestFailureHandling:
    def test_reads_survive_a_dead_follower(
        self, primary, follower, second_follower
    ):
        with ClusterClient(
            primary.address,
            [follower.address, second_follower.address],
        ) as cluster:
            cluster.ingest(unique_edges(6))
            follower.stop()
            for _ in range(4):  # rotation must skip the dead node
                assert cluster.estimate()["elements"] <= 6

    def test_all_nodes_down_raises_cluster_error(self, primary):
        address = primary.address
        with ClusterClient(address, [address]) as cluster:
            cluster.ingest(unique_edges(2))
            primary.stop()
            with pytest.raises(ClusterError, match="every node"):
                cluster.estimate()
            with pytest.raises(ClusterError, match="failed"):
                cluster.ingest(unique_edges(1, start=2))

    def test_writing_to_a_follower_raises_not_primary(
        self, primary, follower
    ):
        with ClusterClient(follower.address) as cluster:
            with pytest.raises(NotPrimaryError, match="follower"):
                cluster.ingest(unique_edges(1))

    def test_reconnects_after_a_follower_restart(
        self, tmp_path, primary
    ):
        """A restarted follower costs the client one dropped socket."""
        replication = primary.server.replication_address
        follower = follow_in_background(replication, tmp_path / "f")
        with ClusterClient(
            primary.address, [follower.address]
        ) as cluster:
            cluster.ingest(unique_edges(3))
            wait_until(lambda: follower.server.view.elements == 3)
            assert cluster.estimate()["elements"] == 3
            host, port = follower.address
            follower.stop()
            # Primary fallback keeps reads alive while the follower
            # is down (its cached socket fails and is dropped).
            assert cluster.estimate()["elements"] == 3
            restarted = follow_in_background(
                replication, tmp_path / "f", host=host, port=port
            )
            try:
                wait_until(
                    lambda: restarted.server.view.elements == 3
                )
                assert cluster.estimate()["elements"] == 3
                # The rotation reached the restarted follower again.
                assert _operations(restarted.address).get(
                    "estimate", 0
                ) >= 1
            finally:
                restarted.stop()


class TestTopology:
    def test_set_primary_drops_it_from_rotation(
        self, primary, follower
    ):
        with ClusterClient(
            primary.address, [follower.address]
        ) as cluster:
            cluster.set_primary(follower.address)
            assert cluster.primary == follower.address
            assert follower.address not in cluster.followers

    def test_stats_all_reports_every_node(
        self, primary, follower
    ):
        with ClusterClient(
            primary.address, [follower.address]
        ) as cluster:
            cluster.ingest(unique_edges(2))
            everything = cluster.stats_all()
        assert len(everything) == 2
        roles = sorted(
            stats.get("role") for stats in everything.values()
        )
        assert roles == ["follower", "primary"]

    def test_stats_all_marks_dead_nodes(self, primary, follower):
        with ClusterClient(
            primary.address, [follower.address]
        ) as cluster:
            follower.stop()
            everything = cluster.stats_all()
            host, port = follower.address
            assert "error" in everything[f"{host}:{port}"]

    def test_invalid_read_mode_is_refused_up_front(self, primary):
        with pytest.raises(ClusterError, match="read_mode"):
            ClusterClient(primary.address, read_mode="strong")
