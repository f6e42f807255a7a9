"""Read consistency on the wire: eventual vs read-your-writes.

The guarantee under test (ISSUE 6 acceptance): a client that wrote
offset ``k`` and reads with ``read_mode="read_your_writes"`` never
observes a view covering fewer than ``k`` elements — from any node.
On a follower the read *waits* for replication to apply ``k``; on a
node that can never reach ``k`` it fails with ``StaleReadError``
rather than serving the stale view.
"""

import pytest
from cluster_utils import unique_edges
from suite_utils import wait_until

from repro.api import open_session
from repro.cluster import ClusterClient, follow_in_background
from repro.errors import ServeError
from repro.serve import ServeClient, serve_in_background


class TestSingleNodeWire:
    """The read-mode wire grammar on a plain (non-cluster) server."""

    @pytest.fixture
    def server(self):
        with serve_in_background(open_session("exact")) as background:
            yield background

    def test_eventual_is_the_default_and_explicit(self, server):
        with ServeClient(*server.address) as client:
            assert client.estimate() == client.estimate(
                read_mode="eventual"
            )

    def test_ryw_at_or_below_view_is_served(self, server):
        with ServeClient(*server.address) as client:
            client.ingest(unique_edges(4))
            result = client.estimate(
                read_mode="read_your_writes", min_offset=4
            )
            assert result["elements"] == 4

    def test_ryw_beyond_view_refuses_stale(self, server):
        """A single node cannot wait for elements nobody will write."""
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.estimate(
                    read_mode="read_your_writes", min_offset=99
                )
            assert excinfo.value.remote_type == "StaleReadError"
            assert client.ping()["pong"]  # connection survived

    def test_unknown_read_mode_is_rejected(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError, match="read_mode"):
                client.estimate(read_mode="linearizable")

    @pytest.mark.parametrize("bad", [-1, "x", 1.5])
    def test_malformed_min_offset_is_rejected(self, server, bad):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError, match="min_offset"):
                client.call(
                    "estimate",
                    read_mode="read_your_writes",
                    min_offset=bad,
                )

    def test_ping_ignores_freshness(self, server):
        with ServeClient(*server.address) as client:
            result = client.call(
                "ping", read_mode="read_your_writes", min_offset=99
            )
            assert result["pong"]


class TestReadYourWritesGuarantee:
    def test_writer_never_reads_an_older_view(self, primary, follower):
        """Write-then-read through the cluster client, every round.

        Reads rotate onto the follower, which at the moment of the
        read has usually not applied the write yet — the server-side
        wait is what makes this loop pass deterministically.
        """
        with ClusterClient(
            primary.address,
            [follower.address],
            read_mode="read_your_writes",
        ) as cluster:
            for round_number in range(30):
                cluster.ingest(unique_edges(1, start=round_number))
                view = cluster.estimate()
                assert view["elements"] >= cluster.last_offset, (
                    f"round {round_number}: read saw "
                    f"{view['elements']} elements, behind the "
                    f"client's own write at {cluster.last_offset}"
                )

    def test_eventual_reads_never_block(self, primary, follower):
        """Eventual mode answers from whatever the follower has."""
        with ClusterClient(
            primary.address, [follower.address]
        ) as cluster:
            cluster.ingest(unique_edges(10))
            view = cluster.estimate()  # any published view is fine
            assert 0 <= view["elements"] <= 10


class TestFollowerStaleness:
    def test_ryw_times_out_when_replication_cannot_catch_up(
        self, tmp_path, primary
    ):
        follower = follow_in_background(
            primary.server.replication_address,
            tmp_path / "f",
            stale_timeout=0.3,
            reconnect_backoff=0.05,
        )
        try:
            with ServeClient(*primary.address) as client:
                client.ingest(unique_edges(5))
            wait_until(
                lambda: follower.server.view.elements == 5
            )
            primary.stop()  # no one can ever write offset 6
            with ServeClient(*follower.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.estimate(
                        read_mode="read_your_writes", min_offset=6
                    )
                assert excinfo.value.remote_type == "StaleReadError"
                # The follower still serves what it does have.
                assert client.estimate(
                    read_mode="read_your_writes", min_offset=5
                )["elements"] == 5
                assert client.estimate()["elements"] == 5
        finally:
            follower.stop()

    def test_waiting_read_completes_when_the_write_lands(
        self, primary, follower
    ):
        """A read that arrives before its write's replication waits."""
        import threading

        with ServeClient(*primary.address) as writer_client:
            writer_client.ingest(unique_edges(3))
        wait_until(lambda: follower.server.view.elements == 3)
        results = {}

        def _read():
            with ServeClient(*follower.address) as client:
                results["view"] = client.estimate(
                    read_mode="read_your_writes", min_offset=4
                )

        reader = threading.Thread(target=_read)
        reader.start()
        with ServeClient(*primary.address) as writer_client:
            writer_client.ingest(unique_edges(1, start=3))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert results["view"]["elements"] >= 4
