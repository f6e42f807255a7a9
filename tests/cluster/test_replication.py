"""WAL shipping: catch-up, live streaming, snapshots, lag stats."""

import json
import socket

import pytest
from cluster_utils import unique_edges
from suite_utils import wait_until

from repro.api import open_session
from repro.cluster import (
    FollowerServer,
    ReplicatingServer,
    bootstrap_follower,
    follow_in_background,
    handshake_request,
    replicate_in_background,
)
from repro.errors import ClusterError
from repro.serve import ServeClient
from repro.serve.protocol import encode_message


def _applied(address):
    with ServeClient(*address) as client:
        return client.stats()["replication"]["applied_offset"]


def _view(address):
    """(elements, estimate) — comparable across nodes (seq is not)."""
    with ServeClient(*address) as client:
        result = client.estimate()
    return (result["elements"], result["estimate"])


class TestCatchUpAndLive:
    def test_follower_catches_up_from_disk(self, tmp_path, primary):
        """Elements ingested before the follower existed reach it."""
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(40))
        follower = follow_in_background(
            primary.server.replication_address, tmp_path / "f"
        )
        try:
            wait_until(lambda: _applied(follower.address) == 40)
            assert _view(follower.address) == _view(primary.address)
        finally:
            follower.stop()

    def test_live_batches_stream_as_they_happen(self, primary, follower):
        with ServeClient(*primary.address) as client:
            for start in range(0, 30, 10):
                client.ingest(unique_edges(10, start=start))
        wait_until(lambda: _applied(follower.address) == 30)
        assert _view(follower.address) == _view(primary.address)

    def test_follower_restart_resumes_at_its_own_offset(
        self, tmp_path, primary
    ):
        """A restarted follower renegotiates from its durable WAL."""
        replication = primary.server.replication_address
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(20))
        first = follow_in_background(replication, tmp_path / "f")
        wait_until(lambda: _applied(first.address) == 20)
        first.stop()
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(20, start=20))
        second = follow_in_background(replication, tmp_path / "f")
        try:
            wait_until(lambda: _applied(second.address) == 40)
            assert _view(second.address) == _view(primary.address)
        finally:
            second.stop()


class TestSnapshotBootstrap:
    def test_fresh_follower_after_prune_installs_snapshot(
        self, tmp_path, primary
    ):
        """A checkpoint prunes wal-0; a new follower needs the snapshot."""
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(30))
            assert client.checkpoint() == 30
            client.ingest(unique_edges(10, start=30))
        store = primary.server.session.store
        assert store.oldest_offset() == 30  # wal-0 is gone
        follower = follow_in_background(
            primary.server.replication_address, tmp_path / "f"
        )
        try:
            wait_until(lambda: _applied(follower.address) == 40)
            assert _view(follower.address) == _view(primary.address)
        finally:
            follower.stop()
        # The replica directory recovers on its own: snapshot + tail.
        session = open_session(durable_dir=tmp_path / "f")
        assert session.elements == 40
        session.close()

    def test_bootstrap_refuses_a_foreign_spec(self, tmp_path, primary):
        directory = tmp_path / "f"
        open_session("exact", durable_dir=directory).close()
        with pytest.raises(ClusterError, match="different estimator"):
            bootstrap_follower(
                primary.server.replication_address, directory
            )


class TestHandshakeRefusals:
    def _handshake(self, address, request):
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(encode_message(request))
            with sock.makefile("rb") as reader:
                return json.loads(reader.readline())

    def test_follower_ahead_of_primary_is_refused(self, primary):
        response = self._handshake(
            primary.server.replication_address,
            handshake_request("liar", 10_000),
        )
        assert not response["ok"]
        assert response["error"]["type"] == "ClusterError"
        assert "10000" in response["error"]["message"]

    def test_non_replicate_op_is_refused(self, primary):
        response = self._handshake(
            primary.server.replication_address,
            {"id": 1, "op": "estimate"},
        )
        assert not response["ok"]
        assert "handshake" in response["error"]["message"]

    def test_probe_answers_and_closes(self, primary):
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(5))
        address = primary.server.replication_address
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(encode_message(
                handshake_request("probe", 0, probe=True)
            ))
            with sock.makefile("rb") as reader:
                response = json.loads(reader.readline())
                assert response["ok"]
                assert response["result"]["mode"] == "stream"
                assert response["result"]["offset"] == 5
                assert reader.readline() == b""  # primary hung up


class TestDurabilityRequirements:
    def test_primary_requires_a_durable_session(self):
        with open_session("exact") as session:
            with pytest.raises(ClusterError, match="durable"):
                ReplicatingServer(session)

    def test_follower_requires_a_durable_session(self):
        with open_session("exact") as session:
            with pytest.raises(ClusterError, match="durable"):
                FollowerServer(session, primary=("127.0.0.1", 1))


class TestLagStats:
    def test_primary_reports_per_follower_lag(self, primary, follower):
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(25))
        wait_until(lambda: _applied(follower.address) == 25)
        follower_id = follower.server.follower_id

        def _acked():
            with ServeClient(*primary.address) as client:
                stats = client.stats()
            info = stats["replication"]["followers"][follower_id]
            return stats, info

        wait_until(lambda: _acked()[1]["acked_offset"] == 25)
        stats, info = _acked()
        assert stats["role"] == "primary"
        assert info == {
            "acked_offset": 25,
            "lag": 0,
            "connected": True,
        }
        assert stats["replication"]["max_lag"] == 0
        assert stats["replication"]["min_acked_offset"] == 25

    def test_disconnected_follower_stays_in_stats(
        self, tmp_path, primary
    ):
        follower = follow_in_background(
            primary.server.replication_address, tmp_path / "f"
        )
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(10))
        wait_until(lambda: _applied(follower.address) == 10)
        follower_id = follower.server.follower_id
        follower.stop()

        def _info():
            with ServeClient(*primary.address) as client:
                followers = client.stats()["replication"]["followers"]
            return followers.get(follower_id)

        wait_until(lambda: (_info() or {}).get("connected") is False)
        assert _info()["acked_offset"] == 10

    def test_follower_reports_its_replication_state(
        self, primary, follower
    ):
        with ServeClient(*primary.address) as client:
            client.ingest(unique_edges(15))
        wait_until(lambda: _applied(follower.address) == 15)
        with ServeClient(*follower.address) as client:
            stats = client.stats()
        assert stats["role"] == "follower"
        replication = stats["replication"]
        assert replication["applied_offset"] == 15
        assert replication["connected"] is True
        assert replication["primary"] == list(
            primary.server.replication_address
        )
        assert replication["lag"] == 0


class TestWriteRefusal:
    def test_follower_refuses_mutations_and_stays_alive(
        self, primary, follower
    ):
        from repro.errors import ServeError
        from repro.types import insertion

        with ServeClient(*follower.address) as client:
            for op in ("flush", "checkpoint"):
                with pytest.raises(ServeError) as excinfo:
                    client.call(op)
                assert excinfo.value.remote_type == "NotPrimaryError"
            with pytest.raises(ServeError) as excinfo:
                client.ingest(insertion("a", "b"))
            assert excinfo.value.remote_type == "NotPrimaryError"
            host, port = primary.server.replication_address
            assert f"{host}:{port}" in str(excinfo.value)
            assert client.ping()["pong"]  # the connection survived
