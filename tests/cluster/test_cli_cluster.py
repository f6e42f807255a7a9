"""``repro serve --replicate-to`` / ``repro follow`` end to end.

The CLI entry points block until shutdown, so each runs on its own
thread with pre-picked ports; the wire ``shutdown`` op winds them
down.  Option validation (the error paths) runs in-process.
"""

import socket
import threading

import pytest
from cluster_utils import unique_edges
from suite_utils import wait_until

from repro.cli import _parse_address, build_parser, run_follow, run_serve
from repro.errors import ClusterError
from repro.serve import ServeClient

SPEC = "abacus:budget=32,seed=3"


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start(target, *args, **kwargs):
    thread = threading.Thread(
        target=target, args=args, kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


def _shutdown(port, thread):
    try:
        with ServeClient("127.0.0.1", port, timeout=5.0) as client:
            client.shutdown()
    except Exception:
        pass
    thread.join(timeout=10)


class TestValidation:
    def test_replicate_to_requires_durable_dir(self):
        with pytest.raises(ClusterError, match="durable-dir"):
            run_serve(SPEC, "127.0.0.1", 0, replicate_to=0)

    def test_follow_requires_primary(self, tmp_path):
        with pytest.raises(ClusterError, match="--primary"):
            run_follow(None, "127.0.0.1", 0, str(tmp_path))

    def test_follow_requires_durable_dir(self):
        with pytest.raises(ClusterError, match="durable-dir"):
            run_follow("127.0.0.1:1", "127.0.0.1", 0, None)

    @pytest.mark.parametrize("bad", ["nope", "host:", ":123", "a:b"])
    def test_malformed_primary_address(self, bad):
        with pytest.raises(ClusterError, match="HOST:PORT"):
            _parse_address(bad)

    def test_parser_knows_the_cluster_options(self):
        args = build_parser().parse_args(
            ["serve", "--replicate-to", "0", "--durable-dir", "d"]
        )
        assert args.replicate_to == 0
        args = build_parser().parse_args(
            ["follow", "--primary", "h:1", "--durable-dir", "d"]
        )
        assert args.experiment == "follow"
        assert args.primary == "h:1"


def test_serve_and_follow_end_to_end(tmp_path, capsys):
    """A CLI primary replicates to a CLI follower over real sockets."""
    serve_port = _free_port()
    replication_port = _free_port()
    follow_port = _free_port()
    primary_thread = _start(
        run_serve,
        SPEC,
        "127.0.0.1",
        serve_port,
        durable_dir=str(tmp_path / "primary"),
        replicate_to=replication_port,
    )
    follower_thread = None
    try:
        with ServeClient("127.0.0.1", serve_port) as client:
            client.ingest(unique_edges(20))
        follower_thread = _start(
            run_follow,
            f"127.0.0.1:{replication_port}",
            "127.0.0.1",
            follow_port,
            str(tmp_path / "follower"),
        )

        def _caught_up():
            try:
                with ServeClient(
                    "127.0.0.1", follow_port, connect_retries=0
                ) as client:
                    return client.estimate(
                        read_mode="read_your_writes", min_offset=20
                    )["elements"] == 20
            except Exception:
                return False

        wait_until(_caught_up, timeout=15.0)
        with ServeClient("127.0.0.1", follow_port) as client:
            stats = client.stats()
        assert stats["role"] == "follower"
        assert stats["replication"]["applied_offset"] == 20
    finally:
        if follower_thread is not None:
            _shutdown(follow_port, follower_thread)
        _shutdown(serve_port, primary_thread)
    output = capsys.readouterr().out
    assert f"[replicating on :{replication_port}]" in output
    assert f"following 127.0.0.1:{replication_port}" in output
