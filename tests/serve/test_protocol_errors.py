"""Server error paths keep the connection usable.

``tests/serve/test_server.py`` proves each malformed request gets a
structured error; this file proves the *aftermath*: the same
connection (and the server) keeps serving well-formed requests after
an oversized line, invalid JSON, or an unknown op.  The oversized case
is the interesting one — the server must drain the rest of the
offending line to get back on a message boundary without dropping
pipelined requests already buffered behind it.
"""

import json
import socket

import pytest

from repro.api import open_session
from repro.errors import ServeError
from repro.serve import ServeClient, serve_in_background
from repro.serve.protocol import MAX_LINE


@pytest.fixture
def server():
    with serve_in_background(open_session("exact")) as background:
        yield background


def _raw_connection(address):
    sock = socket.create_connection(address, timeout=10.0)
    return sock, sock.makefile("rb")


def _oversized_request():
    """A syntactically fine request whose line busts the cap."""
    padding = "x" * (MAX_LINE + 1024)
    return (
        json.dumps({"id": 1, "op": "ping", "pad": padding}).encode()
        + b"\n"
    )


class TestOversizedLineRecovery:
    def test_connection_survives_an_oversized_line(self, server):
        sock, reader = _raw_connection(server.address)
        try:
            sock.sendall(_oversized_request())
            error = json.loads(reader.readline())
            assert error["ok"] is False
            assert "exceeds" in error["error"]["message"]
            # The same connection serves the next request.
            sock.sendall(b'{"id": 2, "op": "ping"}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is True
            assert response["result"]["pong"] is True
        finally:
            sock.close()

    def test_pipelined_request_behind_the_oversized_line_survives(
        self, server
    ):
        """Draining the bad line must not eat the buffered next one."""
        sock, reader = _raw_connection(server.address)
        try:
            sock.sendall(
                _oversized_request() + b'{"id": 2, "op": "ping"}\n'
            )
            error = json.loads(reader.readline())
            assert error["ok"] is False
            response = json.loads(reader.readline())
            assert response["ok"] is True
            assert response["id"] == 2
        finally:
            sock.close()

    def test_oversized_line_without_newline_ends_the_connection(
        self, server
    ):
        """EOF inside the oversized line: error out, then hang up —
        there is no message boundary left to recover to."""
        sock, reader = _raw_connection(server.address)
        try:
            sock.sendall(b"x" * (MAX_LINE + 1024))  # never terminated
            sock.shutdown(socket.SHUT_WR)
            error = json.loads(reader.readline())
            assert error["ok"] is False
            assert reader.readline() == b""  # server closed
        finally:
            sock.close()

    def test_server_stays_healthy_for_other_clients(self, server):
        sock, reader = _raw_connection(server.address)
        try:
            sock.sendall(_oversized_request())
            reader.readline()
        finally:
            sock.close()
        with ServeClient(*server.address) as client:
            assert client.ping()["pong"]


class TestMalformedRequestRecovery:
    @pytest.mark.parametrize(
        "bad_line",
        [
            b"{not json}\n",
            b'{"id": 1, "op": "transmogrify"}\n',
            b'{"id": 1}\n',
            b'["not", "an", "object"]\n',
        ],
        ids=["invalid-json", "unknown-op", "missing-op", "non-object"],
    )
    def test_connection_keeps_serving_after_the_error(
        self, server, bad_line
    ):
        sock, reader = _raw_connection(server.address)
        try:
            sock.sendall(bad_line)
            error = json.loads(reader.readline())
            assert error["ok"] is False
            assert error["error"]["type"]
            sock.sendall(b'{"id": 7, "op": "ping"}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is True
            assert response["id"] == 7
        finally:
            sock.close()

    def test_interleaved_errors_do_not_corrupt_state(self, server):
        """Good ingests around bad requests land exactly once."""
        from repro.types import insertion

        with ServeClient(*server.address) as client:
            client.ingest([insertion("a", "b")])
        sock, reader = _raw_connection(server.address)
        try:
            sock.sendall(b"{broken\n")
            reader.readline()
        finally:
            sock.close()
        with ServeClient(*server.address) as client:
            client.ingest([insertion("c", "d")])
            assert client.stats()["elements"] == 2

    def test_unknown_ops_are_not_counted(self, server):
        """Garbage op names must not grow the ``operations`` counter:
        each distinct string would otherwise add a permanent key."""
        with ServeClient(*server.address) as client:
            client.ping()
            for index in range(5):
                with pytest.raises(ServeError, match="unknown operation"):
                    client.call(f"garbage-{index}")
            operations = client.stats()["operations"]
            assert not any(op.startswith("garbage") for op in operations)
            assert operations["ping"] == 1
            # The connection still serves after the refusals.
            assert client.ping()["pong"] is True
            assert client.stats()["operations"]["ping"] == 2
