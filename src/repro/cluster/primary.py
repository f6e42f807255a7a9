"""The replication primary: ``ReplicatingServer``.

A primary is an ordinary :class:`~repro.serve.server.EstimatorServer`
over a **durable** session, plus a second listening port that speaks
the replication grammar of :mod:`repro.cluster.protocol`.  The WAL the
session already writes is the replication log — nothing is logged
twice:

* **Handshake on the writer thread.**  Registering a follower must not
  race ingest, so the start-offset negotiation runs as a job on the
  same single-thread executor that applies mutations: it syncs the
  WAL, reads the current element offset as the *cut*, and registers
  the follower's live queue — all while no ingest can run.  Catch-up
  then ships ``[start, cut)`` straight from the WAL segments on disk,
  and every batch ingested after the cut reaches the queue, so the two
  ranges meet exactly: no gap, no duplicate.
* **Snapshot bootstrap.**  When the follower's offset predates the
  oldest WAL segment (pruned at a checkpoint), the handshake answer
  carries the newest durable snapshot instead, and streaming starts at
  the snapshot offset.
* **Push + heartbeat.**  After catch-up the connection turns into a
  push stream: ingested batches are fanned out as they happen, and an
  idle connection gets a heartbeat carrying the primary's offset so
  followers can measure lag while the stream is quiet.
* **Acked offsets.**  The follower reports each applied offset back up
  the same connection; ``stats`` folds them into the
  :func:`~repro.metrics.replication.lag_summary` that the replicated
  cluster's observability (and its benchmark gate) is built on.

Start one with :func:`replicate_in_background`, or ``repro serve
--replicate-to PORT`` on the CLI (``docs/replication.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.api.session import Session
from repro.cluster.protocol import (
    CATCHUP_BATCH,
    DEFAULT_HEARTBEAT_S,
    REPLICATION_MAX_LINE,
    REPLICATION_PROTOCOL_VERSION,
    batch_message,
    decode_ack,
    heartbeat_message,
)
from repro.errors import ClusterError, ReproError
from repro.metrics.replication import lag_summary
from repro.serve.protocol import (
    decode_message,
    encode_message,
    error_response,
    result_response,
)
from repro.serve.server import (
    SERVER_LANE,
    BackgroundServer,
    EstimatorServer,
    _read_line,
    serve_in_background,
)
from repro.types import StreamElement

__all__ = ["ReplicatingServer", "replicate_in_background"]


class _FollowerHandle:
    """One registered follower: its live queue and acked offset."""

    __slots__ = (
        "follower_id",
        "queue",
        "acked_offset",
        "connected",
        "codec",
    )

    def __init__(
        self, follower_id: str, codec: Optional[int] = None
    ) -> None:
        self.follower_id = follower_id
        self.queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.acked_offset = 0
        self.connected = True
        #: negotiated batch codec (2 = packed payload, None = records).
        self.codec = codec


class ReplicatingServer(EstimatorServer):
    """An :class:`EstimatorServer` that ships its WAL to followers.

    Args:
        session: the session to serve.  Must be durable — the WAL is
            the replication log, so a primary without one has nothing
            to ship.
        host: interface to bind (both ports).
        port: serving port (0 picks a free one).
        replication_port: the port followers connect to (0 picks a
            free one; see :attr:`replication_address`).
        heartbeat_s: idle interval before a keepalive heartbeat.
    """

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replication_port: int = 0,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        if not session.durable:
            raise ClusterError(
                "a replication primary needs a durable session "
                "(open_session(..., durable_dir=...)): its WAL is "
                "the replication log"
            )
        super().__init__(session, host, port)
        self._replication_port = replication_port
        self._repl_server: Optional[asyncio.Server] = None
        self._heartbeat_s = heartbeat_s
        #: live followers by id; reads happen on the loop, registration
        #: on the writer thread (see _negotiate).
        self._followers: Dict[str, _FollowerHandle] = {}
        #: last acked offset of followers that have disconnected, so
        #: stats keep telling the whole story.
        self._gone_acked: Dict[str, int] = {}
        self._repl_tasks: Set["asyncio.Task[Any]"] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        self._repl_server = await asyncio.start_server(
            self._handle_replication_connection,
            self._host,
            self._replication_port,
            limit=REPLICATION_MAX_LINE,
        )
        self._replication_port = (
            self._repl_server.sockets[0].getsockname()[1]
        )

    @property
    def replication_address(self) -> Tuple[str, int]:
        """``(host, port)`` followers connect to, once started."""
        return (self._host, self._replication_port)

    async def aclose(self) -> None:
        if self._repl_server is not None:
            self._repl_server.close()
            await self._repl_server.wait_closed()
            self._repl_server = None
        for task in list(self._repl_tasks):
            task.cancel()
        for task in list(self._repl_tasks):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._repl_tasks.clear()
        await super().aclose()

    # ------------------------------------------------------------------
    # Fan-out (writer thread -> loop)
    # ------------------------------------------------------------------
    def _apply_ingest(
        self, target: Tuple[str, str], session: Session, elements: list
    ) -> Dict[str, Any]:
        base = session.elements
        result = super()._apply_ingest(target, session, elements)
        if target == SERVER_LANE and elements and self._followers:
            self._loop.call_soon_threadsafe(
                self._fanout, base, list(elements)
            )
        return result

    def _fanout(self, base: int, elements: List[StreamElement]) -> None:
        # Encode once per negotiated codec — every follower that
        # speaks the same codec shares the identical message object,
        # so a mixed fleet costs one JSON and one packed encoding,
        # never one per follower.
        messages: Dict[Optional[int], Dict[str, Any]] = {}
        for handle in list(self._followers.values()):
            message = messages.get(handle.codec)
            if message is None:
                message = messages[handle.codec] = batch_message(
                    base, elements, codec=handle.codec
                )
            handle.queue.put_nowait(message)

    # ------------------------------------------------------------------
    # Handshake (runs on the writer thread)
    # ------------------------------------------------------------------
    def _negotiate(
        self,
        follower_id: str,
        have_offset: int,
        handle: Optional[_FollowerHandle],
    ) -> Tuple[int, Dict[str, Any]]:
        """Negotiate a start offset and register the follower.

        Runs on the single writer thread, so the cut it takes — sync
        the WAL, read the offset, register the live queue — is atomic
        with respect to ingest: every element below the cut is durable
        on disk for catch-up, every element at or past it will be
        fanned out to the queue.
        """
        session = self._session
        store = session.store
        assert store is not None  # guaranteed by __init__
        store.sync()
        cut = session.elements
        if have_offset > cut:
            raise ClusterError(
                f"follower {follower_id!r} claims offset {have_offset} "
                f"but this primary has only logged {cut} elements; "
                "it is following the wrong primary or a diverged log"
            )
        spec = session.spec
        info: Dict[str, Any] = {
            "version": REPLICATION_PROTOCOL_VERSION,
            "offset": cut,
            "spec": spec.to_string() if spec else None,
        }
        if handle is not None and handle.codec is not None:
            # Echo the accepted batch codec so the follower knows the
            # opt-in took (docs/replication.md).
            info["codec"] = handle.codec
        if have_offset >= store.oldest_offset():
            info["mode"] = "stream"
            info["start"] = have_offset
        else:
            latest = store.snapshots.latest()
            if latest is None:  # pragma: no cover - pruning implies one
                raise ClusterError(
                    "primary WAL no longer covers offset "
                    f"{have_offset} and no snapshot exists"
                )
            snapshot_offset, payload = latest
            info["mode"] = "snapshot"
            info["start"] = snapshot_offset
            info["snapshot"] = payload
            info["snapshot_offset"] = snapshot_offset
        if handle is not None:
            self._followers[follower_id] = handle
            self._gone_acked.pop(follower_id, None)
        return cut, info

    def _read_catchup_chunk(
        self, start: int, end: int
    ) -> List[StreamElement]:
        store = self._session.store
        assert store is not None
        return list(store.read_records(start, end))

    # ------------------------------------------------------------------
    # Replication connections
    # ------------------------------------------------------------------
    async def _handle_replication_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._repl_tasks.add(task)
        handle: Optional[_FollowerHandle] = None
        try:
            handle = await self._replicate(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancels replication tasks; ending the
            # task normally keeps asyncio's stream teardown quiet.
            pass
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            if (
                handle is not None
                and self._followers.get(handle.follower_id) is handle
            ):
                handle.connected = False
                del self._followers[handle.follower_id]
                self._gone_acked[handle.follower_id] = handle.acked_offset
            if task is not None:
                self._repl_tasks.discard(task)
            writer.close()
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError
            ):
                await writer.wait_closed()

    async def _replicate(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Optional[_FollowerHandle]:
        """Serve one replication connection; returns its handle."""
        line = await _read_line(reader)
        if not line or line.strip() == b"":
            return None
        request_id: Optional[Any] = None
        loop = asyncio.get_running_loop()
        try:
            request = decode_message(line)
            request_id = request.get("id")
            if request.get("op") != "replicate":
                raise ClusterError(
                    "the replication port only accepts the "
                    "'replicate' handshake; queries go to the "
                    "serving port"
                )
            follower_id = str(request.get("follower") or "") or None
            if follower_id is None:
                raise ClusterError(
                    "replication handshake needs a 'follower' id"
                )
            have_offset = request.get("have_offset")
            if not isinstance(have_offset, int) or have_offset < 0:
                raise ClusterError(
                    "replication handshake needs a non-negative "
                    f"integer 'have_offset', got {have_offset!r}"
                )
            probe = bool(request.get("probe"))
            # Batch-codec opt-in: only the packed format is accepted;
            # any other value falls back to JSON records, so a newer
            # follower degrades gracefully against this primary.
            codec = request.get("codec")
            codec = 2 if codec == 2 else None
            handle = (
                None if probe else _FollowerHandle(follower_id, codec)
            )
            cut, info = await loop.run_in_executor(
                self._writer_pool,
                self._negotiate,
                follower_id,
                have_offset,
                handle,
            )
        except ReproError as exc:
            writer.write(encode_message(error_response(
                request_id, type(exc).__name__, str(exc)
            )))
            await writer.drain()
            return None
        writer.write(encode_message(result_response(request_id, info)))
        await writer.drain()
        if handle is None:  # probe: answer and close
            return None
        # Catch-up: ship [start, cut) straight from the WAL segments.
        # Reads run on the default executor so ingest stays live; a
        # checkpoint pruning a segment mid-read surfaces as a
        # StoreError that drops the connection — the follower simply
        # reconnects and renegotiates (then from the snapshot).
        start = int(info["start"])
        for chunk_start in range(start, cut, CATCHUP_BATCH):
            chunk_end = min(chunk_start + CATCHUP_BATCH, cut)
            elements = await loop.run_in_executor(
                None, self._read_catchup_chunk, chunk_start, chunk_end
            )
            writer.write(encode_message(
                batch_message(chunk_start, elements, codec=handle.codec)
            ))
            await writer.drain()
        await self._stream_live(handle, reader, writer)
        return handle

    async def _stream_live(
        self,
        handle: _FollowerHandle,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Drain the follower's queue; heartbeat when idle."""
        ack_task = asyncio.ensure_future(
            self._consume_acks(handle, reader)
        )
        try:
            while True:
                if self._followers.get(handle.follower_id) is not handle:
                    return  # superseded by a reconnect
                if ack_task.done():
                    return  # follower hung up (or sent garbage)
                try:
                    message = await asyncio.wait_for(
                        handle.queue.get(), timeout=self._heartbeat_s
                    )
                except asyncio.TimeoutError:
                    message = heartbeat_message(self.view.elements)
                writer.write(encode_message(message))
                await writer.drain()
        finally:
            ack_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await ack_task

    async def _consume_acks(
        self, handle: _FollowerHandle, reader: asyncio.StreamReader
    ) -> None:
        while True:
            line = await _read_line(reader)
            if not line:
                return
            if line.strip() == b"":
                continue
            try:
                offset = decode_ack(decode_message(line))
            except ReproError:
                return  # malformed chatter: drop the connection
            if offset is not None:
                handle.acked_offset = offset

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _read(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        result = super()._read(op, request)
        if op == "stats":
            result["role"] = "primary"
            result["replication"] = self.replication_summary()
        return result

    def replication_summary(self) -> Dict[str, Any]:
        """Per-follower lag against the published offset.

        Disconnected followers stay listed (``connected: false``) at
        their last acked offset — a follower that silently vanished is
        an operational fact, not something stats should forget.
        """
        live = {
            handle.follower_id: handle.acked_offset
            for handle in self._followers.values()
        }
        summary = lag_summary(
            self.view.elements, {**self._gone_acked, **live}
        )
        for name, info in summary["followers"].items():
            info["connected"] = name in live
        summary["port"] = self._replication_port
        return summary


def replicate_in_background(
    session: Session,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    replication_port: int = 0,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> BackgroundServer:
    """Start a :class:`ReplicatingServer` on a daemon loop thread.

    The returned handle's ``server`` is the
    :class:`ReplicatingServer`; read ``server.replication_address``
    for the port followers should connect to.
    """
    return serve_in_background(
        session,
        host,
        port,
        server_factory=lambda session, host, port: ReplicatingServer(
            session,
            host,
            port,
            replication_port=replication_port,
            heartbeat_s=heartbeat_s,
        ),
    )
