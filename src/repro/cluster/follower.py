"""The replication follower: bootstrap + ``FollowerServer``.

A follower is a read-only :class:`~repro.serve.server.EstimatorServer`
over its **own** durable session.  Replicated batches are applied
through the ordinary ``session.ingest`` path, which WAL-appends them
locally before processing — so the follower re-earns the primary's
durability on its own disk, element by element.  That is the entire
failover story: promoting a follower is nothing more than what
``open_session(durable_dir=...)`` already does on any durable
directory, torn-tail truncation included
(``tests/cluster/test_failover.py`` proves the result bit-identical
to an uninterrupted single node).

The pieces:

* :func:`bootstrap_follower` — open (or recover) the local durable
  directory, probe the primary with the held offset, install the
  primary's snapshot when the needed WAL records were pruned, and
  return a session ready to follow.
* :class:`FollowerServer` — serves reads while a background task
  replays the primary's stream: connect, handshake, apply batches on
  the writer thread, publish views, ack applied offsets, reconnect
  with backoff when the primary drops.  Mutating operations are
  refused with :class:`~repro.errors.NotPrimaryError` naming the
  primary.  ``read_your_writes`` reads *wait* (bounded) for
  replication to catch up to the client's watermark instead of
  refusing.
* ``promote`` — the wire operation that flips a follower into a
  primary-shaped server: stop following, allow writes, keep serving.

Start one with :func:`follow_in_background`, or ``repro follow`` on
the CLI (``docs/replication.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pathlib
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api import open_session
from repro.api.session import Session
from repro.cluster.protocol import (
    REPLICATION_MAX_LINE,
    ack_message,
    decode_stream_message,
    handshake_request,
)
from repro.errors import (
    ClusterError,
    NotPrimaryError,
    ReproError,
    StaleReadError,
)
from repro.serve.client import connect_with_backoff
from repro.serve.protocol import decode_message, encode_message
from repro.serve.server import (
    BackgroundServer,
    EstimatorServer,
    _read_line,
    serve_in_background,
)
from repro.store.durable import DurableStore
from repro.types import StreamElement

__all__ = [
    "FollowerServer",
    "bootstrap_follower",
    "follow_in_background",
    "install_snapshot",
]


def _check_spec(
    local_spec: Optional[str], primary_spec: Optional[str]
) -> None:
    if (
        local_spec is not None
        and primary_spec is not None
        and local_spec != primary_spec
    ):
        raise ClusterError(
            f"this directory holds spec {local_spec!r} but the "
            f"primary serves {primary_spec!r}; a follower cannot "
            "replay a different estimator's log"
        )


def install_snapshot(
    durable_dir: Union[str, os.PathLike],
    spec: Optional[str],
    payload: Dict[str, Any],
    offset: int,
) -> None:
    """Install a primary's snapshot envelope into a durable directory.

    Initializes the directory under ``spec`` when it is fresh, then
    writes the snapshot at ``offset``.  The next
    ``open_session(durable_dir=...)`` recovers from it — the existing
    recovery path already handles a snapshot ahead of the local WAL by
    discarding the stale segments.
    """
    store = DurableStore(durable_dir)
    try:
        if not store.has_state:
            if spec is None:
                raise ClusterError(
                    "cannot initialize a fresh follower directory: "
                    "the primary did not advertise its spec"
                )
            store.initialize(spec)
        else:
            _check_spec(store.spec, spec)
        store.snapshots.save(payload, offset)
    finally:
        store.close()


def _probe_primary(
    primary: Tuple[str, int],
    follower_id: str,
    have_offset: int,
    *,
    connect_timeout: float = 10.0,
    timeout: float = 60.0,
) -> Dict[str, Any]:
    """One blocking probe handshake; returns the negotiation result."""
    sock = connect_with_backoff(
        tuple(primary), connect_timeout=connect_timeout
    )
    try:
        sock.settimeout(timeout)
        sock.sendall(encode_message(
            handshake_request(follower_id, have_offset, probe=True)
        ))
        with sock.makefile("rb") as stream:
            line = stream.readline()
    finally:
        sock.close()
    if not line:
        raise ClusterError(
            f"primary {primary[0]}:{primary[1]} closed the "
            "connection during the replication handshake"
        )
    response = decode_message(line)
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ClusterError(
            "primary refused replication: "
            f"{error.get('type', 'Error')}: {error.get('message', '')}"
        )
    result = response.get("result")
    if not isinstance(result, dict) or "start" not in result:
        raise ClusterError(
            f"malformed replication handshake result: {result!r}"
        )
    return result


def bootstrap_follower(
    primary: Tuple[str, int],
    durable_dir: Union[str, os.PathLike],
    *,
    follower_id: Optional[str] = None,
    connect_timeout: float = 10.0,
) -> Session:
    """Open a local durable session ready to follow ``primary``.

    Recovers whatever the directory already holds (so a restarted
    follower resumes at its durable offset), probes the primary with
    that offset, and — when the primary's WAL no longer covers it —
    installs the primary's snapshot and re-opens from there.  A fresh
    directory is initialized under the primary's advertised spec.
    """
    follower_id = follower_id or _default_follower_id(durable_dir)
    probe_store = DurableStore(durable_dir)
    has_state = probe_store.has_state
    probe_store.close()
    session: Optional[Session] = None
    have_offset = 0
    if has_state:
        session = open_session(durable_dir=durable_dir)
        have_offset = session.elements
    try:
        info = _probe_primary(
            tuple(primary),
            follower_id,
            have_offset,
            connect_timeout=connect_timeout,
        )
    except Exception:
        if session is not None:
            session.close()
        raise
    spec = info.get("spec")
    if session is not None:
        local = session.spec
        _check_spec(local.to_string() if local else None, spec)
    if info.get("mode") == "snapshot":
        if session is not None:
            session.close()
            session = None
        install_snapshot(
            durable_dir,
            spec,
            info["snapshot"],
            int(info["snapshot_offset"]),
        )
        session = open_session(durable_dir=durable_dir)
    elif session is None:
        if spec is None:
            raise ClusterError(
                "cannot initialize a fresh follower directory: "
                "the primary did not advertise its spec"
            )
        session = open_session(spec, durable_dir=durable_dir)
    return session


def _default_follower_id(durable_dir: Union[str, os.PathLike]) -> str:
    return f"follower-{pathlib.Path(durable_dir).name}-{os.getpid()}"


class FollowerServer(EstimatorServer):
    """Serve reads from a replica that follows a primary's WAL.

    Args:
        session: the follower's own durable session (from
            :func:`bootstrap_follower`).
        primary: the primary's **replication** address.
        host: serving interface.
        port: serving port (0 picks a free one).
        follower_id: stable id reported to the primary (defaults to
            one derived from the durable directory).
        stale_timeout: how long a ``read_your_writes`` read waits for
            replication to reach its watermark before failing with
            :class:`~repro.errors.StaleReadError`.
        reconnect_backoff: pause between reconnect attempts after the
            primary drops.
        binary: opt in to the packed binary batch payload
            (``docs/replication.md``).  The handshake advertises
            codec 2; a primary that supports it ships packed batches,
            one that does not simply keeps sending JSON records —
            the stream decode accepts either shape regardless.
    """

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        primary: Tuple[str, int],
        follower_id: Optional[str] = None,
        stale_timeout: float = 5.0,
        reconnect_backoff: float = 0.2,
        binary: bool = False,
    ) -> None:
        if not session.durable:
            raise ClusterError(
                "a follower needs a durable session: its own WAL is "
                "what promotion recovers from"
            )
        super().__init__(session, host, port)
        self._primary = (str(primary[0]), int(primary[1]))
        store = session.store
        assert store is not None
        self._follower_id = follower_id or _default_follower_id(
            store.directory
        )
        self._stale_timeout = stale_timeout
        self._reconnect_backoff = reconnect_backoff
        self._codec = 2 if binary else None
        self._role = "follower"
        self._connected = False
        self._last_error: Optional[str] = None
        self._primary_offset = session.elements
        self._acked_offset = session.elements
        self._repl_task: Optional["asyncio.Task[None]"] = None
        #: pending read-your-writes waits: (min_offset, future).
        self._waiters: List[Tuple[int, "asyncio.Future[None]"]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def role(self) -> str:
        """``"follower"``, or ``"primary"`` after promotion."""
        return self._role

    @property
    def follower_id(self) -> str:
        return self._follower_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        self._repl_task = asyncio.ensure_future(
            self._replication_loop()
        )

    async def aclose(self) -> None:
        await self._stop_following()
        for _offset, future in self._waiters:
            if not future.done():
                future.set_exception(StaleReadError(
                    "follower is shutting down"
                ))
        self._waiters.clear()
        await super().aclose()

    async def _stop_following(self) -> None:
        task, self._repl_task = self._repl_task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._connected = False

    # ------------------------------------------------------------------
    # The replication loop
    # ------------------------------------------------------------------
    async def _replication_loop(self) -> None:
        while not self._closed and self._role == "follower":
            try:
                await self._follow_once()
            except asyncio.CancelledError:
                raise
            except (OSError, ReproError, asyncio.IncompleteReadError,
                    ValueError) as exc:
                self._connected = False
                self._last_error = f"{type(exc).__name__}: {exc}"
            if self._closed or self._role != "follower":
                return
            await asyncio.sleep(self._reconnect_backoff)

    async def _follow_once(self) -> None:
        """One replication connection: handshake, then apply forever."""
        reader, writer = await asyncio.open_connection(
            *self._primary, limit=REPLICATION_MAX_LINE
        )
        try:
            writer.write(encode_message(handshake_request(
                self._follower_id,
                self._session.elements,
                codec=self._codec,
            )))
            await writer.drain()
            line = await _read_line(reader)
            if not line:
                raise ClusterError(
                    "primary closed the connection during the "
                    "replication handshake"
                )
            response = decode_message(line)
            if not response.get("ok"):
                error = response.get("error") or {}
                raise ClusterError(
                    "primary refused replication: "
                    f"{error.get('type', 'Error')}: "
                    f"{error.get('message', '')}"
                )
            info = response.get("result") or {}
            loop = asyncio.get_running_loop()
            if info.get("mode") == "snapshot":
                # Our WAL position was pruned on the primary (e.g. it
                # checkpointed while we were down): resync through the
                # shipped snapshot, swapping the session on the writer
                # thread so reads never observe the swap half-done.
                await loop.run_in_executor(
                    self._writer_pool, self._resync, info
                )
                self._wake_waiters(self.view.elements)
            start = info.get("start")
            if start != self._session.elements:
                raise ClusterError(
                    f"primary negotiated start offset {start!r} but "
                    f"this follower holds {self._session.elements}"
                )
            self._primary_offset = max(
                self._primary_offset, int(info.get("offset", 0))
            )
            self._connected = True
            self._last_error = None
            while True:
                line = await _read_line(reader)
                if not line:
                    raise ClusterError("replication stream ended")
                if line.strip() == b"":
                    continue
                kind, offset, elements = decode_stream_message(
                    decode_message(line)
                )
                if kind == "heartbeat":
                    self._primary_offset = max(
                        self._primary_offset, offset
                    )
                else:
                    applied = await loop.run_in_executor(
                        self._writer_pool,
                        self._apply_replicated,
                        offset,
                        elements,
                    )
                    self._primary_offset = max(
                        self._primary_offset, applied
                    )
                    self._wake_waiters(applied)
                self._acked_offset = self.view.elements
                writer.write(encode_message(
                    ack_message(self._acked_offset)
                ))
                await writer.drain()
        finally:
            self._connected = False
            writer.close()
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError
            ):
                await writer.wait_closed()

    def _apply_replicated(
        self, base: int, elements: List[StreamElement]
    ) -> int:
        """Apply one replicated batch (writer thread); returns offset.

        The batch goes through ``session.ingest``, which appends to
        the follower's own WAL before processing — replication **is**
        WAL shipping, re-logged locally so promotion recovers it.
        Overlap with what we already hold (a catch-up race after
        reconnect) is trimmed; a gap is a protocol violation.
        """
        session = self._session
        have = session.elements
        if base > have:
            raise ClusterError(
                f"replication gap: batch starts at offset {base} but "
                f"this follower holds {have}"
            )
        fresh = elements[have - base:]
        if fresh:
            session.ingest(fresh)
            self._publish()
        return session.elements

    def _resync(self, info: Dict[str, Any]) -> None:
        """Reinstall from a shipped snapshot (writer thread)."""
        spec = info.get("spec")
        local = self._session.spec
        _check_spec(local.to_string() if local else None, spec)
        store = self._session.store
        assert store is not None
        directory = store.directory
        self._session.close()
        install_snapshot(
            directory,
            spec,
            info["snapshot"],
            int(info["snapshot_offset"]),
        )
        self._session = open_session(durable_dir=directory)
        self._publish()

    # ------------------------------------------------------------------
    # Read-your-writes waits
    # ------------------------------------------------------------------
    def _wake_waiters(self, applied: int) -> None:
        for min_offset, future in self._waiters:
            if applied >= min_offset and not future.done():
                future.set_result(None)
        self._waiters = [
            (offset, future)
            for offset, future in self._waiters
            if not future.done()
        ]

    async def _check_freshness(
        self, request: Dict[str, Any], elements: int, what: str = "view"
    ) -> None:
        if self._role != "follower":
            return await super()._check_freshness(request, elements, what)
        min_offset = self._min_offset(request)
        if min_offset is None or elements >= min_offset:
            return
        # No await since the check, so the next replicated batch's
        # _wake_waiters is guaranteed to see this registration.
        future = asyncio.get_running_loop().create_future()
        self._waiters.append((min_offset, future))
        try:
            await asyncio.wait_for(future, self._stale_timeout)
        except asyncio.TimeoutError:
            self._waiters = [
                (offset, pending)
                for offset, pending in self._waiters
                if pending is not future
            ]
            raise StaleReadError(
                f"follower applied {self.view.elements} elements "
                f"but the read requires offset {min_offset} "
                f"(waited {self._stale_timeout}s; replication is "
                f"{'connected' if self._connected else 'down'})"
            ) from None

    # ------------------------------------------------------------------
    # Dispatch: writes are refused, promote flips the role
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if request.get("op") == "promote":
            self._counters["promote"] = self._counters.get("promote", 0) + 1
            return await self._promote()
        return await super()._dispatch(request)

    def _admit(self, op: str, target: Tuple[str, str]) -> None:
        # Every write, catalog-admin op and tenant- or stream-scoped
        # read passes here.  All are primary-only: a follower
        # replicates one session's WAL, not a catalog.
        if self._role == "follower":
            host, port = self._primary
            raise NotPrimaryError(
                f"this node is a read-only follower (replicating "
                f"from {host}:{port}); send {op!r} to the primary"
            )
        super()._admit(op, target)

    async def _promote(self) -> Dict[str, Any]:
        """Stop following and start accepting writes.

        Everything the follower has durably applied is exactly what
        it serves after promotion — its own WAL and snapshots recover
        it, the same way a restarted single node recovers
        (``docs/replication.md`` §failover).
        """
        already = self._role == "primary"
        self._role = "primary"
        await self._stop_following()
        view = self.view
        return {
            "promoted": not already,
            "role": self._role,
            "elements": view.elements,
            "estimate": view.estimate,
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _read(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        result = super()._read(op, request)
        if op == "stats":
            applied = self.view.elements
            result["role"] = self._role
            result["replication"] = {
                "primary": list(self._primary),
                "follower_id": self._follower_id,
                "connected": self._connected,
                "primary_offset": self._primary_offset,
                "applied_offset": applied,
                "acked_offset": self._acked_offset,
                "lag": max(0, self._primary_offset - applied),
                "last_error": self._last_error,
            }
        return result


def follow_in_background(
    primary: Tuple[str, int],
    durable_dir: Union[str, os.PathLike],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    follower_id: Optional[str] = None,
    stale_timeout: float = 5.0,
    reconnect_backoff: float = 0.2,
    connect_timeout: float = 10.0,
    binary: bool = False,
) -> BackgroundServer:
    """Bootstrap from ``primary`` and serve reads on a daemon thread.

    Blocking bootstrap first (probe + optional snapshot install), then
    a :class:`FollowerServer` on the shared background-loop machinery.
    The returned handle's ``server`` is the follower.
    """
    session = bootstrap_follower(
        tuple(primary),
        durable_dir,
        follower_id=follower_id,
        connect_timeout=connect_timeout,
    )
    try:
        return serve_in_background(
            session,
            host,
            port,
            server_factory=lambda session, host, port: FollowerServer(
                session,
                host,
                port,
                primary=tuple(primary),
                follower_id=follower_id,
                stale_timeout=stale_timeout,
                reconnect_backoff=reconnect_backoff,
                binary=binary,
            ),
        )
    except Exception:
        session.close()
        raise
