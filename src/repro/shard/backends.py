"""Executor backends that run the estimator shards.

A backend owns ``K`` independent shard estimators and executes batches
against them.  The engine guarantees each shard always receives its
elements in stream order; backends guarantee each shard's work runs in
exactly one place, so all three produce **bit-identical** per-shard
results for a fixed seed and partition map:

* :class:`SerialBackend` — plain in-process loop (zero overhead, the
  reference semantics).
* :class:`ThreadBackend` — one thread-pool task per shard batch.
  Python's GIL means little wall-clock gain for the pure-Python
  counting kernels, but shard work overlaps any NumPy/IO release
  points and the backend doubles as the concurrency-correctness
  reference for the process backend.
* :class:`ProcessBackend` — one persistent worker process per shard,
  fed over pipes.  Workers build their estimator from the spec (or
  restore it from a ``state_to_dict`` payload) and hold it for the
  backend's lifetime; state leaves a worker only through the same
  snapshot protocol (:meth:`ShardBackend.states`), which is how
  sharded sessions checkpoint and how ``close`` keeps nothing behind.

Backends expose a deliberately small surface —
``process_batches / flush / metrics / states / close`` — so a future
multi-machine backend (the ROADMAP north star) only has to speak this
protocol plus serialisation.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.base import ButterflyEstimator
from repro.errors import EstimatorError, SpecError
from repro.types import Op, StreamElement

if TYPE_CHECKING:
    import multiprocessing.connection

__all__ = [
    "BACKEND_NAMES",
    "ProcessBackend",
    "SerialBackend",
    "ShardBackend",
    "ThreadBackend",
    "make_backend",
]

#: The accepted ``backend=`` names, sorted.
BACKEND_NAMES = ("process", "serial", "thread")

#: Wire format for one element: (u, v, op symbol).
_WireElement = Tuple[Any, Any, str]


def _encode_batch(batch: Sequence[StreamElement]) -> List[_WireElement]:
    return [(e.u, e.v, e.op.value) for e in batch]


def _decode_batch(wire: Sequence[_WireElement]) -> List[StreamElement]:
    insert, delete = Op.INSERT, Op.DELETE
    return [
        StreamElement(u, v, insert if symbol == "+" else delete)
        for u, v, symbol in wire
    ]


class ShardBackend(abc.ABC):
    """The execution protocol shared by serial/thread/process backends."""

    #: Registry name ("serial", "thread", "process").
    name: str = ""

    @property
    @abc.abstractmethod
    def num_shards(self) -> int:
        """How many shards this backend runs."""

    @abc.abstractmethod
    def process_batches(
        self, batches: Sequence[Optional[Sequence[StreamElement]]]
    ) -> List[float]:
        """Run one batch per shard (``None``/empty skips that shard).

        Returns the per-shard estimate deltas, indexed by shard.
        """

    @abc.abstractmethod
    def flush(self) -> List[float]:
        """Flush buffered work on every shard; per-shard deltas."""

    @abc.abstractmethod
    def metrics(self) -> List[Tuple[float, int]]:
        """Per-shard ``(estimate, memory_edges)`` pairs."""

    @abc.abstractmethod
    def states(self) -> List[Dict[str, Any]]:
        """Per-shard ``state_to_dict`` payloads (snapshot protocol)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release executor resources; idempotent."""


class _InProcessBackend(ShardBackend):
    """Shared plumbing for backends holding live estimator instances."""

    def __init__(self, estimators: Sequence[ButterflyEstimator]) -> None:
        if not estimators:
            raise SpecError("a shard backend needs at least one estimator")
        self._estimators = list(estimators)

    @property
    def num_shards(self) -> int:
        return len(self._estimators)

    @property
    def estimators(self) -> Tuple[ButterflyEstimator, ...]:
        """The live shard estimators (shared, not copies)."""
        return tuple(self._estimators)

    def flush(self) -> List[float]:
        deltas = []
        for estimator in self._estimators:
            flusher = getattr(estimator, "flush", None)
            deltas.append(float(flusher()) if flusher is not None else 0.0)
        return deltas

    def metrics(self) -> List[Tuple[float, int]]:
        return [(e.estimate, e.memory_edges) for e in self._estimators]

    def states(self) -> List[Dict[str, Any]]:
        states = []
        for estimator in self._estimators:
            if not hasattr(estimator, "state_to_dict"):
                raise SpecError(
                    f"shard estimator {type(estimator).__name__} does not "
                    "support snapshot (no state_to_dict)"
                )
            states.append(estimator.state_to_dict())
        return states

    def close(self) -> None:
        for estimator in self._estimators:
            closer = getattr(estimator, "close", None)
            if closer is not None:
                closer()


class SerialBackend(_InProcessBackend):
    """Run every shard in the calling thread, in shard order."""

    name = "serial"

    def process_batches(
        self, batches: Sequence[Optional[Sequence[StreamElement]]]
    ) -> List[float]:
        deltas = [0.0] * len(self._estimators)
        for shard, batch in enumerate(batches):
            if batch:
                deltas[shard] = self._estimators[shard].process_batch(batch)
        return deltas


class ThreadBackend(_InProcessBackend):
    """Run shard batches as concurrent thread-pool tasks.

    Each shard's batch is a single task, so per-shard sequencing — the
    property the bit-identical guarantee rests on — is preserved by
    construction; only cross-shard work interleaves.
    """

    name = "thread"

    def __init__(self, estimators: Sequence[ButterflyEstimator]) -> None:
        super().__init__(estimators)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=len(self._estimators),
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def process_batches(
        self, batches: Sequence[Optional[Sequence[StreamElement]]]
    ) -> List[float]:
        pool = self._ensure_pool()
        deltas = [0.0] * len(self._estimators)
        futures = {
            shard: pool.submit(self._estimators[shard].process_batch, batch)
            for shard, batch in enumerate(batches)
            if batch
        }
        for shard, future in futures.items():
            deltas[shard] = future.result()
        return deltas

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
def _shard_worker(
    conn: multiprocessing.connection.Connection, payload: Dict[str, Any]
) -> None:
    """Worker-process main loop: build/restore one estimator, serve it.

    Runs until a ``("close",)`` message or EOF.  Every reply is a
    ``("ok", value)`` or ``("error", message)`` pair so estimator
    exceptions surface in the coordinator instead of killing the pipe.
    """
    import repro.api.builtin  # noqa: F401  (populate the registry under spawn)
    from repro.api.registry import build_estimator, get_registration

    try:
        if "restore" in payload:
            registration = get_registration(payload["restore"]["name"])
            estimator = registration.restore(payload["restore"]["state"])
        else:
            estimator = build_estimator(payload["spec"])
    except Exception as exc:  # pragma: no cover - defensive
        conn.send(("error", f"shard worker failed to build estimator: {exc}"))
        return
    def reply(payload: Tuple[str, Any]) -> bool:
        # Best-effort: a vanished coordinator must end the worker
        # quietly, not with a BrokenPipeError traceback on stderr.
        try:
            conn.send(payload)
            return True
        except (OSError, ValueError):
            return False

    reply(("ok", None))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        command = message[0]
        try:
            if command == "batch":
                result: Any = estimator.process_batch(
                    _decode_batch(message[1])
                )
            elif command == "flush":
                flusher = getattr(estimator, "flush", None)
                result = float(flusher()) if flusher is not None else 0.0
            elif command == "metrics":
                result = (estimator.estimate, estimator.memory_edges)
            elif command == "state":
                if not hasattr(estimator, "state_to_dict"):
                    raise SpecError(
                        f"shard estimator {type(estimator).__name__} does "
                        "not support snapshot (no state_to_dict)"
                    )
                result = estimator.state_to_dict()
            elif command == "close":
                reply(("ok", None))
                return
            else:  # pragma: no cover - protocol misuse
                raise EstimatorError(f"unknown shard command {command!r}")
        except Exception as exc:
            if not reply(("error", f"{type(exc).__name__}: {exc}")):
                return
        else:
            if not reply(("ok", result)):
                return


class ProcessBackend(ShardBackend):
    """One persistent worker process per shard, fed over pipes.

    Workers are started eagerly from build payloads — either
    ``{"spec": <spec dict>}`` (fresh estimator, built in the worker via
    the registry) or ``{"restore": {"name": ..., "state": ...}}`` (the
    snapshot protocol, used when a sharded session is restored).  The
    coordinator encodes batches as plain ``(u, v, op)`` tuples; full
    estimator state only ever crosses the pipe through
    ``state_to_dict`` payloads.

    Uses the ``fork`` start method where available (cheap, inherits the
    registry) and falls back to the platform default elsewhere; either
    way results are bit-identical to :class:`SerialBackend` because the
    worker runs the same estimator code on the same element sequence
    with the same seed.
    """

    name = "process"

    def __init__(self, payloads: Sequence[Dict[str, Any]]) -> None:
        if not payloads:
            raise SpecError("a shard backend needs at least one estimator")
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._connections: List[Any] = []
        self._processes: List[Any] = []
        try:
            for payload in payloads:
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_shard_worker,
                    args=(child_end, payload),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._connections.append(parent_end)
                self._processes.append(process)
            # Wait for every worker to confirm its estimator built.
            for connection in self._connections:
                self._read_reply(connection)
        except BaseException:
            self.close()
            raise

    @property
    def num_shards(self) -> int:
        return len(self._processes)

    @property
    def processes(self) -> Tuple[Any, ...]:
        """The live worker process handles, indexed by shard.

        Exposed for fault injection (``tests/chaos/``): killing one of
        these simulates a shard worker dying mid-stream, which must
        surface as :class:`~repro.errors.EstimatorError` on the next
        command rather than a hang or a silent wrong answer.
        """
        return tuple(self._processes)

    @staticmethod
    def _read_reply(connection) -> Any:
        try:
            status, value = connection.recv()
        except (EOFError, OSError):
            # EOF for a worker that exited; ECONNRESET for one that
            # was killed with its pipe still carrying data.
            raise EstimatorError(
                "shard worker exited unexpectedly (broken pipe)"
            ) from None
        if status == "error":
            raise EstimatorError(f"shard worker failed: {value}")
        return value

    def _gather(self, shards: Sequence[int]) -> List[Any]:
        """Collect one reply per listed shard, in shard order.

        Every pending reply is drained before any error is raised —
        leaving replies unread would desynchronise the pipes and make
        every later command read the wrong reply.
        """
        replies: List[Any] = []
        failure: Optional[BaseException] = None
        for shard in shards:
            try:
                replies.append(self._read_reply(self._connections[shard]))
            except EstimatorError as exc:
                replies.append(None)
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return replies

    def _send(self, shard: int, message: Tuple[Any, ...]) -> bool:
        """Send to one worker; False when its pipe is already dead.

        A killed worker (chaos, OOM, operator) surfaces here as a
        broken pipe — callers turn that into a loud
        :class:`EstimatorError` *after* draining the replies the
        still-living workers owe, so the surviving pipes never
        desynchronise.
        """
        try:
            self._connections[shard].send(message)
            return True
        except (OSError, ValueError):
            return False

    def _scatter_gather(self, per_shard) -> List[Any]:
        """Send ``per_shard[shard]`` (None skips), gather, fail loud."""
        sent: List[int] = []
        dead: List[int] = []
        for shard, message in enumerate(per_shard):
            if message is None:
                continue
            (sent if self._send(shard, message) else dead).append(shard)
        failure: Optional[EstimatorError] = None
        replies: List[Any] = [None] * len(per_shard)
        try:
            for shard, reply in zip(sent, self._gather(sent)):
                replies[shard] = reply
        except EstimatorError as exc:
            failure = exc
        if dead:
            raise EstimatorError(
                f"shard worker {dead[0]} died (broken pipe); the "
                "sharded state is no longer trustworthy — recover the "
                "durable directory or rebuild the engine"
            )
        if failure is not None:
            raise failure
        return replies

    def _broadcast(self, message: Tuple[Any, ...]) -> List[Any]:
        """Send one message to all workers, then gather in shard order."""
        if not self._connections:
            raise EstimatorError("process backend is closed")
        return self._scatter_gather(
            [message] * len(self._connections)
        )

    def process_batches(
        self, batches: Sequence[Optional[Sequence[StreamElement]]]
    ) -> List[float]:
        if not self._connections:
            raise EstimatorError("process backend is closed")
        replies = self._scatter_gather([
            ("batch", _encode_batch(batch)) if batch else None
            for batch in batches
        ])
        return [
            reply if reply is not None else 0.0 for reply in replies
        ]

    def flush(self) -> List[float]:
        return self._broadcast(("flush",))

    def metrics(self) -> List[Tuple[float, int]]:
        return [tuple(pair) for pair in self._broadcast(("metrics",))]

    def states(self) -> List[Dict[str, Any]]:
        return self._broadcast(("state",))

    def close(self) -> None:
        connections, self._connections = self._connections, []
        processes, self._processes = self._processes, []
        for connection in connections:
            try:
                connection.send(("close",))
            except (OSError, ValueError):
                pass
        for connection in connections:
            # Drain the close acknowledgement so the worker's final
            # send never races the pipe teardown below.
            try:
                connection.recv()
            except (EOFError, OSError):
                pass
        for connection in connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def make_backend(
    name: str,
    *,
    estimators: Optional[Sequence[ButterflyEstimator]] = None,
    payloads: Optional[Sequence[Dict[str, Any]]] = None,
) -> ShardBackend:
    """Build a backend by name.

    Serial/thread backends take live ``estimators``; the process
    backend takes build ``payloads`` (see :class:`ProcessBackend`).
    The engine supplies the right one for the chosen name.

    Raises:
        SpecError: unknown backend name or missing inputs.
    """
    key = name.strip().lower()
    if key == "serial":
        if estimators is None:
            raise SpecError("serial backend needs estimator instances")
        return SerialBackend(estimators)
    if key == "thread":
        if estimators is None:
            raise SpecError("thread backend needs estimator instances")
        return ThreadBackend(estimators)
    if key == "process":
        if payloads is None:
            raise SpecError("process backend needs build payloads")
        return ProcessBackend(payloads)
    raise SpecError(
        f"unknown shard backend {name!r}; "
        f"available: {', '.join(BACKEND_NAMES)}"
    )
