"""The sharded ingestion engine: ``ShardedEstimator``.

Hash-partitions a fully dynamic stream across ``K`` independent
estimator shards and merges their estimates into one global estimate
with an explicit cross-shard correction.

**The shard-merge contract** (derivation in ``docs/architecture.md``):
with a left-vertex partitioner, a butterfly ``(u1, u2, v1, v2)`` lands
entirely inside one shard exactly when its two left vertices collide,
which the uniform-hash model puts at probability ``1/K``.  Each shard
runs an unbiased estimator over a valid fully-dynamic substream (a
deletion always follows its insertion to the same shard), so

    E[ sum_s  estimate_s ]  =  |B| / K
    global estimate         =  K * sum_s estimate_s      (unbiased)

The correction is exposed as :attr:`ShardedEstimator.correction`; the
identity behind it is verified *exactly* against the oracle in
``tests/shard/test_engine.py`` (sharded-exact equals the brute-force
count of left-collision butterflies) and *statistically* over many hash
salts for unbiasedness.

``ShardedEstimator`` is itself a regular
:class:`~repro.core.base.ButterflyEstimator` registered under the name
``"sharded"``, so everything the session layer provides — checkpoint
offsets, observers, auto-chunked ``ingest``, snapshot/restore — applies
to sharded ingestion unchanged.

>>> from repro.types import insertion
>>> engine = ShardedEstimator("exact", shards=2, backend="serial")
>>> engine.process_batch([insertion(0, 10), insertion(0, 11),
...                       insertion(2, 10), insertion(2, 11)])
2.0
>>> engine.shard_estimates()   # left vertices 0 and 2 share shard 0
(1.0, 0.0)
>>> engine.estimate            # K * sum: corrects for lost cross-shard butterflies
2.0
>>> engine.close()
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import (
    EstimatorSpec,
    Param,
    SpecLike,
    build_estimator,
    get_registration,
    parse_spec,
    register_estimator,
)
from repro.core.base import ButterflyEstimator
from repro.errors import EstimatorError, SpecError
from repro.faults import fault_point
from repro.shard.partition import (
    Partitioner,
    _as_vertex,
    make_partitioner,
    partitioner_from_state,
    shard_seed,
)
from repro.types import StreamElement, Vertex, insertion

if TYPE_CHECKING:
    from repro.shard.backends import ShardBackend

__all__ = ["ReshardReport", "ShardedEstimator"]


def _check_backend(backend: str) -> str:
    """The normalised ``backend`` name; SpecError if unknown.

    The backends module (and with it ``multiprocessing``) is imported
    here, when a sharded estimator is built, not when it registers.
    """
    from repro.shard.backends import BACKEND_NAMES

    name = backend.strip().lower()
    if name not in BACKEND_NAMES:
        raise SpecError(
            f"unknown shard backend {backend!r}; "
            f"available: {', '.join(BACKEND_NAMES)}"
        )
    return name


@dataclasses.dataclass(frozen=True)
class ReshardReport:
    """What one :meth:`ShardedEstimator.reshard` did.

    Attributes:
        old_shards: partition count before the reshard.
        new_shards: partition count after it.
        epoch: the partitioner epoch now in force.
        replayed_edges: live edges replayed into the new topology
            (the whole residue — every live edge re-routes, because
            per-shard sampler state cannot be split or merged).
        moved_edges: replayed edges whose owning shard index changed.
        backend: backend name running the new topology.
        seconds: wall-clock cost of the transition.
    """

    old_shards: int
    new_shards: int
    epoch: int
    replayed_edges: int
    moved_edges: int
    backend: str
    seconds: float


class ShardedEstimator(ButterflyEstimator):
    """K independent estimator shards behind one estimator interface.

    Args:
        inner: spec (string/dict/:class:`EstimatorSpec`) of the
            per-shard estimator.  The registration must declare
            ``supports_sharding``; its memory budget applies **per
            shard** (total memory is ``shards`` times it).
        shards: number of partitions ``K``.
        backend: ``"serial"``, ``"thread"``, or ``"process"`` (see
            :mod:`repro.shard.backends`).
        partitioner: ``"hash"`` (stateless, unbiased) or ``"balanced"``
            (greedy load-balancing, Fig. 10 style).
        salt: partitioner salt — varies the partition map without
            touching estimator seeds.
        seed: base RNG seed; shard ``i`` samples with
            :func:`~repro.shard.partition.shard_seed` ``(seed, i, K)``.
            Defaults to the inner spec's own ``seed`` when present.
            With ``shards=1`` the base seed passes through unchanged,
            so a 1-sharded estimator is bit-identical to the plain one.

    The per-shard estimates are merged as ``correction * sum`` with
    ``correction = 1 / collision_probability = K`` (module docstring).
    All three backends are bit-identical for a fixed seed and partition
    map; the suite enforces it in ``tests/shard/test_backends.py``.
    """

    name = "Sharded"
    supports_batch = True
    #: Shards of shards are not supported (the correction would not
    #: compose), and nothing is gained by nesting.
    supports_sharding = False

    def __init__(
        self,
        inner: SpecLike = "abacus",
        shards: int = 4,
        backend: str = "serial",
        partitioner: str = "hash",
        salt: int = 0,
        seed: Optional[int] = None,
        _restore_states: Optional[Sequence[Dict[str, Any]]] = None,
        _partitioner_state: Optional[Dict[str, Any]] = None,
        _restore_residue: Optional[Sequence[Sequence[Any]]] = None,
        _restore_arrival: int = 0,
    ) -> None:
        if shards < 1:
            raise SpecError(f"shards must be >= 1, got {shards}")
        self._inner_spec = parse_spec(inner)
        registration = get_registration(self._inner_spec.name)
        if not registration.supports_sharding:
            raise SpecError(
                f"estimator {registration.name!r} does not support "
                "sharding (Registration.supports_sharding is false)"
            )
        self._registration = registration
        self._num_shards = shards
        self._backend_name = _check_backend(backend)
        self._salt = salt
        self._seed = seed
        if _partitioner_state is not None:
            self._partitioner = partitioner_from_state(_partitioner_state)
            if self._partitioner.num_shards != shards:
                raise EstimatorError(
                    "partitioner state disagrees with shard count"
                )
        else:
            self._partitioner = make_partitioner(partitioner, shards, salt)
        self._shard_specs = self._derive_shard_specs(shards)
        self._backend = self._build_backend(_restore_states)
        self._metrics_cache: Optional[List[Tuple[float, int]]] = None
        self._closed = False
        # The residue: every live edge with its arrival index, the
        # replay set a reshard re-routes through the next topology
        # (``docs/resharding.md``).  Restored snapshots written before
        # residue tracking existed leave it incomplete, which only
        # forbids resharding — everything else works as before.
        self._residue: Dict[Tuple[Vertex, Vertex], int] = {}
        self._arrival = int(_restore_arrival)
        self._residue_complete = True
        if _restore_residue is not None:
            for entry in _restore_residue:
                u, v, index = entry
                self._residue[(_as_vertex(u), _as_vertex(v))] = int(index)
        elif _restore_states is not None:
            self._residue_complete = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _derive_shard_specs(self, num_shards: int) -> List[EstimatorSpec]:
        """Per-shard specs: the inner spec with independent seeds.

        Parameterised by the shard count so a reshard derives the
        specs for its *target* topology with the same rule.
        """
        spec = self._inner_spec
        if "seed" not in self._registration.param_names:
            return [spec] * num_shards
        base = self._seed
        if base is None:
            base = spec.params.get("seed")
        if base is None:
            return [spec] * num_shards
        return [
            spec.with_overrides(
                seed=shard_seed(int(base), index, num_shards)
            )
            for index in range(num_shards)
        ]

    def _build_backend(
        self, states: Optional[Sequence[Dict[str, Any]]]
    ) -> ShardBackend:
        if states is not None and len(states) != self._num_shards:
            raise EstimatorError(
                f"expected {self._num_shards} shard states, got {len(states)}"
            )
        if states is None:
            return self._build_fresh_backend(
                self._shard_specs, self._backend_name
            )
        from repro.shard.backends import make_backend

        if self._backend_name == "process":
            payloads = [
                {"restore": {"name": self._registration.name, "state": s}}
                for s in states
            ]
            return make_backend("process", payloads=payloads)
        estimators = [self._registration.restore(s) for s in states]
        return make_backend(self._backend_name, estimators=estimators)

    def _build_fresh_backend(
        self, specs: Sequence[EstimatorSpec], backend_name: str
    ) -> ShardBackend:
        """Empty estimators from ``specs`` on a new ``backend_name``."""
        from repro.shard.backends import make_backend

        if backend_name == "process":
            payloads = [{"spec": s.to_dict()} for s in specs]
            return make_backend("process", payloads=payloads)
        estimators = [build_estimator(s) for s in specs]
        return make_backend(backend_name, estimators=estimators)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """The partition count ``K``."""
        return self._num_shards

    @property
    def backend(self) -> ShardBackend:
        """The executor backend running the shards."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """The registry name of the running backend."""
        return self._backend_name

    @property
    def partitioner(self) -> Partitioner:
        """The element router (shared, stateful for ``balanced``)."""
        return self._partitioner

    @property
    def inner_spec(self) -> EstimatorSpec:
        """The per-shard estimator spec (without per-shard seeds)."""
        return self._inner_spec

    @property
    def shard_specs(self) -> Tuple[EstimatorSpec, ...]:
        """The seeded per-shard specs actually built."""
        return tuple(self._shard_specs)

    @property
    def epoch(self) -> int:
        """The topology version: 0 at birth, +1 per :meth:`reshard`."""
        return self._partitioner.epoch

    @property
    def live_edges(self) -> int:
        """Edges currently alive (insertions minus their deletions)."""
        return len(self._residue)

    @property
    def correction(self) -> float:
        """The cross-shard correction ``1 / collision_probability``.

        Multiplies the summed per-shard estimates; equals ``K`` for the
        shipped left-vertex partitioners.
        """
        return 1.0 / self._partitioner.collision_probability

    def _metrics(self) -> List[Tuple[float, int]]:
        if self._metrics_cache is None:
            self._metrics_cache = self._backend.metrics()
        return self._metrics_cache

    def shard_estimates(self) -> Tuple[float, ...]:
        """Raw (uncorrected) per-shard estimates, indexed by shard."""
        return tuple(estimate for estimate, _ in self._metrics())

    @property
    def estimate(self) -> float:
        """``correction * sum`` of per-shard estimates (shard order)."""
        return self.correction * sum(e for e, _ in self._metrics())

    @property
    def memory_edges(self) -> int:
        """Total edges held across all shards."""
        return sum(edges for _, edges in self._metrics())

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise EstimatorError("sharded estimator is closed")

    def _note_element(self, element: StreamElement) -> None:
        """Track ``element`` in the residue (call only after the
        backend accepted it, mirroring the session's WAL rollback
        rule: a refused batch must not desynchronise the replay set).
        """
        key = (element.u, element.v)
        if element.is_insertion:
            self._residue[key] = self._arrival
        else:
            self._residue.pop(key, None)
        self._arrival += 1

    def process(self, element: StreamElement) -> float:
        """Route one element to its shard; return the *corrected* delta."""
        self._check_open()
        shard = self._partitioner.assign(element)
        batches: List[Optional[List[StreamElement]]] = [
            None
        ] * self._num_shards
        batches[shard] = [element]
        deltas = self._backend.process_batches(batches)
        self._metrics_cache = None
        self._note_element(element)
        return self.correction * deltas[shard]

    def process_batch(self, batch: Sequence[StreamElement]) -> float:
        """Partition ``batch`` and fan it out; return the corrected delta.

        Each shard receives its elements in stream order, so for any
        chunking of a stream the per-shard element sequences — and
        therefore the per-shard states — are identical, which is what
        makes sharded ingestion inherit the session layer's
        batched-vs-per-element equivalence guarantees.
        """
        self._check_open()
        if not batch:
            return 0.0
        assign = self._partitioner.assign
        batches: List[Optional[List[StreamElement]]] = [
            None
        ] * self._num_shards
        for element in batch:
            shard = assign(element)
            bucket = batches[shard]
            if bucket is None:
                bucket = batches[shard] = []
            bucket.append(element)
        deltas = self._backend.process_batches(batches)
        self._metrics_cache = None
        for element in batch:
            self._note_element(element)
        return self.correction * sum(deltas)

    def flush(self) -> float:
        """Flush buffered work on every shard; corrected delta.

        A no-op (0.0) once the engine is closed — closing already
        flushed or discarded the shards, and the session facade calls
        ``flush`` during its own cleanup.
        """
        if self._closed:
            return 0.0
        deltas = self._backend.flush()
        self._metrics_cache = None
        return self.correction * sum(deltas)

    # ------------------------------------------------------------------
    # Elastic resharding
    # ------------------------------------------------------------------
    def reshard(
        self,
        shards: int,
        *,
        backend: Optional[str] = None,
        partitioner: Optional[str] = None,
        salt: Optional[int] = None,
    ) -> ReshardReport:
        """Live split/merge to a ``shards``-way topology.

        Per-shard sampler state cannot be split or merged without
        breaking the inner estimator's sampling invariants, so the
        transition replays the **residue** — every live edge, in
        arrival order — into freshly seeded estimators behind a new
        partitioner at epoch ``+1``.  The K-correction identity holds
        on both sides of the swap: before it the old ``K`` corrects
        the old shards, after it the new ``K'`` corrects the new ones,
        and the replay is itself a valid stream (insertions only), so
        the merged estimate stays unbiased for the same live graph
        (``docs/resharding.md`` walks through the argument).

        The swap is atomic from the caller's view: until every new
        shard has absorbed its residue the old topology keeps
        answering, and any failure while building the new one tears it
        down and leaves the engine exactly as it was.  ``shards`` may
        equal the current count — the epoch bump still remixes the
        partition map, which is the "rebalance in place" case.

        Args:
            shards: the target partition count ``K'`` (>= 1).
            backend: optional backend switch for the new topology.
            partitioner: optional partitioner switch.
            salt: optional new partition-map salt (the epoch bump
                already remixes routing; pass a salt only to make the
                new map reproducible independently of epoch history).

        Returns:
            A :class:`ReshardReport` describing the transition.

        Raises:
            EstimatorError: if the engine was restored from a snapshot
                written before residue tracking existed (the replay
                set would be incomplete), or is closed.
        """
        self._check_open()
        if shards < 1:
            raise SpecError(f"shards must be >= 1, got {shards}")
        if not self._residue_complete:
            raise EstimatorError(
                "cannot reshard: this engine was restored from a "
                "snapshot written before residue tracking existed, so "
                "the live-edge replay set is incomplete; re-ingest "
                "through a current snapshot first"
            )
        backend_name = _check_backend(backend or self._backend_name)
        partitioner_name = partitioner or self._partitioner.name
        new_salt = self._salt if salt is None else salt
        started = time.perf_counter()

        # 1. Order the replay set.  The old topology stays fully live
        #    (and keeps answering queries) until the swap below.
        ordered = sorted(self._residue.items(), key=lambda item: item[1])
        fault_point("reshard.prepared")

        # 2. Build the target topology and replay the residue into it.
        epoch = self._partitioner.epoch + 1
        new_partitioner = make_partitioner(
            partitioner_name, shards, new_salt, epoch
        )
        new_specs = self._derive_shard_specs(shards)
        new_backend = self._build_fresh_backend(new_specs, backend_name)
        try:
            moved = 0
            batches: List[Optional[List[StreamElement]]] = [None] * shards
            for (u, v), _index in ordered:
                element = insertion(u, v)
                shard = new_partitioner.assign(element)
                if shard != self._partitioner.shard_of(u):
                    moved += 1
                bucket = batches[shard]
                if bucket is None:
                    bucket = batches[shard] = []
                bucket.append(element)
            if ordered:
                new_backend.process_batches(batches)
            # Drain inner buffers (PARABACUS mini-batches) so the
            # post-swap state is bit-identical to a fresh engine that
            # ingested the residue and flushed — the twin the chaos
            # harness compares against.
            new_backend.flush()
            fault_point("reshard.built")
        except BaseException:
            # Includes SimulatedCrash: the half-built topology must
            # not leak workers, and the engine stays on the old one.
            new_backend.close()
            raise

        # 3. Atomic swap, then tear down the old topology.
        old_backend = self._backend
        old_shards = self._num_shards
        self._partitioner = new_partitioner
        self._num_shards = shards
        self._backend_name = backend_name
        self._salt = new_salt
        self._shard_specs = new_specs
        self._backend = new_backend
        self._metrics_cache = None
        old_backend.close()
        fault_point("reshard.swapped")
        return ReshardReport(
            old_shards=old_shards,
            new_shards=shards,
            epoch=epoch,
            replayed_edges=len(ordered),
            moved_edges=moved,
            backend=backend_name,
            seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # StatefulEstimator protocol
    # ------------------------------------------------------------------
    def state_to_dict(self) -> Dict[str, Any]:
        """Full engine state: configuration, partitioner, shard states.

        Requires the inner estimator to support the snapshot protocol;
        shard states round-trip through the workers for the process
        backend (the only way state ever leaves a worker).
        """
        self._check_open()
        if not self._registration.supports_snapshot:
            raise SpecError(
                f"inner estimator {self._registration.name!r} does not "
                "support snapshot/restore, so the sharded engine cannot "
                "either"
            )
        state: Dict[str, Any] = {
            "inner": self._inner_spec.to_string(),
            "shards": self._num_shards,
            "backend": self._backend_name,
            "salt": self._salt,
            "seed": self._seed,
            "partitioner": self._partitioner.state_to_dict(),
            "shard_states": self._backend.states(),
            "arrival": self._arrival,
        }
        if self._residue_complete:
            # Arrival order, so restore + reshard replays identically.
            state["residue"] = [
                [u, v, index]
                for (u, v), index in sorted(
                    self._residue.items(), key=lambda item: item[1]
                )
            ]
        return state

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "ShardedEstimator":
        """Rebuild the engine (and its workers) from a state dict."""
        try:
            return cls(
                inner=state["inner"],
                shards=int(state["shards"]),
                backend=state["backend"],
                salt=int(state.get("salt", 0)),
                seed=state.get("seed"),
                _restore_states=state["shard_states"],
                _partitioner_state=state["partitioner"],
                _restore_residue=state.get("residue"),
                _restore_arrival=int(state.get("arrival", 0)),
            )
        except KeyError as exc:
            raise EstimatorError(
                f"sharded estimator state is missing field {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the backend (terminates process workers); idempotent.

        The final per-shard metrics are cached first, so ``estimate``,
        ``shard_estimates`` and ``memory_edges`` keep answering with the
        closing values on every backend (process workers are gone after
        this); only ingestion and snapshots are refused once closed.
        """
        if self._closed:
            return
        try:
            self._metrics()
        except Exception:  # pragma: no cover - backend already dead
            # Dead workers surface as EstimatorError or raw pipe errors
            # (BrokenPipeError from send); either way the backend must
            # still be torn down below, so never let this escape.
            self._metrics_cache = [(0.0, 0)] * self._num_shards
        self._closed = True
        self._backend.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEstimator({self._inner_spec.to_string()!r}, "
            f"shards={self._num_shards}, backend={self._backend_name!r})"
        )


@register_estimator(
    "sharded",
    params=(
        Param("inner", str, "abacus", doc="per-shard estimator spec"),
        Param("shards", int, 4, doc="partition count K"),
        Param("backend", str, "serial", doc="serial | thread | process"),
        Param("partitioner", str, "hash", doc="hash | balanced"),
        Param("salt", int, 0, doc="partition-map salt"),
        Param(
            "seed",
            int,
            doc="base RNG seed (per-shard seeds derive from it)",
        ),
    ),
    description=(
        "Sharded fan-out over K independent estimator shards "
        "(K-corrected merge; serial/thread/process backends)"
    ),
    cls=ShardedEstimator,
)
def _build_sharded(**params: Any) -> ButterflyEstimator:
    return ShardedEstimator(**params)
