"""NumPy mirror of a :class:`GraphSample` for vectorized counting.

The scalar butterfly kernel intersects Python sets, which is fine per
element but leaves a lot of throughput on the table when a whole batch
of stream elements is counted against the (mostly static) sample.  The
batch engines instead read an :class:`NdAdjacency`: per-vertex sorted
``int64`` neighbour arrays plus a flat degree array, so side selection,
work accounting, and the set intersections all become array operations.

The mirror is *derived* state.  It interns vertices to dense integer
ids, rebuilds itself from the sample in one pass when it falls out of
sync (detected through :attr:`GraphSample.version`), and tracks the
sample's mutations one by one while a batch engine drives it — an
``O(degree)`` array splice per sampled-edge change, which Random
Pairing makes rare once the stream outgrows the budget.

NumPy is an optional dependency of this module: when it is missing,
:data:`NUMPY_AVAILABLE` is False and the estimators silently keep their
per-element scalar paths (results are identical either way — the batch
fast path is a performance contract, not a semantic one).

This is the one place the package imports NumPy, and it does so on
demand (:func:`load_numpy`): when the first mirror is built, or when a
NumPy ``Generator`` reaches
:meth:`~repro.sampling.reservoir.ReservoirSampler.offer_batch`.  A
process whose batches never get dense enough for the mirror never pays
for the import.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SamplingError
from repro.sampling.adjacency_sample import GraphSample, Mutation
from repro.types import Vertex

#: Whether NumPy is installed (found, not yet imported).
NUMPY_AVAILABLE = importlib.util.find_spec("numpy") is not None

#: The ``numpy`` module once :func:`load_numpy` imported it.
np: Any = None

_EMPTY = None  # initialised lazily so the module imports without numpy


def load_numpy() -> Any:
    """The ``numpy`` module, imported on first call; None without NumPy."""
    global np
    if np is None and NUMPY_AVAILABLE:
        import numpy

        np = numpy
    return np


def _empty_row():
    global _EMPTY
    if _EMPTY is None:
        _EMPTY = np.empty(0, dtype=np.int64)
    return _EMPTY


class NdAdjacency:
    """Sorted-array adjacency view of a sample, kept in sync by version.

    The mirror holds, per interned vertex id, a sorted ``int64`` array
    of neighbour ids, plus a dense degree array for vectorized
    cumulative-degree sums.  Vertex ids are stable for the lifetime of
    the mirror (interning never forgets a vertex, even after its last
    sampled edge disappears — its row just becomes empty, matching the
    scalar path's empty-set semantics).
    """

    __slots__ = ("_id_of", "_rows", "_deg", "_deg_size", "_scratch", "version")

    def __init__(self) -> None:
        if not NUMPY_AVAILABLE:
            raise SamplingError("NdAdjacency requires numpy")
        load_numpy()
        self._id_of: Dict[Vertex, int] = {}
        self._rows: List["np.ndarray"] = []
        self._deg = np.zeros(16, dtype=np.int64)
        self._deg_size = 0
        self._scratch = np.zeros(16, dtype=bool)
        #: The :attr:`GraphSample.version` this mirror reflects; -1
        #: before the first sync.
        self.version = -1

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern(self, vertex: Vertex) -> int:
        """Dense id for ``vertex``, allocating one on first sight."""
        vid = self._id_of.get(vertex)
        if vid is None:
            vid = len(self._rows)
            self._id_of[vertex] = vid
            self._rows.append(_empty_row())
            if vid >= self._deg.shape[0]:
                grown = np.zeros(self._deg.shape[0] * 2, dtype=np.int64)
                grown[: self._deg.shape[0]] = self._deg
                self._deg = grown
                self._scratch = np.zeros(grown.shape[0], dtype=bool)
            self._deg_size = vid + 1
        return vid

    def id_of(self, vertex: Vertex) -> Optional[int]:
        """The vertex's id, or None when it was never sampled."""
        return self._id_of.get(vertex)

    # ------------------------------------------------------------------
    # Vectorized reads
    # ------------------------------------------------------------------
    def row(self, vid: int) -> "np.ndarray":
        """Sorted neighbour-id array of vertex ``vid`` (do not mutate)."""
        return self._rows[vid]

    @property
    def rows(self) -> List["np.ndarray"]:
        """The row list indexed by id (hot-loop read access; do not mutate)."""
        return self._rows

    @property
    def degrees(self) -> "np.ndarray":
        """Degree-by-id array (length >= every allocated id)."""
        return self._deg

    @property
    def scratch_mask(self) -> "np.ndarray":
        """Reusable bool-by-id scratch for O(1) membership gathers.

        Borrow-and-restore protocol: set the ids you need True, gather,
        then set the same ids back to False before anything else can
        borrow it.  Kept here so the counting kernels avoid allocating
        (and zeroing) a fresh mask per query.
        """
        return self._scratch

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def sync(self, sample: GraphSample) -> None:
        """Make the mirror reflect ``sample``, rebuilding if stale.

        Cheap (a version compare) when the mirror observed every
        mutation since the last sync; a full one-pass rebuild after the
        sample changed behind its back (e.g. interleaved per-element
        calls on the estimator).
        """
        if self.version == sample.version:
            return
        buckets: Dict[int, List[int]] = {}
        for vid in range(len(self._rows)):
            self._rows[vid] = _empty_row()
        self._deg[: self._deg_size] = 0
        for u, v in sample.edges():
            uid = self.intern(u)
            vid = self.intern(v)
            buckets.setdefault(uid, []).append(vid)
            buckets.setdefault(vid, []).append(uid)
        for vid, neighbor_ids in buckets.items():
            row = np.asarray(neighbor_ids, dtype=np.int64)
            row.sort()
            self._rows[vid] = row
            self._deg[vid] = row.shape[0]
        self.version = sample.version

    def apply(self, mutations: Tuple[Mutation, ...]) -> None:
        """Track sample mutations the caller just performed, in order."""
        for op, u, v in mutations:
            uid = self.intern(u)
            vid = self.intern(v)
            if op == "+":
                self._insert(uid, vid)
                self._insert(vid, uid)
            else:
                self._remove(uid, vid)
                self._remove(vid, uid)
            self.version += 1

    # Manual two-slice splices: ``np.insert``/``np.delete`` route through
    # generic axis normalisation that costs more than these whole rows.
    def _insert(self, vid: int, neighbor: int) -> None:
        row = self._rows[vid]
        size = row.shape[0]
        position = row.searchsorted(neighbor)
        spliced = np.empty(size + 1, dtype=np.int64)
        spliced[:position] = row[:position]
        spliced[position] = neighbor
        spliced[position + 1 :] = row[position:]
        self._rows[vid] = spliced
        self._deg[vid] += 1

    def _remove(self, vid: int, neighbor: int) -> None:
        row = self._rows[vid]
        size = row.shape[0]
        position = row.searchsorted(neighbor)
        if position >= size or row[position] != neighbor:
            raise SamplingError(
                f"mirror desync: id {neighbor} not a neighbour of {vid}"
            )
        spliced = np.empty(size - 1, dtype=np.int64)
        spliced[:position] = row[:position]
        spliced[position:] = row[position + 1 :]
        self._rows[vid] = spliced
        self._deg[vid] -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NdAdjacency(vertices={len(self._rows)}, "
            f"version={self.version})"
        )
