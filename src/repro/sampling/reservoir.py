"""Classic reservoir sampling (Vitter, 1985).

Maintains a uniform random sample of fixed maximum size over an
*insert-only* stream.  This is the scheme ABACUS degenerates to when the
compensation counters are zero, and the building block of the insert-only
baselines.  Under deletions it loses uniformity — which is precisely the
failure mode the paper's accuracy experiments expose.

The sampler accepts either the standard-library ``random.Random`` (the
default, and the source every estimator uses — their batched and
per-element paths must stay bit-identical, so draws are consumed
strictly in arrival order) or a NumPy ``Generator``.  With a Generator,
:meth:`ReservoirSampler.offer_batch` vectorizes the acceptance draws:
one bulk ``integers`` call over the per-item bounds replaces one Python
call per item.  The bulk draw pattern differs from per-element draws at
the bit level (NumPy's bounded-integer path is shape-dependent), so the
Generator fast path promises determinism per seed and uniformity — not
cross-path bit-equality; the ``random.Random`` path promises both.
"""

from __future__ import annotations

import random
from typing import Generic, List, Optional, Sequence, TypeVar, Union

from repro.errors import SamplingError
from repro.sampling.ndadjacency import load_numpy

T = TypeVar("T")

RandomSource = Union[random.Random, "numpy.random.Generator"]


class ReservoirSampler(Generic[T]):
    """Uniform fixed-capacity sample of an insert-only item stream.

    Attributes:
        capacity: maximum number of retained items (``k``).
        num_seen: number of items offered so far (``n``).
    """

    __slots__ = ("capacity", "num_seen", "_items", "_rng", "_randrange")

    def __init__(
        self, capacity: int, rng: Optional[RandomSource] = None
    ) -> None:
        if capacity <= 0:
            raise SamplingError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.num_seen = 0
        self._items: List[T] = []
        self._rng = rng if rng is not None else random.Random()
        randrange = getattr(self._rng, "randrange", None)
        if randrange is not None:
            self._randrange = randrange
        else:  # numpy Generator: draw bounded ints via integers().
            integers = self._rng.integers
            self._randrange = lambda bound: int(integers(bound))

    @property
    def items(self) -> List[T]:
        """The current sample (live list; treat as read-only)."""
        return self._items

    @property
    def size(self) -> int:
        return len(self._items)

    @property
    def inclusion_probability(self) -> float:
        """Probability that any given seen item is currently sampled."""
        if self.num_seen == 0:
            return 0.0
        return min(1.0, self.capacity / self.num_seen)

    def offer(self, item: T) -> Optional[T]:
        """Present one stream item; return the evicted item, if any.

        Returns None when the item was simply appended or rejected;
        returns the replaced item when the reservoir was full and the
        new item displaced it.
        """
        self.num_seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return None
        j = self._randrange(self.num_seen)
        if j < self.capacity:
            evicted = self._items[j]
            self._items[j] = item
            return evicted
        return None

    def offer_batch(self, items: Sequence[T]) -> List[T]:
        """Present a whole batch; return the evicted items, in order.

        With a ``random.Random`` source this consumes draws in exactly
        the order :meth:`offer` would (bit-identical state afterwards).
        With a NumPy ``Generator`` the acceptance indices for the whole
        post-fill suffix are drawn in one vectorized ``integers`` call
        against the per-item bounds ``n+1, n+2, ...`` and only the
        accepted items touch the reservoir from Python.
        """
        items = list(items)
        evicted: List[T] = []
        # Fill phase: no randomness is consumed while below capacity.
        fill = min(self.capacity - len(self._items), len(items))
        if fill > 0:
            self._items.extend(items[:fill])
            self.num_seen += fill
            items = items[fill:]
        if not items:
            return evicted
        np = None if isinstance(self._rng, random.Random) else load_numpy()
        if np is not None and isinstance(self._rng, np.random.Generator):
            bounds = self.num_seen + 1 + np.arange(len(items), dtype=np.int64)
            draws = self._rng.integers(0, bounds)
            self.num_seen += len(items)
            for position in np.nonzero(draws < self.capacity)[0].tolist():
                slot = int(draws[position])
                evicted.append(self._items[slot])
                self._items[slot] = items[position]
            return evicted
        for item in items:
            replaced = self.offer(item)
            if replaced is not None:
                evicted.append(replaced)
        return evicted

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReservoirSampler(size={len(self._items)}/{self.capacity}, "
            f"seen={self.num_seen})"
        )
