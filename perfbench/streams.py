"""Seeded input streams for the benchmark workloads.

The benchmark owns its generators instead of calling the library's, so
a change to ``repro.graph.generators`` or ``repro.streams`` can never
change the inputs a measurement runs on.  Every stream is a list of
``repro`` stream elements built from one ``random.Random``; the same
seed gives the same list.  Left vertices are ``0 .. n_left - 1`` and
right vertices ``n_left .. n_left + n_right - 1``, so both fit the
codec's integer fast path.

The exact butterfly counter here is the benchmark's own reference for
``rel_error``: it counts wedges by vertex pair, independently of the
program's counting code.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.types import StreamElement, deletion, insertion

Edge = Tuple[int, int]


def chung_lu_edges(
    rng: random.Random,
    n_left: int,
    n_right: int,
    n_edges: int,
    exponent: float,
) -> List[Edge]:
    """Distinct power-law edges in arrival order (Chung–Lu weights).

    Vertex ``i`` of a side has weight ``(i + 1) ** (-1 / (exponent - 1))``,
    the expected-degree sequence of a power law with that exponent;
    each endpoint is drawn in proportion to its weight and duplicate
    edges are redrawn.
    """
    power = -1.0 / (exponent - 1.0)
    left_cum = list(itertools.accumulate((i + 1) ** power for i in range(n_left)))
    right_cum = list(
        itertools.accumulate((i + 1) ** power for i in range(n_right))
    )
    seen: Set[Edge] = set()
    edges: List[Edge] = []
    while len(edges) < n_edges:
        want = n_edges - len(edges)
        lefts = rng.choices(range(n_left), cum_weights=left_cum, k=want)
        rights = rng.choices(range(n_right), cum_weights=right_cum, k=want)
        for u, r in zip(lefts, rights):
            edge = (u, n_left + r)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


def erdos_renyi_edges(
    rng: random.Random, n_left: int, n_right: int, n_edges: int
) -> List[Edge]:
    """``n_edges`` distinct uniform edges of the ``n_left x n_right`` grid."""
    cells = rng.sample(range(n_left * n_right), n_edges)
    return [(cell // n_right, n_left + cell % n_right) for cell in cells]


def with_deletions(
    rng: random.Random, edges: Sequence[Edge], share: float
) -> List[StreamElement]:
    """Insert every edge in order; delete ``share`` of them later.

    Each deleted edge's deletion lands at a uniform position after its
    insertion, so the result is a valid fully dynamic stream of
    ``len(edges) * (1 + share)`` elements (rounded).
    """
    n = len(edges)
    keyed: List[Tuple[float, int, StreamElement]] = [
        (float(i), 0, insertion(u, v)) for i, (u, v) in enumerate(edges)
    ]
    for i in rng.sample(range(n), round(n * share)):
        u, v = edges[i]
        keyed.append((rng.uniform(i, n), 1, deletion(u, v)))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [element for _, _, element in keyed]


def chunked(
    stream: Sequence[StreamElement], size: int
) -> List[List[StreamElement]]:
    """The stream cut into consecutive chunks of ``size`` (last shorter)."""
    return [list(stream[i : i + size]) for i in range(0, len(stream), size)]


def live_edges_after(stream: Iterable[StreamElement]) -> Set[Edge]:
    """The live edge set once the whole stream has applied."""
    live: Set[Edge] = set()
    for element in stream:
        if element.is_deletion:
            live.discard(element.edge)
        else:
            live.add(element.edge)
    return live


def peak_live_edges(stream: Iterable[StreamElement]) -> int:
    """The largest live edge count at any point of the stream."""
    live = peak = 0
    for element in stream:
        live += -1 if element.is_deletion else 1
        peak = max(peak, live)
    return peak


def deletion_share(stream: Sequence[StreamElement]) -> float:
    """Deletions as a share of all elements."""
    return sum(1 for e in stream if e.is_deletion) / len(stream)


def exact_butterflies(edges: Iterable[Edge]) -> int:
    """Exact butterfly count of a bipartite edge set.

    Counts, for every pair of vertices on one side, the neighbours they
    share on the other side (``c``), and sums ``c * (c - 1) / 2``.  The
    side whose wedge centres have the smaller ``sum(deg^2)`` is
    enumerated.
    """
    by_left: Dict[int, List[int]] = defaultdict(list)
    by_right: Dict[int, List[int]] = defaultdict(list)
    for u, v in edges:
        by_left[u].append(v)
        by_right[v].append(u)

    def wedge_cost(adjacency: Dict[int, List[int]]) -> int:
        return sum(len(n) * len(n) for n in adjacency.values())

    centres = (
        by_right if wedge_cost(by_right) <= wedge_cost(by_left) else by_left
    )
    shared: Counter = Counter()
    for neighbours in centres.values():
        neighbours.sort()
        shared.update(itertools.combinations(neighbours, 2))
    return sum(c * (c - 1) // 2 for c in shared.values())
