"""Fully dynamic triangle counting (the technique ABACUS generalises).

Section VII-A of the paper traces ABACUS's lineage to fully dynamic
*triangle* counting on unipartite streams: TRIEST-FD maintains a uniform
sample under deletions, and ThinkD additionally "leverages the
non-sampled edges to update its triangle estimates before discarding
them" — exactly the count-every-edge design ABACUS ports to butterflies.

This subpackage implements that lineage on the same Random Pairing
machinery: an undirected-graph substrate, exact triangle counting, and a
ThinkD-style estimator.  Besides being useful in its own right, it
cross-validates the shared sampling code on a second motif whose
discovery needs *two* sampled edges instead of three.
"""

from repro._lazy import lazy_exports

__all__ = [
    "UndirectedGraph",
    "count_triangles",
    "count_triangles_brute_force",
    "triangles_containing_edge",
    "ThinkD",
    "TriestFD",
    "ExactTriangleCounter",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.triangles.exact": (
            "count_triangles",
            "count_triangles_brute_force",
            "triangles_containing_edge",
        ),
        "repro.triangles.graph": ("UndirectedGraph",),
        "repro.triangles.thinkd": ("ExactTriangleCounter", "ThinkD"),
        "repro.triangles.triest": ("TriestFD",),
    },
)
