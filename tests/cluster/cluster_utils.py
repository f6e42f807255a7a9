"""Shared helpers for the replicated-cluster suite."""

from repro.types import insertion


#: Spec used by most cluster tests: small, seeded, durable-friendly.
SPEC = "abacus:budget=48,seed=11"


def unique_edges(count, start=0, left=7):
    """``count`` distinct insertions (ABACUS refuses duplicates)."""
    return [
        insertion(f"u{(start + i) % left}", f"v{start + i}")
        for i in range(count)
    ]

