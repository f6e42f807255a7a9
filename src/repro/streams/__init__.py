"""Fully dynamic bipartite graph stream model.

Provides the stream container, synthesis of fully dynamic streams from
insertion-only edge lists (the paper's deletion-injection protocol),
stream file I/O, replay/validation utilities, and mini-batching for
PARABACUS.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EdgeStream",
    "make_fully_dynamic",
    "stream_from_edges",
    "validate_stream",
    "load_konect",
    "read_stream",
    "write_stream",
    "iter_minibatches",
    "sliding_window_stream",
    "windowed_counts",
    "StreamProfile",
    "StreamProfiler",
    "SanitizeReport",
    "sanitized",
    "suspicious_elements",
    "relabeled",
    "merged",
    "inverse",
    "deletion_tail",
    "butterfly_bomb",
    "churn_stream",
    "deletion_storm",
    "hub_stream",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.streams.stream": ("EdgeStream",),
        "repro.streams.dynamic": (
            "make_fully_dynamic",
            "validate_stream",
            "stream_from_edges",
        ),
        "repro.streams.io": ("load_konect", "read_stream", "write_stream"),
        "repro.streams.minibatch": ("iter_minibatches",),
        "repro.streams.window": ("sliding_window_stream", "windowed_counts"),
        "repro.streams.profile": ("StreamProfile", "StreamProfiler"),
        "repro.streams.transform": (
            "SanitizeReport",
            "deletion_tail",
            "inverse",
            "merged",
            "relabeled",
            "sanitized",
            "suspicious_elements",
        ),
        "repro.streams.adversarial": (
            "butterfly_bomb",
            "churn_stream",
            "deletion_storm",
            "hub_stream",
        ),
    },
)
