"""Evaluation metrics: accuracy, throughput, balance, replication
lag, and multi-tenant fair-share summaries."""

from repro._lazy import lazy_exports

__all__ = [
    "FairShareSummary",
    "TrajectoryPoint",
    "TrajectoryTracker",
    "track_against_oracle",
    "relative_error",
    "mean",
    "percentile",
    "summarize_errors",
    "Stopwatch",
    "fair_share",
    "lag_summary",
    "throughput_eps",
    "workload_balance",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.accuracy": (
            "mean",
            "percentile",
            "relative_error",
            "summarize_errors",
        ),
        "repro.metrics.replication": ("lag_summary",),
        "repro.metrics.tenancy": ("FairShareSummary", "fair_share"),
        "repro.metrics.throughput": ("Stopwatch", "throughput_eps"),
        "repro.metrics.timeseries": (
            "TrajectoryPoint",
            "TrajectoryTracker",
            "track_against_oracle",
        ),
        "repro.metrics.workload": ("workload_balance",),
    },
)
