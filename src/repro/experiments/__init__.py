"""Experiment harness reproducing the paper's evaluation (Section VI)."""

from repro._lazy import lazy_exports

__all__ = [
    "bar_chart",
    "histogram",
    "line_chart",
    "DATASETS",
    "DatasetSpec",
    "get_dataset",
    "list_datasets",
    "ExperimentContext",
    "ground_truth_final_count",
    "make_estimator",
    "render_table",
    "render_series",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.datasets": (
            "DATASETS",
            "DatasetSpec",
            "get_dataset",
            "list_datasets",
        ),
        "repro.experiments.runner": (
            "ExperimentContext",
            "ground_truth_final_count",
            "make_estimator",
        ),
        "repro.experiments.plotting": ("bar_chart", "histogram", "line_chart"),
        "repro.experiments.report": ("render_series", "render_table"),
    },
)
