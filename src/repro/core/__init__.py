"""Core estimators: ABACUS, PARABACUS, and the exact streaming oracle."""

from repro._lazy import lazy_exports

__all__ = [
    "Abacus",
    "AbacusLocal",
    "AbacusSupport",
    "EnsembleEstimator",
    "LazyAbacus",
    "Parabacus",
    "ButterflyEstimator",
    "StatefulEstimator",
    "ExactStreamingCounter",
    "abacus_to_dict",
    "abacus_from_dict",
    "save_checkpoint",
    "load_checkpoint",
    "discovery_probability",
    "subset_inclusion_probability",
    "extrapolation_factor",
    "variance_closed_form",
    "variance_upper_bound",
    "chebyshev_bound",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.abacus": ("Abacus",),
        "repro.core.base": ("ButterflyEstimator", "StatefulEstimator"),
        "repro.core.checkpoint": (
            "abacus_from_dict",
            "abacus_to_dict",
            "load_checkpoint",
            "save_checkpoint",
        ),
        "repro.core.ensemble": ("EnsembleEstimator",),
        "repro.core.exact": ("ExactStreamingCounter",),
        "repro.core.lazy": ("LazyAbacus",),
        "repro.core.local": ("AbacusLocal",),
        "repro.core.parabacus": ("Parabacus",),
        "repro.core.support": ("AbacusSupport",),
        "repro.core.probabilities": (
            "chebyshev_bound",
            "discovery_probability",
            "extrapolation_factor",
            "subset_inclusion_probability",
            "variance_closed_form",
            "variance_upper_bound",
        ),
    },
)
