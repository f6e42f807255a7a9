"""Sliding-window butterfly counting over fully dynamic estimators.

The paper's estimators handle arbitrary interleaved insertions and
deletions; a sliding window — "butterflies among the last ``N`` edges /
last ``T`` seconds" — is just a deterministic deletion policy on top.
This package materialises that reduction as a composable engine:

* :class:`~repro.window.engine.WindowedEstimator` — registry name
  ``"windowed"`` — wraps any registered estimator and synthesizes the
  expiry deletions (count and/or time windows, batched fast path,
  snapshot/restore of the pending-expiry buffer);
* :class:`~repro.window.expiry.ExpiryRing` — the O(1)-amortized
  pending-expiry buffer;
* :func:`~repro.window.reference.expand_window_stream` — the executable
  specification: the explicit insert+delete stream a windowed input is
  equivalent to, which the engine is tested bit-for-bit against.

Session-level access: ``open_session(spec, window=N)`` /
``open_session(spec, window_time=T)``; CLI: ``repro stream --window N
--window-time T``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ExpiryRing",
    "WindowedEstimator",
    "expand_window_stream",
    "validate_window_params",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.window.engine": ("WindowedEstimator",),
        "repro.window.expiry": ("ExpiryRing",),
        "repro.window.reference": (
            "expand_window_stream",
            "validate_window_params",
        ),
    },
)
