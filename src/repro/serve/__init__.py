"""Concurrent query serving for estimator sessions.

The serving layer puts one :class:`~repro.api.session.Session` behind
a TCP server speaking line-delimited JSON, with a concurrency model
that keeps queries consistent *and* off the ingest hot path:

* :mod:`repro.serve.protocol` — the wire grammar (requests,
  responses, the shared stream-element record encoding).
* :mod:`repro.serve.server` — :class:`EstimatorServer` (asyncio,
  stdlib only): a single writer thread applies mutations in request
  order while reads answer from immutable, atomically published
  :class:`ServingView` objects — no locks on the query path, no torn
  reads, ever.  :func:`serve_in_background` runs one on a daemon
  thread for embedding in tests and benchmarks.
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  stdlib client helper.

CLI: ``repro serve --estimator SPEC [--durable-dir DIR]``.  The full
protocol and consistency contract live in ``docs/serving.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BackgroundServer",
    "EstimatorServer",
    "MAX_LINE",
    "PROTOCOL_VERSION",
    "SUPPORTED_CODECS",
    "ServeClient",
    "ServingView",
    "serve_in_background",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.client": ("ServeClient",),
        "repro.serve.protocol": (
            "MAX_LINE",
            "PROTOCOL_VERSION",
            "SUPPORTED_CODECS",
        ),
        "repro.serve.server": (
            "BackgroundServer",
            "EstimatorServer",
            "ServingView",
            "serve_in_background",
        ),
    },
)
