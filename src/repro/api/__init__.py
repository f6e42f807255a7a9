"""Public estimator API: registry specs plus the session facade.

This package is the single public entry point for constructing and
driving estimators::

    from repro.api import open_session, parse_spec, build_estimator

    spec = parse_spec("abacus:budget=1000,seed=7")
    estimator = build_estimator(spec)          # bare estimator, or ...
    with open_session(spec) as session:        # ... the full facade
        session.ingest(stream)
        snapshot = session.snapshot()

Importing :mod:`repro.api` registers the built-in estimators
(``abacus``, ``parabacus``, ``ensemble``, ``fleet``, ``cas``,
``sgrapp``, ``abacus_support``, ``exact``) plus the sharded ingestion
engine (``sharded`` — see :mod:`repro.shard` and the ``shards=`` /
``backend=`` options of :func:`open_session`) and the sliding-window
engine (``windowed`` — see :mod:`repro.window` and the ``window=`` /
``window_time=`` options of :func:`open_session`).
"""

from repro._lazy import lazy_exports

# Registration side effects, so that importing this package is enough to
# build any registered spec: the built-in estimators, the sharded engine
# ("sharded") and the sliding-window engine ("windowed").  The engines
# pull the registry from this partially-initialised package, which is
# safe because they only need the registry submodule.  Neither loads a
# shard backend: those are imported when a sharded estimator is built.
from repro.api import builtin as _builtin  # noqa: F401
from repro.shard import engine as _sharded  # noqa: F401
from repro.window import engine as _windowed  # noqa: F401

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_INGEST_BATCH",
    "EstimatorSpec",
    "Param",
    "Registration",
    "SNAPSHOT_FORMAT_VERSION",
    "Session",
    "SessionMetrics",
    "ShardedEstimator",
    "WindowedEstimator",
    "build_estimator",
    "describe_registry",
    "get_registration",
    "open_session",
    "parse_spec",
    "register_estimator",
    "registered_estimators",
    "registration_for_instance",
    "restore_session",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.api.registry": (
            "EstimatorSpec",
            "Param",
            "Registration",
            "build_estimator",
            "describe_registry",
            "get_registration",
            "parse_spec",
            "register_estimator",
            "registered_estimators",
            "registration_for_instance",
        ),
        "repro.api.builtin": ("DEFAULT_BUDGET",),
        "repro.api.session": (
            "DEFAULT_INGEST_BATCH",
            "SNAPSHOT_FORMAT_VERSION",
            "Session",
            "SessionMetrics",
            "open_session",
            "restore_session",
        ),
        "repro.shard.engine": ("ShardedEstimator",),
        "repro.window.engine": ("WindowedEstimator",),
    },
)
