"""repro — ABACUS / PARABACUS butterfly counting reproduction.

A from-scratch Python implementation of "Counting Butterflies in Fully
Dynamic Bipartite Graph Streams" (ICDE 2024): approximate butterfly
counting over bipartite edge streams with both insertions and deletions,
plus every substrate the paper depends on (bipartite graphs, exact
counting, Random Pairing sampling, AMS sketches, the FLEET and CAS
insert-only baselines, applications, and the full experiment harness).

The single public entry point is the session API: describe an estimator
with a spec, open a session, ingest, observe, snapshot::

    from repro import open_session, insertion, deletion

    with open_session("abacus:budget=1000,seed=42") as session:
        session.ingest(insertion("alice", "matrix"))
        session.ingest(deletion("alice", "matrix"))
        print(session.estimate, session.metrics.throughput_eps)

Specs name any registered estimator (``abacus``, ``parabacus``,
``ensemble``, ``fleet``, ``cas``, ``sgrapp``, ``exact``) with typed
parameters — ``parse_spec("parabacus:budget=2000,batch_size=500")`` —
and :func:`build_estimator` returns the bare estimator when the facade
is not wanted.  Sessions of snapshot-capable estimators round-trip
through ``session.snapshot()`` / :func:`restore_session` with
bit-identical continuation.

The estimator classes remain importable for direct construction::

    from repro import Abacus

    counter = Abacus(budget=1000, seed=42)
    counter.process(insertion("alice", "matrix"))
"""

from repro._lazy import lazy_exports

__version__ = "1.7.0"

__all__ = [
    "Abacus",
    "DurableStore",
    "ServeClient",
    "SharedStreamFanout",
    "SnapshotStore",
    "TenantCatalog",
    "WalWriter",
    "serve_in_background",
    "AbacusSupport",
    "EnsembleEstimator",
    "Parabacus",
    "Fleet",
    "CoAffiliationSampling",
    "ExactStreamingCounter",
    "ButterflyEstimator",
    "StatefulEstimator",
    "EstimatorSpec",
    "Session",
    "SessionMetrics",
    "ShardedEstimator",
    "WindowedEstimator",
    "build_estimator",
    "open_session",
    "parse_spec",
    "register_estimator",
    "registered_estimators",
    "restore_session",
    "BipartiteGraph",
    "count_butterflies",
    "EdgeStream",
    "make_fully_dynamic",
    "stream_from_edges",
    "StreamElement",
    "TimedEdge",
    "Op",
    "insertion",
    "deletion",
    "timed_insertion",
    "timed_deletion",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.api": (
            "EstimatorSpec",
            "Session",
            "SessionMetrics",
            "ShardedEstimator",
            "WindowedEstimator",
            "build_estimator",
            "open_session",
            "parse_spec",
            "register_estimator",
            "registered_estimators",
            "restore_session",
        ),
        "repro.baselines": ("CoAffiliationSampling", "Fleet"),
        "repro.serve": ("ServeClient", "serve_in_background"),
        "repro.store": ("DurableStore", "SnapshotStore", "WalWriter"),
        "repro.tenancy": ("SharedStreamFanout", "TenantCatalog"),
        "repro.core": (
            "Abacus",
            "AbacusSupport",
            "ButterflyEstimator",
            "EnsembleEstimator",
            "ExactStreamingCounter",
            "Parabacus",
            "StatefulEstimator",
        ),
        "repro.graph": ("BipartiteGraph", "count_butterflies"),
        "repro.streams": (
            "EdgeStream",
            "make_fully_dynamic",
            "stream_from_edges",
        ),
        "repro.types": (
            "Op",
            "StreamElement",
            "TimedEdge",
            "deletion",
            "insertion",
            "timed_deletion",
            "timed_insertion",
        ),
    },
)
