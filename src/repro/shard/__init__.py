"""Sharded ingestion: hash-partitioned fan-out over estimator shards.

The :mod:`repro.shard` package scales ingestion beyond one estimator by
partitioning the fully dynamic edge stream across ``K`` independent
shards, each wrapping a registry-built estimator with its own seeded
sampler, and merging the per-shard estimates into a single global
estimate with an explicit cross-shard correction (see
``docs/architecture.md`` for the contract and the math).

Three layers, smallest first:

* :mod:`repro.shard.partition` — vertex partitioners that decide which
  shard owns a stream element (stable hashing, or the load-balance-aware
  greedy assignment mirroring the paper's Fig. 10 concern).
* :mod:`repro.shard.backends` — executor backends that run the shards:
  ``serial`` (in-process loop), ``thread`` (a thread pool), ``process``
  (persistent worker processes; state round-trips through the
  ``state_to_dict`` snapshot protocol).
* :mod:`repro.shard.engine` — :class:`ShardedEstimator`, a regular
  :class:`~repro.core.base.ButterflyEstimator` that owns the
  partitioner and the backend, so every facility of the session layer
  (checkpoint offsets, observers, snapshot/restore) applies unchanged.

The usual entry point is the session facade::

    from repro.api import open_session

    with open_session("abacus:budget=1000,seed=7", shards=4,
                      backend="process") as session:
        session.ingest(stream)
        print(session.estimate)
"""

from repro._lazy import lazy_exports

__all__ = [
    "BACKEND_NAMES",
    "PARTITIONER_NAMES",
    "AutoscaleDecision",
    "Autoscaler",
    "BalancedPartitioner",
    "HashPartitioner",
    "Partitioner",
    "ProcessBackend",
    "ReshardReport",
    "SerialBackend",
    "ShardBackend",
    "ShardedEstimator",
    "ThreadBackend",
    "make_partitioner",
    "partitioner_from_state",
    "shard_seed",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.shard.backends": (
            "BACKEND_NAMES",
            "ProcessBackend",
            "SerialBackend",
            "ShardBackend",
            "ThreadBackend",
        ),
        "repro.shard.autoscale": ("Autoscaler", "AutoscaleDecision"),
        "repro.shard.engine": ("ReshardReport", "ShardedEstimator"),
        "repro.shard.partition": (
            "PARTITIONER_NAMES",
            "BalancedPartitioner",
            "HashPartitioner",
            "Partitioner",
            "make_partitioner",
            "partitioner_from_state",
            "shard_seed",
        ),
    },
)
