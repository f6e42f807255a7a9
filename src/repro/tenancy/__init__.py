"""Multi-tenant estimator catalogs over one durable root.

The tenancy layer scales the serving story from "one process, one
estimator" to a catalog of named tenants — each a first-class durable
session with its own spec, created/dropped/listed atomically through
a fsynced ``catalog.json`` — plus shared-stream fan-outs that drive
many tenants (and sketch/triangle dashboard taps) from a single
ingest pass over one shared write-ahead log:

* :mod:`repro.tenancy.catalog` — :class:`TenantCatalog`: the atomic
  tenant map, per-tenant durable directories, stream bindings, and
  crash-debris sweeping.
* :mod:`repro.tenancy.fanout` — :class:`SharedStreamFanout`: one
  shared log, N member estimators, single-pass ingest, per-tenant
  bit-identical checkpoint/recovery.
* :mod:`repro.tenancy.taps` — volatile dashboard observers
  (HyperLogLog cardinality, Count-Min heavy hitters, DGIM deletion
  rate, ThinkD/TRIEST-FD triangles) riding the same pass.

The serving layer (:mod:`repro.serve`) hosts a catalog behind
tenant-scoped wire operations with fair-share write scheduling; the
CLI drives it via ``repro tenant create|drop|list`` and ``repro serve
--tenant-root``.  The full contract lives in ``docs/multitenancy.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CATALOG_FILE",
    "CATALOG_FORMAT",
    "CardinalityTap",
    "DEFAULT_TENANT_QUOTA",
    "DeletionRateTap",
    "FANOUT_FORMAT",
    "HeavyHitterTap",
    "SharedStreamFanout",
    "StreamTap",
    "TenantCatalog",
    "TriangleTap",
    "default_taps",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.tenancy.catalog": (
            "CATALOG_FILE",
            "CATALOG_FORMAT",
            "DEFAULT_TENANT_QUOTA",
            "TenantCatalog",
        ),
        "repro.tenancy.fanout": ("FANOUT_FORMAT", "SharedStreamFanout"),
        "repro.tenancy.taps": (
            "CardinalityTap",
            "DeletionRateTap",
            "HeavyHitterTap",
            "StreamTap",
            "TriangleTap",
            "default_taps",
        ),
    },
)
