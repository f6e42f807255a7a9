"""Sketching substrate.

The CAS baseline (Li et al., TKDE 2022) combines edge sampling with an
AMS sketch; this subpackage provides that sketch plus the other compact
summaries a streaming deployment of the estimators wants:

* :class:`~repro.sketch.ams.AmsSketch` — tug-of-war F2/point sketch
  (the CAS ingredient).
* :class:`~repro.sketch.countmin.CountMinSketch` — frequency upper
  bounds; backs :class:`~repro.sketch.countmin.HeavyHitterTracker` for
  high-degree-vertex diagnostics.
* :class:`~repro.sketch.bloom.BloomFilter` /
  :class:`~repro.sketch.bloom.CountingBloomFilter` — membership guards
  for sanitising streams that may violate the no-duplicate contract.
* :class:`~repro.sketch.hyperloglog.HyperLogLog` — distinct counting
  for one-pass dataset characterisation (|L|, |R|, |E|).
* :class:`~repro.sketch.dgim.DgimCounter` — DGIM sliding-window event
  counting; backs :class:`~repro.sketch.dgim.DeletionRateMonitor`
  (live deletion-ratio estimates).
"""

from repro._lazy import lazy_exports

__all__ = [
    "AmsSketch",
    "BloomFilter",
    "CountingBloomFilter",
    "CountMinSketch",
    "HeavyHitterTracker",
    "DgimCounter",
    "DeletionRateMonitor",
    "FourWiseHash",
    "HyperLogLog",
    "StreamCardinalityTracker",
    "as_int_key",
    "mix64",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sketch.ams": ("AmsSketch",),
        "repro.sketch.bloom": ("BloomFilter", "CountingBloomFilter"),
        "repro.sketch.countmin": ("CountMinSketch", "HeavyHitterTracker"),
        "repro.sketch.dgim": ("DeletionRateMonitor", "DgimCounter"),
        "repro.sketch.hashing": ("FourWiseHash", "as_int_key", "mix64"),
        "repro.sketch.hyperloglog": (
            "HyperLogLog",
            "StreamCardinalityTracker",
        ),
    },
)
