"""Applications built on streaming butterfly counts.

The paper motivates fully dynamic butterfly counting through anomaly
detection (butterfly bursts above a threshold, Section I) and cohesion
metrics such as the butterfly clustering coefficient.  These modules
implement both on top of any :class:`~repro.core.base.ButterflyEstimator`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Alert",
    "ButterflyBurstDetector",
    "StreamingClusteringCoefficient",
    "DetectionQuality",
    "planted_anomaly_stream",
    "evaluate_detector",
    "compare_estimators",
    "SampleSimilarity",
    "common_neighbors",
    "jaccard_similarity",
    "cosine_similarity",
    "butterfly_affinity",
    "top_k_similar",
    "similarity_matrix",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.apps.anomaly": ("Alert", "ButterflyBurstDetector"),
        "repro.apps.anomaly_quality": (
            "DetectionQuality",
            "compare_estimators",
            "evaluate_detector",
            "planted_anomaly_stream",
        ),
        "repro.apps.clustering": ("StreamingClusteringCoefficient",),
        "repro.apps.similarity": (
            "SampleSimilarity",
            "butterfly_affinity",
            "common_neighbors",
            "cosine_similarity",
            "jaccard_similarity",
            "similarity_matrix",
            "top_k_similar",
        ),
    },
)
