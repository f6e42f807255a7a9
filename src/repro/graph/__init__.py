"""Bipartite graph substrate.

This subpackage provides the in-memory dynamic bipartite graph, exact
butterfly counting (global, per-edge, and per-vertex), wedge utilities,
a k-bitruss decomposition built on butterfly support, one-mode
projections, and synthetic graph generators.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BipartiteGraph",
    "count_butterflies",
    "count_butterflies_brute_force",
    "butterflies_containing_edge",
    "butterfly_counts_per_vertex",
    "count_wedges",
    "wedge_counts_per_pair",
    "bitruss_decomposition",
    "butterfly_support",
    "k_bitruss",
    "ab_core",
    "alpha_beta_core_numbers",
    "butterfly_core_prefilter",
    "tip_decomposition",
    "k_tip",
    "max_tip_number",
    "butterfly_counts_one_side",
    "project",
    "bipartite_erdos_renyi",
    "bipartite_chung_lu",
    "bipartite_configuration_model",
    "planted_bicliques",
    "power_law_degree_sequence",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.graph.bipartite": ("BipartiteGraph",),
        "repro.graph.butterflies": (
            "butterflies_containing_edge",
            "butterfly_counts_per_vertex",
            "count_butterflies",
            "count_butterflies_brute_force",
        ),
        "repro.graph.wedges": ("count_wedges", "wedge_counts_per_pair"),
        "repro.graph.bitruss": (
            "bitruss_decomposition",
            "butterfly_support",
            "k_bitruss",
        ),
        "repro.graph.core_decomposition": (
            "ab_core",
            "alpha_beta_core_numbers",
            "butterfly_core_prefilter",
        ),
        "repro.graph.tip_decomposition": (
            "butterfly_counts_one_side",
            "k_tip",
            "max_tip_number",
            "tip_decomposition",
        ),
        "repro.graph.projection": ("project",),
        "repro.graph.generators": (
            "bipartite_chung_lu",
            "bipartite_configuration_model",
            "bipartite_erdos_renyi",
            "planted_bicliques",
            "power_law_degree_sequence",
        ),
    },
)
