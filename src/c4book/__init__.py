"""Toolkit for Ramsey numbers of the 4-cycle versus book graphs.

Builds the extremal graphs (polarity graphs over finite fields and their
thinned subgraphs), verifies every certificate the bounds rest on, evaluates
the closed-form bounds exactly, and decides small cases by isomorph-free
exhaustive search.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    BoundsParams,
    bound_report,
    bounds_params,
    g_sequence,
    parsons_upper,
    theorem15_admissible,
    theorem16_lower,
)
from .geometry import absolute_points, er_graph, projective_points
from .gf import Field, field_new
from .graphcore import (
    Graph,
    common_neighbors,
    complement,
    degree_profile,
    g6_decode,
    g6_encode,
    induced_subgraph,
    is_c4_free,
    is_friendship,
    kst_check,
    non_two_path_pairs,
)
from .ramsey import (
    BookWitness,
    LowerBoundCertificate,
    certify_lower_bound,
    complement_book_number,
    find_admissible_sets,
    good_pairs,
    is_ramsey_witness,
)
from .search import (
    DeletionRun,
    ExhaustionProof,
    enumerate_c4_free,
    enumerate_graphs,
    exhaust_ramsey,
    greedy_min_degree_subgraph,
    probe_script_Gq,
    random_delete_construction,
)

__all__ = [
    "BookWitness",
    "BoundReport",
    "BoundsParams",
    "DeletionRun",
    "ExhaustionProof",
    "Field",
    "Graph",
    "LowerBoundCertificate",
    "absolute_points",
    "bound_report",
    "bounds_params",
    "certify_lower_bound",
    "common_neighbors",
    "complement",
    "complement_book_number",
    "degree_profile",
    "enumerate_c4_free",
    "enumerate_graphs",
    "er_graph",
    "exhaust_ramsey",
    "field_new",
    "find_admissible_sets",
    "g6_decode",
    "g6_encode",
    "g_sequence",
    "good_pairs",
    "greedy_min_degree_subgraph",
    "induced_subgraph",
    "is_c4_free",
    "is_friendship",
    "is_ramsey_witness",
    "kst_check",
    "non_two_path_pairs",
    "parsons_upper",
    "probe_script_Gq",
    "projective_points",
    "random_delete_construction",
    "theorem15_admissible",
    "theorem16_lower",
]
