"""Toolkit for Ramsey numbers of the 4-cycle versus book graphs.

Builds the extremal graphs (polarity graphs over finite fields and their
thinned subgraphs), verifies every certificate the bounds rest on, evaluates
the closed-form bounds exactly, and decides small cases by isomorph-free
exhaustive search.

The exports below resolve on first use (PEP 562), so importing the package,
or one of its modules, loads only the modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundReport",
        "BoundsParams",
        "bound_report",
        "bounds_params",
        "g_sequence",
        "parsons_upper",
        "theorem15_admissible",
        "theorem16_lower",
    ),
    "geometry": ("er_graph", "projective_points"),
    "gf": ("Field", "field_new"),
    "graphcore": (
        "Graph",
        "complement",
        "g6_decode",
        "g6_encode",
        "induced_subgraph",
        "is_c4_free",
        "is_friendship",
        "kst_check",
        "non_two_path_pairs",
    ),
    "ramsey": (
        "BookWitness",
        "LowerBoundCertificate",
        "certify_lower_bound",
        "complement_book_number",
        "is_ramsey_witness",
    ),
    "_orderly": ("ExhaustionProof", "enumerate_c4_free", "exhaust_ramsey"),
    "_constructions": ("DeletionRun", "greedy_min_degree_subgraph", "random_delete_construction"),
    "_anneal": ("probe_script_Gq",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
