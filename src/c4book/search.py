"""The search routes' public names; a call compiles only the module of its route.

* ``_orderly``: isomorph-free enumeration of C4-free graphs and
  ``exhaust_ramsey``, which decides small Ramsey values exactly;
* ``_constructions``: the minimum-degree deletion search and the random
  thinning of ER_p;
* ``_anneal``: the simulated-annealing witness probe.

The four entry points are functions of this module, with their route's
signature.  ``ExhaustionProof``, ``DeletionRun``, ``enumerate_c4_free`` and
``count_c4_free_classes`` resolve on first use (PEP 562).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ._constructions import DeletionRun
    from .graphcore import Graph
    from .ramsey import LowerBoundCertificate

_HOME = {
    "ExhaustionProof": "_orderly",
    "enumerate_c4_free": "_orderly",
    "count_c4_free_classes": "_orderly",
    "DeletionRun": "_constructions",
}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{module}"), name)


def exhaust_ramsey(order: int, k: int, n: int, jobs: int = 1):
    """Witness graph or ExhaustionProof for r(C4, B_n^(k)) vs order; see ``_orderly``."""
    from . import _orderly

    return _orderly.exhaust_ramsey(order, k, n, jobs)


def greedy_min_degree_subgraph(g: Graph, target_order: int, min_deg: int, budget: int = 10**7):
    """Vertex set of g of that order and minimum degree; see ``_constructions``."""
    from . import _constructions

    return _constructions.greedy_min_degree_subgraph(g, target_order, min_deg, budget)


def random_delete_construction(
    n: int,
    k: int,
    seed: int = 0,
    m: int | None = None,
    max_attempts: int = 1000,
) -> tuple[Graph, DeletionRun, LowerBoundCertificate]:
    """Thin ER_p at random to a degree floor and certify it; see ``_constructions``."""
    from . import _constructions

    return _constructions.random_delete_construction(n, k, seed, m, max_attempts)


def probe_script_Gq(q: int, budget: int = 10**6, seed: int = 0):
    """Annealing hunt for a (C4, B_{q^2-q+1}^(2))-Ramsey graph; see ``_anneal``."""
    from . import _anneal

    return _anneal.probe_script_Gq(q, budget, seed)
