"""The search routes' call entry points; a call compiles only the module of its route.

* ``_orderly``: isomorph-free enumeration of C4-free graphs and
  ``exhaust_ramsey``, which decides small Ramsey values exactly;
* ``_constructions``: the minimum-degree deletion search and the random
  thinning of ER_p;
* ``_anneal``: the simulated-annealing witness probe.

Each function here has its route's signature, and the command line calls
it, so a traced run (``perfbench/trace_op.py``) times every search as a
``search.*`` span.  The routes' other names, ``ExhaustionProof`` and
``DeletionRun`` among them, live in the route modules and resolve from the
package (``c4book._EXPORTS``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ._constructions import DeletionRun
    from .graphcore import Graph
    from .ramsey import LowerBoundCertificate


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
