"""Book numbers in complements, Ramsey witnesses, and lower-bound certificates.

The central fact: a C4-free graph G on N vertices with minimum degree d has,
for every independent k-set, at most N - k(d+1) + C(k,2) common non-neighbors
(pairwise common neighborhoods have size <= 1, so inclusion-exclusion bounds
the union of the k neighborhoods below by k*d - C(k,2)).  That makes the
complement book-free at n* = N - k(d+1) + C(k,2) + 1 pages and proves
r(C4, B_{n*}^(k)) >= N + 1.

The same inclusion-exclusion, applied to the spine vertices not yet chosen,
is the pruning bound of the exact book-number search: since it never
undercuts a spine, the search returns what an unpruned one would.  At the
root of a C4-free graph the bound is n* - 1, so a certificate that is tight
(an odd-q polarity graph, say) is confirmed as soon as the first spine with
n* - 1 pages is found.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import DomainError, InternalInconsistency, NotC4Free
from .graphcore import Graph, _bits, complement, is_c4_free


class BookWitness(NamedTuple):
    """A spine (independent in G) together with its common non-neighbors."""

    spine: tuple[int, ...]
    pages: tuple[int, ...]
    page_count: int


class LowerBoundCertificate(NamedTuple):
    graph_hash: str                # sha256 of canonical graph6
    order: int
    spine: int                     # k
    min_degree: int
    c4_free: bool
    guaranteed_book_free_n: int    # max(n*, 1)
    implied_bound: str             # "r(C4, B_{n*}^(k)) >= N+1"
    construction_note: str = ""


def complement_book_number(
    g: Graph, k: int, stop_at: int | None = None, spines: int = -1, c4_free: bool = False
):
    """Largest n with B_n^(k) embedded in the complement of g, spine in spines.

    Equals the maximum, over k-sets independent in g and inside the vertex
    mask spines (the default, -1, holds every vertex), of the number of
    common non-neighbors; pages range over every vertex.  Spines are enumerated as
    cliques of the complement via recursive bitset intersection, pruned by
    the counting-lemma bound; the returned witness has the lexicographically
    smallest maximizing spine.  c4_free=True vouches that g is C4-free, so
    ``is_c4_free`` is not run for the bound below.

    The bound: let lam bound the common neighbors of any two vertices (1 when
    g is C4-free, n always) and delta be the minimum degree.  At depth j, mask
    holds the common non-neighbors of the j chosen vertices.  Each of the
    r = k - j vertices still to choose lies in mask, so its >= delta neighbors
    avoid the spine and at most j*lam of them leave mask (at most lam per
    chosen vertex): it removes >= a = max(0, delta - j*lam) vertices of mask.
    Any two of them share <= lam neighbors, so by inclusion-exclusion they
    remove >= r*a - C(r, 2)*lam besides themselves, and no completion has
    more than |mask| - r - max(0, r*a - C(r, 2)*lam) pages.  At the root of
    a C4-free graph that is n* - 1.  The bound never undercuts a completion,
    so the same spines set records as with no pruning: the count, the
    witness and the stop_at result do not depend on it.

    With stop_at set, returns at the first record that reaches stop_at pages.
    The count is then a lower bound on the true maximum, but the witness is
    always consistent (its spine is independent, its pages are exactly the
    spine's common non-neighbors and page_count equals the count), and
    count >= stop_at holds exactly when the true maximum reaches stop_at.

    Restricting the spines finds every new book of a one-vertex extension.
    Let g - v have no B_n^(k) in its complement.  A B_n^(k) in the
    complement of g then uses v, as a spine vertex or as a page.  A spine
    is independent in g, so a spine through v avoids N(v); a page is a
    common non-neighbor of the spine, so a spine with page v avoids N(v)
    too.  Either way the spine lies in {v} | non-nbrs(v), the mask ~rows[v],
    and the search with spines = ~rows[v] reaches n pages exactly when the
    full search does.  ``_extension_book_free`` makes that check.
    """
    n = g.n
    if not 1 <= k <= n:
        raise DomainError(f"k must be in [1, {n}], got {k}")
    full = (1 << n) - 1
    comp = complement(g).rows

    target = n + 1 if stop_at is None else stop_at  # no spine has n + 1 pages
    best_count = -1
    best_spine: tuple[int, ...] = ()
    best_pages = 0
    last = k - 1
    lam = 1 if c4_free or is_c4_free(g)[0] else n
    delta = min(g.degrees())
    drop = []  # |mask| - drop[depth] bounds the pages of any completion
    for depth in range(k):
        r = k - depth
        drop.append(r + max(0, r * max(0, delta - depth * lam) - comb(r, 2) * lam))

    def extend(spine, mask, start, depth):
        # mask: common non-neighbors of spine; candidates are its bits >= start.
        # Returns True once a record reaches target.
        nonlocal best_count, best_spine, best_pages
        cap = mask.bit_count() - drop[depth]  # most pages any completion can have
        if cap <= best_count:
            return False
        m = (mask & spines) >> start << start
        if depth == last:
            # count the last spine vertex in place
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                pages = mask & comp[v]
                count = pages.bit_count()
                if count > best_count:
                    best_count, best_spine, best_pages = count, (*spine, v), pages
                    if count >= target:
                        return True
                    if cap <= best_count:
                        return False
            return False
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if extend((*spine, v), mask & comp[v], v + 1, depth + 1):
                return True
            if cap <= best_count:
                return False
        return False

    extend((), full, 0, 0)
    if best_count < 0:
        return 0, BookWitness((), (), 0)
    return best_count, BookWitness(best_spine, tuple(_bits(best_pages)), best_count)


def is_ramsey_witness(g: Graph, k: int, n: int) -> bool:
    """True iff g is C4-free and its complement has no B_n^(k).

    A True on N vertices proves r(C4, B_n^(k)) >= N + 1.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return is_c4_free(g)[0] and _book_free(g, k, n)


def _book_free(g: Graph, k: int, n: int, spines: int = -1) -> bool:
    """True iff the complement of the C4-free g has no B_n^(k) with spine in
    spines; no spine fits when k > g.n.  Every caller holds a C4-free graph,
    so no C4 test is run."""
    return k > g.n or complement_book_number(g, k, n, spines, c4_free=True)[0] < n


def _extension_book_free(g: Graph, k: int, n: int) -> bool:
    """``_book_free`` for a g whose last vertex v extends a g - v with no
    B_n^(k) in its complement: only spines in {v} | non-nbrs(v) are tried
    (see ``complement_book_number``)."""
    return _book_free(g, k, n, ~g.rows[-1])


def certify_lower_bound(g: Graph, k: int, note: str = "") -> LowerBoundCertificate:
    """Machine-checkable witness that r(C4, B_{n*}^(k)) >= N + 1.

    Refuses graphs with a C4.  n* is computed from the true minimum degree:
    n* = N - k(delta+1) + C(k,2) + 1, and max(n*, 1) is certified.  An
    independent k-set has at most n* - 1 common non-neighbors, so when
    n* <= 0 there is none: the complement has no K_k, hence no B_1^(k).
    For N <= 80 the certificate is cross-validated by the exact book
    search: the complement must hold no B_{n*}^(k).
    """
    from .canon import graph_digest  # imported here, so that checking a graph loads no canon

    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    ok, witness = is_c4_free(g)
    if not ok:
        raise NotC4Free(f"graph contains the 4-cycle {witness}")
    delta = min(g.degrees()) if g.n else 0
    n_star = max(g.n - k * (delta + 1) + comb(k, 2) + 1, 1)
    cert = LowerBoundCertificate(
        graph_hash=graph_digest(g),
        order=g.n,
        spine=k,
        min_degree=delta,
        c4_free=True,
        guaranteed_book_free_n=n_star,
        implied_bound=f"r(C4, B_{n_star}^({k})) >= {g.n + 1}",
        construction_note=note,
    )
    if g.n <= 80 and not _book_free(g, k, n_star):
        raise InternalInconsistency(f"certificate unsound: the complement holds B_{n_star}^({k})")
    return cert
