"""Extremal-graph construction and isomorph-free exhaustive search.

Three construction routes live here:

* backtracking deletion search for induced subgraphs of a polarity graph
  with prescribed order and minimum degree,
* the randomized thinning of ER_p that realizes the general lower bound,
* canonical-augmentation enumeration of C4-free graphs (one representative
  per isomorphism class) used to decide small Ramsey values exactly, plus a
  simulated-annealing probe for specific witness graphs.

The augmentation rule: a child built by appending a vertex is kept iff
deleting the appended vertex gives the same canonical form as deleting the
child's canonically-last vertex w*.  Together with per-parent dedup by
canonical form, every isomorphism class is produced exactly once, and any
hereditary filter or monotone pruner keeps that property.

Orderly generation (McKay 1998) labels only what the rule needs; every
shortcut below decides as labelling everything would, so the children,
their order and their keys are those of ``tests/oracles.children_reference``.

* Orbit pruning: an extension mask in the orbit of an earlier one under the
  automorphisms that the parent's labelling found gives an isomorphic
  child, so it is skipped unlabelled.  Any subgroup of the automorphism
  group is sound for this.
* Whether a child is accepted depends only on its isomorphism class, so a
  child whose class is surely rejected is skipped before it is labelled.
  Refinement splits by degree first and keeps cells in order, so w* has the
  largest degree, top.  A new vertex of degree d < top is rejected: deleting
  w* leaves e(child) - top edges, the parent has e(child) - d.  So masks
  below the parent's largest degree (<= top) are not listed.
* The child's root equitable partition is computed once and handed to the
  labelling.  w* lies in its last cell (see ``canon``), and every vertex u
  of an equitable cell leaves one degree sequence in child - u: u's degree
  and its number of neighbors in each cell, whose vertices share a degree,
  are the same across the cell.  So when the new vertex is outside the last
  cell, deleting the cell's first vertex shows what deleting w* leaves, and
  a degree sequence other than the parent's rejects the child unlabelled.
  When it is inside, deleting w* leaves the parent's degree sequence.
* The parent check after labelling: accept at once when a found
  automorphism of the child joins w* and the new vertex in one orbit; only
  otherwise label the child with w* deleted.
* A pruner runs before the root partition.  It must be monotone, and
  isomorphism invariant on the children it sees.  ``exhaust_ramsey``'s
  rejects a child whose complement holds the book: a one-vertex extension
  keeps every book of the complement, so a rejected graph has only rejected
  completions.  Every child it sees extends a parent that it passed, or the
  one-vertex seed, whose complement has no book.  So a book in the child's
  complement uses the new vertex v.  If v is a spine vertex, the others are
  not adjacent to it, as a spine is independent in the child; if v is a
  page, no spine vertex is adjacent to it, as pages are common
  non-neighbors of the spine.  Either way the spine lies in
  {v} | non-nbrs(v).  The pruner searches only those spines
  (``ramsey._extension_book_free``); the visitor, which decides the
  witness, searches every spine.  Neither runs a C4 test, as every child is
  C4-free by construction.

The annealing probe moves only between C4-free graphs, where two vertices
share at most one neighbor.  So |N(x) | N(w)| = d(x) + d(w) - [x and w share
a neighbor], and the probe tests and scores each edge toggle from masks it
keeps up to date (degrees, degree classes and two-step masks, see
``probe_script_Gq``) instead of looping over vertices.
"""

from __future__ import annotations

import math
import os
import random
from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    AsymptoticRegimeNotReached,
    AttemptsExhausted,
    BudgetExhausted,
    CapExceeded,
    DomainError,
    InternalInconsistency,
)
from .graphcore import Graph, _bits, _two_step

if TYPE_CHECKING:
    from fractions import Fraction

    from .canon import CanonicalForm
    from .ramsey import LowerBoundCertificate

# bounds, geometry, gf, fractions and hashlib are imported where the
# constructions use them, so an exhaustive search loads none of them, and
# canon and ramsey where the searches use them, so the probe loads neither

GENERATOR_VERSION = "orderly-v1"
ENUMERATION_ORDER_CAP = 13
# probe_script_Gq shuffles all C(n, 2) vertex pairs, n = q^2 + q + 3: about 50 MiB at q = 32
GQ_Q_CAP = 32


# -- induced subgraphs with a minimum-degree floor --


def greedy_min_degree_subgraph(g: Graph, target_order: int, min_deg: int, budget: int = 10**7):
    """Vertex set S with |S| = target_order and min degree >= min_deg in g[S].

    Complete backtracking over delete/protect decisions with forced-deletion
    closure (a vertex below the floor can never recover, so it must go).
    Branch vertices prefer deletions that push nothing below the floor, then
    low current degree.  Returns None only when the whole space is exhausted;
    running out of budget raises instead, since that proves nothing.
    """
    n = g.n
    if not 1 <= target_order <= n:
        raise DomainError(f"target_order must be in [1, {n}], got {target_order}")
    if min_deg < 0:
        raise DomainError("min_deg must be >= 0")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    rows = g.rows
    nodes = 0
    cur, deg = 0, [0] * n  # deg[v] = degree of v in g[cur], for v in cur

    def closure(alive, protected):
        """Force-delete vertices below the floor: the closed alive set, or
        None if a protected one dies.  Moves ``cur`` there, updating only the
        degrees of the vertices that join or leave it and their neighbors."""
        nonlocal cur
        dead = cur & ~alive
        new = alive & ~cur
        cur |= new
        for v in _bits(new):
            deg[v] = (rows[v] & cur).bit_count()
            if deg[v] < min_deg:
                dead |= 1 << v
            for u in _bits(rows[v] & cur & ~new):
                deg[u] += 1
        while dead:
            if dead & protected:
                return None
            cur &= ~dead
            bad = 0
            for v in _bits(dead):
                for u in _bits(rows[v] & cur):
                    deg[u] -= 1
                    if deg[u] < min_deg:
                        bad |= 1 << u
            if cur.bit_count() < target_order:
                return None
            dead = bad
        return cur

    # Depth-first over (alive, protected) nodes.  The protect branch is pushed
    # below the delete branch, so it is popped only once the delete subtree is
    # exhausted; a protect chain can be as long as the order, too deep to recurse.
    stack = [((1 << n) - 1, 0)]
    while stack:
        alive, protected = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"deletion search exceeded {budget} nodes")
        alive = closure(alive, protected)
        if alive is None:
            continue
        if alive.bit_count() == target_order:
            break
        choices = alive & ~protected
        if not choices:
            continue
        # prefer deletions that strand nobody below the floor (no neighbor
        # already at it), then low degree, then the lowest vertex
        tight = sum(1 << v for v in _bits(alive) if deg[v] <= min_deg)
        w = min(_bits(choices), key=lambda v: (rows[v] & tight != 0, deg[v]))
        stack.append((alive, protected | 1 << w))
        stack.append((alive & ~(1 << w), protected))
    else:
        return None  # the whole space is exhausted
    verts = tuple(_bits(alive))
    sub = g.induced_mask(alive)
    if sub.n != target_order or min(sub.degrees()) < min_deg:
        raise InternalInconsistency(
            f"deletion search returned order {sub.n}, wanted {target_order} with min degree {min_deg}"
        )
    return verts


# -- randomized thinning of ER_p --


class DeletionRun(NamedTuple):
    n: int
    k: int
    alpha: Fraction          # effective exponent applied to n (default 21/80)
    c: int
    p: int                   # smallest prime >= sqrt(n) + 1/2
    order: int               # p^2 + p + 1
    m: int                   # degree floor of the surviving subgraph
    d: int                   # number of deleted vertices
    seed: int
    attempts: int
    result_digest: str


def _attempt_rng(seed: int, attempt: int) -> random.Random:
    """Independent stream per attempt index, reproducible across schedulers."""
    import hashlib

    digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def smallest_admissible_prime(n: int) -> int:
    """Smallest prime p with p >= sqrt(n) + 1/2, i.e. (2p-1)^2 >= 4n."""
    from .gf import is_prime

    p = max(2, math.isqrt(n))
    while (2 * p - 1) ** 2 < 4 * n or not is_prime(p):
        p += 1
    return p


def random_delete_construction(
    n: int,
    k: int,
    seed: int = 0,
    m: int | None = None,
    c: int = 6,
    alpha: Fraction | str = "21/80",
    max_attempts: int = 1000,
) -> tuple[Graph, DeletionRun, LowerBoundCertificate]:
    """Delete d random vertices from ER_p until no survivor drops below m.

    Default m = floor(sqrt(n) - c*n^alpha); when that is nonpositive the
    asymptotic regime is not reached and the error reports the least n that
    would make the defaults usable, if a plane of order at most
    DEFAULT_GRAPH_Q_CAP admits it.  On success the surviving graph has
    order n + mk - k(k-3)/2 - 1 and its certificate guarantees a book-free
    complement at n* <= n pages, hence r(C4, B_n^(k)) >= order + 1.  An n
    that no plane of prime order at most DEFAULT_GRAPH_Q_CAP admits (any n
    above 16 002) is refused before m or p is computed.
    """
    from fractions import Fraction

    from .geometry import DEFAULT_GRAPH_Q_CAP, er_graph
    from .gf import is_prime
    from .ramsey import certify_lower_bound

    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if max_attempts < 1:
        raise DomainError(f"max_attempts must be >= 1, got {max_attempts}")
    # the largest n with (2p - 1)^2 >= 4n at the largest prime p <= the cap
    n_max = (2 * max(filter(is_prime, range(DEFAULT_GRAPH_Q_CAP + 1))) - 1) ** 2 // 4
    if n > n_max:
        raise CapExceeded(f"n={n} needs a plane of order above {DEFAULT_GRAPH_Q_CAP}")
    alpha = Fraction(alpha)
    if m is None:
        from .bounds import floor_sqrt_minus_power, min_n_default_regime

        m = floor_sqrt_minus_power(n, c, alpha)
        if m < 1:
            # the floor grows with n past its minimum, so the defaults hold
            # from some n on; when that is past n_max, say only that
            if floor_sqrt_minus_power(n_max, c, alpha) < 1:
                raise AsymptoticRegimeNotReached(
                    f"default degree floor is {m} at n={n}; defaults need n above "
                    f"{n_max}, which needs a plane of order above {DEFAULT_GRAPH_Q_CAP}"
                )
            min_n = min_n_default_regime(c, alpha)
            raise AsymptoticRegimeNotReached(
                f"default degree floor is {m} at n={n}; defaults need n >= {min_n}",
                min_n=min_n,
            )
    if m < 1:
        raise DomainError(f"degree floor m must be >= 1, got {m}")
    survivors = n + m * k - (k * k - 3 * k) // 2 - 1
    if survivors < 1:
        raise DomainError(f"target order n + mk - k(k-3)/2 - 1 = {survivors} is below 1")
    p = smallest_admissible_prime(n)
    base = er_graph(p)
    order = base.n
    d = order - survivors
    if d < 0:
        raise DomainError(
            f"negative deletion count: ER_{p} has {order} vertices but the "
            f"target subgraph needs {survivors}"
        )
    full = (1 << order) - 1
    for attempt in range(1, max_attempts + 1):
        rng = _attempt_rng(seed, attempt)
        deleted = rng.sample(range(order), d)
        mask = full
        for v in deleted:
            mask ^= 1 << v
        sub = base.induced_mask(mask)
        if min(sub.degrees()) >= m:
            note = (
                f"random deletion of {d} vertices from ER_{p} (seed={seed}, "
                f"attempt={attempt}); targets B_{n}^({k})-free complement"
            )
            cert = certify_lower_bound(sub, k, note=note)
            # the certificate is at least as strong as the target claim
            if cert.guaranteed_book_free_n > n:
                raise InternalInconsistency(
                    f"certificate n* = {cert.guaranteed_book_free_n} exceeds target {n}"
                )
            run = DeletionRun(
                n=n,
                k=k,
                alpha=alpha,
                c=c,
                p=p,
                order=order,
                m=m,
                d=d,
                seed=seed,
                attempts=attempt,
                result_digest=cert.graph_hash,
            )
            return sub, run, cert
    raise AttemptsExhausted(f"no degree->{m} subgraph found in {max_attempts} attempts")


# -- canonical augmentation enumeration --


class ExhaustionProof(NamedTuple):
    order: int
    graphs_examined: int
    all_rejected: bool
    generator_version: str
    k: int | None = None
    n: int | None = None


def _c4_extension_masks(g: Graph, least: int) -> list[int]:
    """Neighborhoods of at least `least` vertices keeping the graph C4-free.

    A new vertex creates a C4 exactly when two of its chosen neighbors
    already share a neighbor, so valid sets are the independent sets of the
    'shares a neighbor' conflict graph.
    """
    n = g.n
    conflict = [_two_step(g.rows, u)[0] & ~(1 << u) for u in range(n)]
    out = []

    def rec(cur, rest, need):
        if need <= 0:
            out.append(cur)
        r = rest
        while r and r.bit_count() >= need:
            low = r & -r
            v = low.bit_length() - 1
            r ^= low
            rec(cur | low, r & ~conflict[v], need - 1)

    rec(0, (1 << n) - 1, least)
    return out


def _orbit(mask: int, gens) -> set:
    """The vertex sets that the group of the permutations gens maps mask to."""
    orbit = {mask}
    stack = [mask]
    while stack:
        x = stack.pop()
        for g in gens:
            y = 0
            m = x
            while m:
                low = m & -m
                y |= 1 << g[low.bit_length() - 1]
                m ^= low
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _degrees_without(g: Graph, v: int, degrees: list) -> list:
    """Sorted degree sequence of g - v, from the degrees of g."""
    out = list(degrees)
    for u in _bits(g.rows[v]):
        out[u] -= 1
    del out[v]
    return sorted(out)


def _children(parent: Graph, parent_form: CanonicalForm, pruner=None):
    """(child, canonical form) per isomorphism class of accepted one-vertex extensions.

    Children the pruner rejects are left out.  The shortcuts that spare
    labellings are described in the module docstring.
    """
    from .canon import _refine, canonical_form

    parent_degrees = sorted(parent.degrees())
    gens = parent_form.generators
    seen = set()
    dead = set()
    new_index = parent.n
    for mask in _c4_extension_masks(parent, parent_degrees[-1]):
        if mask in dead:
            continue
        dead |= _orbit(mask, gens)
        child = parent.with_vertex(mask)
        degrees = child.degrees()
        if degrees[new_index] < max(degrees):
            continue
        if pruner is not None and not pruner(child):
            continue
        cells = _refine(child.rows, [list(range(new_index + 1))])
        last = cells[-1]  # holds w*, and the new vertex last if at all
        if last[-1] != new_index and _degrees_without(child, last[0], degrees) != parent_degrees:
            continue
        form = canonical_form(child, cells)
        if form.key in seen:
            continue
        seen.add(form.key)
        w_star = form.order[-1]  # vertex at the last canonical position
        # accept when an automorphism of the child maps w* to the new vertex
        if w_star != new_index and 1 << w_star not in _orbit(1 << new_index, form.generators):
            if canonical_form(child.delete_vertex(w_star)).key != parent_form.key:
                continue
        yield child, form


def _kept(g: Graph, form: CanonicalForm, level: int, order: int, pruner):
    """(graph, canonical form) of every kept graph on `level` vertices below g, in DFS order.

    The pruner sees only graphs with fewer than `order` vertices.
    """
    if g.n == level:
        yield g, form
        return
    for child, child_form in _children(g, form, pruner if g.n + 1 < order else None):
        yield from _kept(child, child_form, level, order, pruner)


def _worker(chunk, order, pruner, visitor):
    """(first graph on `order` vertices the visitor accepts or None, graphs examined)."""
    examined = 0
    for root, form in chunk:
        for g, _ in _kept(root, form, order, order, pruner):
            examined += 1
            if visitor is not None and visitor(g):
                return g, examined
    return None, examined


def _pool_size(jobs: int, chunks: int) -> int:
    """Worker processes to start: never more than the CPUs or the work chunks."""
    return min(jobs, os.cpu_count() or 1, chunks)


def _enumerate(order, pruner, visitor, jobs):
    """Walk the tree in chunks of its frontier; the serial walk is one chunk, the seed.

    Chunk results are read in frontier order, so the first witness returned
    is the first in DFS order whatever the worker count.  With one usable
    worker the chunks run in this process.
    """
    from .canon import canonical_form

    if not 1 <= order <= ENUMERATION_ORDER_CAP:
        raise CapExceeded(f"order must be in [1, {ENUMERATION_ORDER_CAP}], got {order}")
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    split = 1 if jobs == 1 else max(1, min(order - 1, 6))
    seed = Graph.empty(1)
    frontier = list(_kept(seed, canonical_form(seed), split, order, pruner))
    size = max(1, -(-len(frontier) // (4 * jobs)))
    chunks = [frontier[start : start + size] for start in range(0, len(frontier), size)]
    work = partial(_worker, order=order, pruner=pruner, visitor=visitor)
    workers = _pool_size(jobs, len(chunks))
    examined = 0
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = map(work, chunks) if pool is None else pool.map(work, chunks)
        for found, count in results:
            examined += count
            if found is not None:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
                return found
    return ExhaustionProof(order, examined, True, GENERATOR_VERSION)


def enumerate_c4_free(order: int, visitor=None, jobs: int = 1):
    """One representative per isomorphism class of C4-free graphs on `order`.

    The visitor tests each completed graph; the first graph it accepts is
    returned (deterministically, independent of the worker count).  With no
    acceptance the full ExhaustionProof comes back.  With jobs > 1, the
    visitor must be picklable.
    """
    return _enumerate(order, None, visitor, jobs)


def count_c4_free_classes(order: int, jobs: int = 1) -> int:
    return enumerate_c4_free(order, jobs=jobs).graphs_examined


def exhaust_ramsey(order: int, k: int, n: int, jobs: int = 1):
    """Witness graph or ExhaustionProof for r(C4, B_n^(k)) vs order.

    A witness on `order` vertices proves r >= order + 1; an ExhaustionProof
    with all_rejected proves r <= order.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    from .ramsey import _book_free, _extension_book_free

    # See the module docstring: the visitor checks every spine, the pruner
    # only the spines of books through the new vertex.
    pruner = partial(_extension_book_free, k=k, n=n)
    result = _enumerate(order, pruner, partial(_book_free, k=k, n=n), jobs)
    return result._replace(k=k, n=n) if isinstance(result, ExhaustionProof) else result


# -- heuristic probe for specific witness families --


def _energy(rows, full, limit):
    """All violating pairs, each counted at its lower vertex.

    An independent pair violates when its common non-neighborhood holds the
    forbidden book's pages.  The union of the two neighborhoods avoids both
    vertices, so that is exactly when the union has at most limit vertices.
    """
    count = 0
    for x, rx in enumerate(rows):
        m = full & ~(rx | ((2 << x) - 1))
        while m:
            low = m & -m
            m ^= low
            if (rx | rows[low.bit_length() - 1]).bit_count() <= limit:
                count += 1
    return count


def _join(rows, two, u, v):
    """Add the edge uv and keep two[x], the OR of the rows of x's neighbors.

    Only x in N(u) | N(v) has a neighbor whose row changes: u and v gain
    each other's rows, and every other such x gains the far end's bit.
    """
    bu = 1 << u
    bv = 1 << v
    rows[u] |= bv
    rows[v] |= bu
    two[u] |= rows[v]
    two[v] |= rows[u]
    for x in _bits(rows[u]):
        two[x] |= bv
    for x in _bits(rows[v]):
        two[x] |= bu


def _cut(rows, two, u, v):
    """Remove the edge uv of a C4-free graph and keep the masks of _join.

    Exact only because the graph is C4-free.  two[u] loses N(v) but keeps u
    while u has a neighbor: no w != u in N(v) shares a neighbor y != v with
    u, since u y w v would be a 4-cycle.  Likewise a neighbor x of u reaches
    v only through u, so it loses bit v.
    """
    bu = 1 << u
    bv = 1 << v
    rows[u] ^= bv
    rows[v] ^= bu
    two[u] = two[u] & ~rows[v] if rows[u] else 0
    two[v] = two[v] & ~rows[u] if rows[v] else 0
    for x in _bits(rows[u]):
        two[x] &= ~bv
    for x in _bits(rows[v]):
        two[x] &= ~bu


def probe_script_Gq(q: int, budget: int = 10**6, seed: int = 0):
    """Heuristic hunt for a (C4, B_{q^2-q+1}^(2))-Ramsey graph on q^2+q+3 vertices.

    q must lie in [2, GQ_Q_CAP]; both ends are checked before anything is built.

    Simulated annealing over C4-free graphs: edge toggles that preserve
    C4-freeness, with restarts from random maximal C4-free graphs and from
    thinned polarity graphs.  A returned graph is re-verified; exhausting the
    budget returns None and proves nothing.

    The graph is C4-free before every move, so two vertices share at most
    one neighbor.  Each start keeps, next to the rows, deg[x], by_degree[d]
    (the mask of the vertices of degree d) and two[x], the OR of the rows of
    x's neighbors (``graphcore._two_step``'s first mask): the vertices that
    share a neighbor with x, and x itself once it has a neighbor.  Then:

    * adding uv keeps the graph C4-free iff two[u] & rows[v] is empty;
    * |N(x) | N(w)| = d(x) + d(w) - [w in two[x]], so the pairs {x, w},
      x in {u, v}, whose union a toggle moves across the limit are counted
      by four popcounts over degree classes, not by a pass over the vertices;
    * an accepted toggle updates these masks at u, v and their neighbors only.

    The energy is recounted in full once per start.
    """
    from .geometry import er_graph
    from .gf import is_prime_power

    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    if q > GQ_Q_CAP:
        raise CapExceeded(f"q must be <= {GQ_Q_CAP}, got {q}")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    n = q * q + q + 3
    pages = q * q - q + 1
    full = (1 << n) - 1
    limit = n - 2 - pages  # a violating pair's neighborhoods cover at most this
    rng = random.Random(seed)
    # vertices are drawn inline as CPython's randrange(n) draws them: n.bit_length()
    # random bits, redrawn while they reach n.  The pinned trajectories rest on
    # that stream, which randrange itself does not promise.
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    steps = 0

    def greedy_fill(rows):
        """Add, in a shuffled order, every pair that keeps the graph C4-free; (rows, two)."""
        two = [_two_step(rows, x)[0] for x in range(n)]
        order = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(order)
        for u, v in order:
            if not (rows[u] >> v & 1 or two[u] & rows[v]):
                _join(rows, two, u, v)
        return rows, two

    def polarity_seed():
        # smallest prime-power plane with at least n points, thinned to n
        base_q = 2
        while base_q * base_q + base_q + 1 < n or not is_prime_power(base_q):
            base_q += 1
        base = er_graph(base_q)
        keep = list(range(base.n))
        rng.shuffle(keep)
        keep = sorted(keep[:n])
        sub = base.induced_mask(sum(1 << v for v in keep))
        return greedy_fill(list(sub.rows))

    def random_seed():
        return greedy_fill([0] * n)

    best_energy = None
    restart = 0
    while steps < budget:
        rows, two = polarity_seed() if restart % 2 else random_seed()
        restart += 1
        deg = [row.bit_count() for row in rows]
        # a score reads classes up to limit + 2 = 2q + 2 < n
        by_degree = [0] * n
        for x, d in enumerate(deg):
            by_degree[d] |= 1 << x
        energy = _energy(rows, full, limit)
        temperature = 2.0
        stall = 0
        while steps < budget and stall < 20000:
            steps += 1
            temperature *= 0.99995
            if temperature < 0.05:
                temperature = 0.05
            if energy == 0:
                # every move keeps the graph C4-free, and zero energy means
                # the complement is book-free
                from .ramsey import is_ramsey_witness

                g = Graph(n, rows, _trusted=True)
                if not is_ramsey_witness(g, 2, pages):
                    raise InternalInconsistency(f"zero-energy graph on {n} vertices fails re-verification")
                return g
            u = getrandbits(bits)
            while u >= n:
                u = getrandbits(bits)
            v = getrandbits(bits)
            while v >= n:
                v = getrandbits(bits)
            if u == v:
                continue
            ru = rows[u]
            rv = rows[v]
            tu = two[u]
            # Only pairs through u or v change.  The pair {u, v} counts after a
            # removal when its union without u and v is small enough, and stops
            # after an addition.  A pair {x, w}, x in {u, v}, changes only when w
            # is adjacent to neither, and then its union gains or loses one
            # vertex: an addition stops it counting when the union had exactly
            # limit vertices, a removal starts it when the union had limit + 1.
            if ru >> v & 1:
                adding = False
                edge = limit + 1
                hits = (ru | rv).bit_count() - 2 <= limit
            elif tu & rv:
                continue  # adding uv would close a C4
            else:
                adding = True
                edge = limit
                hits = (ru | rv).bit_count() <= limit
            tv = two[v]
            cand = full & ~(ru | rv | 1 << u | 1 << v)
            du = deg[u]
            dv = deg[v]
            d = edge - du
            if d >= 0:
                hits += (cand & by_degree[d] & ~tu).bit_count() + (cand & by_degree[d + 1] & tu).bit_count()
            d = edge - dv
            if d >= 0:
                hits += (cand & by_degree[d] & ~tv).bit_count() + (cand & by_degree[d + 1] & tv).bit_count()
            new_energy = energy - hits if adding else energy + hits
            if new_energy <= energy or rng.random() < math.exp((energy - new_energy) / temperature):
                energy = new_energy
                (_join if adding else _cut)(rows, two, u, v)
                step = 1 if adding else -1
                for x, d in ((u, du), (v, dv)):
                    deg[x] = d + step
                    by_degree[d] ^= 1 << x
                    by_degree[d + step] ^= 1 << x
            if best_energy is None or energy < best_energy:
                best_energy = energy
                stall = 0
            else:
                stall += 1
    return None
