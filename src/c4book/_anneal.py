"""Simulated-annealing probe for specific (C4, B_n^(2))-Ramsey witness graphs.

The annealing probe moves only between C4-free graphs, where two vertices
share at most one neighbor.  So |N(x) | N(w)| = d(x) + d(w) - [x and w share
a neighbor], and the probe tests and scores each edge toggle from masks it
keeps up to date (degrees, degree classes and two-step masks, see
``probe_script_Gq``) instead of looping over vertices.
"""

from __future__ import annotations

import math
import random

from .errors import CapExceeded, DomainError, InternalInconsistency
from .graphcore import Graph, _bits, _two_step

# geometry and gf are imported where the probe builds a polarity graph, and
# ramsey only when it has a graph to re-verify

# probe_script_Gq shuffles all C(n, 2) vertex pairs, n = q^2 + q + 3: about 50 MiB at q = 32
GQ_Q_CAP = 32


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
