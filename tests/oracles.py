"""Independent reference implementations the unit tests check against.

Everything here deliberately avoids the package's bitset kernels and
canonical machinery: C4 detection enumerates vertex quadruples, book
numbers use plain set arithmetic over combinations, common-neighbor
counts test one vertex pair at a time, isomorphism classes come from
minimizing over all vertex permutations, GF(p^e) arithmetic is
polynomial multiplication and long division on coefficient tuples, prime
powers come from trial division up to the square root, and equitable
refinement rescans every cell for every splitter.  Five exceptions:
``canonical_form_reference`` reuses ``canon._refine`` and
``canon._leaf_key`` so that it checks the search tree walk alone,
``children_reference`` labels with ``canon.canonical_form`` so that it
checks the augmentation rule alone, ``probe_reference`` is the
annealing probe with a loop per move in place of maintained masks, reusing
``_anneal._energy`` and the polarity-graph build so that it checks the
masks alone, ``absolute_points_reference`` takes the field's modulus
and the vertex order of the points from ``gf`` and ``geometry`` so that it
checks which points are absolute alone, and
``floor_sqrt_minus_power_reference`` walks with ``bounds._sign_sqrt_expr``
from an integer-root first guess so that it checks the first guess alone.
``refine_cells`` is no reference: it is ``canon._refine`` on a partition
given as lists, the form the reference refinement and the tests use.
"""

from collections import deque
from itertools import combinations, permutations
from math import isqrt
import random

from c4book.bounds import _sign_sqrt_expr
from c4book.canon import CanonicalForm, _leaf_key, _refine, canonical_form
from c4book.geometry import projective_points
from c4book.gf import field_new, iroot
from c4book.graphcore import Graph


def naive_is_c4_free(g: Graph) -> bool:
    """Four-vertex enumeration: any a,b,c,d with edges ab, bc, cd, da?"""
    n = g.n
    for quad in combinations(range(n), 4):
        for perm in permutations(quad):
            a, b, c, d = perm
            if (
                g.has_edge(a, b)
                and g.has_edge(b, c)
                and g.has_edge(c, d)
                and g.has_edge(d, a)
            ):
                return False
    return True


def naive_complement_book_number(g: Graph, k: int) -> int:
    """Enumerate all k-subsets; sets and lists only, no bitsets."""
    return naive_book_witness(g, k)[0]


def naive_book_witness(g: Graph, k: int, spine_vertices=None):
    """(book number, lexicographically smallest maximizing spine or ()).

    Spines are drawn from spine_vertices (every vertex by default); pages
    from every vertex.
    """
    n = g.n
    nbrs = {v: set(g.neighbors(v)) for v in range(n)}
    best, best_spine = None, ()
    allowed = range(n) if spine_vertices is None else sorted(spine_vertices)
    for spine in combinations(allowed, k):
        if any(u in nbrs[v] for u, v in combinations(spine, 2)):
            continue  # not independent in g
        pages = [
            w
            for w in range(n)
            if w not in spine and all(w not in nbrs[u] for u in spine)
        ]
        if best is None or len(pages) > best:
            best, best_spine = len(pages), spine
    return (0, ()) if best is None else (best, best_spine)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def relabeled(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabeled(g, perm)


def _first_c4(g: Graph):
    """The pair scan: first pair u < v with two common neighbors, and the first two."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = g.rows[u] & g.rows[v]
            if common.bit_count() >= 2:
                picks = []
                m = common
                while m and len(picks) < 2:
                    low = m & -m
                    picks.append(low.bit_length() - 1)
                    m ^= low
                return (u, picks[0], v, picks[1])
    return None


def pair_loop_non_two_path_pairs(g: Graph) -> int:
    """Pairs u < v with no common neighbor, one AND per pair."""
    return sum(
        1 for u in range(g.n) for v in range(u + 1, g.n) if not g.rows[u] & g.rows[v]
    )


def pair_loop_friendship_condition(g: Graph) -> bool:
    """Every pair of distinct vertices has exactly one common neighbor."""
    return all(
        (g.rows[u] & g.rows[v]).bit_count() == 1
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def pair_loop_good_pairs(g: Graph, deg_cap: int, sample_limit: int = 64):
    """(count, sample) of low-degree pairs with disjoint neighborhoods, lexicographic."""
    low = [v for v in range(g.n) if g.degree(v) <= deg_cap]
    count = 0
    sample = []
    for i, u in enumerate(low):
        for v in low[i + 1 :]:
            if not g.rows[u] & g.rows[v]:
                count += 1
                if len(sample) < sample_limit:
                    sample.append((u, v))
    return count, tuple(sample)


def violating_pairs(rows, n, pages_needed):
    """Independent pairs whose common non-neighborhood fits a forbidden book, one pair at a time."""
    count = 0
    for u in range(n):
        ru = rows[u]
        for v in range(u + 1, n):
            if ru >> v & 1:
                continue
            union = (ru | rows[v]) & ~(1 << u) & ~(1 << v)
            if n - 2 - union.bit_count() >= pages_needed:
                count += 1
    return count


def pair_loop_c4_extension_masks(g: Graph) -> list:
    """Independent sets of the 'shares a common neighbor' graph, in search order.

    The conflict graph is built one pair at a time; the independent sets are
    listed by the same recursion as ``_orderly._c4_extension_masks``.
    """
    n = g.n
    conflict = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if g.rows[u] & g.rows[v]:
                conflict[u] |= 1 << v
                conflict[v] |= 1 << u
    out = []

    def rec(cur, rest):
        out.append(cur)
        r = rest
        while r:
            low = r & -r
            v = low.bit_length() - 1
            r ^= low
            rec(cur | low, r & ~conflict[v])

    rec(0, (1 << n) - 1)
    return out


def all_extension_masks(g: Graph, least: int) -> list:
    """Every vertex set of at least `least` vertices, in increasing mask order.

    With it in place of ``_orderly._c4_extension_masks`` the engine lists the
    extensions of ``children_reference(c4=False)`` that can be accepted, in
    their order, and so enumerates all graphs up to isomorphism.
    """
    return [mask for mask in range(1 << g.n) if mask.bit_count() >= least]


def children_reference(parent: Graph, parent_key: bytes, c4: bool):
    """(child, canonical key) per class of accepted extensions, labelling everything.

    Every extension mask is labelled; a child whose key was seen is dropped,
    and a child whose canonically last vertex w* is not the new vertex is
    kept only if deleting w* labels back to the parent.
    ``_orderly._children`` must yield the same children in the same order.
    """
    masks = pair_loop_c4_extension_masks(parent) if c4 else range(1 << parent.n)
    seen = set()
    new_index = parent.n
    for mask in masks:
        child = parent.with_vertex(mask)
        form = canonical_form(child)
        if form.key in seen:
            continue
        seen.add(form.key)
        w_star = form.order[-1]
        if w_star != new_index:
            if canonical_form(child.delete_vertex(w_star)).key != parent_key:
                continue
        yield child, form.key


def random_c4_free(rng: random.Random, n: int, p: float) -> Graph:
    """Edge-deletion repair: drop a random edge of some 4-cycle until none remain."""
    g = random_graph(rng, n, p)
    while True:
        cyc = _first_c4(g)
        if cyc is None:
            return g
        a, b, c, d = cyc
        u, v = rng.choice([(a, b), (b, c), (c, d), (d, a)])
        rows = list(g.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        g = Graph(g.n, rows, _trusted=True)


def all_labeled_c4_free(n: int):
    """Every labeled C4-free graph on n vertices via edge-decision DFS.

    Independent of the canonical-augmentation generator: edges are decided
    in a fixed order and a branch dies as soon as a 4-cycle appears.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []

    def creates_c4(rows, u, v):
        # new 4-cycle through uv: a neighbor of u sharing a neighbor with v
        m = rows[u]
        rv = rows[v]
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            if rows[x] & rv:
                return True
        return False

    def rec(idx, rows):
        if idx == len(pairs):
            out.append(Graph(n, tuple(rows), _trusted=True))
            return
        u, v = pairs[idx]
        rec(idx + 1, rows)  # skip the edge
        if not creates_c4(rows, u, v):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            rec(idx + 1, rows)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)

    rec(0, [0] * n)
    return out


def perm_canonical_mask(g: Graph) -> int:
    """Minimum edge bitmask over all vertex permutations (exact, O(n!))."""
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    best = None
    for perm in permutations(range(n)):
        mask = 0
        for i, (u, v) in enumerate(pairs):
            if g.has_edge(perm[u], perm[v]):
                mask |= 1 << i
        if best is None or mask < best:
            best = mask
    return best


def brute_class_count_all(n: int) -> int:
    """Isomorphism classes among all 2^C(n,2) labeled graphs (n <= 6).

    A mask is counted when no permutation maps it to a smaller mask.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    perms = list(permutations(range(n)))
    index = {pq: i for i, pq in enumerate(pairs)}
    actions = []
    for perm in perms[1:]:  # identity never disqualifies
        act = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            act.append(index[(a, b) if a < b else (b, a)])
        actions.append(tuple(act))
    count = 0
    for mask in range(1 << len(pairs)):
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        canonical = True
        for act in actions:
            mapped = 0
            for i in bits:
                mapped |= 1 << act[i]
            if mapped < mask:
                canonical = False
                break
        if canonical:
            count += 1
    return count


def classify_c4_free(n: int) -> int:
    """Number of C4-free isomorphism classes via labeled DFS + permutation keys.

    Counts the labeled graphs that are minimal in their permutation orbit;
    the early break keeps this usable through n = 6.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = {pq: i for i, pq in enumerate(pairs)}
    actions = []
    for perm in list(permutations(range(n)))[1:]:
        act = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            act.append(index[(a, b) if a < b else (b, a)])
        actions.append(tuple(act))
    count = 0
    for g in all_labeled_c4_free(n):
        mask = 0
        for i, (u, v) in enumerate(pairs):
            if g.has_edge(u, v):
                mask |= 1 << i
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        canonical = True
        for act in actions:
            mapped = 0
            for i in bits:
                mapped |= 1 << act[i]
            if mapped < mask:
                canonical = False
                break
        if canonical:
            count += 1
    return count


def oracle_ramsey_value(k: int, n: int, max_order: int = 10) -> int:
    """Smallest N with no labeled C4-free witness; exhaustive and independent."""
    for order in range(1, max_order + 1):
        witness = False
        for g in all_labeled_c4_free(order):
            if k <= g.n and naive_complement_book_number(g, k) < n:
                witness = True
                break
            if k > g.n:
                witness = True
                break
        if not witness:
            return order
    raise AssertionError(f"no exhaustion up to order {max_order}")


# -- prime powers by trial division up to sqrt(q) --


def prime_power_decompose_reference(q: int):
    """(p, e) with q = p^e for prime p, or None: the least divisor of q
    above 1, found by trial division, must divide q to the last factor."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


# -- naive GF(p^e) arithmetic on coefficient tuples (constant term first) --


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return poly_trim([(x + y) % p for x, y in zip(a, b)])


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, by long division."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i in range(dm + 1):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return poly_trim(a)


def coeffs_of(index: int, p: int, e: int):
    """Base-p digits of an element index: its coefficients, constant term first."""
    out = []
    for _ in range(e):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


def index_of(coeffs, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(coeffs))


def naive_field_add(a: int, b: int, p: int, e: int) -> int:
    return index_of(poly_add(coeffs_of(a, p, e), coeffs_of(b, p, e), p), p)


def naive_field_mul(a: int, b: int, p: int, e: int, modulus) -> int:
    prod = poly_mul(coeffs_of(a, p, e), coeffs_of(b, p, e), p)
    return index_of(poly_mod(prod, modulus, p), p)


def absolute_points_reference(q: int) -> list:
    """Vertex indices of the points of PG(2, q) on the conic x^2 + y^2 + z^2 = 0,
    the self-orthogonal points of the polarity, by polynomial arithmetic."""
    field = field_new(*prime_power_decompose_reference(q))
    p, e, modulus = field.p, field.e, field.modulus
    out = []
    for i, point in enumerate(projective_points(field)):
        total = 0
        for c in point:
            total = naive_field_add(total, naive_field_mul(c, c, p, e, modulus), p, e)
        if total == 0:
            out.append(i)
    return out


# -- small named graphs --


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def fan_graph(k: int) -> Graph:
    """The k-fan: vertex 0 joined to k disjoint edges (2i+1, 2i+2)."""
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * k + 1, edges)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def line_graph_of_petersen() -> Graph:
    pete = petersen_graph()
    edges = list(pete.edges())
    adj = []
    for i, e in enumerate(edges):
        for j in range(i + 1, len(edges)):
            if set(e) & set(edges[j]):
                adj.append((i, j))
    return Graph.from_edges(len(edges), adj)


def refine_reference(rows, cells):
    """Equitable refinement that rescans every cell for every splitter.

    Splitters come off a FIFO worklist; each one partitions every
    non-singleton cell by neighbor count into it, sub-cells replace their
    cell in position ordered by count (stable inside a count) and are
    queued.  A splitter split before its turn is skipped, its parts being
    queued.  ``canon._refine``, through ``refine_cells``, must return
    exactly this ordered partition.
    """
    cells = [list(c) for c in cells]
    live = {id(c) for c in cells}
    queue = deque(cells)
    while queue:
        splitter = queue.popleft()
        if id(splitter) not in live:
            continue
        smask = 0
        for v in splitter:
            smask |= 1 << v
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) == 1:
                i += 1
                continue
            groups: dict = {}
            for v in cell:
                groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
            if len(groups) == 1:
                i += 1
                continue
            parts = [groups[key] for key in sorted(groups)]
            cells[i : i + 1] = parts
            live.discard(id(cell))
            for part in parts:
                live.add(id(part))
                queue.append(part)
            i += len(parts)
    return cells


def refine_cells(rows, cells, splitter=None):
    """``canon._refine`` on a partition given as a list of vertex lists.

    ``splitter`` is a cell's start position, as there.  Each output cell
    lists its vertices in their order in ``cells``, whose cells must be
    non-empty.
    """
    n = len(rows)
    cmask, cell_of, active, start = [0] * n, [0] * n, 0, 0
    for c in cells:
        for v in c:
            cmask[start] |= 1 << v
            cell_of[v] = start
        if len(c) > 1:
            active |= cmask[start]
        start += len(c)
    _refine(rows, cmask, cell_of, active, splitter)
    out = [[] for _ in range(n)]
    for c in cells:
        for v in c:
            out[cell_of[v]].append(v)
    return [c for c in out if c]


def mask_cells(cmask):
    """The cells of ``canon._refine``'s ``cmask`` as ascending vertex lists, in order."""
    return [[v for v in range(m.bit_length()) if m >> v & 1] for m in cmask if m]


def orbits_reference(mask: int, gens) -> int:
    """``canon._orbits`` as a set closure: apply every generator until nothing new appears."""
    closed = {v for v in range(mask.bit_length()) if mask >> v & 1}
    while True:
        grown = closed | {g[v] for g in gens for v in closed}
        if grown == closed:
            return sum(1 << v for v in closed)
        closed = grown


def canonical_form_reference(g: Graph) -> CanonicalForm:
    """The canonical search without backjumping on automorphism leaves.

    A depth-first walk of the refinement tree (individualize each vertex of
    the first largest non-singleton cell, refine) that keeps the first leaf
    with the largest ``_leaf_key``.  Like ``canon.canonical_form`` it skips
    a sibling that a discovered automorphism fixing the prefix maps onto a
    tried one.  Unlike it, it also skips a node whose leading singletons
    already fall below the incumbent, and it scans every other sibling below
    an automorphism leaf.
    ``canon.canonical_form`` must return the same key and order; its
    generators may be fewer.
    """
    n = g.n
    if n == 0:
        return CanonicalForm(b"\x00", (), ())
    rows = g.rows
    nbits = n * (n - 1) // 2
    best = {"key": -1, "order": None}
    gens = []

    def beaten(cells):
        fixed = []
        for c in cells:
            if len(c) != 1:
                break
            fixed.append(c[0])
        t = len(fixed)
        if t < 2:
            return False
        return _leaf_key(rows, fixed) < best["key"] >> (nbits - t * (t - 1) // 2)

    def descend(cells, prefix):
        if all(len(c) == 1 for c in cells):
            order = [c[0] for c in cells]
            key = _leaf_key(rows, order)
            if key > best["key"]:
                best["key"], best["order"] = key, order
            elif key == best["key"]:
                gen = [0] * n
                for a, b in zip(best["order"], order):
                    gen[a] = b
                gens.append(gen)
            return
        if best["order"] is not None and beaten(cells):
            return
        idx = max((i for i, c in enumerate(cells) if len(c) > 1), key=lambda i: (len(cells[i]), -i))
        cell = cells[idx]
        tried = []
        for v in cell:
            # v is skipped when a generator fixing the prefix pointwise joins
            # it to a tried sibling; orbits are rebuilt for each candidate
            orbit = {u: {u} for u in cell}
            for gen in gens:
                if any(gen[x] != x for x in prefix):
                    continue
                for u in cell:
                    a, b = orbit[u], orbit.get(gen[u])
                    if b is not None and a is not b:
                        a |= b
                        for w in b:
                            orbit[w] = a
            if any(u in orbit[v] for u in tried):
                continue
            branched = cells[:idx] + [[v], [w for w in cell if w != v]] + cells[idx + 1 :]
            descend(refine_cells(rows, branched), prefix + [v])
            tried.append(v)

    descend(refine_cells(rows, [list(range(n))]), [])
    key = n.to_bytes(8, "big") + best["key"].to_bytes((nbits + 7) // 8 or 1, "big")
    return CanonicalForm(key, tuple(best["order"]), tuple(tuple(x) for x in gens))


# -- the annealing probe before its maintained masks --


def _can_add_edge(rows, u, v):
    """Edge uv keeps the graph C4-free iff no neighbor of u shares a
    common neighbor with v (and vice versa, which is the same condition)."""
    rv = rows[v]
    m = rows[u]
    while m:
        low = m & -m
        x = low.bit_length() - 1
        m ^= low
        if rows[x] & rv:
            return False
    return True


def _toggle_delta(rows, full, limit, u, v):
    """Energy change from toggling uv, computed from the rows before the toggle.

    Only pairs through u or v can change.  A pair {x, w} with x in {u, v}
    changes only when w is adjacent to neither u nor v (otherwise w is
    adjacent to x or the toggled bit is already in the union), and then its
    union gains or loses one vertex: an added edge stops it counting when
    the union had exactly limit vertices, a removed one starts it counting
    when the union had limit + 1.  The pair {u, v} counts after a removal
    when its union without u and v is small enough, and stops counting after
    an addition.  Unlike the probe's mask count, this holds on any graph.
    """
    ru = rows[u]
    rv = rows[v]
    union = ru | rv
    if ru >> v & 1:
        step, edge = 1, limit + 1
        hits = union.bit_count() - 2 <= limit
    else:
        step, edge = -1, limit
        hits = union.bit_count() <= limit
    m = full & ~(union | 1 << u | 1 << v)
    while m:
        low = m & -m
        m ^= low
        rw = rows[low.bit_length() - 1]
        hits += ((ru | rw).bit_count() == edge) + ((rv | rw).bit_count() == edge)
    return step * hits


def probe_reference(q: int, budget: int = 10**6, seed: int = 0):
    """``_anneal.probe_script_Gq`` as it was before the maintained masks.

    Each move tests C4-freeness with ``_can_add_edge``, a loop over N(u), and
    scores the toggle with ``_toggle_delta``, a loop over the vertices.  It
    draws from ``random.Random(seed)`` exactly as the probe does, so the two
    must return the same graph and leave the generator in the same state.
    """
    import math

    from c4book.errors import InternalInconsistency
    from c4book._anneal import _energy
    from c4book.geometry import er_graph
    from c4book.gf import is_prime_power
    from c4book.ramsey import is_ramsey_witness

    n = q * q + q + 3
    pages = q * q - q + 1
    full = (1 << n) - 1
    limit = n - 2 - pages
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    steps = 0

    def greedy_fill(rows):
        order = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(order)
        for u, v in order:
            if not rows[u] >> v & 1 and _can_add_edge(rows, u, v):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return rows

    def polarity_seed():
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
        rows = polarity_seed() if restart % 2 else random_seed()
        restart += 1
        energy = _energy(rows, full, limit)
        temperature = 2.0
        stall = 0
        while steps < budget and stall < 20000:
            steps += 1
            temperature *= 0.99995
            if temperature < 0.05:
                temperature = 0.05
            if energy == 0:
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
            if not rows[u] >> v & 1 and not _can_add_edge(rows, u, v):
                continue
            new_energy = energy + _toggle_delta(rows, full, limit, u, v)
            if new_energy <= energy or rng.random() < math.exp((energy - new_energy) / temperature):
                energy = new_energy
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
            if best_energy is None or energy < best_energy:
                best_energy = energy
                stall = 0
            else:
                stall += 1
    return None


# -- the exact floor of sqrt(n) - c n^alpha before its floating-point guess --


def floor_sqrt_minus_power_reference(n: int, c: int, alpha) -> int:
    """floor(sqrt(n) - c n^alpha) from the guess isqrt(n) - floor((c^b n^a)^(1/b)).

    With alpha = a/b that guess is the floor or one above it; the exact sign
    test walks it down, or up, to the floor.
    """
    guess = isqrt(n) - iroot(c**alpha.denominator * n**alpha.numerator, alpha.denominator)
    while _sign_sqrt_expr(n, c, alpha, guess) < 0:
        guess -= 1
    while _sign_sqrt_expr(n, c, alpha, guess + 1) >= 0:
        guess += 1
    return guess
