"""Checks of steps of the paper's upper-bound proof, and test-only graph queries.

No command of the package needs these, so they live with the tests:

* ``find_admissible_sets`` and ``verify_admissible``: the admissible k-sets
  of Claim 3 (independent, low degree, one vertex in each of k distinct
  punctured neighbourhoods around v, no three with a common neighbour);
* ``good_pairs``: the low-degree pairs with disjoint neighbourhoods that the
  proof's dichotomy looks for;
* ``degree_profile`` and ``common_neighbors``: small queries on a graph.

They use the package's bitset kernels; ``oracles`` holds the pair loops
they are checked against.
"""

from dataclasses import dataclass

from c4book.errors import DomainError
from c4book.graphcore import Graph, _bits, _two_step

GOOD_PAIRS_SAMPLE = 64  # pairs good_pairs lists; its count covers them all


class EmptyQuerySet(DomainError):
    """A nonempty vertex set was required."""


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]  # sorted ascending
    min_degree: int
    max_degree: int


def degree_profile(g: Graph) -> DegreeProfile:
    ds = tuple(sorted(g.degrees()))
    if not ds:
        return DegreeProfile((), 0, 0)
    return DegreeProfile(ds, ds[0], ds[-1])


def common_neighbors(g: Graph, vertices) -> set[int]:
    """Vertices adjacent to every member of the query set."""
    vs = list(vertices)
    if not vs:
        raise EmptyQuerySet("common_neighbors needs a nonempty query set")
    mask = (1 << g.n) - 1
    for v in vs:
        mask &= g.rows[v]
    return set(_bits(mask))


@dataclass(frozen=True)
class GoodPairs:
    count: int
    sample: tuple[tuple[int, int], ...]


def good_pairs(g: Graph, deg_cap: int) -> GoodPairs:
    """Pairs with disjoint neighborhoods, both endpoints of degree <= deg_cap.

    These are exactly the low-degree pairs joined by no 2-path, so the count
    never exceeds non_two_path_pairs(g).  The sample holds the first
    GOOD_PAIRS_SAMPLE of them in lexicographic order.
    """
    rows = g.rows
    low_mask = sum(1 << v for v, row in enumerate(rows) if row.bit_count() <= deg_cap)
    count = 0
    sample = []
    for u in _bits(low_mask):
        partners = (low_mask & ~_two_step(rows, u)[0]) >> (u + 1) << (u + 1)
        count += partners.bit_count()
        for v in _bits(partners):
            if len(sample) == GOOD_PAIRS_SAMPLE:
                break
            sample.append((u, v))
    return GoodPairs(count, tuple(sample))


def verify_admissible(g: Graph, v: int, k_set, deg_cap: int) -> bool:
    """Direct re-check of the four admissibility properties of a k-set."""
    ks = list(k_set)
    rows = g.rows
    # (1) independent
    for i, x in enumerate(ks):
        for y in ks[i + 1 :]:
            if rows[x] >> y & 1:
                return False
    # (2) low degree
    if any(g.degree(x) > deg_cap for x in ks):
        return False
    # (3) one vertex in each of k distinct punctured neighborhoods around v:
    # x must avoid N[v], be adjacent to some neighbor u of v, and the owners
    # must admit distinct representatives (singletons when g is C4-free).
    nv = g.rows[v] | 1 << v
    owner_sets = []
    for x in ks:
        if nv >> x & 1:
            return False
        owners = {u for u in _bits(g.rows[v]) if rows[u] >> x & 1}
        if not owners:
            return False
        owner_sets.append(owners)

    def matchable(i, used):
        if i == len(owner_sets):
            return True
        return any(u not in used and matchable(i + 1, used | {u}) for u in owner_sets[i])

    if not matchable(0, frozenset()):
        return False
    # (4) no three members with a common neighbor
    for i, x in enumerate(ks):
        for j in range(i + 1, len(ks)):
            for l in range(j + 1, len(ks)):
                if rows[x] & rows[ks[j]] & rows[ks[l]]:
                    return False
    return True


def find_admissible_sets(g: Graph, v: int, k: int, deg_cap: int, limit: int = 100):
    """Independent low-degree k-sets hitting k distinct punctured neighborhoods.

    Greedy construction: choose k of v's neighbors, then pick one vertex per
    pruned candidate pool, where the pool drops neighbors of already-chosen
    vertices and neighbors of any common neighbor of a chosen pair.  Each
    returned set is re-verified directly.  Requires g to be C4-free for the
    pools to behave as intended; d(v) < k simply yields no sets.
    """
    if limit <= 0:
        return []
    rows = g.rows
    degs = g.degrees()
    low_mask = 0
    for u in range(g.n):
        if degs[u] <= deg_cap:
            low_mask |= 1 << u
    nbrs = g.neighbors(v)
    forbidden = g.rows[v] | 1 << v
    pools = [(u, rows[u] & ~forbidden & low_mask) for u in nbrs]
    pools = [(u, b) for u, b in pools if b]
    out: list[tuple[int, ...]] = []

    def choose(start, chosen, banned):
        # banned: union of N(x) for chosen x and N(w) for common neighbors w
        # of chosen pairs; keeps properties (1) and (4) by construction.
        if len(chosen) == k:
            cand = tuple(sorted(chosen))
            if verify_admissible(g, v, cand, deg_cap):
                out.append(cand)
            return len(out) >= limit
        for idx in range(start, len(pools)):
            _, pool = pools[idx]
            for x in _bits(pool & ~banned):
                new_banned = banned | rows[x]
                for y in chosen:
                    w_mask = rows[x] & rows[y]
                    for w in _bits(w_mask):
                        new_banned |= rows[w]
                if choose(idx + 1, chosen + [x], new_banned):
                    return True
        return False

    choose(0, [], 0)
    return out
