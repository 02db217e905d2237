"""The two constructions from polarity graphs.

* backtracking deletion search for induced subgraphs of a polarity graph
  with prescribed order and minimum degree,
* the randomized thinning of ER_p that realizes the general lower bound.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    AsymptoticRegimeNotReached,
    AttemptsExhausted,
    BudgetExhausted,
    CapExceeded,
    DomainError,
    InternalInconsistency,
)
from .graphcore import Graph, _bits

if TYPE_CHECKING:
    from .ramsey import LowerBoundCertificate

# bounds, geometry, gf, ramsey and hashlib are imported where the
# constructions use them, so the deletion search loads none of them


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
    alpha: str               # the default floor's exponent, "21/80"
    c: int                   # the default floor's coefficient, 6
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
    max_attempts: int = 1000,
) -> tuple[Graph, DeletionRun, LowerBoundCertificate]:
    """Delete d random vertices from ER_p until no survivor drops below m.

    Default m = floor(sqrt(n) - 6 n^(21/80)); below n = 2 075 that is
    nonpositive, the asymptotic regime is not reached and the error reports
    that least n (bounds.MIN_N_DEFAULT).  On success the surviving graph has
    order n + mk - k(k-3)/2 - 1 and its certificate guarantees a book-free
    complement at n* <= n pages, hence r(C4, B_n^(k)) >= order + 1.  An n
    that no plane of prime order at most DEFAULT_GRAPH_Q_CAP admits (any n
    above 16 002) is refused before m or p is computed.
    """
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
    if m is None:
        from .bounds import MIN_N_DEFAULT, floor_sqrt_minus_power

        m = floor_sqrt_minus_power(n)
        if m < 1:
            raise AsymptoticRegimeNotReached(
                f"default degree floor is {m} at n={n}; defaults need n >= {MIN_N_DEFAULT}",
                min_n=MIN_N_DEFAULT,
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
                alpha="21/80",
                c=6,
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

