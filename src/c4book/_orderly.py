"""Canonical-augmentation enumeration of C4-free graphs, one per isomorphism class.

``exhaust_ramsey`` walks it to decide small Ramsey values exactly: a
witness on N vertices, or an exhaustion proof that no C4-free graph on N
vertices has a book-free complement.

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
* Inherited automorphisms: a parent automorphism g with g(mask) = mask,
  extended to fix the new vertex, is an automorphism of the child.  The
  parent's generators that fix the mask seed the child's labelling
  (``canon.canonical_form``'s ``known``), whose orbit pruning then skips
  subtrees before it finds an automorphism of its own.  The key and the
  order stay; only the child's generators grow.
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
* The parent check after labelling: accept at once when the child's
  generators join w* and the new vertex in one orbit (``canon._orbits``);
  only otherwise label the child with w* deleted.
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
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapExceeded, DomainError
from .graphcore import Graph, _bits, _two_step

if TYPE_CHECKING:
    from .canon import CanonicalForm

# canon and ramsey are imported where the enumeration uses them

GENERATOR_VERSION = "orderly-v1"
ENUMERATION_ORDER_CAP = 13  # enumerate_c4_free lists every class
EXHAUSTION_ORDER_CAP = 20  # exhaust_ramsey's book pruner cuts most of the tree


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
    """The extension masks that the group of the permutations gens maps mask to."""
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
    from .canon import _orbits, _root, canonical_form

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
        root = _root(child.rows)
        # the last cell holds w*, and the new vertex, the highest, if at all
        last = next(m for m in reversed(root[0]) if m)
        first = (last & -last).bit_length() - 1
        if not last >> new_index and _degrees_without(child, first, degrees) != parent_degrees:
            continue
        # a parent generator fixing the mask, with the new vertex fixed, is an
        # automorphism of the child
        known = [g + (new_index,) for g in gens if all(mask >> g[v] & 1 for v in _bits(mask))]
        form = canonical_form(child, known, root)
        if form.key in seen:
            continue
        seen.add(form.key)
        w_star = form.order[-1]  # vertex at the last canonical position
        # accept when an automorphism of the child maps w* to the new vertex
        if w_star != new_index and not _orbits(1 << new_index, form.generators) >> w_star & 1:
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


def _enumerate(order, pruner, visitor, jobs, cap):
    """Walk the tree in chunks of its frontier; the serial walk is one chunk, the seed.

    Chunk results are read in frontier order, so the first witness returned
    is the first in DFS order whatever the worker count.  With one usable
    worker the chunks run in this process.  An order outside [1, cap] is
    refused.
    """
    from .canon import canonical_form

    if not 1 <= order <= cap:
        raise CapExceeded(f"order must be in [1, {cap}], got {order}")
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
    return _enumerate(order, None, visitor, jobs, ENUMERATION_ORDER_CAP)


def count_c4_free_classes(order: int, jobs: int = 1) -> int:
    return enumerate_c4_free(order, jobs=jobs).graphs_examined


def exhaust_ramsey(order: int, k: int, n: int, jobs: int = 1):
    """Witness graph or ExhaustionProof for r(C4, B_n^(k)) vs order.

    A witness on `order` vertices proves r >= order + 1; an ExhaustionProof
    with all_rejected proves r <= order.  The order is capped at
    EXHAUSTION_ORDER_CAP, above enumerate_c4_free's, since the pruner cuts
    every branch whose complement holds the book.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    from .ramsey import _book_free, _extension_book_free

    # See the module docstring: the visitor checks every spine, the pruner
    # only the spines of books through the new vertex.
    pruner = partial(_extension_book_free, k=k, n=n)
    result = _enumerate(order, pruner, partial(_book_free, k=k, n=n), jobs, EXHAUSTION_ORDER_CAP)
    return result._replace(k=k, n=n) if isinstance(result, ExhaustionProof) else result

