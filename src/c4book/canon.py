"""Canonical forms via iterated degree refinement with backtracking.

Self-contained: equitable partition refinement, individualization on the
first smallest non-singleton cell, and a search over the refinement tree
keeping the lexicographically largest adjacency encoding.  Automorphisms
discovered from equal leaves prune sibling branches; pruning only skips
subtrees that a known automorphism maps onto an explored one, so the
canonical form itself is exact.

Intended for the small orders the exhaustive searches need (n <= ~16).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

from .graphcore import Graph, g6_encode


def _refine(rows, cells):
    """Equitable refinement via a worklist of splitter cells.

    Each splitter partitions every other cell by neighbor count into it;
    sub-cells replace their cell in position, ordered by count, and are
    queued as new splitters.  Position-stable splice plus count-ordered
    sub-cells keeps the ordered partition isomorphism-equivariant, and the
    worklist avoids rescanning settled cells on large graphs.
    """
    cells = [list(c) for c in cells]
    live = {id(c) for c in cells}
    queue = deque(cells)
    queued = {id(c) for c in cells}
    while queue:
        splitter = queue.popleft()
        queued.discard(id(splitter))
        if id(splitter) not in live:
            continue  # already split; its parts are (or were) queued
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
            queued.discard(id(cell))
            for part in parts:
                live.add(id(part))
                queue.append(part)
                queued.add(id(part))
            i += len(parts)
    return cells


def _pack_chunks(chunks):
    """Concatenate (value, width) bit chunks MSB-first, tree-wise.

    Pairwise combining keeps every bigint shift proportional to the final
    size times log(#chunks) instead of quadratic in it.
    """
    if not chunks:
        return 0
    while len(chunks) > 1:
        nxt = []
        for a in range(0, len(chunks) - 1, 2):
            v1, w1 = chunks[a]
            v2, w2 = chunks[a + 1]
            nxt.append((v1 << w2 | v2, w1 + w2))
        if len(chunks) % 2:
            nxt.append(chunks[-1])
        chunks = nxt
    return chunks[0][0]


def _leaf_key(rows, order):
    """Adjacency of the relabeled graph packed column-major into an int.

    Column j (position in the new labeling) contributes a j-bit chunk of
    its adjacencies to earlier positions; chunks are concatenated in column
    order, so the first C(t,2) bits depend only on the first t positions.
    That is what lets partial labelings be compared against the incumbent.
    """
    t = len(order)
    pos = [-1] * len(rows)
    for i, v in enumerate(order):
        pos[v] = i
    chunks = []
    for j in range(1, t):
        row = rows[order[j]]
        chunk = 0
        while row:
            low = row & -row
            w = pos[low.bit_length() - 1]
            if 0 <= w < j:
                chunk |= 1 << w
            row ^= low
        chunks.append((chunk, j))
    return _pack_chunks(chunks)


@dataclass(frozen=True)
class CanonicalForm:
    key: bytes            # order byte(s) + packed canonical adjacency
    labeling: tuple       # labeling[v] = canonical position of vertex v
    order: tuple          # order[i] = vertex at canonical position i
    generators: tuple     # discovered automorphisms (not always the full group)

    def graph(self, g: Graph) -> Graph:
        rows = [0] * g.n
        for v in range(g.n):
            row = 0
            m = g.rows[v]
            while m:
                low = m & -m
                row |= 1 << self.labeling[low.bit_length() - 1]
                m ^= low
            rows[self.labeling[v]] = row
        return Graph(g.n, rows, _trusted=True)


class _Search:
    def __init__(self, rows, n):
        self.rows = rows
        self.n = n
        self.best_key = -1
        self.best_order = None
        self.gens = []

    def run(self):
        cells = _refine(self.rows, [list(range(self.n))])
        self.descend(cells, [])

    def descend(self, cells, prefix):
        if all(len(c) == 1 for c in cells):
            order = [c[0] for c in cells]
            key = _leaf_key(self.rows, order)
            if key > self.best_key:
                self.best_key = key
                self.best_order = order
            elif key == self.best_key:
                g = [0] * self.n
                for a, b in zip(self.best_order, order):
                    g[a] = b
                self.gens.append(tuple(g))
            return
        if self.best_order is not None and self._prefix_beaten(cells):
            return
        idx = max(
            (i for i, c in enumerate(cells) if len(c) > 1),
            key=lambda i: (len(cells[i]), -i),
        )
        cell = cells[idx]
        tried = []
        for v in cell:
            # Orbit pruning: skip v when a known automorphism fixing the
            # individualized prefix pointwise maps a tried sibling onto it.
            # The lookup is rebuilt per candidate because generators
            # accumulate while the cell is being scanned.
            orbit = self._orbit_lookup(cell, prefix)
            if any(orbit[v] == orbit[u] for u in tried):
                continue
            branched = cells[:idx] + [[v], [w for w in cell if w != v]] + cells[idx + 1 :]
            self.descend(_refine(self.rows, branched), prefix + [v])
            tried.append(v)

    def _prefix_beaten(self, cells):
        """True when the bits fixed by leading singleton cells already fall
        below the incumbent leaf, so no descendant can reach the maximum."""
        fixed = []
        for c in cells:
            if len(c) != 1:
                break
            fixed.append(c[0])
        t = len(fixed)
        if t < 2:
            return False
        partial = _leaf_key(self.rows, fixed)
        nbits = t * (t - 1) // 2
        best_prefix = self.best_key >> (self.n * (self.n - 1) // 2 - nbits)
        return partial < best_prefix

    def _orbit_lookup(self, cell, prefix):
        """Map each cell vertex to its orbit root under prefix-fixing generators."""
        parent = {v: v for v in cell}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        pref = set(prefix)
        for g in self.gens:
            if any(g[x] != x for x in pref):
                continue
            for v in cell:
                w = g[v]
                if w in parent:
                    ra, rb = find(v), find(w)
                    if ra != rb:
                        parent[ra] = rb
        return {v: find(v) for v in cell}


def canonical_form(g: Graph) -> CanonicalForm:
    n = g.n
    if n == 0:
        return CanonicalForm(b"\x00", (), (), ())
    search = _Search(g.rows, n)
    search.run()
    order = search.best_order
    labeling = [0] * n
    for i, v in enumerate(order):
        labeling[v] = i
    nbits = n * (n - 1) // 2
    key = n.to_bytes(8, "big") + search.best_key.to_bytes((nbits + 7) // 8 or 1, "big")
    return CanonicalForm(key, tuple(labeling), tuple(order), tuple(search.gens))


def canonical_key(g: Graph) -> bytes:
    return canonical_form(g).key


def canonical_graph(g: Graph) -> Graph:
    return canonical_form(g).graph(g)


def graph_digest(g: Graph) -> str:
    """Hex sha256 of the canonical graph6 encoding; isomorphism invariant."""
    return hashlib.sha256(g6_encode(canonical_graph(g))).hexdigest()
