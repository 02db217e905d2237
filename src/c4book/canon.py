"""Canonical forms via iterated degree refinement with backtracking.

Self-contained: equitable partition refinement, individualization on the
first largest non-singleton cell, and a search over the refinement tree
keeping the lexicographically largest adjacency encoding.  Automorphisms
discovered from equal leaves prune sibling branches; pruning only skips
subtrees that a known automorphism maps onto an explored one, so the
canonical form itself is exact.

A leaf equal to the incumbent also backjumps (McKay 1981; McKay & Piperno
2014).  If the two leaves' individualized prefixes agree on their first j
vertices, the automorphism between them fixes those j vertices and maps
the incumbent's subtree at depth j + 1 onto the one holding the new leaf.
Every leaf left in that subtree is the image of an explored leaf with the
same key, so none can beat the incumbent: the search abandons every frame
deeper than j and resumes at depth j.  Only strictly larger leaves replace
the incumbent, so the first maximal leaf in DFS order, hence the key and
labeling, is the one the full search finds (``tests/oracles.py`` keeps that
search as ``canonical_form_reference``); only fewer generators are found.

Refinement only visits the cells a splitter's neighborhood reaches, so a
splitter costs in proportion to its neighborhood, not to the number of
cells; that is what makes polarity graphs with hundreds of vertices
affordable, not only the exhaustive searches' tiny graphs.

The ordered partition that ``_refine`` returns, down to the order inside
each cell, is frozen: it fixes the search tree, hence every canonical
labeling, and through it the ``graph_hash`` in each certificate and every
canonical witness.  A faster refinement is admissible only if it returns
the same cells in the same order; rules that reorder cells, such as
queueing all but the largest part of a split, change every canonical form.
Orderly generation in ``search`` relies on that order too: the first split
sorts by degree, so the last canonical vertex has the largest degree.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .graphcore import Graph, g6_encode


def _refine(rows, cells):
    """Equitable refinement via a worklist of splitter cells.

    The ordered partition lives in one flat list ``perm``; a cell is the
    slice ``perm[s:end[s]]`` and is named by its start ``s``, with
    ``cell_of[v]`` the start of the cell holding ``v`` and ``cmask[s]`` the
    vertex mask of a non-singleton cell.  Each splitter S partitions the
    non-singleton cells that meet N(S), the union of its rows, by neighbor
    count into S: sub-cells replace their cell in position, ordered by
    count, stable inside each count, and are queued as new splitters.  A
    cell outside N(S) has count 0 throughout and cannot split, so skipping
    it leaves the result unchanged.  A queued ``(start, stamp)`` entry goes
    stale once the cell at that start splits (its parts are queued
    themselves).
    """
    n = len(rows)
    perm = []
    cell_of = [0] * n
    end = {}
    cmask = {}  # start -> vertex mask, for non-singleton cells only
    active = 0  # vertices in non-singleton cells, the only ones that can split
    for c in cells:
        if not c:
            continue
        s = len(perm)
        perm.extend(c)
        end[s] = len(perm)
        for v in c:
            cell_of[v] = s
        if len(c) > 1:
            m = 0
            for v in c:
                m |= 1 << v
            cmask[s] = m
            active |= m
    stamp = dict.fromkeys(end, 0)
    queue = deque((s, 0) for s in end)
    while queue:
        s, st = queue.popleft()
        if stamp[s] != st:
            continue  # already split; its parts are (or were) queued
        seg = perm[s : end[s]]
        smask = nbhd = 0
        for v in seg:
            smask |= 1 << v
            nbhd |= rows[v]
        hit = []
        touched = nbhd & active
        while touched:
            t = cell_of[(touched & -touched).bit_length() - 1]
            hit.append(t)
            touched &= ~cmask[t]
        hit.sort()
        for t in hit:
            cell = perm[t : end[t]]
            groups: dict = {}
            for v in cell:
                groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
            if len(groups) == 1:
                continue
            parts = []
            for key in sorted(groups):
                part = groups[key]
                pm = 0
                for v in part:
                    pm |= 1 << v
                parts.append((part, pm))
            stamp[t] += 1
            del cmask[t]
            pos = t
            for part, pm in parts:
                nxt = pos + len(part)
                perm[pos:nxt] = part
                end[pos] = nxt
                if pos != t:
                    stamp[pos] = 0
                    for v in part:
                        cell_of[v] = pos
                if nxt - pos == 1:
                    active ^= pm
                else:
                    cmask[pos] = pm
                queue.append((pos, stamp[pos]))
                pos = nxt
    out = []
    s = 0
    while s < len(perm):
        out.append(perm[s : end[s]])
        s = end[s]
    return out


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
    """
    pos = [0] * len(rows)
    for i, v in enumerate(order):
        pos[v] = i
    chunks = []
    before = 0  # the vertices at positions < j
    for j in range(1, len(order)):
        before |= 1 << order[j - 1]
        row = rows[order[j]] & before
        chunk = 0
        while row:
            low = row & -row
            chunk |= 1 << pos[low.bit_length() - 1]
            row ^= low
        chunks.append((chunk, j))
    return _pack_chunks(chunks)


class CanonicalForm(NamedTuple):
    key: bytes            # order byte(s) + packed canonical adjacency
    labeling: tuple       # labeling[v] = canonical position of vertex v
    order: tuple          # order[i] = vertex at canonical position i
    generators: tuple     # discovered automorphisms (not always the full group;
                          # the backjump skips leaves that would add more)

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
        self.best_prefix = None  # the individualized vertices of the incumbent
        self.gens = []

    def run(self):
        cells = _refine(self.rows, [list(range(self.n))])
        self.descend(cells, [])

    def descend(self, cells, prefix):
        """Explore the subtree at ``prefix``; return the depth to resume at.

        The frame at depth d (``len(prefix) == d``) goes on to its next
        candidate when a child returns d or more, and returns at once when
        a child returns less.
        """
        depth = len(prefix)
        if all(len(c) == 1 for c in cells):
            order = [c[0] for c in cells]
            key = _leaf_key(self.rows, order)
            if key > self.best_key:
                self.best_key = key
                self.best_order = order
                self.best_prefix = prefix
            elif key == self.best_key:
                g = [0] * self.n
                for a, b in zip(self.best_order, order):
                    g[a] = b
                self.gens.append(tuple(g))
                # g fixes the common prefix pointwise and maps the incumbent's
                # subtree at the next depth onto this leaf's: backjump there.
                j = 0
                for a, b in zip(prefix, self.best_prefix):
                    if a != b:
                        break
                    j += 1
                return j
            return depth
        idx = max(
            (i for i, c in enumerate(cells) if len(c) > 1),
            key=lambda i: (len(cells[i]), -i),
        )
        cell = cells[idx]
        # Orbit pruning: skip v when a known automorphism fixing the
        # individualized prefix pointwise maps a tried sibling onto it.
        # Generators accumulate while the cell is scanned, so each new one
        # is folded into this frame's union-find before the next candidate.
        parent = {v: v for v in cell}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        folded = 0
        tried = []
        for v in cell:
            for g in self.gens[folded:]:
                if any(g[x] != x for x in prefix):
                    continue
                for u in cell:
                    w = g[u]
                    if w in parent:
                        ru, rw = find(u), find(w)
                        if ru != rw:
                            parent[ru] = rw
            folded = len(self.gens)
            rv = find(v)
            if any(find(u) == rv for u in tried):
                continue
            branched = cells[:idx] + [[v], [w for w in cell if w != v]] + cells[idx + 1 :]
            resume = self.descend(_refine(self.rows, branched), prefix + [v])
            if resume < depth:
                return resume
            tried.append(v)
        return depth


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
    import hashlib  # imported here: it loads OpenSSL, which only digests need

    return hashlib.sha256(g6_encode(canonical_graph(g))).hexdigest()
