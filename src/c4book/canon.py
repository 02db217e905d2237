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

Refinement works on vertex masks.  A splitter's neighbor counts are
bit-sliced: one mask per bit of the count, summed over the splitter's rows
by ripple-carry XOR/AND, so a cell splits by walking those masks from the
high bit down, with no loop over its vertices.  Only the cells that a
splitter's neighborhood reaches are visited, so a splitter costs in
proportion to its neighborhood, not to the number of cells; that is what
makes polarity graphs with hundreds of vertices affordable.

After a vertex v is individualized, only {v} is queued.  The partition it
was split from came out of ``_refine``, so it is equitable: counts into any
cell C that has not split since are uniform on every finer cell, so C
splits nothing, and once {v} has run, counts into C - {v} are counts into C
minus adjacency to v, uniform too.  Queueing every cell would add only
such no-op splitters, so the splits, and their order, are the same.

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

from .graphcore import Graph, _g6_body, _g6_order_bytes


def _refine(rows, cells, splitter=None):
    """Equitable refinement via a worklist of splitter cells.

    The ordered partition is a list of cells, each a vertex mask named by
    its start position: ``cmask[s]`` is the mask of the cell starting at
    ``s`` and ``cell_of[v]`` the start of the cell holding ``v``.  Each
    splitter S partitions the non-singleton cells that meet N(S) by
    neighbor count into S: sub-cells replace their cell in position, ordered
    by count, and are queued as new splitters.  The counts are bit-sliced:
    ``planes[i]`` holds bit i of every active vertex's count, added up by
    ripple-carry XOR/AND over S's rows.  A hit cell splits by walking the
    planes from high to low, which yields its parts in ascending count
    order.  A queued ``(start, stamp)`` entry goes stale once the cell at
    that start splits (its parts are queued themselves).

    Splits are stable, so each cell of the result lists its vertices in
    their order in ``cells``, whose cells must be non-empty.  Every cell is
    queued, or, given ``splitter``, only the cell starting there (see
    ``_Search.descend``).
    """
    n = len(rows)
    perm = []
    cell_of = [0] * n
    cmask = [0] * n
    stamp = [0] * n
    active = 0  # vertices in non-singleton cells, the only ones that can split
    for c in cells:
        s = len(perm)
        perm.extend(c)
        m = 0
        for v in c:
            m |= 1 << v
            cell_of[v] = s
        cmask[s] = m
        if len(c) > 1:
            active |= m
    if splitter is None:
        queue = deque((s, 0) for s, m in enumerate(cmask) if m)
    else:
        queue = deque([(splitter, 0)])
    while queue and active:
        s, st = queue.popleft()
        if stamp[s] != st:
            continue  # already split; its parts are (or were) queued
        planes = []
        m = cmask[s]
        while m:
            low = m & -m
            m ^= low
            carry = rows[low.bit_length() - 1] & active
            i = 0
            while carry:
                if i == len(planes):
                    planes.append(carry)
                    break
                p = planes[i]
                planes[i] = p ^ carry
                carry &= p
                i += 1
        touched = 0
        for p in planes:
            touched |= p
        hit = []
        while touched:
            t = cell_of[(touched & -touched).bit_length() - 1]
            hit.append(t)
            touched &= ~cmask[t]
        hit.sort()
        planes.reverse()
        for t in hit:
            parts = [cmask[t]]
            for p in planes:
                nxt = []
                for part in parts:
                    hi = part & p
                    if hi and hi != part:
                        nxt.append(part ^ hi)
                        nxt.append(hi)
                    else:
                        nxt.append(part)
                parts = nxt
            if len(parts) == 1:
                continue
            stamp[t] += 1
            pos = t
            for part in parts:
                cmask[pos] = part
                size = part.bit_count()
                if pos != t:
                    m = part
                    while m:
                        low = m & -m
                        cell_of[low.bit_length() - 1] = pos
                        m ^= low
                if size == 1:
                    active ^= part
                queue.append((pos, stamp[pos]))
                pos += size
    out = [[] for _ in perm]
    for v in perm:
        out[cell_of[v]].append(v)
    return [part for part in out if part]


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
        return Graph.from_edges(g.n, ((self.labeling[u], self.labeling[v]) for u, v in g.edges()))


class _Search:
    def __init__(self, rows, n):
        self.rows = rows
        self.n = n
        self.best_key = -1
        self.best_order = None
        self.best_prefix = None  # the individualized vertices of the incumbent
        self.gens = []

    def descend(self, cells, prefix):
        """Explore the subtree at ``prefix``; return the depth to resume at.

        The frame at depth d (``len(prefix) == d``) goes on to its next
        candidate when a child returns d or more, and returns at once when
        a child returns less.
        """
        depth = len(prefix)
        if len(cells) == self.n:
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
        # the first largest cell, and its start: where {v} goes once split off
        idx = at = pos = size = 0
        for i, c in enumerate(cells):
            if len(c) > size:
                idx, at, size = i, pos, len(c)
            pos += len(c)
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
            resume = self.descend(_refine(self.rows, branched, at), prefix + [v])
            if resume < depth:
                return resume
            tried.append(v)
        return depth


def canonical_form(g: Graph) -> CanonicalForm:
    n = g.n
    if n == 0:
        return CanonicalForm(b"\x00", (), (), ())
    search = _Search(g.rows, n)
    search.descend(_refine(g.rows, [list(range(n))]), [])
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
    """Hex sha256 of the canonical graph6 encoding; isomorphism invariant.

    Canonical column j of the graph6 bit stream is the key's j-bit chunk
    reversed, so the encoding is read off the key a piece at a time and no
    canonical ``Graph`` is built.
    """
    import hashlib  # imported here: it loads OpenSSL, which only digests need

    digest = hashlib.sha256(_g6_order_bytes(g.n))
    for piece in _g6_body(_key_columns(g.n, canonical_form(g).key)):
        digest.update(piece)
    return digest.hexdigest()


def _key_columns(n, key):
    """Columns 1..n-1 of the canonical graph6 bit stream, read off the key.

    The key's adjacency bytes are read 2 KiB at a time, which covers a whole
    column up to order 16 385, so the working strings stay small.
    """
    bits, off, j = "", 8 * (len(key) - 8) - n * (n - 1) // 2, 1  # off skips the leading pad
    for start in range(8, len(key), 2048):
        raw = key[start : start + 2048]
        bits = (bits + format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b"))[off:]
        off = 0
        while j < n and off + j <= len(bits):
            yield bits[off : off + j][::-1]
            off += j
            j += 1
