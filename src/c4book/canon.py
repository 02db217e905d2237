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
order, is the one the full search finds (``tests/oracles.py`` keeps that
search as ``canonical_form_reference``); only fewer generators are found.

Orbit pruning keeps one vertex mask per frame: the orbits of the tried
candidates under the generators that fix the individualized prefix
pointwise, closed under them by ``_orbits`` whenever one joins.  Such an
automorphism maps the refined partition, and so the target cell, onto
itself, so the mask stays inside the cell.  Known automorphisms seed the
generators (``canonical_form``'s ``known``; orderly generation passes the
parent's automorphisms that fix the new vertex's neighborhood).  Any
subgroup of the automorphism group is sound for orbit pruning: a skipped
subtree is the image of one explored earlier in DFS order, so the first
maximal leaf, and with it the key and order, is the same; only the
generators grow.

Refinement works on vertex masks.  A splitter's neighbor counts are
bit-sliced: one mask per bit of the count, summed over the splitter's rows
by ripple-carry XOR/AND, so a cell splits by walking those masks from the
high bit down, with no loop over its vertices.  Only the cells that a
splitter's neighborhood reaches are visited, so a splitter costs in
proportion to its neighborhood, not to the number of cells; that is what
makes polarity graphs with hundreds of vertices affordable.  The search
keeps its partition in ``_refine``'s own form, ``(cmask, cell_of,
active)``, from the root to every leaf: a branch copies the two lists and
splits {v} off the target cell in place.  Every cell stays ascending, as
the root starts from ``range(n)`` and splits are stable, so a cell's mask
gives its vertices in the order the cell holds them.

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
Orderly generation in ``_orderly`` relies on that order too: the first split
sorts by degree, so the last canonical vertex has the largest degree, and
every leaf refines the root partition in place, so that vertex lies in the
root partition's last cell.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphcore import Graph, _bits, _g6_body, _g6_order_bytes


def _refine(rows, cmask, cell_of, active, splitter=None):
    """Equitable refinement via a worklist of splitter cells, in place.

    The ordered partition is a list of cells, each a vertex mask named by
    its start position: ``cmask[s]`` is the mask of the cell starting at
    ``s`` (0 where no cell starts) and ``cell_of[v]`` the start of the cell
    holding ``v``; ``active`` holds the vertices in non-singleton cells, the
    only ones that can split.  Each splitter S partitions the non-singleton
    cells that meet N(S) by neighbor count into S: sub-cells replace their
    cell in position, ordered by count, and are queued as new splitters.
    The counts are bit-sliced: ``planes[i]`` holds bit i of every active
    vertex's count, added up by ripple-carry XOR/AND over S's rows.  A hit
    cell splits by walking the planes from high to low, which yields its
    parts in ascending count order.  A queued ``(start, mask)`` entry goes
    stale once the cell at that start splits, as a split cell only shrinks
    (its parts are queued themselves).

    Splits are stable, so a cell's vertices keep their relative order; a
    mask lists them ascending, which is their order wherever the cells
    start ascending, as from the unit partition.  Every cell is queued, or,
    given ``splitter``, only the cell starting there (see
    ``_search``).  Returns the new ``active``.
    """
    if splitter is None:
        queue = [(s, m) for s, m in enumerate(cmask) if m]
    else:
        queue = [(splitter, cmask[splitter])]
    for s, m in queue:  # the loop reaches the parts queued below
        if not active:
            break
        if cmask[s] != m:
            continue  # already split; its parts are (or were) queued
        planes = []
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
                queue.append((pos, part))
                pos += size
    return active


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
    order: tuple          # order[i] = vertex at canonical position i
    generators: tuple     # known or discovered automorphisms (not always the
                          # full group; the backjump skips leaves that would add more)


def _orbits(mask, gens):
    """The union of the orbits of mask's vertices under the group of the permutations gens."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        for g in gens:
            w = 1 << g[v]
            if not mask & w:
                mask |= w
                todo |= w
    return mask


def _search(rows, known, root):
    """``(key, order, generators)`` of the search below ``root``, the key an int."""
    n = len(rows)
    gens = list(known)
    # the incumbent's key, order and individualized vertices
    best_key, best_order, best_prefix = -1, None, None

    def descend(cmask, cell_of, active, prefix):
        """Explore the subtree at ``prefix``; return the depth to resume at.

        The partition is ``_refine``'s ``(cmask, cell_of, active)``.  The
        frame at depth d (``len(prefix) == d``) goes on to its next
        candidate when a child returns d or more, and returns at once when
        a child returns less.
        """
        nonlocal best_key, best_order, best_prefix
        depth = len(prefix)
        if not active:
            order = [m.bit_length() - 1 for m in cmask]
            key = _leaf_key(rows, order)
            if key > best_key:
                best_key, best_order, best_prefix = key, order, prefix
            elif key == best_key:
                g = [0] * n
                for a, b in zip(best_order, order):
                    g[a] = b
                gens.append(tuple(g))
                # g fixes the common prefix pointwise and maps the incumbent's
                # subtree at the next depth onto this leaf's: backjump there.
                j = 0
                for a, b in zip(prefix, best_prefix):
                    if a != b:
                        break
                    j += 1
                return j
            return depth
        # the first largest cell, and its start: where {v} goes once split off
        at = size = 0
        m = active
        while m:
            s = cell_of[(m & -m).bit_length() - 1]
            m ^= cmask[s]
            k = cmask[s].bit_count()
            if k > size or k == size and s < at:
                at, size = s, k
        whole = cmask[at]
        # Orbit pruning: skip v when a known automorphism fixing the
        # individualized prefix pointwise maps a tried sibling onto it.
        # ``pruned`` is the tried siblings' orbits under ``stab``, those
        # automorphisms; ones found while the cell is scanned join ``stab``
        # before the next candidate.
        stab = []
        pruned = 0
        folded = 0
        for v in _bits(whole):
            fixing = [g for g in gens[folded:] if all(g[x] == x for x in prefix)]
            folded = len(gens)
            if fixing:
                stab += fixing
                pruned = _orbits(pruned, stab)
            if pruned >> v & 1:
                continue
            # {v} at the cell's start, the rest of the cell after it
            cm = cmask[:]
            co = cell_of[:]
            cm[at] = 1 << v
            cm[at + 1] = whole ^ 1 << v
            for w in _bits(whole):
                co[w] = at + 1
            co[v] = at
            rest = active ^ (whole if size == 2 else 1 << v)
            resume = descend(cm, co, _refine(rows, cm, co, rest, at), prefix + [v])
            if resume < depth:
                return resume
            pruned |= _orbits(1 << v, stab)
        return depth

    descend(*root, [])
    return best_key, tuple(best_order), tuple(gens)


def _root(rows):
    """``(cmask, cell_of, active)`` of the unit partition refined; the graph is not empty."""
    n = len(rows)
    cmask = [0] * n
    cmask[0] = (1 << n) - 1
    cell_of = [0] * n
    return cmask, cell_of, _refine(rows, cmask, cell_of, cmask[0] if n > 1 else 0)


def canonical_form(g: Graph, known=(), root=None) -> CanonicalForm:
    """The canonical form of g.

    ``known`` holds automorphisms of g, as permutation tuples, that seed the
    orbit pruning; ``root``, when given, is ``_root(g.rows)``, which is then
    not computed again.  Neither changes the key or the order.
    """
    n = g.n
    if n == 0:
        return CanonicalForm(b"\x00", (), ())
    key, order, gens = _search(g.rows, known, root or _root(g.rows))
    nbits = n * (n - 1) // 2
    key = n.to_bytes(8, "big") + key.to_bytes((nbits + 7) // 8 or 1, "big")
    return CanonicalForm(key, order, gens)


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
