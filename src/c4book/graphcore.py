"""Bitset graph container and the counting kernels the certificates rely on.

Adjacency is stored as one Python int per vertex (bit j of row i set iff
i ~ j), so common-neighbor queries are a single AND + popcount; every
pair count rests on one O(|E|) two-step kernel, _two_step.  Graphs are
immutable after construction; all queries are read-only.
"""

from __future__ import annotations

import binascii
import re
from math import comb
from typing import Iterator, NamedTuple, Optional

from .errors import InternalInconsistency, MalformedGraph6

GRAPH6_MAX_ORDER = 68719476735  # 2^36 - 1, the format's limit


def _bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph on vertices 0..n-1, bitset adjacency rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows, _trusted: bool = False):
        rows = tuple(rows)
        if not _trusted:
            if len(rows) != n:
                raise ValueError(f"expected {n} rows, got {len(rows)}")
            full = (1 << n) - 1
            for u, row in enumerate(rows):
                if row & ~full:
                    raise ValueError(f"row {u} has bits beyond vertex {n - 1}")
                if row >> u & 1:
                    raise ValueError(f"loop at vertex {u}")
            for u in range(n):
                for v in _bits(rows[u]):
                    if not rows[v] >> u & 1:
                        raise ValueError(f"adjacency not symmetric at ({u},{v})")
        self.n = n
        self.rows = rows

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n, _trusted=True)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, _trusted=True)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def with_vertex(self, nbr_mask: int) -> "Graph":
        """New graph with one extra vertex adjacent to the bits of nbr_mask."""
        n = self.n
        bit = 1 << n
        rows = [row | bit if nbr_mask >> v & 1 else row for v, row in enumerate(self.rows)]
        rows.append(nbr_mask)
        return Graph(n + 1, rows, _trusted=True)

    def delete_vertex(self, v: int) -> "Graph":
        keep = ((1 << self.n) - 1) ^ (1 << v)
        return self.induced_mask(keep)

    def induced_mask(self, mask: int) -> "Graph":
        """Induced subgraph on the set bits of mask, reindexed ascending."""
        verts = list(_bits(mask))
        pos = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            row = 0
            for w in _bits(self.rows[v] & mask):
                row |= 1 << pos[w]
            rows.append(row)
        return Graph(len(verts), rows, _trusted=True)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = [full ^ row ^ (1 << v) for v, row in enumerate(g.rows)]
    return Graph(g.n, rows, _trusted=True)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph; vertices are reindexed by increasing original index."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return g.induced_mask(mask)


def is_c4_free(g: Graph) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """C4 test via the pair criterion: some pair has >= 2 common neighbors.

    Returns (True, None) or (False, witness) where the witness (a, b, c, d)
    has edges ab, bc, cd, da.  The witness is the lexicographically first
    violating pair together with its first two common neighbors: the lowest
    v above u in u's `twice` set (see _two_step).
    """
    rows = g.rows
    for u in range(g.n):
        twice = _two_step(rows, u)[1] >> (u + 1)
        if twice:
            v = u + (twice & -twice).bit_length()
            it = _bits(rows[u] & rows[v])
            a = next(it)
            b = next(it)
            return False, (u, a, v, b)
    return True, None


def _two_step(rows, u: int) -> tuple[int, int]:
    """(once, twice): the vertices sharing at least one / at least two neighbors with u.

    ORs the rows of u's neighbors, deg(u) bitset operations, so a pass over
    every u is O(|E|).  Bit u is in once (twice) when u has one (two) neighbors.
    """
    once = twice = 0
    m = rows[u]
    while m:
        low = m & -m
        m ^= low
        row = rows[low.bit_length() - 1]
        twice |= once & row
        once |= row
    return once, twice


def non_two_path_pairs(g: Graph) -> int:
    """Number of unordered vertex pairs with no common neighbor."""
    n = g.n
    return sum(n - 1 - u - (_two_step(g.rows, u)[0] >> (u + 1)).bit_count() for u in range(n))


class KstCheck(NamedTuple):
    """Pair-count ledger for the C4-free counting inequality and its refinement.

    lhs = sum over vertices of C(d(v), 2); rhs_basic = C(N, 2);
    p = pairs joined by no 2-path; rhs_refined = C(N, 2) - p.
    For a C4-free graph both holds_* flags must be true.
    """

    lhs: int
    rhs_basic: int
    p: int
    rhs_refined: int
    holds_basic: bool
    holds_refined: bool


def kst_check(g: Graph) -> KstCheck:
    lhs = sum(comb(d, 2) for d in g.degrees())
    rhs_basic = comb(g.n, 2)
    p = non_two_path_pairs(g)
    rhs_refined = rhs_basic - p
    return KstCheck(lhs, rhs_basic, p, rhs_refined, lhs <= rhs_basic, lhs <= rhs_refined)


def is_friendship(g: Graph) -> Optional[int]:
    """Detect the k-fan (k triangles sharing one vertex).

    Returns k iff every pair of distinct vertices has exactly one common
    neighbor; any graph with that property must be the k-fan on 2k+1
    vertices, and that structure is re-verified rather than assumed.
    """
    n = g.n
    rows = g.rows
    if n == 0:
        return None
    full = (1 << n) - 1
    for u in range(n):
        once, twice = _two_step(rows, u)
        others = full ^ (1 << u)
        if others & ~once or others & twice:
            return None
    # Pair condition holds; the graph must be a fan: odd order, one hub
    # adjacent to everything, the rest a perfect matching.
    if n == 1:
        return 0
    k, odd = divmod(n - 1, 2)
    hub = next((v for v in range(n) if rows[v].bit_count() == n - 1), None)
    structure_ok = bool(not odd and hub is not None)
    if structure_ok:
        for v in range(n):
            if v == hub:
                continue
            others = rows[v] & ~(1 << hub)
            if others.bit_count() != 1:
                structure_ok = False
                break
            w = others.bit_length() - 1
            if rows[w] & ~(1 << hub) != 1 << v:
                structure_ok = False
                break
    if not structure_ok:
        raise InternalInconsistency(
            "every pair has exactly one common neighbor but the graph is not a fan"
        )
    return k


def fan_graph(k: int) -> Graph:
    """The k-fan: vertex 0 joined to k disjoint edges (2i+1, 2i+2)."""
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * k + 1, edges)


# -- graph6 encoding (header-less, bit-exact per the public format) --


def _g6_order_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    return bytes(
        [126, 126] + [((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0)]
    )


# graph6 packs 6 bits per byte as 63 + value; base64 packs the same bit
# stream 6 bits per character, so translating its alphabet gives graph6.
# The codec works on '0'/'1' strings one piece at a time, so its working
# memory stays near the piece size rather than eight times the output.
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64_ALPHABET, bytes(range(63, 127)))
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64_ALPHABET)
_G6_BAD_BYTE = re.compile(rb"[^\x3f-\x7e]")
_G6_PIECE = 1 << 14  # graph6 bytes per piece; a multiple of 4 (= 24 bits)
_G6_MIRROR_COLS = 256  # columns mirrored at a time; the grid is this many times n chars


def _g6_pack(bits: str) -> bytes:
    """graph6 bytes of a '0'/'1' string whose length is a multiple of 24."""
    if not bits:
        return b""
    raw = int(bits, 2).to_bytes(len(bits) // 8, "big")
    return binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)


def _g6_body(columns) -> Iterator[bytes]:
    """graph6 edge bytes of the columns' '0'/'1' strings, one piece at a time.

    Column v = 1..n-1 holds rows u = 0..v-1, row 0 first.
    """
    cols, width = [], 0
    for col in columns:
        cols.append(col)
        width += len(col)
        if width >= 6 * _G6_PIECE:
            bits = "".join(cols)
            cut = width - width % 24
            yield _g6_pack(bits[:cut])
            cols, width = [bits[cut:]], width - cut
    cols.append("0" * (-width % 24))
    yield _g6_pack("".join(cols))[: (width + 5) // 6]


def g6_encode(g: Graph) -> bytes:
    if g.n > GRAPH6_MAX_ORDER:
        raise ValueError(f"order {g.n} exceeds graph6 limit")
    rows = g.rows
    cols = (format(rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n))
    return _g6_order_bytes(g.n) + b"".join(_g6_body(cols))


def g6_decode(data: bytes) -> Graph:
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MalformedGraph6(f"character {data[exc.start]!r} outside graph6 range", exc.start) from None
    data = data.rstrip(b"\r\n")
    if not data:
        raise MalformedGraph6("empty input", 0)
    bad = _G6_BAD_BYTE.search(data)
    if bad:
        raise MalformedGraph6(f"byte {data[bad.start()]} outside graph6 range", bad.start())
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise MalformedGraph6("truncated 3-byte order field", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise MalformedGraph6("truncated 6-byte order field", len(data))
        n = 0
        for i in range(2, 8):
            n = n << 6 | (data[i] - 63)
        pos = 8
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise MalformedGraph6(
            f"expected {need} edge bytes for order {n}, got {len(data) - pos}",
            min(pos + need, len(data)),
        )
    rows = [0] * n
    cols, first = [], 1  # columns first.. read but not yet mirrored
    bits, off, v = "", 0, 1
    for start in range(pos, len(data), _G6_PIECE):
        piece = data[start : start + _G6_PIECE].translate(_G6_TO_B64)
        raw = binascii.a2b_base64(piece + b"A" * (-len(piece) % 4))
        bits = bits[off:] + format(int.from_bytes(raw, "big"), f"0{len(raw) * 8}b")
        off = 0
        # pad bits after the last column are never read
        while v < n and off + v <= len(bits):
            col = bits[off : off + v]
            off += v
            rows[v] = int(col[::-1], 2)
            cols.append(col)
            v += 1
            if len(cols) == _G6_MIRROR_COLS:
                _g6_mirror(rows, cols, first)
                cols, first = [], v
    _g6_mirror(rows, cols, first)
    return Graph(n, rows, _trusted=True)


def _g6_mirror(rows, cols, first):
    """Set bit v of rows[u] for every u in column v, for columns first, first + 1, ...

    cols holds the columns' '0'/'1' strings.  Each is padded to the longest and
    they are laid out last column first, so the characters at u, u + width, ...
    are row u's bits for these columns, highest column first: one int() per
    row and block instead of one row update per edge.
    """
    if not cols:
        return
    width = first + len(cols) - 1
    grid = "".join(col.ljust(width, "0") for col in reversed(cols))
    for u in range(width):
        part = grid[u::width]
        if "1" in part:
            rows[u] |= int(part, 2) << first
