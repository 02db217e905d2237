"""The projective plane PG(2, q) and the orthogonal polarity graph on it.

Vertices are the q^2+q+1 normalized points, each an (x, y, z) triple of
field element indices; two distinct points are adjacent when their standard
dot product vanishes.  The bilinear form is fixed as
x1*y1 + x2*y2 + x3*y3: any non-degenerate symmetric form gives an isomorphic
graph, and fixing one keeps every output reproducible byte-for-byte.
"""

from __future__ import annotations

from .errors import CapExceeded, InternalInconsistency
from .gf import Field, field_new, prime_power_decompose
from .graphcore import Graph

# Order guard: the graph needs (q^2+q+1)^2 adjacency bits.
DEFAULT_GRAPH_Q_CAP = 128


def projective_points(field: Field) -> list[tuple[int, int, int]]:
    """The q^2+q+1 normalized points as element-index triples, in vertex order.

    The first nonzero coordinate is 1.  Points with x = 1 come first in
    lexicographic order, then (0, 1, z), then (0, 0, 1): since index 0 is zero
    and 1 is one, (1, y, z) is vertex y*q + z, (0, 1, z) is vertex q^2 + z and
    (0, 0, 1) is vertex q^2 + q.
    """
    q = field.q
    points = [(1, y, z) for y in range(q) for z in range(q)]
    points += [(0, 1, z) for z in range(q)]
    points.append((0, 0, 1))
    return points


def _bitmask(positions, nbytes: int) -> int:
    buf = bytearray(nbytes)
    for j in positions:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def er_graph(q: int) -> Graph:
    """Orthogonal polarity graph on PG(2, q).

    Distinct points u, v are adjacent iff u.v = 0; absolute points carry no
    loop.  Each vertex's neighborhood is its polar line u.x = 0, solved for
    one coordinate on element indices, so construction is O(N*q) table
    lookups rather than all-pairs.  The degree dichotomy (q+1 everywhere
    except degree q at the q+1 absolute points) is checked at build time,
    not assumed, so the absolute points are exactly the vertices of degree
    q.  A q over DEFAULT_GRAPH_Q_CAP is refused before it is factored.
    """
    if q > DEFAULT_GRAPH_Q_CAP:
        raise CapExceeded(f"q={q} polarity graph would have {q * q + q + 1} vertices")
    field = field_new(*prime_power_decompose(q))
    t = field.tables
    qq = q * q
    n = qq + q + 1
    nbytes = (n + 7) // 8
    elems = range(q)
    # plus[a][v] = a + v and times[b][y] = b * y, so a line costs one lookup of each per point
    plus = [[t.add(a, v) for v in elems] for a in elems]
    times = [[t.mul(b, y) for y in elems] for b in elems]
    block = [y * q for y in elems]
    rows = []
    absolutes = []
    for i, (u1, u2, u3) in enumerate(projective_points(field)):
        if u3:
            # x = 1 gives z = a + b*y with a = -u1/u3, b = -u2/u3; x = 0 gives (0, 1, b)
            w = t.neg(t.inv(u3))
            plus_a, b = plus[t.mul(u1, w)], t.mul(u2, w)
            line = [yq + plus_a[by] for yq, by in zip(block, times[b])]
            line.append(qq + b)
            row = _bitmask(line, nbytes)
        elif u2:
            # u1 + u2*y = 0 fixes y for every z; (0, 0, 1) lies on the line too
            y = t.mul(u1, t.neg(t.inv(u2)))
            row = ((1 << q) - 1) << (y * q) | 1 << (qq + q)
        else:
            # u = (1, 0, 0): the line x = 0
            row = ((1 << (q + 1)) - 1) << qq
        if row >> i & 1:
            absolutes.append(i)
            row ^= 1 << i
        rows.append(row)
    g = Graph(n, rows, _trusted=True)
    if len(absolutes) != q + 1:
        raise InternalInconsistency(f"{len(absolutes)} absolute points, expected {q + 1}")
    absolute_set = set(absolutes)
    for v in range(n):
        want = q if v in absolute_set else q + 1
        if g.degree(v) != want:
            raise InternalInconsistency(f"vertex {v} has degree {g.degree(v)}, expected {want}")
    return g

