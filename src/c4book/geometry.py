"""The projective plane PG(2, q) and the orthogonal polarity graph on it.

Vertices are the q^2+q+1 normalized points; two distinct points are adjacent
when their standard dot product vanishes.  The bilinear form is fixed as
x1*y1 + x2*y2 + x3*y3: any non-degenerate symmetric form gives an isomorphic
graph, and fixing one keeps every output reproducible byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .errors import CapExceeded, InternalInconsistency
from .gf import Field, FieldElement, field_new
from .graphcore import Graph

# Order guard: the graph needs (q^2+q+1)^2 adjacency bits.
DEFAULT_GRAPH_Q_CAP = 128


@dataclass(frozen=True)
class ProjPoint:
    """Normalized homogeneous coordinates: first nonzero entry is 1."""

    coords: tuple[FieldElement, FieldElement, FieldElement]

    def dot(self, other: "ProjPoint") -> FieldElement:
        a, b = self.coords, other.coords
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def is_absolute(self) -> bool:
        return not self.dot(self)


def _point_coords(q: int) -> list[tuple[int, int, int]]:
    """Element indices of the q^2+q+1 normalized points, in vertex order.

    Index 0 is zero and 1 is one, so (1, y, z) is vertex y*q + z, (0, 1, z)
    is vertex q^2 + z and (0, 0, 1) is vertex q^2 + q.
    """
    points = [(1, y, z) for y in range(q) for z in range(q)]
    points += [(0, 1, z) for z in range(q)]
    points.append((0, 0, 1))
    return points


def projective_points(field: Field) -> list[ProjPoint]:
    """All q^2+q+1 points, deterministically ordered.

    Points with x1 = 1 come first in lexicographic coordinate order, then
    (0, 1, a), then (0, 0, 1).
    """
    elems = gf.elements(field)
    return [ProjPoint(tuple(elems[c] for c in pt)) for pt in _point_coords(field.q)]


def absolute_points(field: Field) -> list[int]:
    """Indices of self-orthogonal points; always exactly q+1 of them."""
    t = field.tables
    out = [
        i
        for i, (x, y, z) in enumerate(_point_coords(field.q))
        if not t.add(t.add(t.mul(x, x), t.mul(y, y)), t.mul(z, z))
    ]
    if len(out) != field.q + 1:
        raise InternalInconsistency(
            f"expected {field.q + 1} absolute points in PG(2,{field.q}), found {len(out)}"
        )
    return out


def _bitmask(positions, nbytes: int) -> int:
    buf = bytearray(nbytes)
    for j in positions:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def er_graph(field_or_q, q_cap: int = DEFAULT_GRAPH_Q_CAP) -> Graph:
    """Orthogonal polarity graph on PG(2, q).

    Distinct points u, v are adjacent iff u.v = 0; absolute points carry no
    loop.  Each vertex's neighborhood is its polar line u.x = 0, solved for
    one coordinate on element indices, so construction is O(N*q) table
    lookups rather than all-pairs.  The degree dichotomy (q+1 everywhere
    except degree q at the q+1 absolute points) is checked at build time,
    not assumed.
    """
    field = field_or_q if isinstance(field_or_q, Field) else field_new(*_pp(field_or_q))
    q = field.q
    if q > q_cap:
        raise CapExceeded(f"q={q} polarity graph would have {q * q + q + 1} vertices")
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
    for i, (u1, u2, u3) in enumerate(_point_coords(q)):
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


def _pp(q: int) -> tuple[int, int]:
    """Decompose a prime power q = p^e; raises if q is not one."""
    return gf.prime_power_decompose(q)
