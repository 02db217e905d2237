"""Projective planes and polarity graphs."""

import hashlib

import pytest

import c4book as cb
from c4book import geometry, gf
from c4book.errors import CapExceeded

from oracles import absolute_points_reference, coeffs_of, naive_field_add, naive_field_mul

STANDARD_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13]

# sha256 of g6_encode(er_graph(q)) for every prime power q <= 64, computed with
# the earlier polynomial-arithmetic build, which shares no code with the tables
ER_G6_SHA256 = {
    2: "671c4cff9e058575de853b4b3ad9bf05d1108dcc920ff7a5bf4deeee8b9f4b73",
    3: "fce854a3c483447e118eafeb713fae086034764234a91f74837de9128f9a9789",
    4: "f9d014a433119fa86f144ff70a9a88782043552cd71f2843a7cd207c037f101e",
    5: "d9c55a4d1566e06142aa39527a387bdd1010d64b1c3875df94bd8b4bcf234619",
    7: "4a7c5fa197b4faee9c10af1947e647f30d1bee3f964960d69966e990104defc2",
    8: "cf2172b810f8d16c8861ad334ac927711771047a2c0077b20cb4acc4696048f9",
    9: "65275bcf0e753c7c6f644c5dcb451b7558c627393efa927fe36ca793c8823667",
    11: "a5dc84060e199e5f8a3300b77e9e29b8b0bb78206612441e06f43bb9ee824cce",
    13: "779d7d1c08dc89c7a850d311aa3cf9a5b4c41e872c01486f8938615018eddc72",
    16: "0b79aa1ab967cc372f1fac4f224d00354a50bbecd81b9e4089b92a291dd13e8c",
    17: "c90333bd37c91891b38462d940bd689cfba1463f8576704bd7b56cb01d210b63",
    19: "41913625dccd30001ab4888155b6bfafaa31a178d440245064d08ae34df69da3",
    23: "4e134af53c2111e8e6edae3077f8838669181546ce2d591c2a43b1df508d42cc",
    25: "c24110a61c5f1f6d454067d0b949be1303759502a1f2735d1859b3a7879e3dda",
    27: "8d8c9551896a6d5245b1a49e857d950cec9925ef1ff402c17c03ab412c9903f9",
    29: "1494972666cd1c287c7698a30593963a861eea73b48143a340e5878424ca9af5",
    31: "ccd993e2b1c09a1b66c2737bd6267eebfac007a26fda76a55da3073be2ff235c",
    32: "197d5afdab1ab019c92a0f6572bcc33cc317c517d0751686cfa51104949ffb64",
    37: "d860e09045d8a16ab7774f796c7f080730d41765e5f774a6dbe2ee10b3814764",
    41: "7a170d48999e4a09ed9b57dea986167c63f66e4c501faaec421fddb140039eba",
    43: "e86142c472af436a77c0f571a9f11a359dbe8bba3864eb63eb76bd8cf4172806",
    47: "f41c5d744b7eb1799dd0e5d01ecbc074f6ccad295663de26577548466069adf0",
    49: "5ca6a928018a3aed298b9cbbd6df8c3ccd0fd69d398e83459f5453cbe3574c8b",
    53: "9510e66b3e21c9079b78e464cb17990ed219789114e47e16b6b09d7010713541",
    59: "fbc46f114c5547478eb80018f0a7ab1277971643d6d8b418f5b7907dbf07a961",
    61: "527626dd1b1daff40888643f1f6e3a865f8f07a4693c75ae97c7320e14d8aea3",
    64: "ef637097e7d99fa97a28ef97f1a27e44f93ad722f9d2c6f10c60fdac02fb1ba6",
}


def field_for(q):
    return gf.field_new(*gf.prime_power_decompose(q))


def test_point_counts():
    assert len(cb.projective_points(field_for(2))) == 7
    assert len(cb.projective_points(field_for(3))) == 13
    assert len(cb.projective_points(field_for(4))) == 21


def test_points_normalized_and_pairwise_nonproportional():
    field = field_for(4)
    p, e, modulus = field.p, field.e, field.modulus
    pts = cb.projective_points(field)
    for pt in pts:
        first = next(c for c in pt if c != 0)
        assert first == 1  # index 1 is the field's one
    # exhaustive proportionality check: no two points are scalar multiples
    seen = set()
    for pt in pts:
        for lam in range(1, field.q):
            scaled = tuple(naive_field_mul(lam, c, p, e, modulus) for c in pt)
            assert scaled not in seen
            seen.add(scaled)
    assert len(seen) == len(pts) * (field.q - 1)


def test_point_order_deterministic():
    field = field_for(3)
    a = cb.projective_points(field)
    b = cb.projective_points(field)
    assert a == b
    assert [coeffs_of(c, 3, 1) for c in a[0]] == [(1,), (0,), (0,)]
    assert a[:9] == sorted(a[:9])  # x1=1 block first, lexicographic
    assert a[9:] == [(0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 1)]


@pytest.mark.parametrize("q", STANDARD_Q)
def test_polarity_graph_structure(q):
    g = cb.er_graph(q)
    assert g.n == q * q + q + 1
    ok, witness = cb.is_c4_free(g)
    assert ok, f"ER_{q} has a 4-cycle {witness}"
    degs = g.degrees()
    assert set(degs) <= {q, q + 1}
    assert sum(1 for d in degs if d == q) == q + 1
    absolutes = absolute_points_reference(q)
    assert len(absolutes) == q + 1
    assert all(degs[v] == q for v in absolutes)


@pytest.mark.parametrize("q", STANDARD_Q)
def test_pairwise_common_neighbors_at_most_one(q):
    """Equivalent form of C4-freeness, checked by direct pair intersections."""
    g = cb.er_graph(q)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert (g.rows[u] & g.rows[v]).bit_count() <= 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_er_graph_adjacency_by_dot_product(q):
    """Distinct points u, v are adjacent exactly when u.v = 0 (polynomial oracle)."""
    field = field_for(q)
    p, e, modulus = field.p, field.e, field.modulus
    pts = cb.projective_points(field)
    g = cb.er_graph(q)

    def dot(u, v):
        total = 0
        for a, b in zip(u, v):
            total = naive_field_add(total, naive_field_mul(a, b, p, e, modulus), p, e)
        return total

    for i, u in enumerate(pts):
        for j in range(i + 1, len(pts)):
            assert g.has_edge(i, j) == (dot(u, pts[j]) == 0), (q, u, pts[j])


def test_er2_edge_count_and_absolute_coordinates():
    g = cb.er_graph(2)
    assert g.n == 7 and g.edge_count() == 9
    assert sum(1 for d in g.degrees() if d == 2) == 3
    pts = cb.projective_points(field_for(2))
    absolutes = absolute_points_reference(2)
    coords = {tuple(coeffs_of(c, 2, 1)[0] for c in pts[i]) for i in absolutes}
    assert coords == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_absolute_point_counts():
    assert len(absolute_points_reference(3)) == 4
    assert len(absolute_points_reference(5)) == 6


def test_er_graph_reproducible_bytes():
    a = cb.g6_encode(cb.er_graph(3))
    b = cb.g6_encode(cb.er_graph(3))
    assert a == b
    # frozen golden: deterministic vertex order means stable graph6 output
    assert a == cb.g6_encode(cb.g6_decode(a))


@pytest.mark.parametrize("q", sorted(ER_G6_SHA256))
def test_er_graph_pinned_digest(q):
    assert hashlib.sha256(cb.g6_encode(cb.er_graph(q))).hexdigest() == ER_G6_SHA256[q]


def test_er_graph_refuses_q_over_cap_before_factoring(monkeypatch):
    # factoring this q by trial division takes about 20 s
    q = 10000000000000061
    monkeypatch.setattr(geometry, "prime_power_decompose", lambda q: pytest.fail(f"factored q={q}"))
    for arg in (q, geometry.DEFAULT_GRAPH_Q_CAP + 1):
        with pytest.raises(CapExceeded):
            geometry.er_graph(arg)


def test_er_graph_order_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        cb.er_graph(131)
    monkeypatch.setattr(geometry, "DEFAULT_GRAPH_Q_CAP", 2)
    assert geometry.er_graph(2).n == 7
    with pytest.raises(CapExceeded):
        geometry.er_graph(3)
