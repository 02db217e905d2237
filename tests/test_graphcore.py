"""Graph container, counting kernels, and graph6 round-trips."""

import random
from itertools import combinations
from math import comb
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import c4book as cb
from c4book import graphcore
from c4book.errors import MalformedGraph6
from c4book.graphcore import Graph

from oracles import (
    _first_c4,
    complete_graph,
    cycle_graph,
    fan_graph,
    naive_is_c4_free,
    path_graph,
    petersen_graph,
    random_c4_free,
    random_graph,
    shuffled_copy,
    star_graph,
)
from paper_claims import EmptyQuerySet, common_neighbors, degree_profile


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # loop
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # out-of-range bit
    g = Graph(3, (0b110, 0b001, 0b001))
    assert g.edge_count() == 2


# -- C4 detection --


def test_c4_examples():
    c4 = cycle_graph(4)
    ok, witness = cb.is_c4_free(c4)
    assert not ok
    a, b, c, d = witness
    assert c4.has_edge(a, b) and c4.has_edge(b, c) and c4.has_edge(c, d) and c4.has_edge(d, a)
    assert cb.is_c4_free(cycle_graph(5)) == (True, None)
    assert cb.is_c4_free(cb.er_graph(3))[0]


def test_c4_witness_edges_always_close_a_cycle():
    rng = random.Random(4)
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 10), rng.random())
        ok, witness = cb.is_c4_free(g)
        if not ok:
            a, b, c, d = witness
            assert len({a, b, c, d}) == 4
            assert g.has_edge(a, b) and g.has_edge(b, c)
            assert g.has_edge(c, d) and g.has_edge(d, a)


def test_c4_agrees_with_naive_oracle():
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5, 0.7]))
        assert cb.is_c4_free(g)[0] == naive_is_c4_free(g)


def test_c4_witness_matches_pair_scan_exactly():
    # the witness is the pair scan's: first violating pair, first two common neighbors
    rng = random.Random(5)
    graphs = []
    for _ in range(2400):
        n = rng.randint(1, 30)
        graphs.append(random_graph(rng, n, rng.choice([0.03, 0.08, 0.15, 0.3, 0.6, 0.9])))
    for q in (2, 3, 4, 5, 7, 8, 9):
        for _ in range(3):
            g = shuffled_copy(cb.er_graph(q), rng)
            u, v = rng.choice([e for e in combinations(range(g.n), 2) if not g.has_edge(*e)])
            graphs += [g, Graph.from_edges(g.n, [*g.edges(), (u, v)])]  # the edge closes a C4
    verdicts = set()
    for g in graphs:
        w = _first_c4(g)
        assert cb.is_c4_free(g) == (w is None, w), g.rows
        verdicts.add(w is None)
    assert verdicts == {True, False}


# -- common neighborhoods --


def test_common_neighbors_examples():
    star = star_graph(3)
    assert common_neighbors(star, [1, 2]) == {0}
    c5 = cycle_graph(5)
    assert common_neighbors(c5, [0, 1]) == set()
    er2 = cb.er_graph(2)
    for u in range(7):
        for v in range(u + 1, 7):
            assert len(common_neighbors(er2, [u, v])) <= 1
    with pytest.raises(EmptyQuerySet):
        common_neighbors(star, [])


# -- pairs with no 2-path --


def test_non_two_path_pairs_examples():
    # C5 is triangle-free, so each of the 5 adjacent pairs has no common
    # neighbor; the 5 non-adjacent pairs have exactly one.
    assert cb.non_two_path_pairs(cycle_graph(5)) == 5
    assert cb.non_two_path_pairs(star_graph(3)) == 3
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert cb.non_two_path_pairs(two_k2) == 6


def test_two_path_partition_identity():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 11)
        g = random_graph(rng, n, rng.random())
        with_common = sum(
            1
            for u in range(n)
            for v in range(u + 1, n)
            if g.rows[u] & g.rows[v]
        )
        assert cb.non_two_path_pairs(g) + with_common == comb(n, 2)


# -- the counting inequality --


def test_kst_star_is_tight():
    chk = cb.kst_check(star_graph(3))
    assert (chk.lhs, chk.rhs_basic, chk.p, chk.rhs_refined) == (3, 6, 3, 3)
    assert chk.holds_basic and chk.holds_refined


def test_kst_c5():
    chk = cb.kst_check(cycle_graph(5))
    assert (chk.lhs, chk.rhs_basic, chk.p) == (5, 10, 5)
    assert chk.holds_basic and chk.holds_refined


def test_kst_refined_on_polarity_graphs():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        chk = cb.kst_check(cb.er_graph(q))
        assert chk.holds_basic and chk.holds_refined, q


def test_kst_refined_on_random_c4_free():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 25)
        g = random_c4_free(rng, n, rng.choice([0.15, 0.3, 0.5]))
        chk = cb.kst_check(g)
        assert chk.holds_basic and chk.holds_refined


# -- friendship fans --


def test_friendship_fans():
    for k in range(1, 51):
        assert cb.is_friendship(fan_graph(k)) == k


def test_friendship_rejections():
    assert cb.is_friendship(petersen_graph()) is None
    assert cb.is_friendship(cycle_graph(4)) is None
    assert cb.is_friendship(path_graph(2)) is None
    assert cb.is_friendship(Graph.empty(3)) is None


def test_friendship_regular_graphs_fail():
    # no regular graph on >= 4 vertices satisfies the pair condition
    regulars = [cycle_graph(n) for n in range(4, 12)]
    regulars += [complete_graph(n) for n in range(4, 8)]
    regulars.append(petersen_graph())
    regulars.append(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
    for g in regulars:
        degs = set(g.degrees())
        assert len(degs) == 1
        assert cb.is_friendship(g) is None


def test_friendship_trivial_order_one():
    assert cb.is_friendship(Graph.empty(1)) == 0


# -- complement / induced / degree profile --


def test_complement_self_complementary_c5():
    c5 = cycle_graph(5)
    comp = cb.complement(c5)
    from c4book.canon import canonical_form

    assert canonical_form(comp).key == canonical_form(c5).key


def test_induced_subgraph_k4_minus_vertex():
    k4 = complete_graph(4)
    k3 = cb.induced_subgraph(k4, [0, 2, 3])
    assert k3.n == 3 and k3.edge_count() == 3


def test_degree_profile_er3():
    prof = degree_profile(cb.er_graph(3))
    assert prof.min_degree == 3 and prof.max_degree == 4


# -- graph6 --


def test_g6_fixed_values():
    assert cb.g6_encode(complete_graph(3)) == b"Bw"
    assert cb.g6_encode(Graph.empty(1)) == b"@"
    assert cb.g6_decode(b"B~") == complete_graph(3)  # set pad bits are ignored


def test_g6_against_networkx(monkeypatch):
    rng = random.Random(5)
    # a 4-byte piece (24 bits) makes columns straddle the codec's piece borders
    for piece in (graphcore._G6_PIECE, 4):
        monkeypatch.setattr(graphcore, "_G6_PIECE", piece)
        for _ in range(200):
            n = rng.randint(1, 30)
            g = random_graph(rng, n, rng.random())
            mine = cb.g6_encode(g)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(nxg, header=False).strip()
            assert mine == theirs
            # and decode agrees with networkx's decoder on our bytes
            back = nx.from_graph6_bytes(mine)
            assert set(back.edges()) == set(g.edges()) or set(
                (min(e), max(e)) for e in back.edges()
            ) == set(g.edges())
            assert cb.g6_decode(mine) == g


def test_g6_roundtrip():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 100)
        g = random_graph(rng, n, rng.choice([0.05, 0.3, 0.8]))
        assert cb.g6_decode(cb.g6_encode(g)) == g
    er5 = cb.er_graph(5)
    assert cb.g6_decode(cb.g6_encode(er5)) == er5


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 200),
    st.floats(0, 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 7, graphcore._G6_MIRROR_COLS]),
)
def test_g6_roundtrip_random(n, p, seed, mirror_cols):
    # small mirror blocks put block borders inside graphs of every size
    g = random_graph(random.Random(seed), n, p)
    with mock.patch.object(graphcore, "_G6_MIRROR_COLS", mirror_cols):
        assert cb.g6_decode(cb.g6_encode(g)) == g


def test_g6_long_order_form():
    g = Graph.empty(63)  # needs the 3-byte order prefix
    assert cb.g6_decode(cb.g6_encode(g)) == g


def test_g6_malformed():
    with pytest.raises(MalformedGraph6) as err:
        cb.g6_decode(b"")
    assert err.value.offset == 0
    with pytest.raises(MalformedGraph6):
        cb.g6_decode(b"B\x10")  # byte below 63
    with pytest.raises(MalformedGraph6) as err:
        cb.g6_decode(b"C")  # order 4 needs one edge byte
    assert err.value.offset == 1
    with pytest.raises(MalformedGraph6):
        cb.g6_decode(b"Bww")  # trailing bytes
    with pytest.raises(MalformedGraph6) as err:
        cb.g6_decode("Bé")  # non-ASCII character in a str
    assert err.value.offset == 1


def test_g6_malformed_truncated_long_order_field():
    # "~~" announces an order in the next six bytes; two are given
    with pytest.raises(MalformedGraph6, match="truncated 6-byte order field") as err:
        cb.g6_decode(b"~~??")
    assert err.value.offset == 4


def test_g6_decode_str_input():
    assert cb.g6_decode("Bw") == complete_graph(3)
