"""Book numbers, witnesses, certificates, and the proof diagnostics in ``paper_claims``."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import c4book as cb
from c4book import ramsey
from c4book.errors import DomainError, NotC4Free
from c4book.graphcore import Graph

from oracles import (
    complete_graph,
    cycle_graph,
    naive_book_witness,
    naive_complement_book_number,
    pair_loop_c4_extension_masks,
    random_c4_free,
    random_graph,
    star_graph,
)
from paper_claims import find_admissible_sets, good_pairs, verify_admissible


# -- complement book number --


def test_book_number_examples():
    count, witness = cb.complement_book_number(Graph.empty(5), 2)
    assert count == 3 and witness.spine == (0, 1)
    count, witness = cb.complement_book_number(cycle_graph(6), 1)
    assert count == 3
    count, witness = cb.complement_book_number(complete_graph(4), 2)
    assert count == 0 and witness.spine == ()


def test_book_number_against_oracle():
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
        for k in range(1, min(3, n) + 1):
            mine, _ = cb.complement_book_number(g, k)
            assert mine == naive_complement_book_number(g, k), (g.rows, k)


def test_book_witness_is_valid_and_lex_minimal():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.random())
        k = rng.randint(1, min(3, n))
        count, witness = cb.complement_book_number(g, k)
        if not witness.spine:
            continue
        # spine independent, pages complete to the spine in the complement
        for u, v in combinations(witness.spine, 2):
            assert not g.has_edge(u, v)
        for w in witness.pages:
            assert w not in witness.spine
            assert all(not g.has_edge(w, u) for u in witness.spine)
        assert witness.page_count == count == len(witness.pages)
        # lexicographically smallest maximizing spine
        best = None
        for spine in combinations(range(n), k):
            if any(g.has_edge(u, v) for u, v in combinations(spine, 2)):
                continue
            pages = sum(
                1
                for w in range(n)
                if w not in spine and all(not g.has_edge(w, u) for u in spine)
            )
            if pages == count:
                best = spine
                break
        assert witness.spine == best


def test_book_number_domain():
    with pytest.raises(DomainError):
        cb.complement_book_number(Graph.empty(3), 0)
    with pytest.raises(DomainError):
        cb.complement_book_number(Graph.empty(3), 4)


def test_book_number_stop_at_short_circuit():
    count, _ = cb.complement_book_number(Graph.empty(9), 2, stop_at=3)
    assert count >= 3


def _assert_consistent_witness(g, k, count, witness):
    assert len(witness.spine) == k
    assert list(witness.spine) == sorted(set(witness.spine))
    for u, v in combinations(witness.spine, 2):
        assert not g.has_edge(u, v)
    common = [
        w
        for w in range(g.n)
        if w not in witness.spine and all(not g.has_edge(w, u) for u in witness.spine)
    ]
    assert list(witness.pages) == common
    assert witness.page_count == len(witness.pages) == count


def test_book_number_stop_at_witness_is_consistent():
    # a stop_at search once returned a positive count with an empty spine
    # on this graph; the witness must be the spine that reached stop_at and
    # its pages
    g = Graph(11, (64, 916, 850, 304, 78, 1864, 565, 2, 46, 102, 32))
    count, witness = cb.complement_book_number(g, 3, stop_at=3)
    assert count >= 3
    _assert_consistent_witness(g, 3, count, witness)
    rng = random.Random(24)
    for _ in range(1500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        k = rng.randint(1, min(4, n))
        stop_at = rng.randint(0, n)
        count, witness = cb.complement_book_number(g, k, stop_at=stop_at)
        if count > 0:
            _assert_consistent_witness(g, k, count, witness)
        assert (count >= stop_at) == (naive_complement_book_number(g, k) >= stop_at)


@st.composite
def graphs_with_k(draw, max_n=14, max_k=4):
    n = draw(st.integers(1, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    g = Graph.from_edges(n, [e for e, b in zip(pairs, bits) if b])
    return g, draw(st.integers(1, min(max_k, n)))


@settings(max_examples=300, deadline=None)
@given(graphs_with_k())
def test_book_number_matches_oracle_exactly(case):
    g, k = case
    count, witness = cb.complement_book_number(g, k)
    assert (count, witness.spine) == naive_book_witness(g, k)
    if witness.spine:
        _assert_consistent_witness(g, k, count, witness)


@settings(max_examples=300, deadline=None)
@given(graphs_with_k(), st.data())
def test_book_number_stop_at_matches_oracle_verdict(case, data):
    g, k = case
    stop_at = data.draw(st.integers(0, g.n + 1))
    true_count = naive_complement_book_number(g, k)
    count, witness = cb.complement_book_number(g, k, stop_at=stop_at)
    assert (count >= stop_at) == (true_count >= stop_at)
    assert count <= true_count
    if count < stop_at:  # no early exit: the exact answer
        assert (count, witness.spine) == naive_book_witness(g, k)
    if count > 0:
        _assert_consistent_witness(g, k, count, witness)


def test_book_number_counting_bound_on_c4_free_graphs():
    # The counting-lemma bound prunes hardest on C4-free graphs (pairs share
    # at most one neighbor); one added edge usually makes a C4, and the bound
    # must then fall back to lam = n.
    rng = random.Random(25)
    for _ in range(150):
        n = rng.randint(1, 14)
        g = random_c4_free(rng, n, rng.choice([0.2, 0.4, 0.7]))
        graphs = [g]
        if g.edge_count() < comb(n, 2):
            e = rng.choice([e for e in combinations(range(n), 2) if not g.has_edge(*e)])
            graphs.append(Graph.from_edges(n, [*g.edges(), e]))
        for h in graphs:
            for k in range(1, min(4, n) + 1):
                expected = naive_book_witness(h, k)
                count, witness = cb.complement_book_number(h, k)
                assert (count, witness.spine) == expected, (h.rows, k)
                stop_at = rng.randint(0, n + 1)
                count, witness = cb.complement_book_number(h, k, stop_at=stop_at)
                assert (count >= stop_at) == (expected[0] >= stop_at), (h.rows, k, stop_at)
                if count < stop_at:
                    assert (count, witness.spine) == expected, (h.rows, k, stop_at)
                if count > 0:
                    _assert_consistent_witness(h, k, count, witness)


def test_book_number_spines_restriction_matches_oracle():
    # Only spines inside the mask are searched, pages still range over every
    # vertex; c4_free=True on a C4-free graph changes nothing but the work.
    rng = random.Random(26)
    narrowed = 0
    for _ in range(400):
        n = rng.randint(1, 11)
        c4_free = rng.random() < 0.5
        g = random_c4_free(rng, n, 0.4) if c4_free else random_graph(rng, n, rng.choice([0.2, 0.5]))
        k = rng.randint(1, min(4, n))
        allowed = [v for v in range(n) if rng.random() < 0.6]
        spines = sum(1 << v for v in allowed) | -1 << n  # bits past n are no vertex
        expected = naive_book_witness(g, k, allowed)
        count, witness = cb.complement_book_number(g, k, None, spines, c4_free)
        assert (count, witness.spine) == expected, (g.rows, k, allowed)
        if count > 0:
            _assert_consistent_witness(g, k, count, witness)
        stop_at = rng.randint(0, n + 1)
        count, _ = cb.complement_book_number(g, k, stop_at, spines, c4_free)
        assert (count >= stop_at) == (expected[0] >= stop_at), (g.rows, k, allowed, stop_at)
        narrowed += expected[0] < naive_complement_book_number(g, k)
    assert narrowed > 50  # the mask does cut books


def test_extension_book_free_matches_full_check():
    # The pruner's premise: g - v, v the last vertex, has no B_n^(k) in its
    # complement.  Then the books through v, whose spines lie in
    # {v} | non-nbrs(v), decide the child exactly as the full search and
    # the oracle do, for every C4-free one-vertex extension.
    rng = random.Random(27)
    children = 0
    for k in range(1, 5):
        for _ in range(20):
            g = random_c4_free(rng, rng.randint(1, 10), rng.choice([0.2, 0.4]))
            book = naive_complement_book_number(g, k) if k <= g.n else 0
            for mask in pair_loop_c4_extension_masks(g):
                child = g.with_vertex(mask)
                true_count = naive_complement_book_number(child, k) if k <= child.n else 0
                for n in (book + 1, book + 2):
                    want = true_count < n
                    assert ramsey._book_free(child, k, n) == want, (child.rows, k, n)
                    assert ramsey._book_free(child, k, n, ~child.rows[-1]) == want
                    assert ramsey._extension_book_free(child, k, n) == want, (child.rows, k, n)
                children += 1
    assert children > 2000


@pytest.mark.parametrize(
    "q, k, book, cap",
    [
        (7, 3, 36, 36), (9, 3, 64, 64), (11, 3, 100, 100), (17, 3, 256, 256),
        (23, 3, 484, 484), (29, 3, 784, 784), (9, 4, 57, 57), (17, 4, 241, 241),
        (9, 5, 51, 51),
        (8, 3, 48, 49), (16, 3, 224, 225), (32, 3, 960, 961), (8, 4, 41, 43),
    ],
)
def test_book_number_tightness_split_on_polarity_graphs(q, k, book, cap):
    # The certificate's n* - 1 (cap) is the exact book number of ER_q at odd
    # q and exceeds it at even q, where the absolute points are collinear.
    g = cb.er_graph(q)
    assert g.n - k * (min(g.degrees()) + 1) + comb(k, 2) == cap
    assert cb.complement_book_number(g, k)[0] == book


# -- witnesses --


def test_witness_examples():
    c6 = cycle_graph(6)
    assert cb.is_ramsey_witness(c6, 1, 4)
    assert not cb.is_ramsey_witness(cycle_graph(4), 1, 100)
    assert cb.is_ramsey_witness(cb.er_graph(3), 1, 10)


@pytest.mark.parametrize("k, n", [(0, 3), (-1, 3), (3, 0), (30, 0), (2, -4)])
def test_witness_k_or_n_below_one_rejected(k, n):
    with pytest.raises(DomainError):
        cb.is_ramsey_witness(cycle_graph(6), k, n)


# -- certificates --


def test_certificate_er3():
    cert = cb.certify_lower_bound(cb.er_graph(3), 1)
    assert cert.order == 13 and cert.min_degree == 3
    assert cert.guaranteed_book_free_n == 10
    assert cert.implied_bound == "r(C4, B_10^(1)) >= 14"


def test_certificate_er2():
    cert = cb.certify_lower_bound(cb.er_graph(2), 1)
    assert cert.guaranteed_book_free_n == 5
    assert cert.implied_bound == "r(C4, B_5^(1)) >= 8"


def test_certificate_formula_and_crossvalidation():
    # certify_lower_bound itself cross-validates against the exhaustive book
    # number for every graph here (all have order <= 80); the explicit
    # re-check below is limited to the smaller ones to keep the test fast.
    rng = random.Random(23)
    graphs = [cb.er_graph(q) for q in (2, 3, 4, 5, 7, 8)]
    for _ in range(60):
        graphs.append(random_c4_free(rng, rng.randint(2, 40), 0.3))
    for g in graphs:
        delta = min(g.degrees())
        for k in (1, 2, 3):
            if k > g.n:
                continue
            cert = cb.certify_lower_bound(g, k)
            assert cert.guaranteed_book_free_n == g.n - k * (delta + 1) + comb(k, 2) + 1
            if g.n <= 30:
                nmax, _ = cb.complement_book_number(g, k)
                assert cert.guaranteed_book_free_n - 1 >= nmax


@pytest.mark.parametrize("k", [3, 4])
def test_certificate_without_independent_k_set(k):
    # C5 at k = 3, 4: n* = 0 and -1, and its complement C5 has no K_k, so
    # no B_1^(k) either; the certificate states n = 1
    cert = cb.certify_lower_bound(cycle_graph(5), k)
    assert cert.guaranteed_book_free_n == 1
    assert cert.implied_bound == f"r(C4, B_1^({k})) >= 6"
    assert cb.complement_book_number(cycle_graph(5), k) == (0, cb.BookWitness((), (), 0))


def test_certificate_refuses_c4():
    with pytest.raises(NotC4Free):
        cb.certify_lower_bound(cycle_graph(4), 1)


def test_certificate_hash_is_isomorphism_invariant():
    g = cb.er_graph(3)
    perm = list(range(g.n))
    random.Random(1).shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert cb.certify_lower_bound(g, 2).graph_hash == cb.certify_lower_bound(h, 2).graph_hash


# -- admissible sets --


def test_admissible_star_center_empty():
    star = star_graph(5)
    assert find_admissible_sets(star, 0, 2, deg_cap=5) == []


def test_admissible_singletons():
    g = cb.er_graph(3)
    sets = find_admissible_sets(g, 0, 1, deg_cap=4, limit=50)
    assert sets
    nbhd = set(g.neighbors(0)) | {0}
    for (x,) in sets:
        assert x not in nbhd
        assert any(g.has_edge(x, u) for u in g.neighbors(0))
        assert g.degree(x) <= 4


def test_admissible_pairs_er5():
    g = cb.er_graph(5)
    v = next(u for u in range(g.n) if g.degree(u) == 6)  # not an absolute point
    sets = find_admissible_sets(g, v, 2, deg_cap=5, limit=200)
    for pair in sets:
        assert verify_admissible(g, v, pair, 5)
        x, y = pair
        assert not g.has_edge(x, y)
        assert g.degree(x) <= 5 and g.degree(y) <= 5


def test_admissible_properties_reverified_on_random_inputs():
    rng = random.Random(24)
    hits = 0
    for _ in range(40):
        g = random_c4_free(rng, rng.randint(6, 18), 0.35)
        v = rng.randrange(g.n)
        k = rng.randint(1, 3)
        cap = max(g.degrees(), default=0)
        for k_set in find_admissible_sets(g, v, k, deg_cap=cap, limit=20):
            assert verify_admissible(g, v, k_set, cap)
            hits += 1
    assert hits > 0


def test_claim3_dichotomy_on_polarity_graphs():
    """Either an admissible set has a disjoint-neighborhood pair, or it pins a
    book of at least N - k - kq + C(k,2) pages in the complement (exactly,
    when every pair shares a neighbor)."""
    for q in (4, 5, 7, 8):
        g = cb.er_graph(q)
        n_v = g.n
        for v in range(0, n_v, max(1, n_v // 6)):
            for k in (2, 3):
                if g.degree(v) < k:
                    continue
                for k_set in find_admissible_sets(g, v, k, deg_cap=q, limit=30):
                    disjoint = any(
                        not (g.rows[x] & g.rows[y]) for x, y in combinations(k_set, 2)
                    )
                    if disjoint:
                        continue
                    spine_mask = 0
                    union = 0
                    for x in k_set:
                        spine_mask |= 1 << x
                        union |= g.rows[x]
                    pages = n_v - k - (union & ~spine_mask).bit_count()
                    assert pages >= n_v - k - k * q + comb(k, 2)


# -- good pairs --


def test_good_pairs_examples():
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert good_pairs(two_k2, 1).count == 6
    # C5 is triangle-free: its five edges are exactly the disjoint-
    # neighborhood pairs, matching non_two_path_pairs at full degree cap
    assert good_pairs(cycle_graph(5), 2).count == 5
    gp = good_pairs(star_graph(3), 3)
    assert gp.count == 3
    assert set(gp.sample) == {(0, 1), (0, 2), (0, 3)}


def test_good_pairs_match_two_path_count_at_full_cap():
    rng = random.Random(25)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        cap = max(g.degrees(), default=0)
        assert good_pairs(g, cap).count == cb.non_two_path_pairs(g)
        assert good_pairs(g, cap - 1).count <= cb.non_two_path_pairs(g)
