"""Canonical forms: invariance, discrimination, digests."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import c4book as cb
from c4book import canon
from c4book.canon import _refine, canonical_form, canonical_graph, canonical_key, graph_digest
from c4book.geometry import er_graph
from c4book.graphcore import Graph, g6_encode, induced_subgraph
from c4book.search import greedy_min_degree_subgraph

from oracles import (
    canonical_form_reference,
    cycle_graph,
    path_graph,
    perm_canonical_mask,
    random_graph,
    refine_reference,
    relabeled,
    shuffled_copy,
)


def test_key_invariant_under_relabeling():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        assert canonical_key(g) == canonical_key(shuffled_copy(g, rng))


def test_key_separates_nonisomorphic_small_graphs():
    """Keys must classify exactly like the permutation-minimum oracle."""
    rng = random.Random(12)
    for n in (4, 5, 6):
        for _ in range(200):
            g = random_graph(rng, n, rng.random())
            h = random_graph(rng, n, rng.random())
            same_class = perm_canonical_mask(g) == perm_canonical_mask(h)
            assert (canonical_key(g) == canonical_key(h)) == same_class


def test_canonical_graph_is_isomorphic_relabeling():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        cg = canonical_graph(g)
        assert cg.n == g.n
        assert sorted(cg.degrees()) == sorted(g.degrees())
        assert canonical_key(cg) == canonical_key(g)


def test_last_canonical_vertex_has_largest_degree():
    # refinement splits by degree first and keeps cells in order; orderly
    # generation in search._children rejects children unlabelled on this
    rng = random.Random(14)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        degrees = g.degrees()
        assert degrees[canonical_form(g).order[-1]] == max(degrees)


def test_canonical_form_labeling_consistency():
    g = cycle_graph(6)
    form = canonical_form(g)
    assert sorted(form.labeling) == list(range(6))
    assert tuple(form.labeling[v] for v in form.order) == tuple(range(6))


def test_generators_are_automorphisms():
    for g in (cycle_graph(5), path_graph(4), Graph.empty(5)):
        form = canonical_form(g)
        for gen in form.generators:
            for u, v in g.edges():
                assert g.has_edge(gen[u], gen[v])


def test_digest_invariance_and_length():
    rng = random.Random(14)
    g = random_graph(rng, 8, 0.4)
    h = shuffled_copy(g, rng)
    assert graph_digest(g) == graph_digest(h)
    assert len(graph_digest(g)) == 64


def test_empty_and_complete_graphs():
    for n in range(1, 9):
        empty = Graph.empty(n)
        full = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert canonical_key(empty) != canonical_key(full) or n == 1
        assert canonical_graph(empty) == empty


# -- refinement: the exact ordered partition of the reference --


def random_partition(rng: random.Random, n: int) -> list:
    order = list(range(n))
    rng.shuffle(order)
    labels = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
    return [c for c in ([v for v in order if labels[v] == i] for i in range(4)) if c]


def test_refine_matches_reference_on_random_graphs():
    rng = random.Random(15)
    for _ in range(400):
        n = rng.randint(1, 18)
        g = random_graph(rng, n, rng.random())
        for cells in ([list(range(n))], random_partition(rng, n)):
            assert _refine(g.rows, cells) == refine_reference(g.rows, cells)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_refine_matches_reference_on_polarity_graphs(q):
    rows = er_graph(q).rows
    unit = [list(range(len(rows)))]
    equitable = _refine(rows, unit)
    assert equitable == refine_reference(rows, unit)
    # one vertex individualized in the first largest cell, as the search does
    idx = max(range(len(equitable)), key=lambda i: (len(equitable[i]), -i))
    cell = equitable[idx]
    for v in cell:
        cells = equitable[:idx] + [[v], [w for w in cell if w != v]] + equitable[idx + 1 :]
        assert _refine(rows, cells) == refine_reference(rows, cells)


# Certificates carry these digests as graph_hash, so a faster refinement or
# search must leave them, and the search tree behind them, unchanged.
@pytest.mark.parametrize(
    "q, digest",
    [
        (9, "847d428a3f9a3428fc89bf7ecfdd182414f006d7c9856cc14e4f242639ceef18"),
        (16, "f554bf44729e6709ab0dd79fe8adf8da0500085835658320ec102a1333365243"),
        (17, "08626797df62df93a9445dd0f1d05aa5ec54ae6ff1af543affb53e5fac8a4110"),
        # even q, where the backjump skips the most: the search reaches 14
        # leaves, canonical_form_reference 973
        (32, "afc72199415ca64b70a824d70ab864cf8331da64ffe78b7dfda1bfac4882313f"),
    ],
)
def test_polarity_graph_pinned_digest(q, digest):
    assert graph_digest(er_graph(q)) == digest


def family_witness(q):
    # the t = 2 member of the exact-value family: q^2 + 1 vertices of ER_q, degree >= q
    g = er_graph(q)
    return induced_subgraph(g, greedy_min_degree_subgraph(g, q * q + 1, q))


@pytest.mark.parametrize(
    "q, digest",
    [
        (8, "4bdd4cdc61ebb052e2a1f3df05114ad67f22f6d7314e27617e051035745deaca"),
        (16, "7f54a5775846e3e56925496bdbe7c50ad6e556934a0df4ec8f2ca54500196b53"),
        # several seconds: opt-in with -m slow
        pytest.param(
            32,
            "a3e21f6baf82e8540e7bfc905863244a65106879df0b688c290815ce10f72f89",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_family_witness_pinned_digest(q, digest):
    assert graph_digest(family_witness(q)) == digest


def test_digest_is_sha256_of_canonical_graph6():
    # graph_digest reads the encoding off the key; n >= 63 takes the 4-byte order header
    rng = random.Random(16)
    graphs = [Graph.empty(0), Graph.empty(1), Graph.empty(2), Graph.from_edges(2, [(0, 1)])]
    graphs += [random_graph(rng, n, rng.random()) for n in range(3, 71)]
    graphs += [er_graph(q) for q in (2, 3, 7, 8, 16)]
    for g in graphs:
        assert graph_digest(g) == hashlib.sha256(g6_encode(canonical_graph(g))).hexdigest(), g


def test_polarity_graph_pinned_generator_count():
    # The backjump abandons the siblings below each automorphism leaf, so
    # the search finds 4 generators where canonical_form_reference finds 35;
    # the form is the same.
    g = er_graph(17)
    gens = canonical_form(g).generators
    assert len(gens) == 4
    assert len(canonical_form_reference(g).generators) == 35
    for gen in gens:
        assert sorted(gen) == list(range(g.n))
        for u, v in g.edges():
            assert g.has_edge(gen[u], gen[v])


# -- the backjump keeps the first maximal leaf of the full search --


def assert_same_form(g):
    form, ref = canonical_form(g), canonical_form_reference(g)
    assert (form.key, form.order, form.labeling) == (ref.key, ref.order, ref.labeling)
    assert len(form.generators) <= len(ref.generators)


@pytest.mark.parametrize("n", range(3, 25))
def test_form_matches_reference_on_cycles(n):
    assert_same_form(cycle_graph(n))


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_form_matches_reference_on_relabeled_polarity_graphs(q):
    g = er_graph(q)
    rng = random.Random(q)
    assert_same_form(g)
    for _ in range(3):
        assert_same_form(shuffled_copy(g, rng))


def test_search_refinements_match_reference(monkeypatch):
    # below the root the search queues only the individualized vertex; the
    # reference queues every cell, and each refinement must come out the same
    refine = canon._refine
    splitters = []

    def checked(rows, cells, splitter=None):
        out = refine(rows, cells, splitter)
        assert out == refine_reference(rows, cells)
        splitters.append(splitter)
        return out

    monkeypatch.setattr(canon, "_refine", checked)
    rng = random.Random(17)
    graphs = [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(150)]
    graphs += [shuffled_copy(er_graph(q), rng) for q in (4, 5, 7, 8, 9)]
    graphs.append(family_witness(8))
    for g in graphs:
        canonical_form(g)
    assert splitters.count(None) == len(graphs)
    assert len(splitters) > 2 * len(graphs)


# -- properties over random graphs and relabelings --


@st.composite
def graphs_with_permutation(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    g = Graph.from_edges(n, [e for e, b in zip(pairs, bits) if b])
    return g, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(graphs_with_permutation())
def test_key_invariant_under_random_relabeling(case):
    g, perm = case
    assert canonical_key(relabeled(g, perm)) == canonical_key(g)


@settings(max_examples=200, deadline=None)
@given(graphs_with_permutation(), st.data())
def test_refine_is_equivariant(case, data):
    g, perm = case
    labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    order = data.draw(st.permutations(range(g.n)))
    cells = [c for c in ([v for v in order if labels[v] == i] for i in range(4)) if c]
    moved = [[perm[v] for v in c] for c in cells]
    expected = [[perm[v] for v in c] for c in _refine(g.rows, cells)]
    assert _refine(relabeled(g, perm).rows, moved) == expected


@settings(max_examples=300, deadline=None)
@given(graphs_with_permutation())
def test_form_matches_reference_on_random_graphs(case):
    g, perm = case
    assert_same_form(g)
    assert_same_form(relabeled(g, perm))
