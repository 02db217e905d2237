"""Construction searches and the isomorph-free enumeration engine."""

import inspect
import pickle
import random
from functools import partial
from types import SimpleNamespace

import pytest

import c4book as cb
from c4book import _anneal, _constructions, _orderly, bounds, canon, ramsey, search
from c4book.canon import canonical_form
from c4book.cli import main
from c4book.errors import (
    AsymptoticRegimeNotReached,
    BudgetExhausted,
    CapExceeded,
    DomainError,
    InternalInconsistency,
)
from c4book.graphcore import Graph, _two_step, g6_encode

import oracles
from oracles import (
    _toggle_delta,
    all_labeled_c4_free,
    brute_class_count_all,
    children_reference,
    classify_c4_free,
    cycle_graph,
    line_graph_of_petersen,
    naive_complement_book_number,
    probe_reference,
    random_c4_free,
    star_graph,
    violating_pairs,
)


# -- greedy minimum-degree subgraph --


def test_greedy_no_deletion_needed():
    er3 = cb.er_graph(3)
    verts = cb.greedy_min_degree_subgraph(er3, 13, 3)
    assert verts == tuple(range(13))


def test_greedy_er2_single_deletion():
    er2 = cb.er_graph(2)
    verts = cb.greedy_min_degree_subgraph(er2, 6, 2)
    assert verts is not None and len(verts) == 6
    sub = cb.induced_subgraph(er2, verts)
    assert min(sub.degrees()) >= 2
    # brute force: which single deletions work at all?
    ok_deletions = [
        v
        for v in range(7)
        if min(er2.delete_vertex(v).degrees()) >= 2
    ]
    assert ok_deletions  # the found set must be one of these complements
    assert tuple(sorted(set(range(7)) - set(verts)))[0] in ok_deletions


def test_greedy_star_impossible():
    assert cb.greedy_min_degree_subgraph(star_graph(3), 3, 2) is None


def test_greedy_budget_exhausted():
    er5 = cb.er_graph(5)
    with pytest.raises(BudgetExhausted):
        cb.greedy_min_degree_subgraph(er5, 20, 5, budget=1)


@pytest.mark.parametrize("budget", [0, -1])
def test_greedy_budget_below_one_rejected(budget):
    with pytest.raises(DomainError):
        cb.greedy_min_degree_subgraph(cb.er_graph(4), 18, 4, budget=budget)


@pytest.mark.parametrize("order", [-1, 0, 22])
def test_greedy_target_order_out_of_range_rejected(order):
    with pytest.raises(DomainError):
        cb.greedy_min_degree_subgraph(cb.er_graph(4), order, 0)


def test_greedy_node_counts_pinned():
    # the recursive walk that the explicit stack replaced gave these: the
    # same result after the same number of nodes, in the same branch order
    er8 = cb.er_graph(8)
    verts = cb.greedy_min_degree_subgraph(er8, 69, 8, budget=5)
    assert sorted(set(range(er8.n)) - set(verts)) == [1, 17, 25, 33]
    with pytest.raises(BudgetExhausted):
        cb.greedy_min_degree_subgraph(er8, 69, 8, budget=4)
    er7 = cb.er_graph(7)
    assert cb.greedy_min_degree_subgraph(er7, 55, 7, budget=2551) is None
    with pytest.raises(BudgetExhausted):
        cb.greedy_min_degree_subgraph(er7, 55, 7, budget=2550)


@pytest.mark.parametrize(
    "q, t, deleted",
    [
        (4, 2, [1, 9, 13, 16]),
        (5, 3, None),
        (7, 2, None),
        (8, 5, [1, 17, 25, 33, 41]),
        (9, 4, [3, 4, 5, 6, 7, 8, 81]),
        (11, 6, [0, 2, 5, 6, 9, 121, 132]),
        (16, 2, [1, 33, 49, 65, 81, 97, 113, 129, 145, 161, 177, 193, 209, 225, 241, 256]),
    ],
)
def test_greedy_family_results_pinned(q, t, deleted):
    # the branch rule that recounted each candidate's neighbors' degrees at
    # every node returned these for the family's q^2 + t - 1 vertices at degree q
    er = cb.er_graph(q)
    verts = cb.greedy_min_degree_subgraph(er, q * q + t - 1, q)
    if deleted is None:
        assert verts is None
    else:
        assert sorted(set(range(er.n)) - set(verts)) == deleted


def test_greedy_protect_chain_deeper_than_recursion_limit():
    # q = 31, t = 16: the search protects about one vertex per two nodes, so
    # by node 1 950 the chain is over 960 levels deep, where a recursive walk
    # ran out of stack
    with pytest.raises(BudgetExhausted, match="exceeded 2500 nodes"):
        cb.greedy_min_degree_subgraph(cb.er_graph(31), 976, 31, budget=2500)


def test_greedy_postconditions_er8():
    er8 = cb.er_graph(8)
    for t in (0, 6, 7):
        verts = cb.greedy_min_degree_subgraph(er8, 64 + t - 1, 8, budget=10**7)
        assert verts is not None
        sub = cb.induced_subgraph(er8, verts)
        assert sub.n == 64 + t - 1
        assert min(sub.degrees()) >= 8
        assert cb.is_c4_free(sub)[0]


# -- randomized thinning --


def test_random_delete_construction_n100():
    g, run, cert = cb.random_delete_construction(100, 2, seed=11, m=7)
    assert g.n == 114
    assert run.p == 11 and run.order == 133 and run.d == 19
    assert min(g.degrees()) >= 7
    assert cb.is_c4_free(g)[0]
    assert cert.guaranteed_book_free_n <= 100
    assert cert.implied_bound.endswith(">= 115")
    nmax, _ = cb.complement_book_number(g, 2)
    assert nmax <= 99


def test_random_delete_deterministic():
    a = cb.random_delete_construction(100, 2, seed=5, m=7)
    b = cb.random_delete_construction(100, 2, seed=5, m=7)
    assert a[0] == b[0]
    assert a[1] == b[1]
    c = cb.random_delete_construction(100, 2, seed=6, m=7)
    assert c[1].seed != a[1].seed


def test_random_delete_validation():
    with pytest.raises(DomainError):
        cb.random_delete_construction(100, 0, seed=1, m=7)
    with pytest.raises(AsymptoticRegimeNotReached) as err:
        cb.random_delete_construction(100, 2, seed=1)
    assert str(err.value) == "default degree floor is -11 at n=100; defaults need n >= 2075"
    assert bounds.MIN_N_DEFAULT == 2075
    assert pickle.loads(pickle.dumps(err.value)).args == err.value.args
    with pytest.raises(DomainError):
        cb.random_delete_construction(100, 2, seed=1, m=0)
    for attempts in (0, -2):
        with pytest.raises(DomainError):
            cb.random_delete_construction(100, 2, seed=1, m=7, max_attempts=attempts)


@pytest.mark.parametrize("n, k", [(3, 6), (1, 5)])
def test_random_delete_target_order_below_one_rejected(n, k):
    # n + mk - k(k-3)/2 - 1 at m = 1 is -1 and 0
    with pytest.raises(DomainError):
        cb.random_delete_construction(n, k, seed=1, m=1)


def test_random_delete_default_regime_boundary():
    # the default floor is the paper's floor(sqrt(n) - 6 n^(21/80)), and the
    # record names those constants
    g, run, cert = cb.random_delete_construction(2075, 1, seed=3)
    assert run.m == oracles.floor_sqrt_minus_power_reference(2075) == 1
    assert (run.alpha, run.c) == ("21/80", 6)
    assert min(g.degrees()) >= 1
    assert g.n == 2075 + run.m * 1 - (1 - 3) // 2 - 1


def test_smallest_admissible_prime():
    assert _constructions.smallest_admissible_prime(100) == 11  # sqrt(100)+0.5 = 10.5
    assert _constructions.smallest_admissible_prime(90) == 11   # sqrt(90)+0.5 ~ 9.99 -> 10 not prime
    assert _constructions.smallest_admissible_prime(2) == 2
    assert _constructions.smallest_admissible_prime(9) == 5     # 3.5 -> 5


# -- enumeration --


KNOWN_C4_FREE_COUNTS = {1: 1, 2: 2, 3: 4, 4: 8, 5: 18, 6: 44, 7: 117, 8: 351, 9: 1230}
KNOWN_ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_c4_free_counts_match_brute_classifier():
    for n in range(1, 7):
        assert search.count_c4_free_classes(n) == classify_c4_free(n)


def test_all_graph_counts_match_brute_classifier(enumerate_graphs):
    for n in range(1, 7):
        got = enumerate_graphs(n).graphs_examined
        if n <= 6:
            assert got == brute_class_count_all(n)
        assert got == KNOWN_ALL_COUNTS[n]


def test_c4_free_counts_known_values():
    for n, want in KNOWN_C4_FREE_COUNTS.items():
        assert search.count_c4_free_classes(n) == want


def test_enumerated_graphs_are_c4_free_and_pairwise_nonisomorphic():
    collected = []

    def visitor(g):
        collected.append(g)
        return False

    proof = cb.enumerate_c4_free(6, visitor=visitor)
    assert proof.all_rejected and proof.graphs_examined == 44
    keys = set()
    for g in collected:
        assert cb.is_c4_free(g)[0]
        keys.add(canonical_form(g).key)
    assert len(keys) == 44


def _checked_children(parent, form, c4):
    """_orderly._children of one parent, checked against the reference.

    With c4=False the caller has swapped in the all-graphs mask lister (the
    enumerate_graphs fixture).
    """
    children = list(_orderly._children(parent, form))
    got = [(g6_encode(child), child_form.key) for child, child_form in children]
    want = [(g6_encode(child), key) for child, key in children_reference(parent, form.key, c4)]
    assert got == want, g6_encode(parent)
    for child, child_form in children:
        # the parent's automorphisms seed the child's labelling, so its
        # generators may differ from an unseeded labelling's; key and order may not
        plain = canonical_form(child)
        assert (child_form.key, child_form.order) == (plain.key, plain.order)
        for gen in child_form.generators:
            assert sorted(gen) == list(range(child.n))
            for u, v in child.edges():
                assert child.has_edge(gen[u], gen[v])
    return children


def _assert_children_match_reference(max_order, c4):
    """Walk the generation tree to max_order vertices, checking every parent."""
    seed = Graph.empty(1)
    stack = [(seed, canonical_form(seed))]
    while stack:
        parent, form = stack.pop()
        if parent.n < max_order:
            stack.extend(_checked_children(parent, form, c4))


def test_children_match_reference_c4_free_tree():
    _assert_children_match_reference(8, True)


def test_children_match_reference_past_order_8():
    # Fifteen parents on 9 vertices and fifteen of their children on 10, drawn
    # with a fixed seed: the size bound on the extension masks cuts most here.
    rng = random.Random(8)
    seed = Graph.empty(1)
    nines = rng.sample(list(_orderly._kept(seed, canonical_form(seed), 9, 9, None)), 15)
    tens = [child for parent, form in nines for child in _checked_children(parent, form, True)]
    for parent, form in rng.sample(tens, 15):
        _checked_children(parent, form, True)


@pytest.mark.usefixtures("enumerate_graphs")
def test_children_match_reference_all_graphs_tree():
    _assert_children_match_reference(6, False)


def test_exhaustion_labelling_count(monkeypatch):
    # At order 11, labelling every extension mask, and again every child whose
    # last canonical vertex is not the new one, takes 6 612 labellings.  Orbit
    # pruning and the parent check's shortcuts leave 2 289; the degree test,
    # the pruner and the root partition's degree test before labelling leave
    # 219.  The book checks are pinned too, split into the pruner's (spines
    # through the new vertex) and the visitor's (every spine):
    # the size bound must not change what they see.  Both search seams are
    # the layer modules' own names, which the lazy imports read at each call.
    labellings, pruned, visited, built, leaves, refinements = [], [], [], [], [], []
    labelled, book_free, with_vertex = canon.canonical_form, ramsey._book_free, Graph.with_vertex
    leaf_key, refine = canon._leaf_key, canon._refine

    def labelling(g, known=(), root=None):
        form = labelled(g, known, root)
        labellings.append(len(form.generators))
        return form

    def leaf(rows, order):
        leaves.append(len(rows))
        return leaf_key(rows, order)

    def refining(rows, cmask, cell_of, active, splitter=None):
        refinements.append(len(rows))
        return refine(rows, cmask, cell_of, active, splitter)

    def checking(g, k, n, spines=-1):
        if spines == -1:
            visited.append(g.n)
        else:
            # the pruner: spines in {v} | non-nbrs(v) of the new vertex v
            assert spines == ~g.rows[-1], g6_encode(g)
            pruned.append(g.n)
        return book_free(g, k, n, spines)

    def building(g, mask):
        # a mask below the parent's largest degree gives a child that is rejected
        assert mask.bit_count() >= max(g.degrees()), (g6_encode(g), mask)
        built.append(mask)
        return with_vertex(g, mask)

    monkeypatch.setattr(canon, "canonical_form", labelling)
    monkeypatch.setattr(canon, "_leaf_key", leaf)
    monkeypatch.setattr(canon, "_refine", refining)
    monkeypatch.setattr(ramsey, "_book_free", checking)
    monkeypatch.setattr(Graph, "with_vertex", building)
    proof = search.exhaust_ramsey(11, 2, 4)
    assert isinstance(proof, search.ExhaustionProof) and proof.all_rejected
    assert (len(labellings), len(pruned), len(visited), len(built)) == (219, 336, 5, 514)
    # the cost of those labellings: each child's labelling starts from the
    # parent generators that fix its mask (641 leaves and 1 320 refinements
    # without them)
    assert (len(leaves), len(refinements)) == (395, 902)
    # and what they find: a pruning change that reaches the same leaves through
    # other automorphisms moves this count
    assert sum(labellings) == 422
    del labellings[:], pruned[:], visited[:], built[:], leaves[:], refinements[:]
    witness = search.exhaust_ramsey(10, 2, 4)
    assert g6_encode(witness) == b"I?qbCdWLG"
    assert (len(labellings), len(pruned), len(visited), len(built)) == (52, 108, 6, 154)
    assert (len(leaves), len(refinements)) == (100, 207)
    assert sum(labellings) == 94


def test_enumeration_cap(capsys):
    # the unpruned enumeration stops at 13, the pruned exhaustion at 20
    with pytest.raises(CapExceeded):
        cb.enumerate_c4_free(14)
    with pytest.raises(CapExceeded, match=r"\[1, 20\], got 21"):
        search.exhaust_ramsey(21, 2, 4)
    assert main(["search", "exact", "--k", "2", "--n", "4", "--N", "21"]) == 2
    err = capsys.readouterr().err
    assert "order must be in [1, 20], got 21" in err and "Traceback" not in err


def test_exhaustion_above_the_enumeration_cap():
    # r(C4, B_2^(4)) = 16 = q^2 + t at (q, t) = (4, 0): a witness on 15
    # vertices, and no C4-free graph on 16 whose complement is B_2^(4)-free
    witness = search.exhaust_ramsey(15, 4, 2)
    assert g6_encode(witness) == b"N?BDA_obAQDPcoXGBE?"
    assert cb.is_ramsey_witness(witness, 4, 2)
    assert oracles.naive_is_c4_free(witness)
    assert naive_complement_book_number(witness, 4) < 2
    proof = search.exhaust_ramsey(16, 4, 2)
    assert isinstance(proof, search.ExhaustionProof)
    assert proof.all_rejected and (proof.order, proof.k, proof.n) == (16, 4, 2)


@pytest.mark.slow
def test_exhaustion_decides_r_c4_b4_3():
    # r(C4, B_4^(3)) = 16 = q^2 + t at (q, t) = (4, 0); about 1 s.  The
    # witness on 15 vertices is the one found for B_2^(4)
    witness = search.exhaust_ramsey(15, 3, 4)
    assert g6_encode(witness) == b"N?BDA_obAQDPcoXGBE?"
    assert cb.is_ramsey_witness(witness, 3, 4)
    assert oracles.naive_is_c4_free(witness)
    assert naive_complement_book_number(witness, 3) < 4
    proof = search.exhaust_ramsey(16, 3, 4)
    assert isinstance(proof, search.ExhaustionProof) and proof.all_rejected


def test_exhaust_ramsey_small_star_case():
    # B_4^(1): witness exists on 6 vertices (C6), none on 7
    witness = search.exhaust_ramsey(6, 1, 4)
    assert isinstance(witness, Graph)
    assert cb.is_ramsey_witness(witness, 1, 4)
    proof = search.exhaust_ramsey(7, 1, 4)
    assert isinstance(proof, search.ExhaustionProof)
    assert proof.all_rejected and proof.k == 1 and proof.n == 4


def _unpruned(order, k, n, jobs=1):
    """The exhaustion without the pruner: the same engine, visitor only."""
    return cb.enumerate_c4_free(order, visitor=partial(cb.is_ramsey_witness, k=k, n=n), jobs=jobs)


def test_exhaust_ramsey_pruned_and_unpruned_agree():
    a = search.exhaust_ramsey(7, 1, 4)
    b = _unpruned(7, 1, 4)
    assert a.all_rejected and b.all_rejected
    # the unpruned run examines every class on 7 vertices
    assert b.graphs_examined == KNOWN_C4_FREE_COUNTS[7]
    assert a.graphs_examined <= b.graphs_examined


def test_exhaust_ramsey_witness_deterministic_and_lexfirst():
    w1 = search.exhaust_ramsey(8, 2, 3)
    w2 = search.exhaust_ramsey(8, 2, 3)
    assert isinstance(w1, Graph) and w1 == w2
    assert cb.is_ramsey_witness(w1, 2, 3)


def test_jobs_parallel_matches_sequential():
    seq_proof = search.exhaust_ramsey(7, 1, 4)
    par_proof = search.exhaust_ramsey(7, 1, 4, jobs=2)
    assert par_proof.all_rejected == seq_proof.all_rejected
    assert par_proof.graphs_examined == seq_proof.graphs_examined
    seq_wit = search.exhaust_ramsey(8, 2, 3)
    par_wit = search.exhaust_ramsey(8, 2, 3, jobs=2)
    assert seq_wit == par_wit
    assert search.count_c4_free_classes(7, jobs=2) == 117


def test_one_usable_worker_starts_no_process(monkeypatch):
    import concurrent.futures

    want = search.exhaust_ramsey(8, 2, 3)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker search started a process pool")

    monkeypatch.setattr(_orderly.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert search.exhaust_ramsey(8, 2, 3, jobs=2) == want


def test_pool_path_counts(enumerate_graphs, monkeypatch):
    assert enumerate_graphs(7, jobs=2).graphs_examined == KNOWN_ALL_COUNTS[7]
    monkeypatch.undo()  # back to the C4-free extension masks
    proof = _unpruned(7, 1, 4, jobs=2)
    assert proof.graphs_examined == KNOWN_C4_FREE_COUNTS[7]


def test_pool_size_clamp(monkeypatch):
    monkeypatch.setattr(_orderly.os, "cpu_count", lambda: 4)
    assert _orderly._pool_size(1, 50) == 1
    assert _orderly._pool_size(3, 50) == 3
    assert _orderly._pool_size(100_000, 50) == 4
    assert _orderly._pool_size(100_000, 2) == 2
    monkeypatch.setattr(_orderly.os, "cpu_count", lambda: None)
    assert _orderly._pool_size(8, 50) == 1


@pytest.mark.parametrize("k, n", [(0, 3), (-2, 3), (2, 0), (2, -4)])
def test_exhaust_ramsey_k_or_n_below_one_rejected(k, n):
    with pytest.raises(DomainError):
        search.exhaust_ramsey(5, k, n)


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(DomainError):
        search.exhaust_ramsey(5, 2, 3, jobs=jobs)


def test_oracle_ramsey_values_match_enumeration():
    # labeled-graph oracle and the canonical enumeration agree on both
    # decidable star cases
    from oracles import oracle_ramsey_value

    assert oracle_ramsey_value(1, 2, max_order=5) == 4
    witness3 = search.exhaust_ramsey(3, 1, 2)
    assert isinstance(witness3, Graph)
    proof4 = search.exhaust_ramsey(4, 1, 2)
    assert isinstance(proof4, search.ExhaustionProof) and proof4.all_rejected


def test_pruner_only_cuts_rejectable_branches():
    """Same witness with and without the monotone pruner."""
    with_p = search.exhaust_ramsey(8, 2, 3)
    without_p = _unpruned(8, 2, 3)
    assert isinstance(with_p, Graph) and isinstance(without_p, Graph)
    assert canonical_form(with_p).key == canonical_form(without_p).key


# -- the witness-family probe --


def test_line_graph_of_petersen_is_gq3_member():
    lp = line_graph_of_petersen()
    assert lp.n == 15
    assert set(lp.degrees()) == {4}
    assert cb.is_c4_free(lp)[0]
    assert cb.is_ramsey_witness(lp, 2, 7)


def test_probe_gq3_finds_witness():
    # the annealing trajectory is pinned, not only its success
    for seed, graph6 in ((1, b"NGEO?UDTeOKKG_M?oPO"), (2, b"NW@?LO\\SC_`OK``aHA_")):
        found = cb.probe_script_Gq(3, budget=400_000, seed=seed)
        assert found is not None
        assert found.n == 15
        assert cb.is_ramsey_witness(found, 2, 7)
        assert g6_encode(found) == graph6, seed


def test_probe_trajectory_across_restarts(monkeypatch):
    # seed 3 finds its witness from its third start: a random start, then a
    # restart from a thinned polarity graph, then a random restart
    starts = []
    energy = _anneal._energy
    monkeypatch.setattr(_anneal, "_energy", lambda *a: starts.append(a) or energy(*a))
    found = cb.probe_script_Gq(3, budget=400_000, seed=3)
    assert len(starts) == 3
    assert g6_encode(found) == b"NcR_CcAHgPADQ_K@dH?"


def test_vertex_draw_is_randrange_stream():
    # the probe draws a vertex with getrandbits and rejection; its pinned
    # trajectories rely on that being randrange(n)'s stream on this Python
    for seed in range(50):
        for n in range(2, 41):
            ours, ref = random.Random(seed), random.Random(seed)
            bits = n.bit_length()
            for _ in range(20):
                v = ours.getrandbits(bits)
                while v >= n:
                    v = ours.getrandbits(bits)
                assert v == ref.randrange(n), (seed, n)
            assert ours.getstate() == ref.getstate(), (seed, n)


def test_probe_zero_energy_failing_reverification_is_inconsistent(monkeypatch):
    # zero energy must mean a witness; a failed re-check is a broken invariant
    # the probe imports the check from ramsey only when it has a graph to check
    monkeypatch.setattr(ramsey, "is_ramsey_witness", lambda g, k, n: False)
    with pytest.raises(InternalInconsistency):
        cb.probe_script_Gq(3, budget=400_000, seed=1)


def _replay_toggles(rows, pages, toggles):
    """Energy changes the reference delta gives for the toggles, each checked by full recounts."""
    n = len(rows)
    full, limit = (1 << n) - 1, n - 2 - pages
    energy = _anneal._energy(rows, full, limit)
    assert energy == violating_pairs(rows, n, pages), (rows, pages)
    deltas = []
    for u, v in toggles:
        delta = _toggle_delta(rows, full, limit, u, v)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        energy += delta
        deltas.append(delta)
        assert energy == violating_pairs(rows, n, pages), (rows, u, v, pages)
        assert energy == _anneal._energy(rows, full, limit), (rows, u, v, pages)
    return deltas


def test_annealing_energy_delta_matches_full_count():
    # the probe's starting energy and the reference toggle delta must agree
    # with a full recount after every toggle
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 25)
        rows = list(random_c4_free(rng, n, rng.choice([0.1, 0.2, 0.4])).rows)
        pages = rng.randint(0, n)
        _replay_toggles(rows, pages, [rng.sample(range(n), 2) for _ in range(20)])


C5 = cycle_graph(5)
P4_PLUS_K1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "g, pages, toggles, deltas",
    [
        pytest.param(C5, 1, [(0, 1), (1, 0)], [3, -3], id="remove-edge"),
        pytest.param(C5, 0, [(0, 1), (0, 1)], [1, -1], id="remove-edge-pages-0"),
        pytest.param(P4_PLUS_K1, 2, [(0, 3), (3, 0)], [-2, 2], id="creates-c4"),
        pytest.param(C5, 4, [(0, 1), (0, 2)], [0, 0], id="pages-above-n-2"),
        pytest.param(P4_PLUS_K1, 5, [(0, 3), (1, 2)], [0, 0], id="limit-minus-2"),
        pytest.param(Graph.empty(2), 0, [(0, 1), (1, 0)], [-1, 1], id="n-2"),
    ],
)
def test_annealing_energy_delta_cases(g, pages, toggles, deltas):
    assert _replay_toggles(list(g.rows), pages, toggles) == deltas


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_probe_matches_reference(q, monkeypatch):
    # the masks change how a move is tested and scored, never which moves
    # are drawn or accepted: same result, same generator state at the end.
    # 160 000 steps cross at least one restart at every q and seed here.
    made, starts = [], []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    recording = SimpleNamespace(Random=Recording)
    monkeypatch.setattr(_anneal, "random", recording)
    monkeypatch.setattr(oracles, "random", recording)
    energy = _anneal._energy
    monkeypatch.setattr(_anneal, "_energy", lambda *a: starts.append(a) or energy(*a))
    for seed in (0, 1, 3):
        starts.clear()
        found = cb.probe_script_Gq(q, budget=160_000, seed=seed)
        assert len(starts) >= 2, (q, seed)
        expected = probe_reference(q, budget=160_000, seed=seed)
        assert (found is None) == (expected is None), (q, seed)
        if found is not None:
            assert g6_encode(found) == g6_encode(expected), (q, seed)
        assert len(made) == 2
        assert made[0].getstate() == made[1].getstate(), (q, seed)
        made.clear()


def test_join_and_cut_keep_two_step_masks():
    # random C4-free toggles: after each one, two[x] is the OR of the rows of
    # x's neighbors, as graphcore._two_step computes it from scratch
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 20)
        rows = list(random_c4_free(rng, n, rng.choice([0.1, 0.3, 0.6])).rows)
        two = [_two_step(rows, x)[0] for x in range(n)]
        for _ in range(40):
            u, v = rng.sample(range(n), 2)
            if rows[u] >> v & 1:
                _anneal._cut(rows, two, u, v)
            elif not two[u] & rows[v]:
                _anneal._join(rows, two, u, v)
            assert two == [_two_step(rows, x)[0] for x in range(n)], (rows, u, v)
        assert cb.is_c4_free(Graph(n, rows))[0]


def test_probe_gq2_and_gq4_fail():
    assert cb.probe_script_Gq(2, budget=40_000, seed=2) is None
    assert cb.probe_script_Gq(4, budget=40_000, seed=2) is None


@pytest.mark.parametrize("budget", [0, -5])
def test_probe_budget_below_one_rejected(budget):
    with pytest.raises(DomainError):
        cb.probe_script_Gq(2, budget=budget)


@pytest.mark.parametrize("q", [-5, 0, 1])
def test_probe_q_below_two_rejected(q):
    with pytest.raises(DomainError):
        cb.probe_script_Gq(q, budget=10)


@pytest.mark.parametrize("q", [_anneal.GQ_Q_CAP + 1, 127, 10**9])
def test_probe_q_above_cap_rejected_before_building(q):
    # 10**9 would need about 10**36 vertex pairs, so this only returns if the
    # cap is checked before the pair list is built
    with pytest.raises(CapExceeded):
        cb.probe_script_Gq(q, budget=10)


def test_probe_q_cap_boundary(monkeypatch):
    monkeypatch.setattr(_anneal, "GQ_Q_CAP", 3)
    cb.probe_script_Gq(3, budget=1)  # at the cap: runs
    with pytest.raises(CapExceeded):
        cb.probe_script_Gq(4, budget=1)


def test_probe_deterministic():
    a = cb.probe_script_Gq(3, budget=400_000, seed=9)
    b = cb.probe_script_Gq(3, budget=400_000, seed=9)
    assert (a is None) == (b is None)
    if a is not None:
        assert a == b


# -- the search facade --

DELEGATES = {
    "exhaust_ramsey": _orderly,
    "greedy_min_degree_subgraph": _constructions,
    "random_delete_construction": _constructions,
    "probe_script_Gq": _anneal,
}


@pytest.mark.parametrize("name, route", DELEGATES.items(), ids=list(DELEGATES))
def test_search_delegate_matches_its_route(name, route):
    # defined in search, so the benchmark's tracer keeps its search.* spans
    delegate = getattr(search, name)
    assert delegate.__module__ == "c4book.search"
    assert inspect.signature(delegate) == inspect.signature(getattr(route, name))


def test_search_serves_only_public_names():
    # a patch of a route's helper, constant or prime search must go to the
    # route module; on search it fails loudly instead of reaching nothing
    assert search.ExhaustionProof is _orderly.ExhaustionProof
    assert search.DeletionRun is _constructions.DeletionRun
    assert search.enumerate_c4_free is _orderly.enumerate_c4_free
    assert search.count_c4_free_classes is _orderly.count_c4_free_classes
    stale = ("_c4_extension_masks", "_energy", "GQ_Q_CAP", "ENUMERATION_ORDER_CAP", "smallest_admissible_prime")
    for name in stale:
        with pytest.raises(AttributeError, match=name):
            getattr(search, name)
