"""Acceptance gate: one test per criterion, exact tolerances, timed budgets.

Each test prints a single PASS line on success; pytest's own failure output
marks the criterion otherwise.  Criterion 7's closed-form cap assertion is
implemented exactly as stated; see the failure message for the verified
counterexample (the floored cap is provably violated at n=3, k=6).
"""

import random
import time
from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest

import c4book as cb
from c4book import bounds, search
from c4book.canon import canonical_form
from c4book.errors import AsymptoticRegimeNotReached
from c4book.graphcore import Graph

from oracles import (
    all_labeled_c4_free,
    cycle_graph,
    fan_graph,
    line_graph_of_petersen,
    naive_complement_book_number,
    naive_is_c4_free,
    oracle_ramsey_value,
    random_c4_free,
    random_graph,
    star_graph,
)


def _report(num, detail):
    print(f"CRITERION {num}: PASS — {detail}")


def test_criterion_01_polarity_graphs():
    """q in {2,...,13}: order, C4-freeness, degree dichotomy; < 2 s each."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        t0 = time.monotonic()
        g = cb.er_graph(q)
        assert g.n == q * q + q + 1
        ok, witness = cb.is_c4_free(g)
        assert ok, f"ER_{q} contains {witness}"
        degs = g.degrees()
        assert set(degs) <= {q, q + 1}
        assert sum(1 for d in degs if d == q) == q + 1
        elapsed = time.monotonic() - t0
        assert elapsed < 2.0, f"ER_{q} build+check took {elapsed:.2f}s"
    _report(1, "all nine polarity graphs built and verified under 2 s each")


def test_criterion_02_star_values():
    """Exact star-book values at q = 2, 3, cross-checked against the
    labeled-graph oracle; total < 2 min."""
    t0 = time.monotonic()
    # (a) witness side
    c6 = cycle_graph(6)
    assert cb.is_ramsey_witness(c6, 1, 4)  # r(C4, B_4^(1)) >= 7
    cert = cb.certify_lower_bound(cb.er_graph(3), 1)
    assert cert.guaranteed_book_free_n == 10
    assert cert.implied_bound == "r(C4, B_10^(1)) >= 14"
    # (b) upper side: exhaustion at 7 for n=4
    proof = search.exhaust_ramsey(7, 1, 4)
    assert isinstance(proof, cb.ExhaustionProof) and proof.all_rejected
    # enumeration reproduces the oracle's exact values
    assert oracle_ramsey_value(1, 2, max_order=5) == 4
    assert isinstance(search.exhaust_ramsey(3, 1, 2), Graph)
    assert search.exhaust_ramsey(4, 1, 2).all_rejected
    assert oracle_ramsey_value(1, 4, max_order=8) == 7
    assert isinstance(search.exhaust_ramsey(6, 1, 4), Graph)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(2, f"r(C4,B_2^(1)) = 4 and r(C4,B_4^(1)) = 7, oracle-matched, {elapsed:.1f}s")


def test_criterion_03_book3_spine2_is_9():
    """r(C4, B_3^(2)) = 9: witness on 8, exhaustion on 9; < 15 min."""
    t0 = time.monotonic()
    witness = search.exhaust_ramsey(8, 2, 3)
    assert isinstance(witness, Graph)
    assert cb.is_ramsey_witness(witness, 2, 3)
    proof = search.exhaust_ramsey(9, 2, 3)
    assert isinstance(proof, cb.ExhaustionProof)
    assert proof.all_rejected
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    _report(3, f"witness on 8 plus exhaustion proof on 9 in {elapsed:.1f}s")


def test_criterion_04_certificate_pipeline():
    """q in {4, 8}: greedy induced subgraph with degree floor q, certified
    at k = 3, reproducing the exact-value pattern r = q^2 + t."""
    a3 = bounds.book_order_offset(3)  # a_3 = 0
    for q in (4, 8):
        successes = 0
        for t in range(q - 1, -1, -1):
            adm = cb.theorem15_admissible(3, q, t, Fraction(1, 8))
            if not adm.admissible:
                continue
            verts = cb.greedy_min_degree_subgraph(cb.er_graph(q), q * q + t - 1, q, budget=10**7)
            assert verts is not None, f"no qualifying subgraph of ER_{q} at t={t}"
            sub = cb.induced_subgraph(cb.er_graph(q), verts)
            assert sub.n == q * q + t - 1
            assert min(sub.degrees()) >= q
            cert = cb.certify_lower_bound(sub, 3)
            n_star = q * q - 3 * q + t + a3
            assert cert.guaranteed_book_free_n == n_star, (
                f"n* = {cert.guaranteed_book_free_n}, expected q^2-3q+t+a_3 = {n_star}"
            )
            assert cert.implied_bound == f"r(C4, B_{n_star}^(3)) >= {q * q + t}"
            successes += 1
        assert successes > 0, f"no admissible t succeeded at q={q}"
    _report(4, "certificates match the q^2+t pattern for every admissible t at q=4 and q=8")


def test_criterion_05_counting_lemmas():
    """Both counting inequalities on 1000 random C4-free graphs (N <= 40)
    plus all ER_q (q <= 13); tightness on the 3-leaf star."""
    rng = random.Random(50)
    for _ in range(1000):
        n = rng.randint(2, 40)
        g = random_c4_free(rng, n, rng.choice([0.12, 0.25, 0.4]))
        chk = cb.kst_check(g)
        assert chk.holds_basic and chk.holds_refined
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        chk = cb.kst_check(cb.er_graph(q))
        assert chk.holds_basic and chk.holds_refined
    chk = cb.kst_check(star_graph(3))
    assert chk.lhs == chk.rhs_refined == 3
    _report(5, "pair-counting inequalities hold on 1000 random C4-free graphs and all ER_q")


def test_criterion_06_friendship(enumerate_graphs):
    """Fans recognized for k in [1, 50]; among all graphs on 2..7 vertices
    exactly the 1-, 2-, 3-fans satisfy the every-pair-exactly-one rule."""
    for k in range(1, 51):
        assert cb.is_friendship(fan_graph(k)) == k

    def pair_condition(g):
        return all(
            (g.rows[u] & g.rows[v]).bit_count() == 1
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )

    matches = []

    def visitor(g):
        if pair_condition(g):
            matches.append(canonical_form(g).key)
        return False

    for n in range(2, 8):
        enumerate_graphs(n, visitor=visitor)
    expected = {canonical_form(fan_graph(k)).key for k in (1, 2, 3)}
    assert set(matches) == expected and len(matches) == 3
    _report(6, "exactly the 1-, 2-, 3-fans satisfy the pair condition through order 7")


def test_criterion_07_bounds_formulas():
    """Hand values for the iterated star recurrence and the ladder gaps."""
    t0 = time.monotonic()
    assert cb.g_sequence(10, 3).values == (10, 15, 20, 26)
    for k in range(3, 9):
        b_k = bounds.ladder_offset(k)
        for q in range(10, 101):
            for t in range(0, q + 1):
                p = cb.bounds_params(k, q, t, Fraction(1, 2))
                assert p.ladder[-1] - p.ladder[-2] == q - b_k - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(7, f"recurrence hand values and ladder-gap sweep exact in {elapsed:.1f}s")


def test_criterion_07_remark1_cap():
    """The closed-form cap for all n <= 10^6, k <= 10, exactly as stated.

    This assertion is faithful to the stated criterion and FAILS: the
    floored cap is mathematically false.  Smallest counterexample, checked
    by hand: n=3, k=6 gives the recurrence 3,6,10,15,20,26,33 against a cap
    of 3 + 6*floor(sqrt(3)) + ceil(90/4) = 32.  (The same cap with an
    unfloored sqrt(n) holds everywhere in range; see the decision log.)
    """
    n = np.arange(2, 1_000_001, dtype=np.int64)

    def isqrt_vec(x):
        s = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
        s = np.where((s + 1) * (s + 1) <= x, s + 1, s)
        return np.where(s * s > x, s - 1, s)

    g = n.copy()
    violations = []
    for k in range(1, 11):
        g = g + isqrt_vec(g - 1) + 2
        cap = n + k * isqrt_vec(n) + (k * k + 9 * k + 3) // 4
        bad = g > cap
        if bad.any():
            violations.append((k, int(bad.sum()), int(n[bad][0])))
    assert not violations, (
        "closed-form cap violated (k, count, first n): "
        f"{violations}; e.g. the recurrence from n=3 reaches 33 at k=6 "
        "against a cap of 32"
    )
    _report(7, "closed-form cap holds everywhere")


def test_criterion_08_random_thinning():
    """Override m=7 at (n=100, k=2): order 114, floor 7, certified bound
    covering B_100; defaults at n=100 report the regime error; < 1 min."""
    t0 = time.monotonic()
    g, run, cert = cb.random_delete_construction(100, 2, seed=123, m=7)
    assert run.attempts <= 1000
    assert g.n == 114
    assert min(g.degrees()) >= 7
    assert cb.is_c4_free(g)[0]
    # book-freeness is monotone down in page count, so n* <= 100 yields the
    # target bound r(C4, B_100^(2)) >= 115
    assert cert.guaranteed_book_free_n <= 100
    assert cert.implied_bound.endswith(">= 115")
    nmax, _ = cb.complement_book_number(g, 2)
    assert nmax <= 99
    with pytest.raises(AsymptoticRegimeNotReached):
        cb.random_delete_construction(100, 2, seed=1)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(8, f"thinned ER_11 certifies r(C4,B_100^(2)) >= 115 in {elapsed:.1f}s")


def test_criterion_09_oracle_equivalence():
    """Bitset kernels agree with naive brute force on 500 random graphs."""
    rng = random.Random(90)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.75]))
        assert cb.is_c4_free(g)[0] == naive_is_c4_free(g)
        for k in range(1, min(3, n) + 1):
            mine, _ = cb.complement_book_number(g, k)
            assert mine == naive_complement_book_number(g, k)
    _report(9, "is_c4_free and complement_book_number match naive oracles on 500 graphs")


def test_criterion_10_stretch_gq():
    """Non-blocking: the probe should find a 15-vertex witness (the family
    is nonempty: the line graph of the Petersen graph is verified here);
    a probe success at q=2 or q=4 fails the whole suite."""
    lp = line_graph_of_petersen()
    assert cb.is_ramsey_witness(lp, 2, 7)  # the family at q=3 is nonempty
    assert cb.probe_script_Gq(2, budget=30_000, seed=77) is None
    assert cb.probe_script_Gq(4, budget=30_000, seed=77) is None
    found = cb.probe_script_Gq(3, budget=500_000, seed=77)
    if found is None:
        _report(10, "stretch probe found nothing within budget (non-blocking)")
    else:
        assert found.n == 15
        assert cb.is_ramsey_witness(found, 2, 7)
        _report(10, "probe found and re-verified a 15-vertex witness")
