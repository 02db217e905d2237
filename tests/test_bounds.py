"""Exact bound formulas, floors, parameter packs, and the aggregated report."""

import hashlib
import json
import random
import time
from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest

import c4book as cb
from c4book import bounds, gf
from c4book.errors import CapExceeded, DomainError, NotPrimePower

import oracles


# -- star bound --


def test_parsons_values():
    assert cb.parsons_upper(4) == 7
    assert cb.parsons_upper(10) == 14
    assert cb.parsons_upper(9) == 13
    # n-1 a perfect square lowers the bound by one; at n=2 that gives 4,
    # which exhaustive search confirms is the exact Ramsey value.
    assert cb.parsons_upper(2) == 4
    with pytest.raises(DomainError):
        cb.parsons_upper(1)


# -- iterated star recurrence --


def test_g_sequence_hand_values():
    gs = cb.g_sequence(10, 3)
    assert gs.values == (10, 15, 20, 26)
    assert gs.cap == 28
    assert gs.cap_holds


def test_g_sequence_small():
    assert cb.g_sequence(2, 1).values == (2, 5)
    assert cb.g_sequence(10, 0).values == (10,)
    with pytest.raises(DomainError):
        cb.g_sequence(1, 2)


def test_g_sequence_refuses_k_over_cap_before_iterating():
    # every iterate is kept, so memory grows with k; 131072 is the largest k
    # another test reports on
    assert bounds.G_SEQUENCE_K_CAP >= 131072
    start = time.monotonic()
    for k in (bounds.G_SEQUENCE_K_CAP + 1, 10**8, 10**100):
        with pytest.raises(CapExceeded):
            cb.g_sequence(2, k)
        with pytest.raises(CapExceeded):
            cb.bound_report(2, k)
    assert time.monotonic() - start < 1


def _isqrt_vec(x):
    """Exact floor sqrt on an int64 array (float seed + correction)."""
    s = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    s = np.where((s + 1) * (s + 1) <= x, s + 1, s)
    s = np.where(s * s > x, s - 1, s)
    return s


def test_g1_matches_general_star_form_to_1e6():
    n = np.arange(2, 1_000_001, dtype=np.int64)
    g1 = n + _isqrt_vec(n - 1) + 2
    spot = np.linspace(2, 1_000_000, 500, dtype=np.int64)
    for v in spot:
        assert cb.g_sequence(int(v), 1).values[1] == int(g1[v - 2])
    # and the vectorized isqrt itself is exact on a spot sample
    for v in spot:
        assert int(_isqrt_vec(np.array([v - 1]))[0]) == isqrt(int(v) - 1)


def test_closed_form_cap_characterization_to_1e6():
    """The floored closed-form cap fails for k >= 6 (first at n=3, k=6,
    where the recurrence reaches 33 against a cap of 32); the same cap with
    an unfloored sqrt(n) holds everywhere in range.  The violation flag on
    g_sequence must report exactly the floored-cap failures."""
    n = np.arange(2, 1_000_001, dtype=np.int64)
    g = n.copy()
    for k in range(1, 11):
        g = g + _isqrt_vec(g - 1) + 2
        cap = n + k * _isqrt_vec(n) + (k * k + 9 * k + 3) // 4
        bad = g > cap
        if k <= 5:
            assert not bad.any(), f"unexpected cap violation at k={k}"
        cap_real = n.astype(np.float64) + k * np.sqrt(n.astype(np.float64)) + (k * k + 9 * k) / 4
        assert np.all(g.astype(np.float64) <= cap_real + 1e-9)
    # smallest violation, by hand: 3, 6, 10, 15, 20, 26, 33 vs 3 + 6 + 23
    gs = cb.g_sequence(3, 6)
    assert gs.values == (3, 6, 10, 15, 20, 26, 33)
    assert gs.cap == 32
    assert not gs.cap_holds


def test_remark_cap_scalar_agreement():
    # the scalar cap formula matches the sweep's, and the flag is honest
    for n in (2, 3, 10, 99, 100, 10_000, 999_999):
        for k in (1, 5, 10):
            gs = cb.g_sequence(n, k)
            assert gs.cap == n + k * isqrt(n) + -(-(k * k + 9 * k) // 4)
            assert gs.cap_holds == (gs.values[-1] <= gs.cap)
            if k <= 5:
                assert gs.cap_holds


# -- exact floors of sqrt(n) - 6 n^(21/80) --


def test_floor_sqrt_minus_power_spot_values():
    # 6 * 10^1.575 = 225.50...; floor(1000 - that) = 774
    assert bounds.floor_sqrt_minus_power(10**6) == 774
    assert bounds.floor_sqrt_minus_power(100) == -11
    assert bounds.floor_sqrt_minus_power(2074) == 0
    assert bounds.floor_sqrt_minus_power(2075) == 1
    # a large n, and a square n with the n below it: both have one floor
    assert bounds.floor_sqrt_minus_power(10**40 + 12345) == 99999999810263340389
    assert bounds.floor_sqrt_minus_power((10**18 + 9) ** 2) == 999999983089702421
    assert bounds.floor_sqrt_minus_power((10**18 + 9) ** 2 - 1) == 999999983089702421
    # values from 200-digit decimals
    assert bounds.floor_sqrt_minus_power(2**143) == 3339217362088273379871
    assert bounds.floor_sqrt_minus_power(10**50 + 1) == 9999999999919988714070200


def test_floor_sqrt_minus_power_exact_integer_case():
    # n = 2^80: sqrt(n) = 2^40 and n^(21/80) = 2^21 exactly
    n = 2**80
    want = 2**40 - 6 * 2**21
    assert bounds.floor_sqrt_minus_power(n) == want
    assert bounds._floor_at_least(n, want)
    assert not bounds._floor_at_least(n, want + 1)


def test_floor_sqrt_minus_power_against_high_precision():
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 450
        for n in (10, 97, 1024, 4096, 50000, 123456, 10**6, 10**8 + 7, 10**44, 10**60, 10**400):
            x = Decimal(n).sqrt() - 6 * (Decimal(n) ** (Decimal(21) / Decimal(80)))
            assert bounds.floor_sqrt_minus_power(n) == int(x.to_integral_value("ROUND_FLOOR"))


def test_floor_sqrt_minus_power_against_the_decimal_reference():
    # every n up to 2 999 (the least n of the default floor among them), the
    # plane cap, random n up to 10^200, squares and their neighbours, and the
    # exact ties at 2^80 and 3^80
    rng = random.Random(24)
    small = list(range(1, 3000)) + [16002, 16256] + [rng.randrange(2, 10**6) for _ in range(20)]
    large = [rng.randrange(10**9, 10**k) for k in (12, 20, 40, 90, 200) for _ in range(4)]
    large += [s * s + d for s in (10**6 + 3, 2**40, 10**18 + 9) for d in (-1, 0, 1)]
    large += [2**80, 3**80, 2**142, 2**143 + 1, 10**200 + 7]
    for n in small + large:
        assert bounds.floor_sqrt_minus_power(n) == oracles.floor_sqrt_minus_power_reference(n), n


def test_sqrt_comparator_ties():
    # at n = m^80, sqrt(n) - 6 n^(21/80) is the integer m^40 - 6 m^21
    for m in (2, 3):
        n, v = m**80, m**40 - 6 * m**21
        assert bounds._floor_at_least(n, v)
        assert not bounds._floor_at_least(n, v + 1)
        assert oracles.floor_sqrt_minus_power_reference(n) == v
    # a square n that is no 80th power: 1000 - 225.50...
    assert bounds._floor_at_least(10**6, 774)
    assert not bounds._floor_at_least(10**6, 775)
    # v = 0, decided from squares: the floor is 0 at n = 2 000, -1 at 1 800
    assert bounds._floor_at_least(2000, 0)
    assert not bounds._floor_at_least(1800, 0)


def test_sqrt_comparator_below_v_squared():
    # n < v^2 puts sqrt(n) - v below 0 <= 6 n^(21/80) before any power is built
    assert not bounds._floor_at_least(3, 2)


def test_floats_read_at_their_shortest_decimal():
    # 0.3 is 3/10, not the binary fraction with denominator 2^54
    assert bounds.q_threshold(3, 0.3) == bounds.q_threshold(3, Fraction(3, 10))
    assert bounds.bounds_params(3, 10, 2, 0.3).eps == Fraction(3, 10)
    assert bounds.theorem15_table(7, 9, 3, 0.25) == bounds.theorem15_table(7, 9, 3, Fraction(1, 4))


def test_iroot_exact_at_large_degree():
    for b in (2, 3, 80, 4001, 40001):
        for root in (2, 6, 10**6 + 1):
            for x in (root**b - 1, root**b, root**b + 1):
                r = gf.iroot(x, b)
                assert r**b <= x < (r + 1) ** b, (b, root, x)


def test_min_n_default_regime_boundary():
    # MIN_N_DEFAULT is the least n at which the floor reaches 1, and the
    # floor stays at least 1 over every larger n that a plane admits
    mn = bounds.MIN_N_DEFAULT
    assert mn == 2075
    assert all(bounds.floor_sqrt_minus_power(n) < 1 for n in range(1, mn))
    assert all(bounds.floor_sqrt_minus_power(n) >= 1 for n in range(mn, 16003))


# -- parameter pack --


def test_bounds_params_k3():
    p = cb.bounds_params(3, 10, 2, Fraction(1, 2))
    assert (p.a_k, p.b_k) == (0, 0)
    assert p.n == 72  # q^2 - kq + t + a_k
    assert p.ladder == (82, 93, 102)


def test_bounds_params_k4():
    p = cb.bounds_params(4, 10, 0, Fraction(1, 2))
    assert (p.a_k, p.b_k, p.n) == (2, 2, 62)


def test_threshold_identity():
    for k in range(3, 9):
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)):
            assert bounds.q_threshold(k, eps) * eps ** (2 * k) == Fraction(320 * k**4) ** (k + 1)


def test_bounds_params_refuses_unprintable_threshold(monkeypatch):
    # at k = 3 and eps = 10^-e the numerator of Q has 6e + 18 digits
    assert len(str(cb.bounds_params(3, 8, 6, Fraction(1, 10**713)).threshold.numerator)) == 4296
    with pytest.raises(CapExceeded):
        cb.bounds_params(3, 8, 6, Fraction(1, 10**714))
    # a long eps numerator cancels nothing of the denominator's power
    with pytest.raises(CapExceeded):
        cb.bounds_params(3, 8, 6, Fraction(10**800 - 1, 10**800))
    # far over the cap the refusal comes from k and eps alone, without Q
    monkeypatch.setattr(bounds, "q_threshold", lambda k, eps: pytest.fail("built Q"))
    for k in (400, 10**6):
        with pytest.raises(CapExceeded):
            cb.bounds_params(k, 8, 6, Fraction(1, 2))


def test_bounds_params_validation():
    with pytest.raises(DomainError):
        cb.bounds_params(2, 10, 0, Fraction(1, 2))
    with pytest.raises(DomainError):
        cb.bounds_params(3, 10, 0, Fraction(3, 2))
    with pytest.raises(DomainError):
        cb.bounds_params(3, 1, 0, Fraction(1, 2))


def test_ladder_gaps_sweep():
    for k in range(3, 9):
        b_k = bounds.ladder_offset(k)
        for q in range(10, 101, 9):
            for t in range(0, q + 1, 7):
                p = cb.bounds_params(k, q, t, Fraction(1, 2))
                ladder = p.ladder
                assert ladder[-1] - ladder[-2] == q - b_k - 1
                if k >= 3:
                    assert ladder[-2] - ladder[-3] == q + 1 if k > 3 else True
                if k > 3:
                    for i in range(k - 3):
                        assert ladder[i + 1] - ladder[i] == q


def test_ladder_strictly_increasing_when_q_large():
    for k in range(3, 9):
        b_k = bounds.ladder_offset(k)
        q = b_k + 2  # the smallest q that orders the ladder
        p = cb.bounds_params(k, max(q, 2), 3, Fraction(1, 2))
        assert list(p.ladder) == sorted(set(p.ladder))


# -- admissibility --


def test_theorem15_examples():
    assert not cb.theorem15_admissible(3, 8, 1, Fraction(3, 10)).admissible
    assert cb.theorem15_admissible(3, 8, 5, Fraction(3, 10)).admissible
    assert not cb.theorem15_admissible(3, 7, 5, Fraction(1, 10)).admissible
    assert cb.theorem15_admissible(3, 7, 4, Fraction(1, 10)).admissible
    assert not cb.theorem15_admissible(3, 9, 5, Fraction(1, 10)).admissible  # (q+1)/2 excluded
    assert cb.theorem15_admissible(3, 9, 4, Fraction(1, 10)).admissible
    with pytest.raises(NotPrimePower):
        cb.theorem15_admissible(3, 6, 0, Fraction(1, 2))


def test_theorem15_reasons_outside_the_window():
    # q = 7 is 3 mod 4, so its window starts at t = (q + 1)/2 = 4
    assert cb.theorem15_admissible(3, 7, 3, Fraction(1, 10)).reason == "t=3 < 4"
    assert cb.theorem15_admissible(3, 8, 6, 0.3).reason == "t=6 > (1-eps)q = 28/5"


def test_theorem15_refuses_book_order_below_one():
    # q = 2, t = 0 is in the even-q window, but the book would have n < 1
    for k, n in ((3, -2), (4, -2), (5, -1)):
        adm = cb.theorem15_admissible(k, 2, 0, Fraction(1, 4))
        assert not adm.admissible
        assert adm.reason == f"n = q^2 - kq + t + C(k,2) - k = {n} < 1"
    assert cb.theorem15_admissible(6, 2, 0, Fraction(1, 4)).admissible  # n = 1


@pytest.mark.parametrize("k", range(3, 9))
def test_theorem15_table_rows_have_a_book(k):
    for eps in (Fraction(1, 100), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
        for r in bounds.theorem15_table(2, 64, k, eps):
            assert r["n"] >= 1
            assert r["n"] == r["q"] ** 2 - k * r["q"] + r["t"] + comb(k, 2) - k


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "args, rows, digest",
    [
        ((2, 200, 3, Fraction(1, 2)), 154, "47be9d60e96dae722587355951c23e721bafab4423fa210f34eb77bebea5df4e"),
        ((2, 200, 4, Fraction(1, 10)), 2133, "e06e9a9f908bc7beef2e2ea828d75d0d71bcb66162357b6e64871196e6f24d55"),
        ((2, 128, 6, Fraction(3, 10)), 590, "78400623d933b72954d1298c3f19f96d2e09798d3279adea575279e316caff2b"),
        ((7, 9, 3, Fraction(1, 4)), 9, "929715c45251b1ad918995c5812377f65e901f604e52d04b6c65e1409012f672"),
    ],
)
def test_theorem15_table_pinned(args, rows, digest):
    # computed when every t of every prime power was tested one by one
    table = bounds.theorem15_table(*args)
    assert len(table) == rows and _digest(table) == digest


def test_theorem15_table_walks_each_window():
    # testing every t of every prime power took 3.7 s (2-core VM, Python 3.11)
    start = time.perf_counter()
    bounds.theorem15_table(2, 3000, 3, Fraction(1, 2))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "args, error",
    [
        ((6, 6, 2, Fraction(1, 2)), DomainError),  # k < 3, with no prime power in range
        ((10, 2, 3, Fraction(7, 2)), DomainError),  # eps > 1, with an empty range
        ((2, bounds.TABLE_Q_CAP + 1, 3, Fraction(1, 2)), CapExceeded),
        ((2, 10**9, 3, Fraction(1, 2)), CapExceeded),
    ],
)
def test_theorem15_table_checks_its_arguments_first(args, error):
    with pytest.raises(error):
        bounds.theorem15_table(*args)


def test_theorem15_table_shape():
    rows = bounds.theorem15_table(7, 9, 3, Fraction(1, 4))
    assert {(r["q"], r["t"]) for r in rows} == {
        (7, 4),
        (8, 0), (8, 2), (8, 3), (8, 4), (8, 5), (8, 6),
        (9, 4), (9, 6),
    }
    for r in rows:
        assert r["r"] == r["q"] ** 2 + r["t"]


# -- general lower bound --


def test_theorem16_examples():
    t = cb.theorem16_lower(10**6, 3)
    assert t.value == 1_002_322 and t.in_regime
    t = cb.theorem16_lower(100, 2)
    assert not t.in_regime and t.value == 102  # trivial n + k
    assert cb.theorem16_lower(50, 0).value == 50


def test_theorem16_integer_correction_term():
    # k(k-3)/2 is always integral
    for k in range(0, 12):
        assert (k * k - 3 * k) % 2 == 0


# -- aggregated reports --


def test_report_known_exact_values():
    assert cb.bound_report(3, 2).exact == 9
    assert cb.bound_report(13, 2).exact == 22
    assert cb.bound_report(9, 1).exact == 13
    assert cb.bound_report(10, 1).exact == 14
    assert cb.bound_report(4, 1).exact == 7
    assert cb.bound_report(7, 2).exact == 16


def test_report_k2_family_values():
    # even prime power family: q=4, t=0 -> n=7 handled above; q=4, t=3 -> n=10
    rep = cb.bound_report(10, 2)
    assert rep.exact == 19
    # t=1 is excluded, so n=8 = (4-1)^2 + (1-2) has no exact claim
    rep = cb.bound_report(8, 2)
    assert rep.exact is None
    assert rep.upper is not None and rep.lower <= rep.upper


def test_report_sweep_consistency():
    for n in range(1, 2001, 13):
        for k in range(1, 7):
            rep = cb.bound_report(n, k)
            if rep.upper is not None:
                assert rep.lower <= rep.upper, (n, k)
            if rep.exact is not None:
                assert rep.lower == rep.upper == rep.exact


def test_report_pinned():
    # computed with a separate (q, t) lookup for k = 2 and for k >= 3; an
    # upper bound that ties an exact value names the exact value's source
    reports = [cb.bound_report(n, k)._asdict() for k in range(1, 9) for n in range(1, 601)]
    assert _digest(reports) == "a0b05c33e684f8d00db6d43d5e0e4708264f589260ecc8faacf1551ae4c92533"


def test_report_credits_a_tied_upper_bound_to_the_exact_value():
    # the twice-iterated star bound is 27 too, but 27 is the family's exact value
    rep = cb.bound_report(16, 2)
    assert (rep.lower, rep.upper, rep.exact) == (27, 27, 27)
    assert rep.upper_provenance == "exact family value q^2 + t (q=5, t=2)"
    # at n = q^2 the star bound ties the polarity-graph family's value
    rep = cb.bound_report(16, 1)
    assert (rep.upper, rep.exact) == (21, 21)
    assert rep.upper_provenance == "polarity-graph family, n = q^2 with q = 4"
    # k = 3, where the upper family bound ties the exact family value
    q = BIG_PRIME
    t = q // 2 + 1
    rep = cb.bound_report(q * q - 3 * q + t, 3)
    assert rep.upper == rep.exact == q * q + t
    assert rep.upper_provenance == f"exact family q^2 + t (q={q}, t={t})"


BIG_PRIME = 10**20 + 39  # past trial division's reach, and above Q(3, 1/2)


@pytest.mark.parametrize(
    "n, k",
    [
        (BIG_PRIME**2 - 3 * BIG_PRIME + 5, 3),
        ((BIG_PRIME - 1) ** 2 + 3, 2),
        (BIG_PRIME**2, 1),
    ],
    ids=["k3", "k2", "k1"],
)
def test_report_at_a_large_prime_q(n, k):
    # each one ran past a 15 s timeout when q was factored by trial division
    start = time.perf_counter()
    rep = cb.bound_report(n, k)
    assert time.perf_counter() - start < 1
    q = BIG_PRIME
    assert rep.upper == (q * q + q + 1 if k == 1 else q * q + 5)
    assert rep.exact == (q * q + q + 1 if k == 1 else None)  # t = 5 lies below the window


def test_report_reaches_the_k3_exact_regime():
    # q = 3 mod 4, so the window starts at t = (q + 1)/2, and q > Q(3, eps_max)
    q = BIG_PRIME
    t = q // 2 + 1
    start = time.perf_counter()
    rep = cb.bound_report(q * q - 3 * q + t, 3)
    assert time.perf_counter() - start < 1
    assert rep.exact == q * q + t
    assert rep.lower_provenance == f"exact family q^2 + t (q={q}, t={t})"


def test_report_refuses_an_undecided_prime_power():
    q = 10**25 + 13  # prime, past the exact range of Miller-Rabin on bases 2..41
    with pytest.raises(CapExceeded):
        cb.bound_report(q * q, 1)


def test_report_trivial_lower():
    rep = cb.bound_report(1, 3)
    assert rep.lower == 4
    assert rep.upper is None


def test_report_at_one_page_and_huge_k_skips_the_family_scan():
    # n = 1 never calls g_sequence, so its cap on k does not apply; the
    # family needs 4n >= k(k - 6), and scanning about 2k values of q took
    # 1.6 s at k = 10^7
    start = time.perf_counter()
    rep = cb.bound_report(1, 10**7)
    assert time.perf_counter() - start < 0.3
    assert (rep.lower, rep.upper, rep.exact) == (10**7 + 1, None, None)


def test_report_at_huge_k_compares_threshold_from_logs():
    # q = 2^17, t = 5 is an exact-family pair, and Q(131072, eps) has about
    # 2.8 million digits: built exactly, it made this report take over a minute.
    n, k = 8589737989, 131072
    assert bounds._family(n, k) == [(2**17, 5)]
    start = time.perf_counter()
    rep = cb.bound_report(n, k)
    assert time.perf_counter() - start < 2
    assert rep == bounds.BoundReport(
        n,
        k,
        11829116933,
        "random polarity-thinning bound (asymptotic)",
        25032771038,
        "131072-times iterated star bound",
        None,
    )


@pytest.mark.parametrize(
    "k, eps",
    [(3, Fraction(1, 2)), (3, Fraction(2, 3)), (4, Fraction(9, 10)), (3, Fraction(1)), (5, Fraction(1))],
)
def test_threshold_comparison_exact_next_to_q(k, eps):
    # eps = 1 is the t = 0 comparison, q > (320 k^4)^(k+1)
    threshold = Fraction(320 * k**4) ** (k + 1) / eps ** (2 * k)
    floor = threshold.numerator // threshold.denominator
    for q in range(floor - 2, floor + 3):
        assert bounds._cmp_threshold(q, k, eps) == (q > threshold) - (q < threshold), q
