"""Closed-form bounds for r(C4, B_n^(k)): every formula the toolkit evaluates.

Every answer is exact: big integers everywhere, Fractions for the rational
input eps and the threshold Q(k, eps), and the floor of sqrt(n) -
6*n^(21/80) from an integer-root guess and one exact comparison, so no floor
is ever off by one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, isqrt
from typing import NamedTuple

from .errors import CapExceeded, DomainError
from .gf import iroot, is_prime_power, prime_power_decompose

# -- exact floors of sqrt(n) - 6 * n^(21/80) --


def _floor_at_least(n: int, v: int) -> bool:
    """Whether sqrt(n) - 6*n^(21/80) >= v, exactly, in integer arithmetic.

    Both sides of sqrt(n) - v >= 6*n^(21/80) are nonnegative once sqrt(n) >= v,
    so comparing 80th powers decides: (sqrt(n) - v)^80 against R = 6^80 * n^21.
    A square n makes that an integer comparison, and so does v = 0 after
    squaring.  Otherwise sqrt(n) - v is bracketed between consecutive
    multiples of 2^-j, with j doubled until the bracket decides.  That ends,
    since (sqrt(n) - v)^80 is irrational for a non-square n and v != 0: were
    it rational, it would equal its conjugate (-sqrt(n) - v)^80, forcing v = 0.
    """
    if v > 0 and n < v * v:
        return False  # sqrt(n) - v < 0 <= 6*n^(21/80)
    rhs = 6**80 * n**21
    s = isqrt(n)
    if s * s == n:
        return (s - v) ** 80 >= rhs
    if v == 0:
        return n**80 >= rhs * rhs  # sqrt(n)^160 against R^2
    j = 32
    while True:
        low = isqrt(n << 2 * j) - (v << j)  # floor(2^j * (sqrt(n) - v)) >= 0
        scaled = rhs << j * 80
        if low**80 >= scaled:
            return True
        if (low + 1) ** 80 <= scaled:
            return False
        j *= 2


def floor_sqrt_minus_power(n: int) -> int:
    """floor(sqrt(n) - 6 * n^(21/80)), exact for every n >= 1.

    With x = sqrt(n) and y = 6*n^(21/80) = (6^80 * n^21)^(1/80), floor(x) -
    floor(y) - 1 <= floor(x - y) <= floor(x) - floor(y).  So the guess
    isqrt(n) - iroot(6^80 * n^21, 80) is the floor or one above it, and one
    exact comparison decides which.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    guess = isqrt(n) - iroot(6**80 * n**21, 80)
    return guess if _floor_at_least(n, guess) else guess - 1


# The least n with floor_sqrt_minus_power(n) >= 1.  sqrt(n) - 6*n^(21/80)
# increases once n^(19/80) > 2 * 6 * 21/80, that is from n = 126 on, so the
# floor stays at least 1 from here on.
MIN_N_DEFAULT = 2075


# -- star case (k = 1) --


def parsons_upper(n: int) -> int:
    """Upper bound n + floor(sqrt(n-1)) + 2 for the star book B_n^(1).

    One smaller when n - 1 is a perfect square, which is where the bound is
    attained with room to spare.
    """
    if n < 2:
        raise DomainError(f"parsons_upper needs n >= 2, got {n}")
    root = isqrt(n - 1)
    if root * root == n - 1:
        return n + root + 1
    return n + root + 2


# -- iterated star recurrence --


class GSequence(NamedTuple):
    values: tuple[int, ...]  # g_0(n) .. g_k(n)
    cap: int                 # n + k*floor(sqrt(n)) + ceil((k^2+9k)/4)
    cap_holds: bool


# g_sequence keeps all k + 1 iterates: k = 2^20 takes about half a second
# and 80 MiB.
G_SEQUENCE_K_CAP = 2**20


def g_sequence(n: int, k: int) -> GSequence:
    """g_0 = n, g_i = g_{i-1} + floor(sqrt(g_{i-1} - 1)) + 2, up to g_k.

    Also evaluates the closed-form cap n + k*floor(sqrt(n)) + (k^2+9k)/4
    (rounded up) and flags any violation rather than assuming it.  A k
    above G_SEQUENCE_K_CAP is refused before any iterate is computed.
    """
    if n < 2:
        raise DomainError(f"g_sequence needs n >= 2, got {n}")
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if k > G_SEQUENCE_K_CAP:
        raise CapExceeded(f"g_sequence keeps every iterate; k must be at most {G_SEQUENCE_K_CAP}, got {k}")
    values = [n]
    for _ in range(k):
        g = values[-1]
        values.append(g + isqrt(g - 1) + 2)
    cap = n + k * isqrt(n) + -(-(k * k + 9 * k) // 4)
    return GSequence(tuple(values), cap, values[-1] <= cap)


# -- the (k, q, t, eps) parameter pack --


def _rational(eps) -> Fraction:
    """eps as an exact Fraction strictly inside (0, 1), the one reader of eps.

    Floats are taken at their shortest decimal representation, so 0.3 means
    exactly 3/10.
    """
    eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie strictly in (0, 1), got {eps}")
    return eps


def book_order_offset(k: int) -> int:
    """a_k = C(k,2) - k."""
    return comb(k, 2) - k


def ladder_offset(k: int) -> int:
    """b_k = a_k - ceil(k/2) + 2."""
    return book_order_offset(k) - -(-k // 2) + 2


class BoundsParams(NamedTuple):
    k: int
    q: int
    t: int
    eps: Fraction
    a_k: int
    b_k: int
    n: int                      # q^2 - k*q + t + a_k
    ladder: tuple[int, ...]     # N_1 .. N_k
    threshold: Fraction         # Q(k, eps) = (320 k^4)^(k+1) / eps^(2k)
    q_meets_threshold: bool
    t_in_range: bool            # 0 <= t <= (1 - eps) q


# bounds_params reports Q(k, eps) exactly, so its numerator must print:
# Python converts at most 4300 digits of an int to a string by default.
THRESHOLD_DIGITS_CAP = 4300
_THRESHOLD_LIMIT = 10**THRESHOLD_DIGITS_CAP


def q_threshold(k: int, eps) -> Fraction:
    eps = _rational(eps)
    return Fraction(320 * k**4) ** (k + 1) / eps ** (2 * k)


def _log10_threshold(k: int, eps: Fraction) -> float:
    """log10 Q(k, eps) in floating point, from eps = a/b without building Q."""
    a, b = eps.numerator, eps.denominator
    return (k + 1) * math.log10(320 * k**4) + 2 * k * (math.log10(b) - math.log10(a))


def _cmp_threshold(q: int, k: int, eps: Fraction) -> int:
    """Sign of q - Q(k, eps), exact.

    Decided from logarithms when they differ by more than a relative margin
    far above the rounding error of the few float operations involved; only
    a q within that margin of Q pays for the exact integers, whose length
    grows with k log k.
    """
    gap = math.log10(q) - _log10_threshold(k, eps)
    scale = (k + 1) * math.log10(320 * k**4) + 2 * k * (
        math.log10(eps.denominator) + math.log10(eps.numerator)
    ) + math.log10(q)
    if abs(gap) > 1e-9 * (1 + scale):
        return 1 if gap > 0 else -1
    # q vs (320 k^4)^(k+1) / (a/b)^(2k), cleared of denominators
    lhs = q * eps.numerator ** (2 * k)
    rhs = (320 * k**4) ** (k + 1) * eps.denominator ** (2 * k)
    return (lhs > rhs) - (lhs < rhs)


def _reported_threshold(k: int, eps: Fraction) -> Fraction:
    """Q(k, eps), refused when its numerator has over THRESHOLD_DIGITS_CAP digits.

    With eps = a/b in lowest terms, Q = (320 k^4)^(k+1) b^(2k) / a^(2k), and
    b^(2k) is coprime to a^(2k).  So the numerator is the longer term, and it
    is at least Q and at least b^(2k); when either lower bound is surely too
    long, Q is refused before it is built.
    """
    log_q = _log10_threshold(k, eps)
    if max(log_q, 2 * k * math.log10(eps.denominator)) <= THRESHOLD_DIGITS_CAP + 1:
        threshold = q_threshold(k, eps)
        if threshold.numerator < _THRESHOLD_LIMIT:
            return threshold
    raise CapExceeded(f"Q(k, eps) has more than {THRESHOLD_DIGITS_CAP} digits at k={k}")


def bounds_params(k: int, q: int, t: int, eps) -> BoundsParams:
    """All derived quantities for the (k, q, t, eps) parameterization.

    A Q(k, eps) too long to print raises CapExceeded before Q is built.
    """
    if k < 3:
        raise DomainError(f"bounds_params needs k >= 3, got {k}")
    if q < 2:
        raise DomainError(f"bounds_params needs q >= 2, got {q}")
    eps = _rational(eps)
    threshold = _reported_threshold(k, eps)
    a_k = book_order_offset(k)
    b_k = ladder_offset(k)
    n = q * q - k * q + t + a_k
    ladder = [q * q - (k - i) * q + t + b_k for i in range(1, k - 1)]
    ladder.append(q * q - q + t + b_k + 1)
    ladder.append(q * q + t)
    return BoundsParams(
        k=k,
        q=q,
        t=t,
        eps=eps,
        a_k=a_k,
        b_k=b_k,
        n=n,
        ladder=tuple(ladder),
        threshold=threshold,
        q_meets_threshold=Fraction(q) >= threshold,
        t_in_range=0 <= t and Fraction(t) <= (1 - eps) * q,
    )


# -- admissibility of (q, t) for the exact-value family --


class Admissibility(NamedTuple):
    admissible: bool
    reason: str
    parity_class: str  # "even", "3 mod 4", or "1 mod 4"


def theorem15_admissible(k: int, q: int, t: int, eps) -> Admissibility:
    """Whether (q, t) lands in the exact-value family's stated (q, t) window.

    The size threshold on q is reported separately (bounds_params), since no
    desk-scale q meets it; certificates stand on their own.  A (q, t) whose
    book B_n^(k) would have n = q^2 - kq + t + C(k,2) - k < 1 pages is
    refused too.
    """
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    eps = _rational(eps)
    prime_power_decompose(q)  # raises NotPrimePower
    cls, lo, excl = _parity_window(q)
    hi = (1 - eps) * q
    if t < lo:
        return Admissibility(False, f"t={t} < {lo}", cls)
    if Fraction(t) > hi:
        return Admissibility(False, f"t={t} > (1-eps)q = {hi}", cls)
    even = cls == "even"
    if t == excl:
        return Admissibility(False, f"t={excl} excluded for {'even q' if even else 'q = ' + cls}", cls)
    n = q * q - k * q + t + book_order_offset(k)
    if n < 1:
        return Admissibility(False, f"n = q^2 - kq + t + C(k,2) - k = {n} < 1", cls)
    kind = "even prime power" if even else f"odd prime power ({cls})"
    return Admissibility(True, f"{kind}, {lo} <= t <= (1-eps)q, t != {excl}", cls)


def _parity_window(q: int) -> tuple[str, int, int]:
    """(parity class, least t, excluded t) of the exact-value family at prime power q.

    A prime power is even exactly when it is a power of two, so no factoring
    is needed; at any other q the answer means nothing.
    """
    if q & (q - 1) == 0:
        return "even", 0, 1
    if q % 4 == 3:
        return "3 mod 4", (q + 1) // 2, (q + 3) // 2
    return "1 mod 4", (q - 1) // 2, (q + 1) // 2


def _in_window(q: int, t: int) -> bool:
    """Whether lo <= t != excluded t at prime power q; the (1 - eps)q end is the caller's."""
    _, lo, excl = _parity_window(q)
    return lo <= t != excl


# At this cap a table has at most 559 579 rows (eps near 0), 4 395 at eps = 1/2.
TABLE_Q_CAP = 4096


def theorem15_table(qmin: int, qmax: int, k: int, eps) -> list[dict]:
    """Predicted exact values r = q^2 + t over admissible (q, t) in range.

    At each prime power q the admissible t run from the window's least t,
    raised until the book has n >= 1 pages, up to floor((1 - eps)q), less the
    excluded t.  QMAX above TABLE_Q_CAP raises CapExceeded.
    """
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    eps = _rational(eps)
    if qmax > TABLE_Q_CAP:
        raise CapExceeded(f"the table stops at q = {TABLE_Q_CAP}, got QMAX = {qmax}")
    a, b = eps.numerator, eps.denominator
    rows = []
    for q in range(max(2, qmin), qmax + 1):
        if not is_prime_power(q):
            continue
        cls, lo, excl = _parity_window(q)
        n0 = q * q - k * q + book_order_offset(k)
        for t in range(max(lo, 1 - n0), (b - a) * q // b + 1):
            if t != excl:
                rows.append({"q": q, "t": t, "n": n0 + t, "r": q * q + t, "parity_class": cls})
    return rows


# -- general lower bound via random thinning --


class Theorem16Bound(NamedTuple):
    value: int
    in_regime: bool
    floor_term: int  # floor(sqrt(n) - 6 n^0.2625)
    note: str


def theorem16_lower(n: int, k: int) -> Theorem16Bound:
    """n + k*floor(sqrt(n) - 6 n^0.2625) - k(k-3)/2, or the trivial n + k.

    The floor is evaluated exactly (integer algebra, not floating point).
    Below the regime where the floor reaches 1 the stated bound degenerates,
    so the trivial book-order bound is returned and flagged.
    """
    if n < 1 or k < 0:
        raise DomainError("need n >= 1 and k >= 0")
    if k == 0:
        return Theorem16Bound(n, True, 0, "k=0: formula degenerates to n")
    ft = floor_sqrt_minus_power(n)
    if ft < 1:
        return Theorem16Bound(n + k, False, ft, "asymptotic regime not reached")
    return Theorem16Bound(n + k * ft - (k * k - 3 * k) // 2, True, ft, "asymptotic bound; assumes n sufficiently large")


# -- aggregated per-(n, k) report --


class BoundReport(NamedTuple):
    n: int
    k: int
    lower: int
    lower_provenance: str
    upper: int | None
    upper_provenance: str | None
    exact: int | None


# Exact small values with their published-source tags.
KNOWN_EXACT = {
    (3, 2): (9, "published exact value r(C4, B_3^(2)) = 9"),
    (13, 2): (22, "published exact value r(C4, B_13^(2)) = 22"),
}


def _family(n: int, k: int) -> list[tuple[int, int]]:
    """Every (q, t) with n = q^2 - kq + t + C(k,2) - k, q >= 2 and 0 <= t <= q, by q."""
    # over real q, q^2 - kq + C(k,2) - k is least at q = k/2, where it is
    # k(k - 6)/4, and t >= 0; so no member exists when 4n < k(k - 6).  That
    # skips a scan of about 2k values of q at n = 1, where bound_report never
    # calls g_sequence, whose cap on k would refuse a huge k.
    if 4 * n < k * (k - 6):
        return []
    a_k = book_order_offset(k)
    s = isqrt(max(n, 1))
    return [
        (q, t)
        for q in range(max(2, s - k - 2), s + k + 3)
        if 0 <= (t := n - q * q + k * q - a_k) <= q
    ]


def bound_report(n: int, k: int) -> BoundReport:
    """Best lower/upper bound for r(C4, B_n^(k)) this toolkit can justify."""
    if n < 1 or k < 1:
        raise DomainError("need n >= 1 and k >= 1")
    lowers = [(n + k, "trivial bound: the book has n + k vertices")]
    uppers: list[tuple[int, str]] = []
    exacts: list[tuple[int, str]] = []

    if (n, k) in KNOWN_EXACT:
        exacts.append(KNOWN_EXACT[(n, k)])

    if k == 1 and n >= 2:
        uppers.append((parsons_upper(n), "star bound n + floor(sqrt(n-1)) + 2"))
        s = isqrt(n)
        if s * s == n and is_prime_power(s):
            exacts.append((s * s + s + 1, f"polarity-graph family, n = q^2 with q = {s}"))
        s = isqrt(n - 1)
        if s * s == n - 1 and is_prime_power(s):
            exacts.append((s * s + s + 2, f"polarity-graph family, n = q^2 + 1 with q = {s}"))

    if k == 2:
        if n >= 2:
            g2 = g_sequence(n, 2).values[2]
            uppers.append((g2, "twice-iterated star bound g(g(n))"))
        for q, t in _family(n, 2):
            if q >= 4 and t < q:
                uppers.append((q * q + t, f"induced polarity-subgraph bound (q={q}, t={t})"))
                if _in_window(q, t) and is_prime_power(q):
                    exacts.append((q * q + t, f"exact family value q^2 + t (q={q}, t={t})"))
        # n = q^2 - q + 1 special family for prime powers q
        s = isqrt(n)
        for q in (s, s + 1):
            if q >= 2 and q * q - q + 1 == n and is_prime_power(q):
                lowers.append((q * q + q + 2, f"polarity special case lower (q={q})"))
                uppers.append((q * q + q + 4, f"polarity special case upper (q={q})"))
                if q == 3:
                    exacts.append((16, "15-vertex witness family (4-regular C4-free graphs exist)"))

    if k >= 3:
        if n >= 2:
            gk = g_sequence(n, k).values[k]
            uppers.append((gk, f"{k}-times iterated star bound"))
        t16 = theorem16_lower(n, k)
        if t16.in_regime:
            lowers.append((t16.value, "random polarity-thinning bound (asymptotic)"))
        for q, t in _family(n, k):
            # the family needs q >= Q(k, eps) at an eps in (0, 1) with t <= (1 - eps)q,
            # so at eps = 1 - t/q when t > 0, and q > Q(k, 1) = (320 k^4)^(k+1) at t = 0
            if t < q and _cmp_threshold(q, k, 1 - Fraction(t, q)) >= (t == 0) and is_prime_power(q):
                uppers.append((q * q + t, f"upper family q^2 + t (q={q}, t={t})"))
                if _in_window(q, t):
                    exacts.append((q * q + t, f"exact family q^2 + t (q={q}, t={t})"))

    lowers += exacts
    # min keeps the first least entry, so an upper bound that ties an exact
    # value is credited to the exact value's source
    uppers = exacts + uppers

    lower, lower_src = max(lowers, key=lambda it: it[0])
    upper, upper_src = (min(uppers, key=lambda it: it[0]) if uppers else (None, None))
    exact = lower if upper is not None and lower == upper else None
    return BoundReport(n, k, lower, lower_src, upper, upper_src, exact)
