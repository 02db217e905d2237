"""Exact arithmetic in GF(p^e) for the prime powers the constructions need.

An element is an integer index in 0..q-1: the base-p value of its coefficient
vector (constant term first), a polynomial of degree < e over Z_p reduced
modulo a fixed monic irreducible modulus.  Arithmetic runs on exp/log tables
with Zech logarithms for addition (Lidl & Niederreiter, *Finite Fields*,
ch. 9), built once per field on first use; ``field.tables`` is the only
arithmetic.  Fields compare by (p, e, modulus).
"""

from __future__ import annotations

from itertools import product
from math import exp, isqrt, log

from .errors import (
    CapExceeded,
    DivisionByZero,
    DomainError,
    InternalInconsistency,
    NonPrimeCharacteristic,
    NotPrimePower,
)

DEFAULT_ORDER_CAP = 1 << 20

# Miller-Rabin with every base 2..41, among them the 13 primes 2..41, decides
# primality below this bound (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_EXACT_BELOW = 3317044064679887385961981


def iroot(x: int, b: int) -> int:
    """floor(x^(1/b)) for integers x >= 0 and b >= 1, by Newton's method.

    Newton's step shrinks r by about r/b while r is far above the root, so it
    starts from a float estimate instead: x is cut to its top 64*b bits, the
    b-th root of that is taken in floating point (relative error near 1e-14)
    and the estimate is raised by 2^-40 of itself to lie above the root.
    """
    if x < 2:
        return x
    shift = max(0, x.bit_length() // b - 64)
    est = exp(log(x >> shift * b) / b)
    r = (int(est) + (int(est) >> 40) + 2) << shift
    while True:
        s = ((b - 1) * r + x // r ** (b - 1)) // b
        if s >= r:
            return r
        r = s


def _is_prime_above_trial(n: int) -> bool:
    """Primality of an odd n with no factor below 2^16, by Miller-Rabin.

    A base that witnesses compositeness proves it.  Passing every base proves
    primality only below _MR_EXACT_BELOW; above it a passed base leaves the
    answer open, so CapExceeded is raised at the first one.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in range(2, 42):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n >= _MR_EXACT_BELOW:
            raise CapExceeded(
                f"cannot decide whether a {n.bit_length()}-bit number is prime: "
                f"Miller-Rabin on bases 2..41 is exact only below {_MR_EXACT_BELOW}"
            )
    return True


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p^e for prime p, or raise NotPrimePower.

    Trial division below 2^16 finds a small p, and decides every q < 2^32.
    Past that, every prime factor of q exceeds 2^16, so q = p^e needs
    16e < log2(q).  Trying e from the largest down, the first exact e-th root
    is no perfect power, so q is a prime power exactly when that root is prime.
    """
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = next((d for d in range(2, min(1 << 16, isqrt(q) + 1)) if q % d == 0), q)
    if p >> 32:  # q >= 2^32 with no factor below 2^16
        for e in range(q.bit_length() // 16, 0, -1):
            p = iroot(q, e)
            if p**e == q:
                break
        if not _is_prime_above_trial(p):
            raise NotPrimePower(f"{q} is not a prime power")
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, e


def is_prime_power(q: int) -> bool:
    try:
        prime_power_decompose(q)
    except NotPrimePower:
        return False
    return True


def is_prime(n: int) -> bool:
    try:
        return prime_power_decompose(n)[1] == 1
    except NotPrimePower:
        return False


# -- polynomial helpers (coefficient tuples, constant term first) --
# Used only to choose the modulus and to build the tables.


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo m; m must be monic."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if poly[0] == 0 and deg > 1:
        return False  # divisible by x
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = low + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


class FieldTables:
    """Integer arithmetic of one field on its exp/log/Zech tables.

    With g the smallest-index primitive element and N = q - 1:
    ``exp[i] = g^i`` for 0 <= i < 2N (stored twice over, so a sum of two
    logarithms needs no reduction), ``log[a]`` inverts it on nonzero a
    (``log[0]`` is None), ``zech[n] = log(1 + g^n)`` with None where
    1 + g^n = 0, and ``minus_one = log(-1)``.  Results are element indices,
    so they do not depend on which primitive element was chosen.
    """

    __slots__ = ("q", "exp", "log", "zech", "minus_one")

    def __init__(self, field: "Field"):
        p, q = field.p, field.q
        exp = _primitive_powers(field)
        log = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        zech = []
        for a in exp:
            c0 = a % p
            one_plus = a - c0 + (c0 + 1) % p  # add 1 to the constant coefficient
            zech.append(log[one_plus])
        self.q = q
        self.exp = exp + exp
        self.log = log
        self.zech = zech
        self.minus_one = log[p - 1]

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        # a + b = a * (1 + b/a); a negative list index wraps mod N
        z = self.zech[self.log[b] - la]
        return 0 if z is None else self.exp[la + z]

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def neg(self, a: int) -> int:
        return self.exp[self.log[a] + self.minus_one] if a else 0

    def inv(self, a: int) -> int:
        if not a:
            raise DivisionByZero("inverse of zero")
        return self.exp[self.q - 1 - self.log[a]]

    def pow(self, a: int, k: int) -> int:
        if not a:
            if k < 0:
                raise DivisionByZero("inverse of zero")
            return 0 if k else 1
        return self.exp[self.log[a] * k % (self.q - 1)]


def _primitive_powers(field: "Field") -> list[int]:
    """[g^0, ..., g^(q-2)] as indices, for the smallest-index primitive g."""
    p, q = field.p, field.q
    for g in range(2 if q > 2 else 1, q):
        g_poly = _poly_trim(field._digits(g))
        powers = [1]
        cur = (1,)
        for _ in range(q - 1):
            cur = _poly_mod(_poly_mul(cur, g_poly, p), field.modulus, p)
            idx = field._index(cur)
            if idx == 1:
                if len(powers) == q - 1:
                    return powers
                break
            powers.append(idx)
    raise InternalInconsistency(f"no primitive element found in GF({q})")


class Field:
    """GF(p^e) with the lexicographically smallest monic irreducible modulus.

    Modulus candidates are compared coefficient-by-coefficient from the
    constant term upward, so the choice is deterministic across runs.
    """

    __slots__ = ("p", "e", "q", "modulus", "_tables")

    def __init__(self, p: int, e: int, modulus):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = tuple(modulus)
        self._tables = None

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"

    @property
    def tables(self) -> FieldTables:
        """The arithmetic tables, built on first use."""
        if self._tables is None:
            self._tables = FieldTables(self)
        return self._tables

    def _index(self, coeffs) -> int:
        """Base-p value of reduced coefficients, constant term first."""
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def _digits(self, i: int):
        digits = []
        for _ in range(self.e):
            i, r = divmod(i, self.p)
            digits.append(r)
        return tuple(digits)


def field_new(p: int, e: int) -> Field:
    """Build GF(p^e), selecting the smallest monic irreducible modulus.

    The order cap is checked first, so a huge p or e costs neither a
    primality test nor the power p^e: with p >= 2, any e of the cap's bit
    length or more already passes it.
    """
    cap = DEFAULT_ORDER_CAP
    if p >= 2 and e >= 1 and (p > cap or e >= cap.bit_length() or p**e > cap):
        raise CapExceeded(f"p^e exceeds cap {cap}")
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if e < 1:
        raise DomainError(f"extension degree must be >= 1, got {e}")
    if e == 1:
        return Field(p, 1, (0, 1))  # modulus x
    for low in product(range(p), repeat=e):
        candidate = low + (1,)
        if _is_irreducible(candidate, p):
            return Field(p, e, candidate)
    raise InternalInconsistency(f"no monic irreducible polynomial of degree {e} over Z_{p}")

