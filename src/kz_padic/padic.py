"""Finite-precision p-adic integer arithmetic.

A value is a residue modulo p**N for an explicitly chosen precision N.
A residue that vanishes at the working precision has norm exponent N (the
certified bound |x| <= p^-N), never an exact zero, so precision underflow
cannot masquerade as convergence.  Includes Teichmuller representatives,
Hensel square roots, half-integer binomial coefficients and their rows, and
the binomial valuation identities used by the solution-shift machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction


class PrecisionError(ArithmeticError):
    """Working precision too small for the requested computation."""


class NonResidueError(ArithmeticError):
    """Square root requested on a disc with no square-root branch."""


def int_valuation(m: int, p: int) -> int | None:
    """Largest e with p**e dividing m; None for m == 0 (infinite)."""
    if m == 0:
        return None
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def fraction_valuation(q: Fraction, p: int) -> int | None:
    if q == 0:
        return None
    num = int_valuation(q.numerator, p)
    den = int_valuation(q.denominator, p)
    return num - den


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


class PAdic:
    """A p-adic integer known modulo p**N."""

    __slots__ = ("p", "N", "residue")

    def __init__(self, p: int, N: int, residue: int):
        if N < 1:
            raise ValueError("precision must be positive")
        self.p = p
        self.N = N
        self.residue = residue % (p ** N)

    @classmethod
    def from_fraction(cls, q: Fraction, p: int, N: int) -> "PAdic":
        """Embed a rational with nonnegative p-adic valuation."""
        q = Fraction(q)
        if q == 0:
            return cls(p, N, 0)
        num, den = q.numerator, q.denominator
        dval = int_valuation(den, p)
        if dval:
            nval = int_valuation(num, p)
            if nval < dval:
                raise ValueError(f"{q} is not a p-adic integer at p={p}")
            num //= p ** dval
            den //= p ** dval
        m = p ** N
        return cls(p, N, num * pow(den, -1, m) % m)

    def _compat(self, other: "PAdic") -> None:
        if self.p != other.p or self.N != other.N:
            raise ValueError("mixed p or precision")

    def __add__(self, other: "PAdic") -> "PAdic":
        self._compat(other)
        return PAdic(self.p, self.N, self.residue + other.residue)

    def __sub__(self, other: "PAdic") -> "PAdic":
        self._compat(other)
        return PAdic(self.p, self.N, self.residue - other.residue)

    def __neg__(self) -> "PAdic":
        return PAdic(self.p, self.N, -self.residue)

    def __mul__(self, other) -> "PAdic":
        if isinstance(other, int):
            return PAdic(self.p, self.N, self.residue * other)
        self._compat(other)
        return PAdic(self.p, self.N, self.residue * other.residue)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PAdic":
        if k < 0:
            return self.inverse() ** (-k)
        return PAdic(self.p, self.N, pow(self.residue, k, self.p ** self.N))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PAdic):
            return NotImplemented
        return (self.p, self.N, self.residue) == (other.p, other.N, other.residue)

    def __hash__(self):
        return hash((self.p, self.N, self.residue))

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def inverse(self) -> "PAdic":
        if not self.is_unit():
            raise ZeroDivisionError("inverse of a non-unit")
        return PAdic(self.p, self.N, pow(self.residue, -1, self.p ** self.N))

    def valuation(self) -> int | None:
        """Valuation in 0..N-1, or None meaning ">= N" (precision-limited)."""
        if self.residue == 0:
            return None
        return int_valuation(self.residue, self.p)

    def norm_exponent(self) -> int:
        """e with |x| <= p**-e certified; equals the valuation for nonzero residues."""
        v = self.valuation()
        return self.N if v is None else v

    def __repr__(self) -> str:
        return f"PAdic({self.residue} mod {self.p}^{self.N})"

    def to_json(self) -> dict:
        return {"p": self.p, "N": self.N, "residue": str(self.residue)}


def teichmuller(x: PAdic) -> PAdic:
    """The unique w with w**p == w and w == x mod p, by iterating t -> t**p.

    Each step gains at least one digit, so at most N iterations settle the
    value at precision N.
    """
    m = x.p ** x.N
    t = x.residue % m
    for _ in range(x.N + 1):
        nxt = pow(t, x.p, m)
        if nxt == t:
            break
        t = nxt
    else:
        raise PrecisionError("Teichmuller iteration failed to settle")
    return PAdic(x.p, x.N, t)


def hensel_sqrt(x: PAdic, branch: int) -> PAdic:
    """Square root of x with result == branch mod p, by Newton iteration.

    Requires x to be a unit whose residue class alpha mod p is a nonzero
    quadratic residue and branch**2 == alpha mod p.
    """
    p, N = x.p, x.N
    alpha = x.residue % p
    if legendre(alpha, p) != 1:
        raise NonResidueError(f"{alpha} is not a nonzero square mod {p}")
    if (branch * branch - alpha) % p != 0:
        raise NonResidueError(f"branch {branch} does not square to {alpha} mod {p}")
    m = p ** N
    inv2 = pow(2, -1, m)
    y = branch % m
    for _ in range(N.bit_length() + 2):
        y = (y + x.residue * pow(y, -1, m)) * inv2 % m
        if (y * y - x.residue) % m == 0:
            return PAdic(p, N, y)
    raise PrecisionError("Newton iteration for sqrt did not converge")


def binom_half(l1: int, k: int, p: int, N: int) -> PAdic:
    """binom(-1/2 - l1, k) as a p-adic integer at precision N.

    Uses the factored closed form
        binom(-1/2-l1, k) = prod_{j=1..k} (2(l1+j)-1) / ((-2)**k k!),
    which keeps the p-valuation bookkeeping exact for odd p.
    """
    return PAdic.from_fraction(binom_half_fraction(l1, k), p, N)


def binom_half_rows(top: int, p: int, N: int) -> tuple:
    """Rows of binom(-1/2, e) and binom(-3/2, e) mod p**N for an odd prime p, 0 <= e <= top.

    binom(-1/2, e + 1) = binom(-1/2, e) (2e + 1)/(-2(e + 1)) and binom(-3/2, e) =
    (2e + 1) binom(-1/2, e).  binom(-1/2, e) is carried as p**v times a unit mod p**N,
    so a step costs the same at every e.
    """
    m = p ** N
    unit, v, plain, special = 1, 0, [], []
    for e in range(top + 1):
        c = unit * p ** v % m if v < N else 0
        plain.append(c)
        special.append(c * (2 * e + 1) % m)
        up, down = int_valuation(2 * e + 1, p), int_valuation(e + 1, p)
        v += up - down
        unit = unit * ((2 * e + 1) // p ** up) * pow(-2 * ((e + 1) // p ** down), -1, m) % m
    return plain, special


def binom_half_fraction(l1: int, k: int) -> Fraction:
    if k < 0:
        return Fraction(0)
    num = 1
    for j in range(1, k + 1):
        num *= 2 * (l1 + j) - 1
    return Fraction(num, (-2) ** k * math.factorial(k))


def binom_prime_power_valuation(p: int, s: int, a: int) -> int:
    """Exact valuation of binom(p**s, a) for 0 < a <= p**s: s - v_p(a) (Kummer).

    ``tests/test_padic.py`` compares it with the factorization of the exact binomial.
    """
    if not 0 < a <= p ** s:
        raise ValueError(f"a={a} outside 1..p^s")
    return s - int_valuation(a, p)


def binom_shift_valuation(p: int, s: int, r: int, m: int, l: int) -> int:
    """Valuation of binom(m*p**r + l*p**s - 1, l*p**s - 1); at least s - r.

    Requires 0 <= r < s and p not dividing m.  Returns the exact valuation
    after asserting the lower bound.
    """
    if not 0 <= r < s:
        raise ValueError("need 0 <= r < s")
    if m % p == 0:
        raise ValueError("m must be coprime to p")
    if l < 1:
        raise ValueError("l must be positive")
    top = m * p ** r + l * p ** s - 1
    val = int_valuation(math.comb(top, l * p ** s - 1), p)
    if val < s - r:
        raise AssertionError(
            f"binom({top},{l * p ** s - 1}) has valuation {val} < {s - r}")
    return val
