"""Exact sparse multivariate polynomial arithmetic over Z and Z/m.

Polynomials are stored as a map from exponent tuples to nonzero integer
coefficients, together with an ordered tuple of variable names.  All
arithmetic is exact over arbitrary-precision integers; modular reduction
is explicit via ``reduce_mod``.  Values are immutable after construction.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

Monomial = tuple  # exponent tuple, one entry per ambient variable


class VariableMismatch(ValueError):
    """Raised when two polynomials with different variable lists are combined."""


def _check_same_vars(a: "Polynomial", b: "Polynomial") -> None:
    if a.vars != b.vars:
        raise VariableMismatch(f"variable lists differ: {a.vars} vs {b.vars}")


class Polynomial:
    """A sparse polynomial with integer coefficients.

    ``vars`` fixes the ambient variable list (and the lexicographic order
    used for leading terms: earlier variables are more significant).
    ``terms`` maps exponent tuples to nonzero coefficients.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Monomial, int] | None = None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            width = len(self.vars)
            for mono, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(mono) != width:
                    raise ValueError(f"exponent tuple {mono} has wrong length for vars {self.vars}")
                clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, c: int, variables) -> "Polynomial":
        variables = tuple(variables)
        if c == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables) -> "Polynomial":
        return cls.constant(1, variables)

    @classmethod
    def variable(cls, name: str, variables) -> "Polynomial":
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): 1})

    # -- basic queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __len__(self) -> int:
        return len(self.terms)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self.terms.items())

    def coefficient(self, mono: Monomial) -> int:
        return self.terms.get(tuple(mono), 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(m[i] for m in self.terms)

    def degrees_present(self) -> set:
        """Set of total degrees of the monomials present (homogeneity check)."""
        return {sum(m) for m in self.terms}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _check_same_vars(self, other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = merged.get(mono, 0) + coeff
            if total:
                merged[mono] = total
            else:
                merged.pop(mono, None)
        out = Polynomial.zero(self.vars)
        out.terms = merged
        return out

    def __neg__(self) -> "Polynomial":
        out = Polynomial.zero(self.vars)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        _check_same_vars(self, other)
        prod: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                total = prod.get(key, 0) + c1 * c2
                if total:
                    prod[key] = total
                else:
                    del prod[key]
        out = Polynomial.zero(self.vars)
        out.terms = prod
        return out

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(self.vars)
        out = Polynomial.zero(self.vars)
        out.terms = {m: c * v for m, v in self.terms.items()}
        return out

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative exponent")
        result = Polynomial.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus and slicing -----------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        return self.diff_index(self.vars.index(name))

    def diff_index(self, i: int) -> "Polynomial":
        if not 0 <= i < len(self.vars):
            raise IndexError(f"no variable at index {i}")
        out: dict = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            key = mono[:i] + (e - 1,) + mono[i + 1:]
            out[key] = out.get(key, 0) + coeff * e
        res = Polynomial.zero(self.vars)
        res.terms = {m: c for m, c in out.items() if c}
        return res

    def slice_power(self, name: str, k: int) -> "Polynomial":
        """Coefficient of ``name**k`` as a polynomial in the remaining variables."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        out = Polynomial.zero(rest)
        if k < 0:
            return out
        terms = {}
        for mono, coeff in self.terms.items():
            if mono[i] == k:
                terms[mono[:i] + mono[i + 1:]] = coeff
        out.terms = terms
        return out

    def collect_powers(self, name: str) -> dict:
        """Map k -> coefficient polynomial of ``name**k`` (nonzero slices only)."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(mono[i], {})[mono[:i] + mono[i + 1:]] = coeff
        out = {}
        for k, terms in buckets.items():
            poly = Polynomial.zero(rest)
            poly.terms = terms
            out[k] = poly
        return out

    # -- modular reduction and leading terms ---------------------------------

    def reduce_mod(self, m: int) -> "Polynomial":
        """Coefficients reduced to canonical representatives in [0, m)."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        out = Polynomial.zero(self.vars)
        out.terms = {mono: c % m for mono, c in self.terms.items() if c % m}
        return out

    def leading_term(self) -> tuple[Monomial, int]:
        """Largest monomial in lex order (first variable most significant)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms)
        return mono, self.terms[mono]

    # -- substitution and evaluation -----------------------------------------

    def scale_exponents(self, k: int) -> "Polynomial":
        """Substitute every variable v by v**k (exponent scaling)."""
        if k <= 0:
            raise ValueError("exponent scale must be positive")
        out = Polynomial.zero(self.vars)
        out.terms = {tuple(e * k for e in m): c for m, c in self.terms.items()}
        return out

    def substitute(self, assignments: Mapping[str, "Polynomial"], target_vars) -> "Polynomial":
        """Substitute polynomials for variables (naive expansion, small inputs).

        Variables absent from ``assignments`` are mapped to themselves and must
        exist in ``target_vars``.
        """
        target_vars = tuple(target_vars)
        images = []
        for name in self.vars:
            if name in assignments:
                img = assignments[name]
                if img.vars != target_vars:
                    raise VariableMismatch(f"image of {name} not over {target_vars}")
                images.append(img)
            else:
                images.append(Polynomial.variable(name, target_vars))
        result = Polynomial.zero(target_vars)
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(coeff, target_vars)
            for img, e in zip(images, mono):
                if e:
                    term = term * img ** e
            result = result + term
        return result

    def evaluate(self, values, modulus: int | None = None) -> int:
        """Evaluate at an integer point (sequence ordered like ``vars``)."""
        if len(values) != len(self.vars):
            raise ValueError("point has wrong length")
        total = 0
        for mono, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, mono):
                if e:
                    term *= pow(val, e, modulus) if modulus else val ** e
            total += term
        return total % modulus if modulus else total

    # -- formatting -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r}, vars={self.vars})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(poly: Polynomial, modulus: int | None = None, symmetric: bool = True) -> str:
    """Human-readable rendering; with a modulus, small residues print signed."""
    if not poly.terms:
        return "0"
    pieces = []
    for mono in sorted(poly.terms, reverse=True):
        coeff = poly.terms[mono]
        if modulus is not None and symmetric and coeff > (modulus - 1) // 2:
            coeff -= modulus
        factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(poly.vars, mono) if e]
        body = "*".join(factors)
        if not body:
            pieces.append(f"{coeff}")
        elif coeff == 1:
            pieces.append(body)
        elif coeff == -1:
            pieces.append(f"-{body}")
        else:
            pieces.append(f"{coeff}*{body}")
    out = " + ".join(pieces).replace("+ -", "- ")
    return out


class PolyVector:
    """A fixed-length vector of polynomials over one shared variable list."""

    __slots__ = ("vars", "entries")

    def __init__(self, entries: Iterable[Polynomial]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty vector")
        head = entries[0].vars
        for e in entries[1:]:
            if e.vars != head:
                raise VariableMismatch("vector entries over different variables")
        self.vars = head
        self.entries = entries

    @classmethod
    def zero(cls, n: int, variables) -> "PolyVector":
        return cls([Polynomial.zero(variables) for _ in range(n)])

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Polynomial:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.entries == other.entries

    def __add__(self, other: "PolyVector") -> "PolyVector":
        if len(self) != len(other):
            raise ValueError("vector length mismatch")
        return PolyVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        return self + (-other)

    def __neg__(self) -> "PolyVector":
        return PolyVector([-e for e in self.entries])

    def scale(self, f) -> "PolyVector":
        """Multiply every entry by an integer or a polynomial."""
        if isinstance(f, int):
            return PolyVector([e.scale(f) for e in self.entries])
        return PolyVector([e * f for e in self.entries])

    def reduce_mod(self, m: int) -> "PolyVector":
        return PolyVector([e.reduce_mod(m) for e in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def sum_entries(self) -> Polynomial:
        total = Polynomial.zero(self.vars)
        for e in self.entries:
            total = total + e
        return total

    def slice_power(self, name: str, k: int) -> "PolyVector":
        return PolyVector([e.slice_power(name, k) for e in self.entries])

    def map(self, fn) -> "PolyVector":
        return PolyVector([fn(e) for e in self.entries])

    def __repr__(self) -> str:
        return "PolyVector(" + ", ".join(str(e) for e in self.entries) + ")"


# -- direct coefficient extraction from products of binomials ----------------

def bounded_compositions(total: int, caps) -> Iterator[tuple]:
    """Yield tuples d with 0 <= d_i <= caps[i] and sum(d) == total."""
    caps = tuple(caps)
    suffix = [0] * (len(caps) + 1)
    for i in range(len(caps) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    out = [0] * len(caps)

    def rec(i: int, remaining: int):
        if i == len(caps):
            if remaining == 0:
                yield tuple(out)
            return
        lo = max(0, remaining - suffix[i + 1])
        hi = min(caps[i], remaining)
        for d in range(lo, hi + 1):
            out[i] = d
            yield from rec(i + 1, remaining - d)
        out[i] = 0

    if 0 <= total <= suffix[0]:
        yield from rec(0, total)


def product_power_slice(exponents, k: int) -> dict:
    """Coefficient of X**k in prod_i (X - Y_i)**E_i, as a map Y-exponent -> int.

    In the product, a Y-monomial with exponents d occurs only with
    X-exponent sum(E) - sum(d), so the slice at fixed k enumerates exactly
    the tuples d with sum(d) == sum(E) - k.  The sign (-1)**sum(d) is
    constant on the slice.
    """
    exponents = tuple(exponents)
    total = sum(exponents) - k
    if k < 0 or total < 0:
        return {}
    sign = -1 if total % 2 else 1
    out = {}
    for d in bounded_compositions(total, exponents):
        coeff = sign
        for cap, e in zip(exponents, d):
            coeff *= math.comb(cap, e)
        out[d] = coeff
    return out


def slice_size(exponents, k: int) -> int:
    """Number of tuples enumerated by ``product_power_slice`` (cost estimate).

    Inclusion-exclusion over the caps: with T = sum(E) - k and n factors,
        sum over S of (-1)**|S| * C(T - sum_{i in S}(E_i + 1) + n - 1, n - 1),
    terms with a negative top argument counting 0.  The signed shifts are
    the terms of prod_i (1 - X**(E_i + 1)), so equal caps share one term.
    """
    exponents = tuple(exponents)
    total = sum(exponents) - k
    if k < 0 or total < 0:
        return 0
    n = len(exponents)
    if n == 0:
        return 1                        # total == 0 here: the empty tuple
    shifts = {0: 1}
    for cap in exponents:
        nxt = dict(shifts)
        for t, c in shifts.items():
            nxt[t + cap + 1] = nxt.get(t + cap + 1, 0) - c
        shifts = nxt
    return sum(c * math.comb(total - t + n - 1, n - 1)
               for t, c in shifts.items() if t <= total)


# -- modulus context ----------------------------------------------------------

def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


class ModulusContext:
    """Arithmetic frame: odd prime p, level s, modulus p**s, half M=(p**s-1)/2."""

    __slots__ = ("p", "s")

    def __init__(self, p: int, s: int):
        if not _is_prime(p) or p == 2:
            raise ValueError(f"p={p} is not an odd prime")
        if s < 1:
            raise ValueError("level s must be positive")
        self.p = p
        self.s = s

    @property
    def modulus(self) -> int:
        return self.p ** self.s

    @property
    def half(self) -> int:
        """The least positive M with 2M+1 = p**s, i.e. M = -1/2 mod p**s."""
        return (self.p ** self.s - 1) // 2

    @property
    def inv2(self) -> int:
        return pow(2, -1, self.modulus)

    def level(self, r: int) -> "ModulusContext":
        if not 1 <= r <= self.s:
            raise ValueError(f"level {r} outside 1..{self.s}")
        return ModulusContext(self.p, r)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModulusContext) and (self.p, self.s) == (other.p, other.s)

    def __repr__(self) -> str:
        return f"ModulusContext(p={self.p}, s={self.s})"


def z_variables(n: int) -> tuple:
    return tuple(f"z{i}" for i in range(1, n + 1))


def u_variables(n: int) -> tuple:
    return tuple(f"u{i}" for i in range(1, n))


# -- JSON interchange ----------------------------------------------------------

def poly_to_json(poly: Polynomial) -> dict:
    """{"vars": [...], "terms": [{"e": [...], "c": "decimal"}]} with sorted terms."""
    return {
        "vars": list(poly.vars),
        "terms": [
            {"e": list(mono), "c": str(poly.terms[mono])}
            for mono in sorted(poly.terms)
        ],
    }


def poly_from_json(data: dict) -> Polynomial:
    variables = tuple(data["vars"])
    terms = {tuple(t["e"]): int(t["c"]) for t in data["terms"]}
    return Polynomial(variables, terms)


def vector_to_json(vec: PolyVector) -> dict:
    return {
        "vars": list(vec.vars),
        "entries": [poly_to_json(e)["terms"] for e in vec.entries],
    }


def vector_from_json(data: dict) -> PolyVector:
    variables = tuple(data["vars"])
    return PolyVector([
        Polynomial(variables, {tuple(t["e"]): int(t["c"]) for t in entry})
        for entry in data["entries"]
    ])
