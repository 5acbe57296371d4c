"""Exact sparse multivariate polynomial arithmetic over Z and Z/m.

Polynomials map exponent tuples to nonzero integer coefficients over an ordered
tuple of variable names; arithmetic is exact, reduction explicit (``reduce_mod``),
and values are immutable after construction.  Slices of prod_i (X - Y_i)**E_i are
read without expanding it: ``row_products`` is the one product of binomial rows,
which the slices, the solution vector and the zone families of ``asymptotic`` share.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice, repeat
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping

Monomial = tuple  # exponent tuple, one entry per ambient variable

DESK_LIMIT = 40_000_000  # the work of one request, in 30-bit-digit multiply-adds


class DeskEnvelopeError(ValueError):
    """Requested parameters exceed the desk budget."""


def digits(bits: int) -> int:
    """30-bit digits (CPython's int digit) of an integer below 2**bits; at least 1."""
    return max(1, -(-bits // 30))


def desk_check(cost: int, what: str) -> None:
    """Refuse work above the one desk budget.  Callers count it beforehand in closed
    form, each item weighted by its operations and the digits of its largest integer."""
    if cost > DESK_LIMIT:
        raise DeskEnvelopeError(f"{what} would cost about {cost} digit multiply-adds, "
                                f"above the desk budget of {DESK_LIMIT}")


class VariableMismatch(ValueError):
    """Raised when two polynomials with different variable lists are combined."""


def _check_same_vars(a: "Polynomial", b: "Polynomial") -> None:
    if a.vars != b.vars:
        raise VariableMismatch(f"variable lists differ: {a.vars} vs {b.vars}")


class Polynomial:
    """A sparse polynomial with integer coefficients.

    ``vars`` fixes the ambient variable list (and the lexicographic order
    of monomials: earlier variables are more significant).
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

    def degrees_present(self) -> set:
        """Set of total degrees of the monomials present (homogeneity check)."""
        return {sum(m) for m in self.terms}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
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
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        """Product, one row per term of the shorter operand.

        A row is the longer operand shifted by one monomial and scaled by one
        coefficient, built by C-level iterators over the longer operand's
        exponent columns.  Its keys are pairwise distinct, because a shift is
        injective and the longer operand's monomials are distinct; its
        coefficients are nonzero, because they are products of nonzero
        integers.

        All rows make one stream of keys and one of coefficients.  When the
        shorter operand's monomials are pairwise distinct on the columns where
        the longer operand is constant, rows differ there, so no two rows meet
        and the streams go into a dict as they are (every step of a product of
        factors in new variables).  Otherwise the stream is accumulated term
        by term, and a sum that cancels is deleted.
        """
        if isinstance(other, int):
            return self.scale(other)
        _check_same_vars(self, other)
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = Polynomial.zero(self.vars)
        if small and not self.vars:     # no exponent columns: the one monomial is ()
            out.terms = {(): big[()] * small[()]}
            return out
        # one byte per exponent where they fit: the transpose stays small beside the product
        columns = [bytes(col) if 0 <= min(col) and max(col) < 256 else col
                   for col in zip(*big)]
        fixed = [i for i, col in enumerate(columns) if col.count(col[0]) == len(col)]
        terms = zip(zip(*map(_shifted, columns, zip(*small))), chain.from_iterable(
            map(mul, big.values(), repeat(c2)) for c2 in small.values()))
        if len(small) < 2 or fixed and len(set(map(itemgetter(*fixed), small))) == len(small):
            out.terms = dict(terms)
            return out
        prod: dict = {}
        get = prod.get
        for key, val in terms:
            total = get(key, 0) + val
            if total:
                prod[key] = total
            else:
                del prod[key]
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

    # -- modular reduction ----------------------------------------------------

    def reduce_mod(self, m: int) -> "Polynomial":
        """Coefficients reduced to canonical representatives in [0, m)."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        out = Polynomial.zero(self.vars)
        out.terms = {mono: c % m for mono, c in self.terms.items() if c % m}
        return out

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

    def __repr__(self) -> str:
        return f"Polynomial({self.vars}, {self.terms})"


def _shifted(column, shifts):
    """The column's copies shifted by each of ``shifts``, laid end to end: a byte
    translation while every shifted exponent stays in 0..255, else C-level adds."""
    if isinstance(column, bytes) and min(shifts) >= 0 and max(column) + max(shifts) < 256:
        table = bytes(range(256)) * 2   # table[e:e + 256] maps b to b + e below 256
        return b"".join(column.translate(table[e:e + 256]) if e else column for e in shifts)
    return chain.from_iterable(map(add, column, repeat(e)) if e else column for e in shifts)


def _add_into(total: dict, terms: Mapping) -> None:
    """total += terms in place; zero sums stay until a Polynomial drops them."""
    get = total.get
    for mono, coeff in terms.items():
        total[mono] = get(mono, 0) + coeff


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

    @classmethod
    def sum(cls, vectors, n: int, variables) -> "PolyVector":
        """The sum of the n-vectors, each component added into one dict."""
        variables = tuple(variables)
        totals = [{} for _ in range(n)]
        for vec in vectors:
            if len(vec) != n:
                raise ValueError("vector length mismatch")
            if vec.vars != variables:
                raise VariableMismatch(f"variable lists differ: {vec.vars} vs {variables}")
            for total, entry in zip(totals, vec.entries):
                _add_into(total, entry.terms)
        return cls([Polynomial(variables, total) for total in totals])

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
        total = {}
        for e in self.entries:
            _add_into(total, e.terms)
        return Polynomial(self.vars, total)

    def first_term(self):
        """(1-based component, least monomial, coefficient) of the first nonzero entry, or None."""
        for comp, entry in enumerate(self.entries, 1):
            if entry:
                mono = min(entry.terms)
                return comp, mono, entry.terms[mono]
        return None

    def map(self, fn) -> "PolyVector":
        return PolyVector([fn(e) for e in self.entries])

    def __repr__(self) -> str:
        return "PolyVector(" + ", ".join(str(e) for e in self.entries) + ")"


# -- direct coefficient extraction from products of binomials ----------------

def bounded_compositions(total: int, caps) -> Iterator[tuple]:
    """Yield tuples d with 0 <= d_i <= caps[i] and sum(d) == total, in lexicographic order."""
    caps = tuple(caps)
    suffix = [0] * (len(caps) + 1)
    for i in range(len(caps) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    out = [0] * len(caps)

    def rec(i: int, remaining: int):
        if i == len(caps) - 1:          # the last slot takes what remains
            out[i] = remaining
            yield tuple(out)
            return
        for d in range(max(0, remaining - suffix[i + 1]), min(caps[i], remaining) + 1):
            out[i] = d
            yield from rec(i + 1, remaining - d)

    if 0 <= total <= suffix[0]:
        yield from (rec(0, total) if caps else [()])


def slice_tuples(exponents, k: int) -> Iterator[tuple]:
    """The Y-exponent tuples of the slice at X**k of prod_i (X - Y_i)**E_i, checked against
    the desk budget before the first; the gradient's walk checks its own cost."""
    desk_check(slice_cost(exponents, k), f"slice at X**{k}")
    return bounded_compositions(sum(exponents) - k, exponents)


def binomial_row(top: int, lo: int, hi: int, sign: int = 1) -> dict:
    """{e: sign**e binom(top, e)} for lo <= e <= hi, all 0 if top < 0; each entry is the
    one before times sign (top - e), divided exactly by e + 1."""
    c, row = sign ** lo * math.comb(top, lo) if top >= 0 else 0, {}
    for e in range(lo, hi + 1):
        row[e] = c
        c = c * sign * (top - e) // (e + 1)
    return row


def binomial_rows(exponents, total: int, lower: int = 0) -> list:
    """Per slot i, the coefficients of Y_i**e in (X - Y_i)**(E_i - lower) over the e that a
    tuple of sum ``total`` under the caps E can hold; equal caps share one row."""
    rest = sum(exponents) - total
    rows = {cap: binomial_row(cap - lower, max(0, cap - rest), min(cap, total), -1)
            for cap in set(exponents)}
    return [rows[cap] for cap in exponents]


def row_products(indices, plain, special, live: range) -> Iterator[tuple]:
    """The one product of binomial rows.  Per chunk of up to 1024 indices a, it yields the
    chunk, the column of prod_i plain_i[a_i] and, per slot i in ``live``, the column of
    special_i[a_i] times prod_{m != i} plain_m[a_m].  A row entry may be 0 or a non-unit,
    so each such product is a prefix times a suffix of the plain factors, never a quotient."""
    indices = iter(indices)
    while chunk := list(islice(indices, 1024)):
        columns = list(zip(*chunk))
        factors = [list(map(row.__getitem__, col)) for row, col in zip(plain, columns)]
        before = [repeat(1)]            # before[i]: the plain factors of the slots < i
        for col in factors:
            before.append(list(map(mul, before[-1], col)))
        entries, after = [], repeat(1)  # after: the plain factors of the slots > i
        for i in reversed(range(live.start, len(factors)) if live else ()):
            if i < live.stop:
                entries.append(list(map(mul, map(mul, map(special[i].__getitem__, columns[i]),
                                                 before[i]), after)))
            after = list(map(mul, after, factors[i]))
        yield chunk, before[-1], entries[::-1]


def product_power_slice(exponents, k: int) -> dict:
    """Coefficient of X**k in prod_i (X - Y_i)**E_i, as a map Y-exponent -> int.

    A Y-monomial Y**d occurs in the product only with X-exponent sum(E) - sum(d), so the
    slice holds exactly the tuples d with sum(d) == sum(E) - k, each with the product of
    the rows (-1)**e binom(E_i, e).
    """
    exponents = tuple(exponents)
    plain = binomial_rows(exponents, sum(exponents) - k)
    return dict(chain.from_iterable(zip(chunk, coeffs) for chunk, coeffs, _ in
                                    row_products(slice_tuples(exponents, k), plain, (), range(0))))


def product_power_gradient(exponents, k: int, variables) -> PolyVector:
    """Entry i: the X**k coefficient of prod_j (X - Y_j)**E_j / (X - Y_i) over Z, which is
    -d/dY_i / E_i of the product's slice at X**k, and 0 when E_i = 0.

    Its rows are (-1)**e binom(E_i - 1, e) in slot i and (-1)**e binom(E_j, e) in the others,
    so one walk over the tuples of sum sum(E) - 1 - k, the slice at X**(k+1), gives every entry
    its terms, keyed by the walk's tuples.  Its cost counts that slice with 2n passes a tuple:
    the n entries, and the verifier's pair residues or the zone map over each.
    """
    exponents = tuple(exponents)
    desk_check(slice_cost(exponents, k + 1, 2 * len(exponents)), f"gradient at X**{k}")
    total = sum(exponents) - 1 - k
    plain, special = binomial_rows(exponents, total), binomial_rows(exponents, total, 1)
    entries = [{} for _ in exponents]
    for chunk, _, columns in row_products(bounded_compositions(total, exponents), plain,
                                          special, range(len(exponents))):
        for terms, coeffs in zip(entries, columns):
            terms.update(compress(zip(chunk, coeffs), coeffs))
    return PolyVector(Polynomial(variables, terms) for terms in entries)


def slice_size(exponents, k: int) -> int:
    """Number of tuples in the slice ``slice_tuples`` enumerates (cost estimate).

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


def slice_cost(exponents, k: int, passes: int = 1) -> int:
    """Work of the slice at X**k: per tuple, n multiplies of its coefficient, whose size
    ``coefficient_bits`` bounds, and ``passes`` walks over its n exponents."""
    exponents = tuple(exponents)
    return slice_size(exponents, k) * len(exponents) * (digits(coefficient_bits(exponents, k))
                                                        + passes)


def coefficient_bits(exponents, k: int) -> int:
    """Bits of the largest |coefficient| of the slice at X**k: it is at most binom(E, K),
    E = sum(E_i), K = min(k, E - k) (Vandermonde), below both 2**E and (4E/K)**K."""
    E = sum(exponents)
    K = min(k, E - k)
    return min(E, K * ((E // K).bit_length() + 2)) if K > 0 else 1


# -- modulus context ----------------------------------------------------------

def primality_cost(m: int) -> int:
    """Work of ``_is_prime(m)``: a trial division by each odd d <= sqrt(m)."""
    return math.isqrt(m) // 2 * digits(m.bit_length())


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    desk_check(primality_cost(m), f"the primality test of p={m}")
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
        """The frame of the same p at level r, without testing p again."""
        if not 1 <= r <= self.s:
            raise ValueError(f"level {r} outside 1..{self.s}")
        ctx = object.__new__(ModulusContext)
        ctx.p, ctx.s = self.p, r
        return ctx

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


def vector_to_json(vec: PolyVector) -> dict:
    return {
        "vars": list(vec.vars),
        "entries": [poly_to_json(e)["terms"] for e in vec.entries],
    }


def vector_from_json(data: dict) -> PolyVector:
    """Parse a vector from outside the program: negative exponents and booleans are rejected."""
    variables = tuple(data["vars"])
    for entry in data["entries"]:
        coefficients = map(itemgetter("c"), entry)
        exponents = chain.from_iterable(map(itemgetter("e"), entry))
        if bool in set(map(type, chain(coefficients, exponents))):  # true would pass as 1
            raise ValueError("boolean in a vector entry")
    vec = PolyVector([
        Polynomial(variables, {tuple(t["e"]): int(t["c"]) for t in entry})
        for entry in data["entries"]
    ])
    if any(min(map(min, entry.terms), default=0) < 0 for entry in vec):
        raise ValueError("negative exponent in a vector entry")
    return vec
