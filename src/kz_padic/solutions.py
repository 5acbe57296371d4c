"""Polynomial solutions of the KZ system modulo p**s.

The solutions are x-coefficients of the master polynomial
    Phi(x, z, M) = prod_i (x - z_i)**M_i,       M_i = -1/2 mod p**s:
the vector of coefficients of x**(l p**s - 1) in (Phi/(x-z_1), ..., Phi/(x-z_n))
solves the system mod p**s for l = 1..g.  Extraction never expands the full
product: in prod (x-z_i)**E_i a z-monomial z**d occurs with the single
x-exponent sum(E)-sum(d), so a fixed x-degree slice enumerates only the
bounded compositions of the matching total.  The naive full expansion is
kept as an independent oracle for desk-scale cross-checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .kz import Check, KZInstance
from .padic import binom_prime_power_valuation, int_valuation
from .sparsepoly import (
    Polynomial,
    PolyVector,
    product_power_slice,
    slice_size,
)

# Enumeration sizes beyond this are outside the intended desk scale.
DESK_TUPLE_LIMIT = 2_000_000


class DeskEnvelopeError(ValueError):
    """Requested parameters exceed the supported enumeration budget."""


class QuasiConstantError(ValueError):
    """A module coefficient failed its quasi-constance requirement."""


def minimal_mvec(inst: KZInstance) -> tuple:
    return (inst.ctx.half,) * inst.n


def validate_mvec(inst: KZInstance, mvec) -> tuple:
    """Normalize and check an exponent vector: each entry positive, = -1/2 mod p**s."""
    if mvec is None:
        return minimal_mvec(inst)
    mvec = tuple(int(m) for m in mvec)
    if len(mvec) != inst.n:
        raise ValueError(f"expected {inst.n} exponents, got {len(mvec)}")
    mod = inst.ctx.modulus
    for i, m in enumerate(mvec):
        if m < 1 or (2 * m + 1) % mod:
            raise ValueError(f"M_{i + 1}={m} is not a positive residue of -1/2 mod {mod}")
    return mvec


def master_polynomial(inst: KZInstance, mvec=None) -> Polynomial:
    """Full expansion of prod (x - z_i)**M_i over (x, z); oracle-scale only."""
    mvec = validate_mvec(inst, mvec)
    xvars = ("x",) + inst.zvars
    return _factor_product(xvars, inst.zvars, mvec)


def master_component(inst: KZInstance, mvec, j: int, xvars=None) -> Polynomial:
    """Full expansion of Phi/(x - z_j), 1-based j; the naive oracle path."""
    mvec = validate_mvec(inst, mvec)
    if xvars is None:
        xvars = ("x",) + inst.zvars
    caps = [m - (1 if k == j - 1 else 0) for k, m in enumerate(mvec)]
    return _factor_product(xvars, inst.zvars, caps)


def _factor_product(xvars, zvars, caps) -> Polynomial:
    x = Polynomial.variable(xvars[0], xvars)
    poly = Polynomial.one(xvars)
    for name, e in zip(zvars, caps):
        factor = (x - Polynomial.variable(name, xvars)) ** e
        poly = poly * factor
    return poly


def _guarded_slice(caps, k: int) -> dict:
    size = slice_size(caps, k)
    if size > DESK_TUPLE_LIMIT:
        raise DeskEnvelopeError(f"extraction would enumerate {size} tuples")
    return product_power_slice(caps, k)


def extract_component(inst: KZInstance, mvec, j: int, k: int) -> Polynomial:
    """Coefficient of x**k in Phi/(x - z_j) via the single-degree fast path."""
    mvec = validate_mvec(inst, mvec)
    caps = [m - (1 if i == j - 1 else 0) for i, m in enumerate(mvec)]
    return Polynomial(inst.zvars, _guarded_slice(caps, k))


def extract_at_index(inst: KZInstance, mvec, k: int) -> PolyVector:
    """The n-vector of x**k coefficients of (Phi/(x-z_1), ..., Phi/(x-z_n))."""
    mvec = validate_mvec(inst, mvec)
    return PolyVector([extract_component(inst, mvec, j, k) for j in range(1, inst.n + 1)])


@dataclass
class SolutionRecord:
    """One extracted solution with its arithmetic metadata."""

    p: int
    s: int
    n: int
    l: int
    r: int
    mvec: tuple
    vector: PolyVector

    @property
    def degree(self) -> int:
        """Common total degree of the entries: sum(M) - l*p**r."""
        return sum(self.mvec) - self.l * self.p ** self.r

    def homogeneous(self) -> bool:
        degs = set()
        for e in self.vector.entries:
            degs |= e.degrees_present()
        return degs <= {self.degree}

    def column_sums_divisible(self) -> bool:
        """Every coefficient vector sums to 0 mod p**r (r = level of the index)."""
        total = self.vector.sum_entries()
        return total.reduce_mod(self.p ** self.r).is_zero()

    def to_json(self) -> dict:
        from .sparsepoly import vector_to_json

        return {
            "p": self.p,
            "s": self.s,
            "n": self.n,
            "l": self.l,
            "r": self.r,
            "mvec": list(self.mvec),
            "delta": self.degree,
            "vector": vector_to_json(self.vector),
        }


def extract_solution(inst: KZInstance, mvec=None, l: int = 1, r: int | None = None) -> SolutionRecord:
    """The solution vector at x-index l*p**r - 1 (a solution mod p**r).

    For the minimal exponent vector the nonzero range is l = 1..g; outside
    it the slice is empty and a zero record is returned with a warning.
    """
    mvec = validate_mvec(inst, mvec)
    if r is None:
        r = inst.ctx.s
    if not 1 <= r <= inst.ctx.s:
        raise ValueError(f"level r={r} outside 1..{inst.ctx.s}")
    k = l * inst.ctx.p ** r - 1
    vec = extract_at_index(inst, mvec, k)
    if vec.is_zero():
        warnings.warn(f"index l={l} at level r={r} yields the zero vector", stacklevel=2)
    return SolutionRecord(inst.ctx.p, inst.ctx.s, inst.n, l, r, mvec, vec)


# -- closed coefficient formula ------------------------------------------------

def solution_degree(inst: KZInstance, l: int) -> int:
    """delta_l = n(p**s - 1)/2 - l p**s for the minimal exponent vector."""
    return inst.n * inst.ctx.half - l * inst.ctx.modulus


def solution_sign(inst: KZInstance, l: int) -> int:
    return -1 if solution_degree(inst, l) % 2 else 1


def coefficient_vector(inst: KZInstance, l: int, d) -> tuple:
    """Coefficient of z**d in the minimal-M solution at index l*p**s - 1.

    Equals (-1)**delta_l * prod_i binom(M, d_i) * (1 - d_i/M) per coordinate;
    the division by M is removed exactly via
        binom(M, d) * d/M = binom(M-1, d-1),
    so everything stays in integers.
    """
    d = tuple(d)
    M = inst.ctx.half
    if len(d) != inst.n:
        raise ValueError("multi-index length mismatch")
    if sum(d) != solution_degree(inst, l) or any(e < 0 or e > M for e in d):
        return (0,) * inst.n
    binoms = [math.comb(M, e) for e in d]
    sign = solution_sign(inst, l)
    out = []
    for i, e in enumerate(d):
        rest = sign
        for k, b in enumerate(binoms):
            if k != i:
                rest *= b
        out.append(rest * (binoms[i] - (math.comb(M - 1, e - 1) if e else 0)))
    return tuple(out)


def solution_from_formula(inst: KZInstance, l: int) -> PolyVector:
    """Assemble the whole minimal-M solution from the closed formula."""
    from .sparsepoly import bounded_compositions

    M = inst.ctx.half
    delta = solution_degree(inst, l)
    if slice_size((M,) * inst.n, inst.n * M - delta) > DESK_TUPLE_LIMIT:
        raise DeskEnvelopeError("coefficient enumeration above desk budget")
    terms = [dict() for _ in range(inst.n)]
    for d in bounded_compositions(delta, (M,) * inst.n):
        vec = coefficient_vector(inst, l, d)
        for i, c in enumerate(vec):
            if c:
                terms[i][d] = c
    return PolyVector([Polynomial(inst.zvars, t) for t in terms])


def leading_term_vector(inst: KZInstance, l: int) -> tuple:
    """Lex-leading monomial of the minimal-M solution with its coefficient vector.

    The monomial is z_1**M ... z_{2g-2l}**M z_{2g-2l+1}**(M-l); the vector is
    (-1)**delta_l * binom(M, l) * (0,...,0, l/M, 1,...,1) with 2g-2l zeros and
    2l ones, the l/M entry realized as binom(M-1, l-1).  Both binomials are
    units mod p**s, which the function asserts.
    """
    if not 1 <= l <= inst.g:
        raise ValueError(f"l={l} outside 1..{inst.g}")
    M = inst.ctx.half
    p = inst.ctx.p
    zeros = 2 * inst.g - 2 * l
    mono = [0] * inst.n
    for i in range(zeros):
        mono[i] = M
    mono[zeros] = M - l
    sign = solution_sign(inst, l)
    lead = math.comb(M, l)
    pivot = math.comb(M - 1, l - 1)
    if lead % p == 0 or pivot % p == 0:
        raise AssertionError("leading binomials must be invertible mod p**s")
    vec = [0] * inst.n
    vec[zeros] = sign * pivot
    for i in range(zeros + 1, inst.n):
        vec[i] = sign * lead
    return tuple(mono), tuple(vec)


def leading_vector_of(vec: PolyVector) -> tuple:
    """Largest lex monomial over all entries with the coefficient vector at it."""
    monos = [max(e.terms) for e in vec.entries if e]
    if not monos:
        raise ValueError("zero vector")
    top = max(monos)
    return top, tuple(e.terms.get(top, 0) for e in vec.entries)


# -- quasi-constants -------------------------------------------------------------

def is_quasi_constant(f: Polynomial, p: int, r: int) -> bool:
    """True iff every partial derivative of f lies in p**r Z[z].

    Checked two ways: directly on the derivatives, and through the monomial
    span criterion (a term c*z**d qualifies iff p**(r-t) | c where t is the
    largest t <= r with p**t dividing every exponent).  The two must agree.
    Level r = 0 is trivially true (everything vanishes mod 1).
    """
    if r == 0:
        return True
    mod = p ** r
    by_derivative = all(
        f.diff_index(i).reduce_mod(mod).is_zero() for i in range(len(f.vars))
    )
    by_span = True
    for mono, coeff in f.terms.items():
        gcd_val = min((int_valuation(e, p) for e in mono if e), default=None)
        t = r if gcd_val is None else min(r, gcd_val)
        if coeff % p ** (r - t):
            by_span = False
            break
    if by_derivative != by_span:
        raise AssertionError("quasi-constant criteria disagree")
    return by_span


@dataclass
class ModuleElement:
    """An element sum c_{r,l} p**(s-r) I^{[l p**r - 1]} of the solution module."""

    inst: KZInstance
    coeffs: dict            # (r, l) -> Polynomial
    vector: PolyVector      # assembled, reduced mod p**s

    @property
    def level(self) -> int:
        """Filtration index: the largest r carrying a nonzero coefficient."""
        live = [r for (r, _), c in self.coeffs.items() if c]
        return max(live) if live else 0


def module_element(inst: KZInstance, coeffs) -> ModuleElement:
    """Assemble a module element from quasi-constant coefficients.

    ``coeffs`` maps (r, l) to an integer or a polynomial over the z-variables;
    each coefficient must be quasi-constant mod p**r.
    """
    p, s = inst.ctx.p, inst.ctx.s
    zvars = inst.zvars
    norm = {}
    for (r, l), c in coeffs.items():
        if isinstance(c, int):
            c = Polynomial.constant(c, zvars)
        if not 1 <= r <= s:
            raise ValueError(f"level {r} outside 1..{s}")
        if not is_quasi_constant(c, p, r):
            raise QuasiConstantError(f"coefficient at (r={r}, l={l}) is not quasi-constant mod {p}**{r}")
        norm[(r, l)] = c
    total = PolyVector.zero(inst.n, zvars)
    for (r, l), c in norm.items():
        gen = extract_solution(inst.level(r), None, l, r).vector
        total = total + gen.scale(c).scale(p ** (s - r))
    return ModuleElement(inst, norm, total.reduce_mod(inst.ctx.modulus))


# -- behaviour under raising one exponent by p**s -------------------------------

def raised_mvec(inst: KZInstance, mvec, j: int) -> tuple:
    mvec = validate_mvec(inst, mvec)
    out = list(mvec)
    out[j - 1] += inst.ctx.modulus
    return tuple(out)


def verify_shift_relation(inst: KZInstance, mvec, j: int, l: int, r: int) -> Check:
    """Check the exact expansion of a solution after raising slot j by p**s.

    With mvec' = mvec + p**s e_j the master polynomial gains the factor
    (x - z_j)**(p**s), so
        P^{l p**r - 1}(z, mvec')
          = sum_{a=0}^{p**s} (-1)**(p**s - a) binom(p**s, a) z_j**(p**s-a)
            P^{l p**r - a - 1}(z, mvec)
    holds exactly over Z.  Each summand is classified as p**(r-u) times a
    quasi-constant multiple of a level-u generator, u = min(r, v_p(a)).
    A row per summand a gives its carry c (a = b p**c; c = s for a in
    {0, p**s}), u, the index v with l p**r - a = v p**u (None when the
    summand dies), the binomial's valuation and the coefficient polynomial.
    """
    mvec = validate_mvec(inst, mvec)
    p, s = inst.ctx.p, inst.ctx.s
    ps = p ** s
    zvars = inst.zvars
    zj = Polynomial.variable(f"z{j}", zvars)
    mvec2 = raised_mvec(inst, mvec, j)

    lhs = extract_at_index(inst, mvec2, l * p ** r - 1)
    rhs = PolyVector.zero(inst.n, zvars)
    rows = []
    for a in range(ps + 1):
        signed = (-1) ** (ps - a) * math.comb(ps, a)
        idx = l * p ** r - 1 - a
        term = extract_at_index(inst, mvec, idx) if idx >= 0 else PolyVector.zero(inst.n, zvars)
        rhs = rhs + term.scale(zj ** (ps - a)).scale(signed)

        carry = s if a in (0, ps) else int_valuation(a, p)
        bval = 0 if a in (0, ps) else binom_prime_power_valuation(p, s, a)
        u = min(r, carry)
        if l * p ** r <= a:
            rows.append({"a": a, "carry": carry, "level": u, "index": None,
                         "binom_valuation": bval, "coefficient": None, "quasi_constant": True})
            continue
        v = (l * p ** r - a) // p ** u
        unit = signed // p ** (r - u)
        dpoly = (zj ** (ps - a)).scale(unit)
        rows.append({"a": a, "carry": carry, "level": u, "index": v, "binom_valuation": bval,
                     "coefficient": dpoly, "quasi_constant": is_quasi_constant(dpoly, p, u)})

    classified = all(row["quasi_constant"] for row in rows if row["index"] is not None)
    return Check(passed=lhs == rhs and classified, exact=lhs == rhs,
                 all_classified=classified, rows=rows)


def shift_membership(inst: KZInstance, mvec, j: int, l: int, r: int) -> Check:
    """Membership of a raised-family generator in the base-family module.

    Rows are (level u, index v, coefficient polynomial).
    """
    report = verify_shift_relation(inst, mvec, j, l, r)
    p, s = inst.ctx.p, inst.ctx.s
    rows = [(row["level"], row["index"], row["coefficient"])
            for row in report.rows if row["index"] is not None]
    total = PolyVector.zero(inst.n, inst.zvars)
    for u, v, c in rows:
        gen = extract_at_index(inst, mvec, v * p ** u - 1)
        total = total + gen.scale(c).scale(p ** (s - u))
    target = extract_at_index(inst, raised_mvec(inst, mvec, j), l * p ** r - 1)
    target = target.scale(p ** (s - r))
    assembled = (total - target).reduce_mod(inst.ctx.modulus).is_zero()
    return Check(passed=assembled and report.all_classified, rows=rows,
                 assembled_ok=assembled, coefficients_ok=report.all_classified)


def express_in_shifted_family(inst: KZInstance, mvec, j: int, l: int, r: int) -> Check:
    """Rewrite p**(s-r) I^{[l p**r - 1]}(mvec) over the raised family.

    Back-substitution on the raising identity: the identity for the raised
    index l + p**(s-r) has the wanted generator with unit coefficient, and
    every other summand either lives at a strictly larger same-level index
    (eventually past the x-degree, hence zero) or at a strictly lower level,
    so the rewriting terminates.
    """
    mvec = validate_mvec(inst, mvec)
    p, s = inst.ctx.p, inst.ctx.s
    ps = p ** s
    zvars = inst.zvars
    zj = Polynomial.variable(f"z{j}", zvars)
    mvec2 = raised_mvec(inst, mvec, j)
    deg_bound = sum(mvec) - 1
    memo: dict = {}

    def solve(r0: int, l0: int) -> dict:
        key = (r0, l0)
        if key in memo:
            return memo[key]
        if l0 * p ** r0 - 1 > deg_bound:
            memo[key] = {}
            return memo[key]
        memo[key] = {}  # cycle guard; the recursion below never revisits key
        lam = l0 + p ** (s - r0)
        rows = {(r0, lam): Polynomial.one(zvars)}
        for a in range(ps):
            target = lam * p ** r0 - a
            if target <= 0:
                continue
            carry = s if a == 0 else int_valuation(a, p)
            u = min(r0, carry)
            if u == 0:
                # the binomial already carries p**s: the summand dies mod p**s
                continue
            v = target // p ** u
            if v * p ** u != target:
                raise AssertionError("classification must divide exactly")
            unit = ((-1) ** (ps - a) * math.comb(ps, a)) // p ** (r0 - u)
            dpoly = (zj ** (ps - a)).scale(unit)
            for (uu, vv), cpoly in solve(u, v).items():
                acc = rows.get((uu, vv), Polynomial.zero(zvars)) - dpoly * cpoly
                if acc:
                    rows[(uu, vv)] = acc
                else:
                    rows.pop((uu, vv), None)
        memo[key] = rows
        return rows

    rows = solve(r, l)
    flat = [(u, v, c) for (u, v), c in sorted(rows.items())]
    total = PolyVector.zero(inst.n, zvars)
    for u, v, c in flat:
        gen = extract_at_index(inst, mvec2, v * p ** u - 1)
        total = total + gen.scale(c).scale(p ** (s - u))
    target = extract_at_index(inst, mvec, l * p ** r - 1).scale(p ** (s - r))
    assembled = (total - target).reduce_mod(inst.ctx.modulus).is_zero()
    coeffs_ok = all(is_quasi_constant(c, p, u) for u, v, c in flat)
    return Check(passed=assembled and coeffs_ok, rows=flat, assembled_ok=assembled,
                 coefficients_ok=coeffs_ok)


# -- linear independence over F_p -----------------------------------------------

def linear_independence_probe(inst: KZInstance, trials: int = 50, seed: int = 0) -> Check:
    """Probe independence of the g solutions over F_p[z].

    The leading monomials are pairwise distinct and the leading coefficient
    vectors sit in echelon position (first nonzero coordinate at 2g-2l+1
    with a unit entry), which forces independence; seeded random nonzero
    coefficient tuples then confirm no combination vanishes mod p.
    """
    import random as _random

    p = inst.ctx.p
    generators = [extract_solution(inst, None, l).vector for l in range(1, inst.g + 1)]
    leads = [leading_term_vector(inst, l) for l in range(1, inst.g + 1)]
    monos = [mono for mono, _ in leads]
    distinct = len(set(monos)) == len(monos)

    echelon = True
    pivots = set()
    for _, vec in leads:
        nz = [i for i, c in enumerate(vec) if c % p]
        if not nz or nz[0] in pivots:
            echelon = False
            break
        pivots.add(nz[0])

    rng = _random.Random(seed)
    zvars = inst.zvars
    failures = 0
    for _ in range(trials):
        coeffs = []
        while True:
            coeffs = [
                Polynomial(zvars, {
                    tuple(int(i == k) for i in range(inst.n)): rng.randrange(p)
                    for k in range(inst.n)
                }) + Polynomial.constant(rng.randrange(p), zvars)
                for _ in range(inst.g)
            ]
            if any(not c.reduce_mod(p).is_zero() for c in coeffs):
                break
        combo = PolyVector.zero(inst.n, zvars)
        for c, gen in zip(coeffs, generators):
            combo = combo + gen.scale(c)
        if combo.reduce_mod(p).is_zero():
            failures += 1
    return Check(passed=distinct and echelon and failures == 0,
                 leading_monomials_distinct=distinct, leading_vectors_echelon=echelon,
                 random_trials=trials, random_failures=failures)
