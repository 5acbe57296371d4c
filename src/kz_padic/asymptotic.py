"""Solutions in the asymptotic zone: x = v + z_n and z_i - z_n = u_1...u_i.

After the shift x = v + z_n the master polynomial becomes
    (v prod_{i<n} (v - w_i))**M,     w_i = z_i - z_n,
and the solution at v-index l p**s - 1 depends on the differences w only.
Substituting w_i = u_1...u_i turns it into u-polynomials that factor as a
signed monomial prefactor times a truncation T with explicit binomial
coefficients; replacing the binomials of the truncation by their
half-integer limits yields the p-adic series the truncations converge to.
The x-coordinate forms Q multiply away the balanced part of the prefactor
so that only x_1 carries the square-root behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kz import Check, KZInstance, failure_site
from .padic import PAdic, binom_half_fraction
from .sparsepoly import (
    Polynomial,
    PolyVector,
    bounded_compositions,
    product_power_slice,
    slice_size,
    u_variables,
)
from .solutions import DESK_TUPLE_LIMIT, DeskEnvelopeError, solution_sign


def w_variables(n: int) -> tuple:
    return tuple(f"w{i}" for i in range(1, n))


def check_index(n: int, l: int) -> None:
    g = (n - 1) // 2
    if not 1 <= l <= g:
        raise ValueError(f"solution index l={l} outside 1..{g}")


def difference_form(inst: KZInstance, l: int) -> PolyVector:
    """The shifted solution as a polynomial vector in w_i = z_i - z_n.

    Component j < n divides the shifted master polynomial by (v - w_j),
    component n divides by v; extraction happens at v-index l p**s - 1.
    """
    check_index(inst.n, l)
    M = inst.ctx.half
    k = l * inst.ctx.modulus - 1
    wv = w_variables(inst.n)
    entries = []
    for j in range(1, inst.n + 1):
        caps = [M] * (inst.n - 1)
        vpow = M
        if j < inst.n:
            caps[j - 1] = M - 1
        else:
            vpow = M - 1
        sl = product_power_slice(caps, k - vpow)
        entries.append(Polynomial(wv, sl))
    return PolyVector(entries)


def shift_solution(inst: KZInstance, l: int) -> PolyVector:
    """The shifted solution expressed back in z (expanding w_i = z_i - z_n)."""
    diff = difference_form(inst, l)
    zvars = inst.zvars
    zn = Polynomial.variable(zvars[-1], zvars)
    images = {
        f"w{i}": Polynomial.variable(zvars[i - 1], zvars) - zn
        for i in range(1, inst.n)
    }
    if any(len(e) > 20_000 for e in diff.entries):
        raise DeskEnvelopeError("difference form too large to expand into z")
    return diff.map(lambda e: e.substitute(images, zvars))


def hat_solution(inst: KZInstance, l: int) -> PolyVector:
    """The shifted solution in the zone coordinates (w_i -> u_1...u_i).

    The substitution is a monomial map: the u_m exponent of a w-monomial is
    the sum of the w-exponents with index >= m.
    """
    diff = difference_form(inst, l)
    uv = u_variables(inst.n)
    entries = []
    for poly in diff.entries:
        terms: dict = {}
        for d, coeff in poly.terms.items():
            suffix = 0
            f = [0] * (inst.n - 1)
            for m in range(inst.n - 2, -1, -1):
                suffix += d[m]
                f[m] = suffix
            key = tuple(f)
            terms[key] = terms.get(key, 0) + coeff
        entries.append(Polynomial(uv, {k: c for k, c in terms.items() if c}))
    return PolyVector(entries)


# -- prefactor and constant term -------------------------------------------------

@dataclass(frozen=True)
class Prefactor:
    """Signed monomial u**e splitting off the divergent part of the solution."""

    sign: int
    exponents: tuple  # over u_1..u_{n-1}

    def monomial(self, variables) -> Polynomial:
        return Polynomial(variables, {self.exponents: self.sign})


def prefactor_truncated(inst: KZInstance, l: int) -> Prefactor:
    """(-1)**delta_l (u_1...u_{n-2l})**(-l) prod_{i<=n-2l} (u_1...u_i)**M, expanded.

    The u_m exponent, m <= n-2l, is M(n-2l-m+1) - l; all exponents are
    nonnegative on the supported parameter range.
    """
    check_index(inst.n, l)
    M = inst.ctx.half
    block = inst.n - 2 * l
    exps = [0] * (inst.n - 1)
    for m in range(1, block + 1):
        e = M * (block - m + 1) - l
        if e < 0:
            raise ValueError("prefactor exponent negative: l exceeds (p**s-1)/2")
        exps[m - 1] = e
    return Prefactor(solution_sign(inst, l), tuple(exps))


def series_prefactor_exponents(n: int, l: int) -> tuple:
    """Formal u-exponents (doubled, as integers) of the limiting prefactor.

    The limit replaces M by -1/2: exponent of u_m is -(n-2l-m+1)/2 - l for
    m <= n-2l.  Returned doubled so they stay integral; used only to verify
    the prefactor monomials are pairwise distinct across l.
    """
    block = n - 2 * l
    return tuple(
        -(block - m + 1) - 2 * l if m <= block else 0
        for m in range(1, n)
    )


def constant_vector(inst: KZInstance, l: int) -> tuple:
    """Constant term of the truncation: binom(M,l) (0,..,0, l/M, 1,..,1).

    Zeros repeat 2g-2l times, ones 2l times; the l/M slot is binom(M-1, l-1).
    """
    check_index(inst.n, l)
    M = inst.ctx.half
    zeros = 2 * inst.g - 2 * l
    out = [0] * inst.n
    out[zeros] = math.comb(M - 1, l - 1)
    for i in range(zeros + 1, inst.n):
        out[i] = math.comb(M, l)
    return tuple(out)


def series_constant_vector(p: int, n: int, l: int, N: int) -> tuple:
    """Constant term of the limiting series: (0,..,0, binom(-3/2,l-1), binom(-1/2,l),..)."""
    g = (n - 1) // 2
    zeros = 2 * g - 2 * l
    out = [PAdic(p, N, 0)] * n
    out[zeros] = PAdic.from_fraction(binom_half_fraction(1, l - 1), p, N)
    tail = PAdic.from_fraction(binom_half_fraction(0, l), p, N)
    for i in range(zeros + 1, n):
        out[i] = tail
    return tuple(out)


# -- truncations and series as indexed coefficient families ----------------------

def index_class(n: int, l: int, a) -> str | None:
    """Which components an index contributes to: "A" for j <= n-2l, "B" above."""
    block = n - 2 * l
    left = sum(a[:block])
    right = sum(a[block:])
    if left == right + l - 1:
        return "A"
    if left == right + l:
        return "B"
    return None


def components_of_class(n: int, l: int, tag: str) -> range:
    block = n - 2 * l
    return range(1, block + 1) if tag == "A" else range(block + 1, n + 1)


@dataclass
class SeriesTruncation:
    """Vector-valued coefficients of the zone expansion, keyed by multi-index.

    Component j of the vector at index a is the coefficient of a's monomial
    in the j-th coordinate sum; it is nonzero only when a satisfies that
    coordinate's balance constraint (tagged "A" for the first n-2l
    coordinates, "B" for the rest).
    """

    n: int
    l: int
    kind: str               # "truncated" | "series"
    p: int
    precision: int | None   # None for exact integer truncations
    cutoff: int | None      # total-degree bound for series enumeration
    coeffs: dict            # a-tuple -> tuple (ints or PAdic)

    def indices(self):
        return self.coeffs.keys()

    def constraints_ok(self) -> bool:
        return all(index_class(self.n, self.l, a) is not None for a in self.coeffs)

    def to_json(self) -> dict:
        def render(c):
            return c.to_json() if isinstance(c, PAdic) else str(c)

        return {
            "n": self.n,
            "l": self.l,
            "kind": self.kind,
            "p": self.p,
            "precision": self.precision,
            "cutoff": self.cutoff,
            "indices": [
                {"a": list(a), "vector": [render(c) for c in vec]}
                for a, vec in sorted(self.coeffs.items())
            ],
        }


def _block_caps(n: int, l: int, M: int) -> tuple:
    """Caps of the left block a_1..a_{n-2l} and of the right block after it."""
    block = n - 2 * l
    return (M,) * block, (M,) * (n - 1 - block)


def truncation_index_count(n: int, l: int, M: int) -> int:
    """Number of indices ``truncated_expansion`` enumerates, in closed form.

    With left and right block sums L and R, an index lies on hyperplane A
    when L = R + l - 1 and on B when L = R + l, so the count is
        sum_R C_right(R) * (C_left(R + l - 1) + C_left(R + l)),
    where C_caps(t) counts the tuples under the caps with sum t.
    """
    left, right = _block_caps(n, l, M)

    def count(caps, total):
        return slice_size(caps, sum(caps) - total)

    return sum(count(right, r) * (count(left, r + l - 1) + count(left, r + l))
               for r in range(sum(right) + 1))


def _truncated_index_iter(n: int, l: int, M: int):
    """Indices on the two hyperplanes ``index_class`` accepts, with their tag.

    Each right block is paired with the left blocks whose sum puts the
    index on A or on B; tuples off both hyperplanes are never formed.
    """
    left_caps, right_caps = _block_caps(n, l, M)
    for r in range(sum(right_caps) + 1):
        rights = list(bounded_compositions(r, right_caps))
        for tag, offset in (("A", l - 1), ("B", l)):
            for left in bounded_compositions(r + offset, left_caps):
                for right in rights:
                    yield left + right, tag


def series_indices(n: int, l: int, cutoff: int):
    """Indices whose visible monomial degree is at most the cutoff.

    The balance slot (position n-2l) never appears in the monomials, and the
    constraint determines it from the visible slots per class, so enumerating
    visible tuples of bounded total degree yields exactly the terms a series
    truncated at that degree can contain.
    """
    block = n - 2 * l
    caps = (cutoff,) * (n - 2)
    for total in range(0, cutoff + 1):
        for visible in bounded_compositions(total, caps):
            first = visible[: block - 1]
            second = visible[block - 1:]
            for offset in (l - 1, l):
                balance = sum(second) + offset - sum(first)
                if balance < 0:
                    continue
                yield first + (balance,) + second


def truncated_expansion(inst: KZInstance, l: int) -> SeriesTruncation:
    """Exact integer coefficients of the level-s truncation.

    Component j < n pairs binom(M-1, a_j) with binom(M, a_i) for i != j;
    component n takes the plain product of binom(M, a_i).
    """
    n, M = inst.n, inst.ctx.half
    check_index(n, l)
    if truncation_index_count(n, l, M) > DESK_TUPLE_LIMIT:
        raise DeskEnvelopeError("truncation index range above desk budget")
    base = [math.comb(M, e) for e in range(M + 1)]
    special = [math.comb(M - 1, e) for e in range(M + 1)]
    coeffs: dict = {}
    for a, tag in _truncated_index_iter(n, l, M):
        prod_all = 1
        for e in a:
            prod_all *= base[e]
        vec = [0] * n
        for j in components_of_class(n, l, tag):
            if j == n:
                vec[n - 1] = prod_all
            else:
                # binom(M, a_j) > 0 throughout the index range, so the swap
                # of the distinguished factor is an exact division
                e = a[j - 1]
                vec[j - 1] = prod_all // base[e] * special[e]
        if any(vec):
            coeffs[a] = tuple(vec)
    return SeriesTruncation(n, l, "truncated", inst.ctx.p, None, None, coeffs)


def limit_series(p: int, n: int, l: int, cutoff: int, N: int) -> SeriesTruncation:
    """p-adic coefficients of the limiting series up to monomial degree cutoff."""
    check_index(n, l)
    top = cutoff + l + 1  # the balance slot can exceed the visible degrees by l
    b0 = [PAdic.from_fraction(binom_half_fraction(0, a), p, N) for a in range(top + 1)]
    b1 = [PAdic.from_fraction(binom_half_fraction(1, a), p, N) for a in range(top + 1)]
    zero = PAdic(p, N, 0)
    coeffs: dict = {}
    for a in series_indices(n, l, cutoff):
        tag = index_class(n, l, a)
        if tag is None:
            raise AssertionError("enumerated index violates its constraint")
        prod_all = PAdic(p, N, 1)
        for e in a:
            prod_all = prod_all * b0[e]
        vec = [zero] * n
        for j in components_of_class(n, l, tag):
            if j == n:
                vec[n - 1] = prod_all
            else:
                val = b1[a[j - 1]]
                for i, e in enumerate(a):
                    if i != j - 1:
                        val = val * b0[e]
                vec[j - 1] = val
        coeffs[a] = tuple(vec)
    return SeriesTruncation(n, l, "series", p, N, cutoff, coeffs)


# -- monomial bookkeeping ---------------------------------------------------------

def u_monomial(n: int, l: int, j: int, a) -> tuple:
    """u-exponents (over u_1..u_{n-1}) of index a in component j."""
    block = n - 2 * l
    exps = [0] * (n - 1)
    for i in range(1, block):             # factors (v u_{i+1}..u_block - 1)
        for m in range(i + 1, block + 1):
            exps[m - 1] += a[i - 1]
    for i in range(1, 2 * l):             # factors (1 - u_{block+1}..u_{block+i}/v)
        for m in range(block + 1, block + i + 1):
            exps[m - 1] += a[block + i - 1]
    if j <= block - 1:                    # per-component monomial prefactor
        for m in range(j + 1, block + 1):
            exps[m - 1] += 1
    return tuple(exps)


def x_monomial(n: int, l: int, j: int, a) -> tuple:
    """x-exponents (over x_2..x_{n-1}) of index a in component j."""
    block = n - 2 * l
    exps = [0] * (n - 2)
    for i in range(1, block):
        exps[i - 1] += a[i - 1]           # x_{i+1}
    for i in range(1, 2 * l):
        exps[block + i - 2] += a[block + i - 1]   # x_{block+i}
    if j <= block - 1:
        exps[j - 1] += 1                  # x_{j+1}
    return tuple(exps)


def x_dictionary(n: int, l: int) -> list:
    """u-exponent tuples of x_1..x_{n-1} (x_{block+k} = u_{block+1}..u_{block+k})."""
    block = n - 2 * l
    out = []
    x1 = [0] * (n - 1)
    for m in range(1, block + 1):
        x1[m - 1] = block - m + 1
    out.append(tuple(x1))
    for i in range(2, block + 1):
        e = [0] * (n - 1)
        for m in range(i, block + 1):
            e[m - 1] = 1
        out.append(tuple(e))
    for k in range(1, 2 * l):
        e = [0] * (n - 1)
        for m in range(block + 1, block + k + 1):
            e[m - 1] = 1
        out.append(tuple(e))
    return out


def component_polynomials(st: SeriesTruncation, monomial) -> list:
    """Per-component maps exponent -> coefficient (coefficients summed).

    ``monomial(n, l, j, a)`` gives the exponents of index a in component j:
    ``u_monomial`` for the u-form, ``x_monomial`` for the x-form.
    """
    out = [dict() for _ in range(st.n)]
    for a, vec in st.coeffs.items():
        for j in range(1, st.n + 1):
            c = vec[j - 1]
            if (isinstance(c, int) and c == 0) or (isinstance(c, PAdic) and c.residue == 0):
                continue
            key = monomial(st.n, st.l, j, a)
            if key in out[j - 1]:
                out[j - 1][key] = out[j - 1][key] + c
            else:
                out[j - 1][key] = c
    return out


def factorization_report(inst: KZInstance, l: int) -> Check:
    """Assert hat solution == prefactor * truncation, coefficient by coefficient."""
    hat = hat_solution(inst, l)
    st = truncated_expansion(inst, l)
    pre = prefactor_truncated(inst, l)
    upolys = component_polynomials(st, u_monomial)
    uv = u_variables(inst.n)
    rebuilt = PolyVector([Polynomial(uv, {
        tuple(e + pe for e, pe in zip(exp, pre.exponents)): pre.sign * c
        for exp, c in upoly.items()
    }) for upoly in upolys])
    first = failure_site(rebuilt - hat)
    cvec = constant_vector(inst, l)
    const_ok = True
    for j in range(inst.n):
        zero_key = (0,) * (inst.n - 1)
        got = upolys[j].get(zero_key, 0)
        if got != cvec[j]:
            const_ok = False
    return Check(passed=first is None and const_ok, factorization_ok=first is None,
                 constant_term_ok=const_ok, first_mismatch=first)


# -- truncation vs series, index by index ----------------------------------------

def coefficient_difference_bound(p: int, s: int, n: int, l: int, a, j: int) -> int:
    """Valuation bound for the truncation-minus-series coefficient at (a, j).

    Factor i of the coefficient product differs from its limit by valuation
    at least s + 1 - l1 - a_i (l1 = 1 for the distinguished factor of
    component j < n) whenever a_i <= M - l1; factors outside that range only
    give the trivial bound 0.  The product difference inherits the worst
    factor bound, clamped at 0 since both sides are p-adic integers.
    """
    M = (p ** s - 1) // 2
    best = None
    for i in range(1, n):
        l1 = 1 if (j < n and i == j) else 0
        if a[i - 1] <= M - l1:
            v = s + 1 - l1 - a[i - 1]
        else:
            v = 0
        best = v if best is None else min(best, v)
    return max(0, best)


def truncation_correspondence(inst: KZInstance, l: int, D: int) -> Check:
    """Compare truncation and series coefficients index by index up to degree D.

    A row per index a and component: the certified valuation of the
    difference (precision-clamped) against its bound.
    """
    if D > inst.ctx.half:
        raise ValueError("cutoff exceeds the truncation's index range")
    p, s, n = inst.ctx.p, inst.ctx.s, inst.n
    N = s + 8
    trunc = truncated_expansion(inst, l)
    series = limit_series(p, n, l, D, N)
    rows = []
    for a, svec in sorted(series.coeffs.items()):
        tvec = trunc.coeffs.get(a, (0,) * n)
        tag = index_class(n, l, a)
        for j in components_of_class(n, l, tag):
            tval = tvec[j - 1]
            diff = PAdic(p, N, tval) - svec[j - 1]
            val = diff.norm_exponent()
            bound = coefficient_difference_bound(p, s, n, l, a, j)
            rows.append({"a": a, "component": j, "difference_valuation": val,
                         "bound": bound, "vacuous": bound == 0, "ok": val >= bound})
    return Check(passed=all(r["ok"] for r in rows), rows=rows)


# -- x-coordinate forms ------------------------------------------------------------

def q_consistency_report(inst: KZInstance, l: int) -> bool:
    """The Q monomials must reproduce the u-form under the x(u) dictionary."""
    st = truncated_expansion(inst, l)
    upolys = component_polynomials(st, u_monomial)
    xpolys = component_polynomials(st, x_monomial)
    dictionary = x_dictionary(inst.n, l)     # x_1..x_{n-1} as u-exponents
    for j in range(inst.n):
        rebuilt: dict = {}
        for xexp, coeff in xpolys[j].items():
            uexp = [0] * (inst.n - 1)
            for i, e in enumerate(xexp):     # xexp covers x_2..x_{n-1}
                for m in range(inst.n - 1):
                    uexp[m] += e * dictionary[i + 1][m]
            key = tuple(uexp)
            rebuilt[key] = rebuilt.get(key, 0) + coeff
        if {k: c for k, c in rebuilt.items() if c} != upolys[j]:
            return False
    return True


# -- membership of shifted solutions in the solution module -----------------------

def translation_membership(inst: KZInstance, l: int) -> Check:
    """Rewrite the x-shifted solution over the straight solution family.

    Expanding (v + z_n)**i gives, exactly over Z,
        shifted I at index k = sum_{i >= k} binom(i, k) z_n**(i-k) P^i(z),
    and each summand classifies as p**(s-u) times a quasi-constant multiple
    of the generator at index v p**u - 1 = i, where u = min(v_p(i+1), s).
    The i = k summand has unit coefficient, so the triangular system also
    inverts, giving equality of the two filtrations.  A row per summand i
    gives its shift e = i - k (the z_n power), u and v.
    """
    from .padic import int_valuation
    from .solutions import extract_at_index, is_quasi_constant, minimal_mvec

    p, s = inst.ctx.p, inst.ctx.s
    mvec = minimal_mvec(inst)
    k = l * p ** s - 1
    deg_bound = sum(mvec) - 1
    zvars = inst.zvars
    zn = Polynomial.variable(zvars[-1], zvars)

    target = shift_solution(inst, l)
    total = PolyVector.zero(inst.n, zvars)
    rows = []
    diagonal_unit = False
    for i in range(k, deg_bound + 1):
        c = math.comb(i, k)
        e = i - k
        piece = extract_at_index(inst, mvec, i)
        total = total + piece.scale(zn ** e).scale(c)
        u = min(int_valuation(i + 1, p), s)
        v = (i + 1) // p ** u
        val_ok = c % p ** (s - u) == 0
        if val_ok:
            dpoly = (zn ** e).scale(c // p ** (s - u))
            qc_ok = is_quasi_constant(dpoly, p, u)
        else:
            qc_ok = False
        if e == 0:
            diagonal_unit = c == 1
        rows.append({"index": i, "shift": e, "level": u, "generator": v,
                     "valuation_ok": val_ok, "quasi_constant_ok": qc_ok})
    exact = total == target
    return Check(passed=exact and diagonal_unit and all(
                     r["valuation_ok"] and r["quasi_constant_ok"] for r in rows),
                 rows=rows, exact_ok=exact, diagonal_unit=diagonal_unit)
