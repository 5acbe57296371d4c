"""Solutions in the asymptotic zone: x = v + z_n and z_i - z_n = u_1...u_i.

After the shift x = v + z_n the master polynomial becomes
    (v prod_{i<n} (v - w_i))**M,     w_i = z_i - z_n,
and the solution at v-index l p**s - 1 depends on the differences w only.
Substituting w_i = u_1...u_i turns it into u-polynomials that factor as a
signed monomial prefactor times a truncation T with explicit binomial
coefficients; replacing the binomials of the truncation by their
half-integer limits yields the p-adic series the truncations converge to.
Both families live on the same two index hyperplanes, which one walker,
``zone_runs``, lists class by class; their rows come from two rules,
``sparsepoly.binomial_row`` for M and ``padic.binom_half_rows`` at M = -1/2.
The x-coordinate forms Q multiply away the balanced part of the prefactor
so that only x_1 carries the square-root behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat

from .kz import Check, KZInstance, failure_site
from .padic import PAdic, binom_half, binom_half_rows, int_valuation
from .sparsepoly import (
    Polynomial,
    PolyVector,
    binomial_row,
    bounded_compositions,
    desk_check,
    digits,
    product_power_gradient,
    product_power_slice,
    row_products,
    slice_cost,
    slice_size,
    u_variables,
)
from .solutions import (
    is_quasi_constant,
    minimal_mvec,
    module_sum,
    solution_sign,
)


def w_variables(n: int) -> tuple:
    return tuple(f"w{i}" for i in range(1, n))


def check_index(n: int, l: int) -> None:
    g = (n - 1) // 2
    if not 1 <= l <= g:
        raise ValueError(f"solution index l={l} outside 1..{g}")


def difference_form(inst: KZInstance, l: int) -> PolyVector:
    """The shifted solution as a polynomial vector in w_i = z_i - z_n.

    At v-index k = l p**s - 1 of v**M prod_{i<n} (v - w_i)**M, component j < n
    divides by (v - w_j): the gradient of the product's slice at k - M;
    component n divides by v: the product's plain slice at k - M + 1.
    """
    check_index(inst.n, l)
    M = inst.ctx.half
    k = l * inst.ctx.modulus - 1
    wv = w_variables(inst.n)
    caps = (M,) * (inst.n - 1)
    last = Polynomial(wv, product_power_slice(caps, k - M + 1))
    return PolyVector(product_power_gradient(caps, k - M, wv).entries + (last,))


def shift_solution(inst: KZInstance, l: int) -> PolyVector:
    """The shifted solution expressed back in z (expanding w_i = z_i - z_n).

    The expansion is naive: each of the n-1 terms per slice tuple, of degree
    T = nM - l p**s, makes up to C(T+n-1, n-1) z-monomials added into a sum.
    """
    check_index(inst.n, l)
    n, M = inst.n, inst.ctx.half
    T = n * M - l * inst.ctx.modulus
    desk_check((n - 1) * truncation_index_count(n, l, M) * math.comb(T + n - 1, n - 1)
               * digits((n - 1) * M), "expansion into z")
    diff = difference_form(inst, l)
    zvars = inst.zvars
    zn = Polynomial.variable(zvars[-1], zvars)
    images = {
        f"w{i}": Polynomial.variable(zvars[i - 1], zvars) - zn
        for i in range(1, inst.n)
    }
    return diff.map(lambda e: e.substitute(images, zvars))


def hat_solution(inst: KZInstance, l: int) -> PolyVector:
    """The shifted solution in the zone coordinates (w_i -> u_1...u_i).

    The substitution is a monomial map: the u_m exponent of a w-monomial is
    the sum of the w-exponents with index >= m.  The suffix sums determine
    the w-exponents, so no two terms merge.
    """
    uv = u_variables(inst.n)
    return difference_form(inst, l).map(lambda poly: Polynomial(uv, {
        tuple(accumulate(d[::-1]))[::-1]: c for d, c in poly.terms.items()}))


# -- prefactor and constant term -------------------------------------------------

@dataclass(frozen=True)
class Prefactor:
    """Signed monomial u**e splitting off the divergent part of the solution."""

    sign: int
    exponents: tuple  # over u_1..u_{n-1}


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
    return (0,) * (2 * inst.g - 2 * l) + (math.comb(M - 1, l - 1),) + (math.comb(M, l),) * (2 * l)


def series_constant_vector(p: int, n: int, l: int, N: int) -> tuple:
    """Constant term of the limiting series: (0,..,0, binom(-3/2,l-1), binom(-1/2,l),..)."""
    return ((PAdic(p, N, 0),) * (n - 1 - 2 * l) + (binom_half(1, l - 1, p, N),)
            + (binom_half(0, l, p, N),) * (2 * l))


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


def truncation_index_count(n: int, l: int, M: int) -> int:
    """Number of indices ``truncated_expansion`` enumerates, in closed form.

    With left and right block sums L and R, an index lies on hyperplane A
    when L = R + l - 1 and on B when L = R + l.  Replacing each left slot a_i
    by M - a_i maps A onto the (n-1)-tuples under the caps M with sum
    (n-2l)M - l + 1 and B onto those with sum (n-2l)M - l: the tuples of the
    two slices of ``difference_form``, which the factorization pairs with
    the truncation's indices.
    """
    caps = (M,) * (n - 1)
    top = (2 * l - 1) * M + l           # sum(caps) minus the sum (n-2l)M - l on B
    return slice_size(caps, top - 1) + slice_size(caps, top)


def zone_request_cost(inst: KZInstance, l: int, cutoff: int | None = None,
                      N: int | None = None) -> int:
    """Work of a zone request: the two slices of ``difference_form``, per truncation index
    2(n-1) multiplies and about n**2 steps of bookkeeping on integers below 2**((n-1)M),
    and with a cutoff the limit series mod p**N."""
    check_index(inst.n, l)
    n, M = inst.n, inst.ctx.half
    k, caps = l * inst.ctx.modulus - M, (M,) * (n - 1)     # the gradient walks the slice at k
    cost = slice_cost(caps, k, 2 * (n - 1)) + slice_cost(caps, k)
    cost += truncation_index_count(n, l, M) * (2 * (n - 1) + n * n) * digits((n - 1) * M)
    return cost + (series_cost(inst.ctx.p, n, l, cutoff, N) if cutoff is not None else 0)


def zone_runs(n: int, l: int, cap: int | None, cutoff: int | None):
    """The indices of the zone expansions, one run per class: yields (components, indices)
    for "A" (offset l-1) and then "B" (offset l).

    With F and S the sums of the visible slots before and after the balance slot
    (position n-2l), the class's offset o fixes the balance slot at S + o - F.  Every slot
    stays at most ``cap`` and the visible degree F + S at most ``cutoff``; the truncation
    passes cap = M and no cutoff, the series a cutoff and no cap, which leaves the balance
    unbounded.  The slots after the balance slot are walked first, then only the first
    blocks whose F keeps the balance in range, and no S is walked that no F completes.
    """
    cap = cutoff + l if cap is None else cap                # the balance is at most S + l
    cutoff = (n - 2) * cap if cutoff is None else cutoff    # F + S is at most (n-2) cap
    slot = min(cap, cutoff)
    firsts, seconds = (slot,) * (n - 2 * l - 1), (slot,) * (2 * l - 1)

    def run(offset):
        for total in range(min(sum(seconds), cutoff, sum(firsts) + cap - offset) + 1):
            rest = list(bounded_compositions(total, seconds))
            for f in range(max(0, total + offset - cap),
                           min(total + offset, cutoff - total, sum(firsts)) + 1):
                for first in bounded_compositions(f, firsts):
                    for second in rest:
                        yield first + (total + offset - f,) + second

    for tag, offset in (("A", l - 1), ("B", l)):
        yield components_of_class(n, l, tag), run(offset)


def series_index_count(n: int, l: int, cutoff: int) -> int:
    """Number of indices ``zone_runs`` yields for the series, in O(cutoff) closed-form terms.

    With F and S the sums of the a = n-2l-1 visible slots before the balance
    slot and of the b = 2l-1 after it, offset o in {l-1, l} gives an index
    when F + S <= cutoff and S >= F - o.  As W_k(t) = C(t+k-1, k-1) counts
    k-tuples of sum t and sum_{S <= X} W_b(S) = C(X+b, b), the count is
        sum_o sum_{F <= (cutoff+o)/2} W_a(F) (C(cutoff-F+b, b) - C(F-o-1+b, b)),
    the second binomial read as 0 for F <= o.
    """
    a, b = n - 2 * l - 1, 2 * l - 1
    total = 0
    for o in (l - 1, l):
        for f in range((cutoff + o) // 2 + 1 if a else 1):
            weight = math.comb(f + a - 1, a - 1) if a else 1
            total += weight * (math.comb(cutoff - f + b, b)
                               - (math.comb(f - o - 1 + b, b) if f > o else 0))
    return total


def series_cost(p: int, n: int, l: int, cutoff: int, N: int) -> int:
    """Work of the limit series: per index about n**2 steps on residues mod p**N,
    and n PAdic values built and written as three-field records, about 40 steps each.

    With a visible slot before the balance slot, the indices with o = l-1 and
    F <= cutoff/2 number at least (h+1)**2 at cutoff 2h.  That lower bound is
    checked first, so an admitted cutoff is counted in a few thousand terms.
    """
    weight = n * (n * digits((p ** N).bit_length()) + 40)
    if n - 2 * l > 1:
        desk_check(weight * (cutoff // 2 + 1) ** 2, "series")
    return weight * series_index_count(n, l, cutoff)


def _zone_vectors(n: int, runs, plain, special):
    """Yield (a, vector) per index of the ``zone_runs`` runs: component j < n of the run's
    class multiplies special[a_j] with plain[a_i] for i != j, component n takes the plain
    product, the others are 0; ``row_products`` forms them from one row per kind."""
    plain, special, zero = (plain,) * (n - 1), (special,) * (n - 1), repeat(0)
    for comps, run in runs:
        live = range(comps.start - 1, min(comps.stop, n) - 1)      # the slots of j < n
        for chunk, whole, entries in row_products(run, plain, special, live):
            columns = ([zero] * live.start + entries + [zero] * (n - 1 - live.stop)
                       + [whole if n in comps else zero])
            yield from zip(chunk, zip(*columns))


def truncated_expansion(inst: KZInstance, l: int) -> SeriesTruncation:
    """Exact integer coefficients of the level-s truncation.

    Component j < n pairs binom(M-1, a_j) with binom(M, a_i) for i != j;
    component n takes the plain product of binom(M, a_i).
    """
    n, M = inst.n, inst.ctx.half
    check_index(n, l)
    desk_check(zone_request_cost(inst, l), "truncation")    # with the slices it pairs with
    plain, special = binomial_row(M, 0, M), binomial_row(M - 1, 0, M)
    coeffs = {a: vec for a, vec in
              _zone_vectors(n, zone_runs(n, l, M, None), plain, special) if any(vec)}
    return SeriesTruncation(n, l, "truncated", inst.ctx.p, None, None, coeffs)


def limit_series(p: int, n: int, l: int, cutoff: int, N: int) -> SeriesTruncation:
    """p-adic coefficients of the limiting series up to monomial degree cutoff.

    The truncation's rule at M = -1/2: binom(-1/2, .) and binom(-3/2, .) as
    residues mod p**N.  Vectors that vanish mod p**N are kept.
    """
    check_index(n, l)
    desk_check(series_cost(p, n, l, cutoff, N), "series")
    plain, special = binom_half_rows(cutoff + l, p, N)     # the balance reaches cutoff + l
    coeffs = {a: tuple(PAdic(p, N, c) for c in vec) for a, vec in
              _zone_vectors(n, zone_runs(n, l, None, cutoff), plain, special)}
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

    def ones(lo, hi):                   # u_lo ... u_hi
        return tuple(int(lo <= m <= hi) for m in range(1, n))

    return ([tuple(max(block - m + 1, 0) for m in range(1, n))]
            + [ones(i, block) for i in range(2, block + 1)]
            + [ones(block + 1, block + k) for k in range(1, 2 * l)])


def component_polynomials(st: SeriesTruncation, monomial) -> list:
    """Per-component maps exponent -> coefficient (coefficients summed).

    ``monomial(n, l, j, a)`` gives the exponents of index a in component j:
    ``u_monomial`` for the u-form, ``x_monomial`` for the x-form.
    """
    out = [dict() for _ in range(st.n)]
    for a, vec in st.coeffs.items():
        for j, (row, c) in enumerate(zip(out, vec), 1):
            if c.residue if isinstance(c, PAdic) else c:
                key = monomial(st.n, st.l, j, a)
                row[key] = row[key] + c if key in row else c
    return out


def factorization_report(inst: KZInstance, l: int) -> Check:
    """Assert hat solution == prefactor * truncation, coefficient by coefficient.

    The verdict carries the truncation it factored as ``truncation``.
    """
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
    zero_key = (0,) * (inst.n - 1)
    const_ok = tuple(upoly.get(zero_key, 0) for upoly in upolys) == constant_vector(inst, l)
    return Check(passed=first is None and const_ok, factorization_ok=first is None,
                 constant_term_ok=const_ok, first_mismatch=first, truncation=st)


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

    A row per index a and component, run by run of ``zone_runs``: the
    certified valuation of the difference (precision-clamped) against its bound.
    """
    if D > inst.ctx.half:
        raise ValueError("cutoff exceeds the truncation's index range")
    p, s, n = inst.ctx.p, inst.ctx.s, inst.n
    N = s + 8
    trunc = truncated_expansion(inst, l)
    series = limit_series(p, n, l, D, N)
    rows = []
    for comps, run in zone_runs(n, l, None, D):
        for a in run:
            tvec, svec = trunc.coeffs.get(a, (0,) * n), series.coeffs[a]
            for j in comps:
                val = (PAdic(p, N, tvec[j - 1]) - svec[j - 1]).norm_exponent()
                bound = coefficient_difference_bound(p, s, n, l, a, j)
                rows.append({"a": a, "component": j, "difference_valuation": val,
                             "bound": bound, "vacuous": bound == 0, "ok": val >= bound})
    return Check(passed=all(r["ok"] for r in rows), rows=rows)


# -- x-coordinate forms ------------------------------------------------------------

def q_consistency_report(st: SeriesTruncation) -> bool:
    """The Q monomials of a truncation must reproduce its u-form under the x(u) dictionary."""
    upolys = component_polynomials(st, u_monomial)
    xpolys = component_polynomials(st, x_monomial)
    dictionary = x_dictionary(st.n, st.l)    # x_1..x_{n-1} as u-exponents
    for j in range(st.n):
        rebuilt: dict = {}
        for xexp, coeff in xpolys[j].items():
            uexp = [0] * (st.n - 1)
            for i, e in enumerate(xexp):     # xexp covers x_2..x_{n-1}
                for m in range(st.n - 1):
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
    p, s = inst.ctx.p, inst.ctx.s
    mvec = minimal_mvec(inst)
    k = l * p ** s - 1
    zn = Polynomial.variable(inst.zvars[-1], inst.zvars)
    summands, rows = [], []
    for i in range(k, sum(mvec)):
        u = min(int_valuation(i + 1, p), s)
        v = (i + 1) // p ** u
        unit, rest = divmod(math.comb(i, k), p ** (s - u))
        dpoly = (zn ** (i - k)).scale(unit)
        summands.append((u, v, dpoly))
        rows.append({"index": i, "shift": i - k, "level": u, "generator": v,
                     "valuation_ok": rest == 0,
                     "quasi_constant_ok": rest == 0 and is_quasi_constant(dpoly, p, u)})
    exact = module_sum(inst, mvec, summands, s) == shift_solution(inst, l)
    diagonal_unit = summands[0][2] == Polynomial.one(inst.zvars)
    return Check(passed=exact and diagonal_unit and all(
                     r["valuation_ok"] and r["quasi_constant_ok"] for r in rows),
                 rows=rows, exact_ok=exact, diagonal_unit=diagonal_unit)
