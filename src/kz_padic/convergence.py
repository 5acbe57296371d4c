"""Seeded p-adic convergence experiments for the zone expansions.

All measurements compare against proven upper bounds, so sampling can only
strengthen the evidence, never fake a pass: a sampled sup-norm is a lower
bound for the true sup, and every PASS criterion is "measured <= bound".
Norms that vanish at working precision are treated as intervals and flagged
rather than silently counted as zero.

The truncations and the limit series are summed at a sample point without
listing their indices.  An index a = (a_1..a_{n-1}) has a left block
a_1..a_{n-2l}, whose last slot is the balance slot, and a right block after
it.  Its coefficient in component j is a product of one binomial per slot,
prod_i c_i(a_i): c_i(e) = binom(M-1, e) on the distinguished slot i = j
(j < n) and binom(M, e) elsewhere; binom(-3/2, e) and binom(-1/2, e) for
the series.  Its x-monomial is prod_i x_i**a_i over the visible slots, with
x = 1 on the balance slot.  The indices fill the two hyperplanes
left sum - right sum = offset, with offset l - 1 for j <= n-2l and l above.
So, with the per-slot rows and block products

    row_i(t) = sum_e c_i(e) x_i**e t**e,
    L(t) = prod_{i in left} row_i(t),      R(t) = prod_{i in right} row_i(t),

component j at the point is

    x_{j+1}**[j <= n-2l-1] * sum_r [t**r] R(t) * [t**(r + offset)] L(t).

The visible coordinates of every sample lie in the zero disc, so x_i**e
vanishes mod p**N once e * v_p(x_i) >= N: each row stops there, and the
balance row at what the right block can reach.  For the series this
per-slot box and the degree-<=cutoff simplex agree mod p**N whenever
cutoff >= N - 1, since the extra terms have visible degree above N - 1.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .asymptotic import (
    check_index,
    coefficient_difference_bound,
    components_of_class,
    constant_vector,
    index_class,
    series_constant_vector,
    series_indices,
    x_monomial,
)
from .kz import Check, KZInstance
from .padic import (
    DiscSpec,
    PAdic,
    PrecisionError,
    binom_half,
    binom_half_fraction,
    fraction_valuation,
    hensel_sqrt,
    int_valuation,
    legendre,
    teichmuller,
)
from .solutions import DeskEnvelopeError
from .sparsepoly import ModulusContext


def sample_disc(p: int, spec: DiscSpec, count: int, seed: int, N: int) -> list:
    """Deterministic samples congruent to w(alpha) mod p**depth, uniform above."""
    if spec.depth >= N:
        raise PrecisionError("disc depth at or above working precision")
    rng = random.Random(seed)
    anchor = teichmuller(PAdic(p, N, spec.alpha)).residue % p ** spec.depth
    step = p ** spec.depth
    span = p ** (N - spec.depth)
    return [PAdic(p, N, anchor + step * rng.randrange(span)) for _ in range(count)]


# -- Teichmuller power-tower convergence -------------------------------------------

def check_xps_convergence(p: int, alpha: int, samples, s_max: int, N: int) -> Check:
    """Per sample t: |t**(p**(s+1)) - t**(p**s)| <= p**-(s+1), and the tower
    at s_max sits within p**-s_max of the Teichmuller limit."""
    if s_max + 1 >= N:
        raise PrecisionError("increase N to resolve the requested s_max")
    steps_ok = True
    limit_ok = True
    worst = N
    for t in samples:
        if t.residue % p != alpha % p:
            raise ValueError("sample outside the declared disc")
        omega_t = teichmuller(t)
        powers = [t]
        for _ in range(s_max):
            powers.append(powers[-1] ** p)
        # powers[s] = t**(p**s) starting at s = 0
        for s in range(1, s_max):
            val = (powers[s + 1] - powers[s]).norm_exponent()
            worst = min(worst, val - (s + 1))
            if val < s + 1:
                steps_ok = False
        if (powers[s_max] - omega_t).norm_exponent() < s_max:
            limit_ok = False
    return Check(passed=steps_ok and limit_ok, step_bounds_ok=steps_ok,
                 limit_bound_ok=limit_ok, worst_step_val=worst)


def nonresidue_alternation(p: int, alpha: int, s: int, N: int) -> bool:
    """For alpha a non-residue the half powers t**((p**s-1)/2) alternate sign:
    consecutive levels differ by a unit, so no limit exists on the disc."""
    if legendre(alpha, p) != -1:
        raise ValueError("alpha must be a quadratic non-residue")
    t = teichmuller(PAdic(p, N, alpha))
    a = t ** ((p ** s - 1) // 2)
    b = t ** ((p ** (s + 1) - 1) // 2)
    return (a - b).norm_exponent() == 0


# -- half-integer binomial approximation bound --------------------------------------

def check_bin_bound(p: int, l1: int, l2: int, a_max: int, s_values) -> Check:
    """|binom(-1/2-l1, l2+a) - binom((p**s-1)/2-l1, l2+a)| <= p**-(s-(l1+l2)-a).

    Exact rational arithmetic; the integer bound uses ceil(d) = l1 + l2 for
    d = l1 + l2 - 1/2.  Rows outside the hypothesis range are skipped; a
    row's valuation is None when the difference is exactly zero.
    """
    rows = []
    per_s_ok: dict = {}
    for s in s_values:
        M = (p ** s - 1) // 2
        for a in range(a_max + 1):
            k = l2 + a
            if not 0 <= k <= M - l1:
                continue
            exact = binom_half_fraction(l1, k) - Fraction(math.comb(M - l1, k))
            val = fraction_valuation(exact, p)
            bound = s - (l1 + l2) - a
            ok = val is None or val >= bound
            rows.append({"s": s, "a": a, "valuation": val, "bound": bound,
                         "active": bound > 0, "ok": ok})
            per_s_ok[s] = per_s_ok.get(s, True) and ok
    smallest = next((s for s in sorted(per_s_ok) if per_s_ok[s]), None)
    return Check(passed=all(r["ok"] for r in rows), rows=rows, smallest_passing_s=smallest)


# -- zone sums by per-slot generating functions ---------------------------------------

# Work budget of one converge run in digit multiply-adds (``convergence_cost``).
DESK_MULADD_LIMIT = 100_000_000


def _mul(a: list, b: list, m: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    width = len(b)
    for i, c in enumerate(a):
        if c:
            out[i:i + width] = [o + c * d for o, d in zip(out[i:i + width], b)]
    return [c % m for c in out]


def _product(rows, m: int) -> list:
    out = [1]
    for row in rows:
        out = _mul(out, row, m)
    return out


def _product_muladds(caps) -> int:
    """Multiply-adds of ``_product`` over rows of degrees ``caps``, in order."""
    total = 0
    degree = 0
    for cap in caps:
        total += (degree + 1) * (cap + 1)
        degree += cap
    return total


def _row_top(l: int, N: int) -> int:
    """Highest exponent a slot row needs at a point of the zero disc.

    Visible slots stop below N, where x**e vanishes mod p**N; the balance
    slot can exceed the right block's degree by at most l.
    """
    return (2 * l - 1) * (N - 1) + l


def _truncation_rows(M: int, l: int, p: int, N: int) -> tuple:
    """Slot rows binom(M, e) and binom(M-1, e) of the level-M truncation, mod p**N."""
    m = p ** N
    top = min(M, _row_top(l, N))
    return ([math.comb(M, e) % m for e in range(top + 1)],
            [math.comb(M - 1, e) % m for e in range(top + 1)])


def _series_rows(p: int, l: int, N: int) -> tuple:
    """Slot rows binom(-1/2, e) and binom(-3/2, e) of the limit series, mod p**N."""
    top = _row_top(l, N)
    return tuple([binom_half(l1, e, p, N).residue for e in range(top + 1)] for l1 in (0, 1))


def _zone_values(n: int, l: int, rows: tuple, point, p: int, N: int) -> list:
    """Residues mod p**N of the n component sums at a point of the zero disc.

    ``point`` holds x_2..x_{n-1}; ``rows`` the plain and distinguished
    slot coefficients c(e) (``_truncation_rows`` or ``_series_rows``).  Row
    i is sum_e c(e) x_i**e t**e, with x = 1 on the balance slot and cut
    where x_i**e vanishes mod p**N; component j is the x_{j+1}-scaled
    coefficient sum_r R(r) L(r + offset) of the block products (see the
    module docstring).
    """
    plain, special = rows
    m = p ** N
    block = n - 2 * l
    top = len(plain) - 1
    xs = [v.residue for v in point]
    caps = []
    for v in point:
        val = v.norm_exponent()
        if val == 0:
            raise ValueError("zone point outside the zero disc")
        caps.append(min(top, -(-N // val) - 1))
    caps.insert(block - 1, min(top, sum(caps[block - 1:]) + l))
    xs.insert(block - 1, 1)
    plain_rows, special_rows = [], []
    for x, cap in zip(xs, caps):
        powers = [1]
        for _ in range(cap):
            powers.append(powers[-1] * x % m)
        plain_rows.append([c * w % m for c, w in zip(plain, powers)])
        special_rows.append([c * w % m for c, w in zip(special, powers)])

    def block_product(slots, j):
        return _product([special_rows[i] if i == j - 1 else plain_rows[i]
                         for i in slots], m)

    left, right = range(block), range(block, n - 1)
    L, R = block_product(left, 0), block_product(right, 0)
    out = []
    for j in range(1, n + 1):
        if j <= block:
            lhs, rhs, offset = block_product(left, j), R, l - 1
        else:
            lhs, rhs, offset = L, (block_product(right, j) if j < n else R), l
        value = sum(c * d for c, d in zip(rhs, lhs[offset:]))
        if j < block:
            value *= xs[j - 1]
        out.append(value % m)
    return out


def _truncation_sums(n: int, l: int, M: int, points, p: int, N: int) -> list:
    """Per point, the residues of the level-M truncation's n component sums."""
    rows = _truncation_rows(M, l, p, N)
    return [_zone_values(n, l, rows, pt, p, N) for pt in points]


def _series_sums(n: int, l: int, cutoff: int, points, p: int, N: int) -> list:
    """Per point, the residues of the series' n component sums up to visible degree cutoff."""
    if cutoff < N - 1:
        raise ValueError(f"series cutoff {cutoff} below N - 1 = {N - 1}")
    rows = _series_rows(p, l, N)
    return [_zone_values(n, l, rows, pt, p, N) for pt in points]


def zone_muladds(n: int, l: int, rows_top: int, N: int) -> int:
    """Multiply-adds in the block products of one zone sum, at its costliest points.

    Those are the points whose visible coordinates all have valuation 1, so
    each visible row runs to min(rows_top, N - 1).  A zone sum forms block+1
    left products and 2l right products; its n inner products add only n
    times the right block's length.
    """
    block = n - 2 * l
    visible = min(rows_top, N - 1)
    right = [visible] * (2 * l - 1)
    left = [visible] * (block - 1) + [min(rows_top, sum(right) + l)]
    return (block + 1) * _product_muladds(left) + 2 * l * _product_muladds(right)


def convergence_cost(p: int, n: int, l: int, s_max: int, count: int, N: int) -> int:
    """Work of a converge run: zone sums at every sample, plus the envelopes.

    The series is evaluated once and each level's truncation once per
    sample, each multiply-add weighted by the 30-bit digits (CPython's int
    digit) of a residue mod p**N.  The envelope at level s walks at most
    2 C(s+n-2, n-2) indices at about n**2 steps each.
    """
    top = _row_top(l, N)
    per_sample = zone_muladds(n, l, top, N) + sum(
        zone_muladds(n, l, min(top, (p ** s - 1) // 2), N) for s in range(1, s_max + 1))
    digits = -(-(p ** N).bit_length() // 30)
    walk = sum(2 * math.comb(s + n - 2, n - 2) for s in range(1, s_max + 1))
    return count * per_sample * digits + n * n * walk


def _check_desk(p: int, n: int, l: int, s_max: int, count: int, N: int) -> None:
    cost = convergence_cost(p, n, l, s_max, count, N)
    if cost > DESK_MULADD_LIMIT:
        raise DeskEnvelopeError(
            f"convergence run needs about {cost} multiply-adds, "
            f"above the desk budget of {DESK_MULADD_LIMIT}")


def tail_floor(cutoff: int) -> int:
    """Valuation floor of the discarded series tail on radius-1/p samples.

    The series is enumerated by visible monomial degree, so every discarded
    term carries a monomial of degree at least cutoff + 1.
    """
    return cutoff + 1


def difference_envelope(p: int, s: int, n: int, l: int, cutoff: int,
                        with_prefactor: bool) -> int:
    """Proven valuation floor for |truncation - series| on the sample domain.

    Per index and component: monomial valuation (one per unit of x-degree
    on radius-1/p samples) plus the coefficient difference bound.  The
    square-root prefactor mismatch contributes s+1; the series tail past
    the cutoff contributes the tail floor.

    Only series indices of visible degree <= min(cutoff, s) are walked:
    the index with every visible slot 0 and balance l bounds component n
    by at most s + 1, while every index's bound is at least its visible
    degree, so none of visible degree > s lowers the minimum; and up to the
    cutoff every truncation index is also a series index.
    """
    best = min(sum(x_monomial(n, l, j, a)) + coefficient_difference_bound(p, s, n, l, a, j)
               for a in series_indices(n, l, min(cutoff, s))
               for j in components_of_class(n, l, index_class(n, l, a)))
    floors = [tail_floor(cutoff), best]
    if with_prefactor:
        floors.append(s + 1)
    return min(floors)


# -- convergence experiments ------------------------------------------------------------

def _vector_val(diffs) -> int:
    return min(d.norm_exponent() for d in diffs)


def _phase_row(s: int, phase: str, diffs_per_sample, bound: int, N: int) -> dict:
    """Least valuation over the samples' difference vectors, against the bound.

    The row is clamped when that valuation hit the precision floor N.
    """
    vals = [_vector_val(diffs) for diffs in diffs_per_sample]
    measured = min(vals)
    return {"s": s, "phase": phase, "measured_val": measured, "bound_val": bound,
            "bound_ok": all(v >= bound for v in vals), "clamped": measured >= N}


def _settle(rows: list, **fields) -> Check:
    """Verdict over the rows: every bound holds, each phase's valuation rises
    with s, and none is clamped."""
    phases: dict = {}
    for r in rows:
        phases.setdefault(r["phase"], []).append(r["measured_val"])
    decreasing = all(b > a for vals in phases.values() for a, b in zip(vals, vals[1:]))
    exhausted = any(r["clamped"] for r in rows)
    return Check(passed=all(r["bound_ok"] for r in rows) and decreasing and not exhausted,
                 rows=rows, strictly_decreasing=decreasing, precision_exhausted=exhausted,
                 **fields)


def least_precision(s_max: int) -> int:
    """Least working precision N at which the protocols resolve levels 1..s_max."""
    return s_max + 3


def converge_T_n3(p: int, s_max: int, count: int, seed: int, N: int,
                  beta: int = 1) -> Check:
    """n = 3 protocol: truncations against the series, then with prefactors.

    Samples put u_2 in the zero disc and u_1 in the disc of beta**2; the
    polynomial side carries u_1**((p**s-3)/2) and the series side
    w(beta) u_1**(-3/2) via a Hensel square root.  At n = 3 the sums carry
    no u_1 and their u_2 is the x_2 of the zone sums.
    """
    if N < least_precision(s_max):
        raise PrecisionError(f"N={N} too small for s_max={s_max}")
    _check_desk(p, 3, 1, s_max, count, N)
    rows, constant_term_vals = [], {}
    u2s = sample_disc(p, DiscSpec(0), count, seed, N)
    alpha = (beta * beta) % p
    u1s = sample_disc(p, DiscSpec(alpha), count, seed + 1, N)
    omega_beta = teichmuller(PAdic(p, N, beta))

    cutoff = max((p ** s_max - 1) // 2, N)  # discarded tail sits below precision
    points = [(u2,) for u2 in u2s]
    series_vals = _series_sums(3, 1, cutoff, points, p, N)
    const_series = series_constant_vector(p, 3, 1, N)
    scales = [omega_beta * (u1 * hensel_sqrt(u1, beta)).inverse() for u1 in u1s]

    for s in range(1, s_max + 1):
        inst = KZInstance(3, ModulusContext(p, s))
        M = inst.ctx.half
        trunc_vals = _truncation_sums(3, 1, M, points, p, N)
        envelope = difference_envelope(p, s, 3, 1, cutoff, False)

        # truncation vs series, no prefactor
        rows.append(_phase_row(s, "series-only", (
            [PAdic(p, N, a - b) for a, b in zip(tvals, svals)]
            for tvals, svals in zip(trunc_vals, series_vals)), envelope, N))

        # constant-term distance (exactly p**-s)
        cvec = constant_vector(inst, 1)
        cdiff = [PAdic(p, N, c) - sc for c, sc in zip(cvec, const_series)]
        constant_term_vals[str(s)] = _vector_val(cdiff)  # str keys fix the artifact's order

        # with prefactor: u1**((p**s - 3)/2) T vs w(beta) u1**(-3/2) T-series
        rows.append(_phase_row(s, "with-prefactor", (
            [u1 ** (M - 1) * tv - rhs_scale * sv for tv, sv in zip(tvals, svals)]
            for u1, rhs_scale, tvals, svals in zip(u1s, scales, trunc_vals, series_vals)),
            min(envelope, s + 1), N))

    check = _settle(rows, p=p, n=3, l=1, seed=seed, samples=count, precision=N,
                    constant_term_vals=constant_term_vals, notes=[])
    if check.precision_exhausted:
        check.notes.append("some differences vanished at working precision")
    return check


def converge_Q_general(p: int, n: int, l: int, s_max: int, count: int, seed: int,
                       N: int, beta: int = 1) -> Check:
    """x-coordinate protocol: x_1**M Q-truncation vs w(beta) x_1**(-1/2) Q-series.

    Samples put x_1 in the disc of beta**2 and x_2..x_{n-1} in the zero disc.
    """
    if N < least_precision(s_max):
        raise PrecisionError(f"N={N} too small for s_max={s_max}")
    check_index(n, l)
    KZInstance(n, ModulusContext(p, 1))     # p and n are checked before any work
    _check_desk(p, n, l, s_max, count, N)
    rows = []
    alpha = (beta * beta) % p
    x1s = sample_disc(p, DiscSpec(alpha), count, seed, N)
    rest = [sample_disc(p, DiscSpec(0), count, seed + 10 + i, N) for i in range(n - 2)]
    points = [tuple(col[k] for col in rest) for k in range(count)]
    omega_beta = teichmuller(PAdic(p, N, beta))

    cutoff = max((p ** s_max - 1) // 2, N)  # discarded tail sits below precision
    series_vals = _series_sums(n, l, cutoff, points, p, N)
    scales = [omega_beta * hensel_sqrt(x1, beta).inverse() for x1 in x1s]

    for s in range(1, s_max + 1):
        M = (p ** s - 1) // 2
        trunc_vals = _truncation_sums(n, l, M, points, p, N)
        bound = difference_envelope(p, s, n, l, cutoff, True)
        rows.append(_phase_row(s, "J-form", (
            [x1 ** M * tv - rhs_scale * sv for tv, sv in zip(tvals, svals)]
            for x1, rhs_scale, tvals, svals in zip(x1s, scales, trunc_vals, series_vals)),
            bound, N))

    return _settle(rows, p=p, n=n, l=l, seed=seed, samples=count, precision=N,
                   constant_term_vals={}, notes=[])


# -- disjointness of the n = 5 convergence domains ---------------------------------------

def disjoint_domain_probe(p: int, count: int, seed: int) -> Check:
    """Membership predicates of the two n=5 convergence domains never overlap.

    Points are sampled with valuations in [-2, 2] per coordinate.  The first
    domain needs u_1**3 u_2**2 u_3 to be a unit while u_3 sits in the zero
    disc; the second needs u_1 a unit with u_2 in the zero disc.  Jointly
    they would force val(u_3) = -2 val(u_2) <= -2 and val(u_3) >= 1 at once.
    """
    rng = random.Random(seed)
    squares = {a for a in range(1, p) if legendre(a, p) == 1}

    def sample_coord():
        val = rng.randrange(-2, 3)
        unit = rng.randrange(1, p ** 4)
        while unit % p == 0:
            unit = rng.randrange(1, p ** 4)
        return val, unit

    def in_unit_disc(val, unit):
        return val == 0 and (unit % p) in squares

    first = second = both = 0
    for _ in range(count):
        coords = [sample_coord() for _ in range(4)]
        (v1, a1), (v2, a2), (v3, a3), (v4, a4) = coords
        x1_val = 3 * v1 + 2 * v2 + v3
        x1_unit = (a1 ** 3 * a2 ** 2 * a3) % p
        p1 = (x1_val == 0 and x1_unit in squares
              and v2 + v3 >= 1 and v3 >= 1 and v4 >= 1)
        p2 = (in_unit_disc(v1, a1)
              and v2 >= 1 and v2 + v3 >= 1 and v2 + v3 + v4 >= 1)
        first += p1
        second += p2
        both += p1 and p2
    reason = ("first domain forces val(u2^2 u3) = 0 with val(u1) = 0, "
              "second forces val(u2) >= 1, hence val(u3) <= -2, "
              "contradicting val(u3) >= 1 in the first")
    return Check(passed=both == 0, points=count, in_first=first, in_second=second,
                 in_both=both, reason=reason)


# -- the classical one-variable partial sums ----------------------------------------------

def classic_partial_sums(p: int, s_values) -> Check:
    """Compare sum binom(-1/2,k)**2 z**k with sum binom(M,k)**2 z**k mod p**s.

    The comparison is coefficientwise and exact; a row lists each mismatch
    as [k, half-binomial residue, integer-binomial residue], the residues as
    decimal strings.  The report also records the provable refinement:
    coefficient k of the difference, binom(-1/2,k)**2 - binom(M,k)**2, has
    valuation at least s - v_p(k!), which forces the coefficientwise p-adic
    limit but is weaker than agreement mod p**s once k reaches p.
    """
    ModulusContext(p, 1)  # validates that p is an odd prime
    rows = []
    for s in s_values:
        M = (p ** s - 1) // 2
        mod = p ** s
        mismatches = []
        refined = True
        for k in range(M + 1):
            half_sq = binom_half_fraction(0, k) ** 2
            int_sq = math.comb(M, k) ** 2
            lhs = PAdic.from_fraction(half_sq, p, s).residue
            rhs = int_sq % mod
            if lhs != rhs:
                mismatches.append([k, str(lhs), str(rhs)])
            dval = fraction_valuation(half_sq - int_sq, p)
            need = s - (int_valuation(math.factorial(k), p) or 0)
            if dval is not None and dval < need:
                refined = False
        rows.append({"s": s, "coefficientwise_equal": not mismatches,
                     "mismatches": mismatches, "refined_ok": refined})
    return Check(passed=all(r["coefficientwise_equal"] for r in rows), p=p, rows=rows)
