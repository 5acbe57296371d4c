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
(j < n) and binom(M, e) elsewhere, rows of ``sparsepoly.binomial_row``;
binom(-3/2, e) and binom(-1/2, e) for the series, rows of
``padic.binom_half_rows``.  Its x-monomial is prod_i x_i**a_i over the visible slots, with
x = 1 on the balance slot.  The indices fill the two hyperplanes
left sum - right sum = offset, with offset l - 1 for j <= n-2l and l above.
So, with the per-slot rows and block products

    row_i(t) = sum_e c_i(e) x_i**e t**e,
    L(t) = prod_{i in left} row_i(t),      R(t) = prod_{i in right} row_i(t),

component j at the point is

    x_{j+1}**[j <= n-2l-1] * sum_r [t**r] R(t) * [t**(r + offset)] L(t).

The visible coordinates of every sample lie in the zero disc, so x_i**e
vanishes mod p**N once e * v_p(x_i) >= N: each row stops there, and the
balance row at what the right block can reach.  The powers depend on the
point alone, so one table per coordinate serves the series and every
level.  For the series this per-slot box and the degree-<=cutoff simplex
agree mod p**N whenever cutoff >= N - 1, since the extra terms have
visible degree above N - 1; the protocols take cutoff >= N.
Only the envelope lists indices: those of ``asymptotic.zone_runs`` up to degree s.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .asymptotic import (
    check_index,
    coefficient_difference_bound,
    constant_vector,
    series_constant_vector,
    x_monomial,
    zone_runs,
)
from .kz import Check, KZInstance
from .padic import (
    PAdic,
    PrecisionError,
    binom_half_fraction,
    binom_half_rows,
    fraction_valuation,
    hensel_sqrt,
    int_valuation,
    legendre,
    teichmuller,
)
from .sparsepoly import ModulusContext, binomial_row, desk_check, digits


def sample_disc(p: int, alpha: int, count: int, seed: int, N: int) -> list:
    """Deterministic samples of the open disc |t - w(alpha)| < 1: alpha mod p, uniform above."""
    if N < 2:
        raise PrecisionError("working precision must exceed the disc depth 1")
    rng = random.Random(seed)
    return [PAdic(p, N, alpha % p + p * rng.randrange(p ** (N - 1))) for _ in range(count)]


# -- Teichmuller power-tower convergence -------------------------------------------

def check_xps_convergence(p: int, alpha: int, samples, s_max: int, N: int) -> Check:
    """Per sample t: |t**(p**(s+1)) - t**(p**s)| <= p**-(s+1), and the tower
    at s_max sits within p**-s_max of the Teichmuller limit."""
    if s_max + 1 >= N:
        raise PrecisionError("increase N to resolve the requested s_max")
    if not samples:
        raise ValueError("no samples: the check would pass vacuously")
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
    if not rows:                        # with no row the check would pass vacuously
        raise ValueError("no level s gives a row in the hypothesis range")
    smallest = next((s for s in sorted(per_s_ok) if per_s_ok[s]), None)
    return Check(passed=all(r["ok"] for r in rows), rows=rows, smallest_passing_s=smallest)


# -- zone sums by per-slot generating functions ---------------------------------------

def _pack(row, bits: int, reverse: bool = False) -> int:
    """A row as one int: coefficient e in field e of ``bits`` bits, or in
    field len(row) - 1 - e when ``reverse``."""
    packed = 0
    for c in (row if reverse else reversed(row)):
        packed = packed << bits | c
    return packed


def _product_muladds(caps) -> int:
    """Multiply-adds of a schoolbook product of rows of degrees ``caps``, in order."""
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


def _block_sums(block: int, l: int, plain_rows, special_rows, m: int) -> list:
    """Component j's sum_r R(r) L(r + offset), j = 1..n, up to multiples of m.

    The left block is the first ``block`` slots, the right one the rest; in
    component j < n slot j - 1 takes its distinguished row.  At n = 3 each
    block is one row and each component one dot product.  Above, each row
    is packed into one int, the right block's reversed, so the product of
    all n - 1 rows is L times R reversed about D, the right block's degree,
    and its field D + offset is the inner product; no product is unpacked.
    With prefix and suffix products of the plain rows, swapping in one
    distinguished row costs two products.
    """
    if len(plain_rows) == 2:
        (left, right), (left_j, right_j) = plain_rows, special_rows
        return [sum(c * d for c, d in zip(right, left_j[l - 1:])),
                sum(c * d for c, d in zip(right_j, left[l:])),
                sum(c * d for c, d in zip(right, left[l:]))]
    caps = [len(row) - 1 for row in plain_rows]
    n = len(caps) + 1
    D = sum(caps[block:])
    top = D + l + 1                     # no inner product reads a field above D + l
    # No carries: every product is folded below 'small', and a field of a
    # product of two folded values sums at most top products below small**2.
    # A fold at h replaces each field f by (f mod 2**h) + (f >> h) * (2**h mod m),
    # congruent mod m; from a folded value times a row, each fold about
    # halves the field's excess over b bits.
    b = (m - 1).bit_length()
    small = 1 << b + 4
    bits = 8 * -(-(2 * (b + 4) + top.bit_length()) // 8)
    keep = (1 << bits * top) - 1
    ones = keep // ((1 << bits) - 1)
    folds = []
    bound = top * small * (m - 1)
    while bound >= small:
        h = (bound.bit_length() + b + 1) // 2
        c = (1 << h) % m
        folds.append((h, ((1 << h) - 1) * ones, ((1 << bits - h) - 1) * ones, c))
        bound = min(bound, (1 << h) - 1) + (bound >> h) * c

    def times(u, v):
        x = u * v & keep
        for h, lo, hi, c in folds:
            x = (x & lo) + (x >> h & hi) * c
        return x

    plain = [_pack(row, bits, i >= block) for i, row in enumerate(plain_rows)]
    special = [_pack(row, bits, i >= block) for i, row in enumerate(special_rows)]
    prefix = [1]                        # prefix[k]: the rows before slot k
    for row in plain[:-1]:
        prefix.append(times(prefix[-1], row))
    suffix = [1]                        # suffix[k]: slot k's row and those after it
    for row in reversed(plain):
        suffix.append(times(row, suffix[-1]))
    suffix.reverse()
    mask = (1 << bits) - 1
    out = [times(prefix[k], special[k]) * suffix[k + 1] >> bits * (D + l - (k < block)) & mask
           for k in range(n - 1)]
    out.append(suffix[0] >> bits * (D + l) & mask)
    return out


def _zone_sums(p: int, n: int, l: int, s_max: int, points, N: int) -> list:
    """Residues mod p**N of the n component sums at each point of the zero
    disc: entry 0 lists them per point for the series, entry s for the
    level-s truncation, s = 1..s_max.

    ``points`` hold x_2..x_{n-1}.  Each point's power tables x_i**e mod p**N
    are built once, cut where x_i**e vanishes mod p**N, and shared by every
    family: a family's slot row is its coefficients c(e) times the powers,
    with x = 1 on the balance slot.  Component j is the x_{j+1}-scaled inner
    product of the block products of the slot rows (see the module docstring).
    """
    m = p ** N
    block = n - 2 * l
    top = _row_top(l, N)
    families = [binom_half_rows(top, p, N)]     # binom(-1/2, e) and binom(-3/2, e)
    for s in range(1, s_max + 1):               # binom(M, e) and binom(M-1, e)
        M = (p ** s - 1) // 2
        families.append([[c % m for c in binomial_row(t, 0, min(M, top)).values()]
                         for t in (M, M - 1)])
    out = [[] for _ in families]
    for point in points:
        tables = []
        for v in point:
            val = v.norm_exponent()
            if val == 0:
                raise ValueError("zone point outside the zero disc")
            powers = [1]
            for _ in range(min(top, -(-N // val) - 1)):
                powers.append(powers[-1] * v.residue % m)
            tables.append(powers)
        for (plain, special), sums in zip(families, out):
            plain_rows = [[c * w % m for c, w in zip(plain, powers)] for powers in tables]
            special_rows = [[c * w % m for c, w in zip(special, powers)] for powers in tables]
            # the balance slot: x = 1, the rows up to what the right block can reach
            cap = min(len(plain) - 1, sum(len(row) - 1 for row in plain_rows[block - 1:]) + l)
            plain_rows.insert(block - 1, plain[:cap + 1])
            special_rows.insert(block - 1, special[:cap + 1])
            values = _block_sums(block, l, plain_rows, special_rows, m)
            sums.append([(value * point[j - 1].residue if j < block else value) % m
                         for j, value in enumerate(values, 1)])
    return out


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
    walk = sum(2 * math.comb(s + n - 2, n - 2) for s in range(1, s_max + 1))
    return count * per_sample * digits((p ** N).bit_length()) + n * n * walk


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
               for comps, run in zone_runs(n, l, None, min(cutoff, s))
               for a in run for j in comps)
    floors = [tail_floor(cutoff), best]
    if with_prefactor:
        floors.append(s + 1)
    return min(floors)


# -- convergence experiments ------------------------------------------------------------

def _vector_val(diffs, p: int, N: int) -> int:
    """The least ``PAdic(p, N, d).norm_exponent()`` over the ints d of ``diffs``."""
    return int_valuation(math.gcd(p ** N, *diffs), p)


def _phase_row(s: int, phase: str, bound: int, p: int, N: int,
               trunc_vals, series_vals, powers, scales) -> dict:
    """Least valuation over the samples of power * truncation - scale * series,
    on residues mod p**N, against the bound.

    The row is clamped when that valuation hit the precision floor N.
    """
    vals = [_vector_val([a * tv - b * sv for tv, sv in zip(tvals, svals)], p, N)
            for a, b, tvals, svals in zip(powers, scales, trunc_vals, series_vals)]
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


def _check_run(p: int, n: int, l: int, s_max: int, count: int, N: int) -> KZInstance:
    """Refuse, before any work, a run with no rows or no samples (it would pass
    vacuously), bad parameters, or work above the desk budget; else the
    instance at level s_max, whose ``level`` gives the others."""
    if s_max < 1 or count < 1:
        raise ValueError(f"need s_max >= 1 and count >= 1, got {s_max} and {count}")
    if N < least_precision(s_max):
        raise PrecisionError(f"N={N} too small for s_max={s_max}")
    check_index(n, l)
    inst = KZInstance(n, ModulusContext(p, s_max))  # an odd prime p >= n and an odd n >= 3
    desk_check(convergence_cost(p, n, l, s_max, count, N), "convergence run")
    return inst


def converge_T_n3(p: int, s_max: int, count: int, seed: int, N: int) -> Check:
    """n = 3 protocol: truncations against the series, then with prefactors.

    Samples put u_2 in the zero disc and u_1 in the disc of 1; the
    polynomial side carries u_1**((p**s-3)/2) and the series side
    u_1**(-3/2) via the Hensel square root on the branch 1.  At n = 3 the
    sums carry no u_1 and their u_2 is the x_2 of the zone sums.
    """
    top = _check_run(p, 3, 1, s_max, count, N)
    rows, constant_term_vals = [], {}
    u2s = sample_disc(p, 0, count, seed, N)
    u1s = sample_disc(p, 1, count, seed + 1, N)

    cutoff = max((p ** s_max - 1) // 2, N)  # discarded tail sits below precision
    points = [(u2,) for u2 in u2s]
    series_vals, *level_vals = _zone_sums(p, 3, 1, s_max, points, N)
    const_series = series_constant_vector(p, 3, 1, N)
    scales = [(u1 * hensel_sqrt(u1, 1)).inverse().residue for u1 in u1s]
    ones = [1] * count

    for s, trunc_vals in enumerate(level_vals, 1):
        inst = top.level(s)
        M = inst.ctx.half
        envelope = difference_envelope(p, s, 3, 1, cutoff, False)

        # truncation vs series, no prefactor
        rows.append(_phase_row(s, "series-only", envelope, p, N,
                               trunc_vals, series_vals, ones, ones))

        # constant-term distance (exactly p**-s); str keys fix the artifact's order
        constant_term_vals[str(s)] = _vector_val(
            [c - sc.residue for c, sc in zip(constant_vector(inst, 1), const_series)], p, N)

        # with prefactor: u1**((p**s - 3)/2) T vs u1**(-3/2) T-series
        rows.append(_phase_row(s, "with-prefactor", min(envelope, s + 1), p, N, trunc_vals,
                               series_vals, [pow(u.residue, M - 1, p ** N) for u in u1s], scales))

    check = _settle(rows, p=p, n=3, l=1, seed=seed, samples=count, precision=N,
                    constant_term_vals=constant_term_vals, notes=[])
    if check.precision_exhausted:
        check.notes.append("some differences vanished at working precision")
    return check


def converge_Q_general(p: int, n: int, l: int, s_max: int, count: int, seed: int,
                       N: int) -> Check:
    """x-coordinate protocol: x_1**M Q-truncation vs x_1**(-1/2) Q-series.

    Samples put x_1 in the disc of 1, where the square root takes the
    branch 1, and x_2..x_{n-1} in the zero disc.
    """
    _check_run(p, n, l, s_max, count, N)
    rows = []
    x1s = sample_disc(p, 1, count, seed, N)
    rest = [sample_disc(p, 0, count, seed + 10 + i, N) for i in range(n - 2)]
    points = [tuple(col[k] for col in rest) for k in range(count)]

    cutoff = max((p ** s_max - 1) // 2, N)  # discarded tail sits below precision
    series_vals, *level_vals = _zone_sums(p, n, l, s_max, points, N)
    scales = [hensel_sqrt(x1, 1).inverse().residue for x1 in x1s]

    for s, trunc_vals in enumerate(level_vals, 1):
        M = (p ** s - 1) // 2
        bound = difference_envelope(p, s, n, l, cutoff, True)
        rows.append(_phase_row(s, "J-form", bound, p, N, trunc_vals, series_vals,
                               [pow(x1.residue, M, p ** N) for x1 in x1s], scales))

    return _settle(rows, p=p, n=n, l=l, seed=seed, samples=count, precision=N,
                   constant_term_vals={}, notes=[])


# -- disjointness of the n = 5 convergence domains ---------------------------------------

# A cell is (w1, w2, w3, w4, c1, c3): w_i = val(u_i) + 2 for valuations in
# [-2, 2], and c_i = chi(a_i), the Legendre symbol of u_i's unit a_i.  With
# w = val + 2, val(u1**3 u2**2 u3) = 0 is 3 w1 + 2 w2 + w3 = 12, val >= 1 is
# w >= 3, and a sum of k valuations >= 1 is a sum of w >= 2k + 1.

def _in_first(w1: int, w2: int, w3: int, w4: int, c1: int, c3: int) -> bool:
    """u1**3 u2**2 u3 a unit square; u3, u4 and u2 u3 in the zero disc."""
    return (w3 >= 3 and w4 >= 3 and w2 + w3 >= 5
            and 3 * w1 + 2 * w2 + w3 == 12 and c1 == c3)


def _in_second(w1: int, w2: int, w3: int, w4: int, c1: int, c3: int) -> bool:
    """u1 a unit square; u2, u2 u3 and u2 u3 u4 in the zero disc."""
    return (w1 == 2 and c1 == 1 and w2 >= 3
            and w2 + w3 >= 5 and w2 + w3 + w4 >= 7)


def disjoint_domain_probe() -> Check:
    """Membership predicates of the two n=5 convergence domains never overlap.

    The first domain needs u_1**3 u_2**2 u_3 to be a unit square while u_3
    sits in the zero disc; the second needs u_1 a unit square with u_2 in
    the zero disc.  Jointly they would force val(u_3) = -2 val(u_2) <= -2
    and val(u_3) >= 1 at once.  A pass needs cells in both domains and none
    in their intersection.

    The predicates read each coordinate only through its valuation in
    [-2, 2] and the Legendre symbol chi of its unit, and of the symbols
    only chi(a_1) and chi(a_3): chi(a_2) enters squared and chi(a_4) not at
    all.  So every cell they can tell apart is enumerated, 5**4 valuation
    patterns times 2**2 symbol pairs, 2,500 cells.  Every odd p has both
    square classes, so every cell holds points for every p and the answer
    does not depend on p.  ``first_overlap`` gives the first cell in both
    domains as its valuations and symbols, or None.
    """
    first = second = both = 0
    overlap = None
    for cell in itertools.product(*[range(5)] * 4, (1, -1), (1, -1)):
        p1 = _in_first(*cell)
        p2 = _in_second(*cell)
        first += p1
        second += p2
        if p1 and p2:
            both += 1
            if overlap is None:
                overlap = {"val": [w - 2 for w in cell[:4]], "chi": list(cell[4:])}
    reason = ("first domain forces val(u2^2 u3) = 0 with val(u1) = 0, "
              "second forces val(u2) >= 1, hence val(u3) <= -2, "
              "contradicting val(u3) >= 1 in the first")
    return Check(passed=both == 0 and first > 0 and second > 0, cells=5 ** 4 * 2 ** 2,
                 in_first=first, in_second=second, in_both=both, first_overlap=overlap,
                 reason=reason)


# -- the classical one-variable partial sums ----------------------------------------------

def classic_cost(p: int, s: int) -> int:
    """Work of level s of ``classic_partial_sums``, in desk units: a conservative bound.

    It counts M + 10 big-int operations for each k <= M = (p**s - 1)/2 on
    integers of at most max(6M, M (bitlen(M) + 1)) bits, the cost of a level
    when each k rebuilt binom(-1/2, k) and k!; with running products a k
    makes about ten operations on integers below 4**M.  One unit is 256
    digit operations: a digit of a big-int operation takes 0.6-2.9 ns, the
    interpreted step of the other units 0.2-0.8 us.
    """
    M = (p ** s - 1) // 2
    return (M + 1) * (M + 10) * digits(M * max(6, M.bit_length() + 1)) // 256


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
    cost = 0
    for s in s_values:      # the running sum stops at the first level past the budget
        cost += classic_cost(p, s)
        desk_check(cost, f"classic comparison up to level {s}")
    rows = []
    for s in s_values:
        M = (p ** s - 1) // 2
        mod = p ** s
        mismatches = []
        refined = True
        # binom(2k, k), binom(M, k) and v_p(k!) as running products in k, since
        # binom(-1/2, k)**2 = binom(2k, k)**2 / 16**k
        central, binom, fact_val = 1, 1, 0
        for k in range(M + 1):
            lhs = (central % mod) ** 2 * pow(16, -k, mod) % mod
            rhs = (binom % mod) ** 2 % mod
            if lhs != rhs:
                mismatches.append([k, str(lhs), str(rhs)])
            # the difference's valuation reaches s - v_p(k!) <= s iff it does mod p**s
            refined = refined and (fact_val >= s or (lhs - rhs) % p ** (s - fact_val) == 0)
            central = central * (4 * k + 2) // (k + 1)
            binom = binom * (M - k) // (k + 1)
            fact_val += int_valuation(k + 1, p)
        rows.append({"s": s, "coefficientwise_equal": not mismatches,
                     "mismatches": mismatches, "refined_ok": refined})
    if not rows:
        raise ValueError("no levels s to compare")
    return Check(passed=all(r["coefficientwise_equal"] for r in rows), p=p, rows=rows)
