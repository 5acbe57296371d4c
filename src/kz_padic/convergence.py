"""Seeded p-adic convergence experiments for the zone expansions.

All measurements compare against proven upper bounds, so sampling can only
strengthen the evidence, never fake a pass: a sampled sup-norm is a lower
bound for the true sup, and every PASS criterion is "measured <= bound".
Norms that vanish at working precision are treated as intervals and flagged
rather than silently counted as zero.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .asymptotic import (
    coefficient_difference_bound,
    component_polynomials,
    components_of_class,
    constant_vector,
    index_class,
    limit_series,
    series_constant_vector,
    truncated_expansion,
    u_monomial,
    x_monomial,
)
from .kz import KZInstance
from .padic import (
    DiscSpec,
    PAdic,
    PrecisionError,
    binom_half_fraction,
    fraction_valuation,
    hensel_sqrt,
    int_valuation,
    legendre,
    teichmuller,
)
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

@dataclass
class PowerTowerReport:
    step_bounds_ok: bool
    limit_bound_ok: bool
    worst_step_val: int

    @property
    def passed(self) -> bool:
        return self.step_bounds_ok and self.limit_bound_ok


def check_xps_convergence(p: int, alpha: int, samples, s_max: int, N: int) -> PowerTowerReport:
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
    return PowerTowerReport(steps_ok, limit_ok, worst)


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

@dataclass
class BinBoundRow:
    s: int
    a: int
    valuation: int | None   # None: difference exactly zero
    bound: int
    active: bool
    ok: bool


@dataclass
class BinBoundReport:
    rows: list
    smallest_passing_s: int | None

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def check_bin_bound(p: int, l1: int, l2: int, a_max: int, s_values) -> BinBoundReport:
    """|binom(-1/2-l1, l2+a) - binom((p**s-1)/2-l1, l2+a)| <= p**-(s-(l1+l2)-a).

    Exact rational arithmetic; the integer bound uses ceil(d) = l1 + l2 for
    d = l1 + l2 - 1/2.  Rows outside the hypothesis range are skipped.
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
            rows.append(BinBoundRow(s, a, val, bound, bound > 0, ok))
            per_s_ok[s] = per_s_ok.get(s, True) and ok
    smallest = next((s for s in sorted(per_s_ok) if per_s_ok[s]), None)
    return BinBoundReport(rows, smallest)


# -- evaluation helpers ---------------------------------------------------------------

def _as_padic(c, p: int, N: int) -> PAdic:
    return c if isinstance(c, PAdic) else PAdic(p, N, c)


def evaluate_poly_dict(poly: dict, point, p: int, N: int) -> PAdic:
    """Evaluate an exponent->coefficient map at a tuple of p-adic values.

    Coefficients are ints or ``PAdic`` values at precision N.  The work is
    done on residues mod p**N: one table of powers per coordinate, each
    term reduced as it is formed.  Only the returned value is a ``PAdic``.
    """
    m = p ** N
    tops = [max(col) for col in zip(*poly)]
    powers = []
    for v, top in zip(point, tops):
        x = v.residue
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x % m)
        powers.append(row)
    total = 0
    for exps, coeff in poly.items():
        term = coeff.residue if isinstance(coeff, PAdic) else coeff
        for row, e in zip(powers, exps):
            if e:
                term = term * row[e] % m
        total += term
    return PAdic(p, N, total)


def tail_floor(cutoff: int) -> int:
    """Valuation floor of the discarded series tail on radius-1/p samples.

    The series is enumerated by visible monomial degree, so every discarded
    term carries a monomial of degree at least cutoff + 1.
    """
    return cutoff + 1


def difference_envelope(p: int, s: int, n: int, l: int, index_sets,
                        cutoff: int, with_prefactor: bool) -> int:
    """Proven valuation floor for |truncation - series| on the sample domain.

    Per stored index and component: monomial valuation (one per unit of
    x-degree on radius-1/p samples) plus the coefficient difference bound.
    The square-root prefactor mismatch contributes s+1; the series tail
    past the cutoff contributes the tail floor.
    """
    best = None
    seen = set()
    for indices in index_sets:
        for a in indices:
            if a in seen:
                continue
            seen.add(a)
            tag = index_class(n, l, a)
            if tag is None:
                continue
            for j in components_of_class(n, l, tag):
                deg = sum(x_monomial(n, l, j, a))
                bound = deg + coefficient_difference_bound(p, s, n, l, a, j)
                best = bound if best is None else min(best, bound)
    floors = [tail_floor(cutoff)]
    if best is not None:
        floors.append(best)
    if with_prefactor:
        floors.append(s + 1)
    return min(floors)


# -- convergence experiments ------------------------------------------------------------

@dataclass
class ConvergenceRow:
    s: int
    measured_val: int       # min valuation of the difference over samples/components
    bound_val: int
    bound_ok: bool          # bound holds at every sample
    clamped: bool           # measurement hit the precision floor
    phase: str = ""


@dataclass
class ConvergenceReport:
    p: int
    n: int
    l: int
    seed: int
    sample_count: int
    precision: int
    rows: list = field(default_factory=list)
    constant_term_vals: dict = field(default_factory=dict)
    strictly_decreasing: bool = False
    precision_exhausted: bool = False
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (all(r.bound_ok for r in self.rows)
                and self.strictly_decreasing and not self.precision_exhausted)

    def to_json(self) -> dict:
        return {
            "p": self.p, "n": self.n, "l": self.l, "seed": self.seed,
            "samples": self.sample_count, "precision": self.precision,
            "rows": [{"s": r.s, "phase": r.phase, "measured_val": r.measured_val,
                      "bound_val": r.bound_val, "bound_ok": r.bound_ok,
                      "clamped": r.clamped} for r in self.rows],
            "constant_term_vals": {str(k): v for k, v in self.constant_term_vals.items()},
            "strictly_decreasing": self.strictly_decreasing,
            "precision_exhausted": self.precision_exhausted,
            "notes": self.notes,
            "pass": self.passed,
        }


def _vector_val(diffs) -> int:
    return min(d.norm_exponent() for d in diffs)


def _evaluate_at(polys, points, p: int, N: int) -> list:
    """Per point, the values of every component polynomial there."""
    return [[evaluate_poly_dict(poly, pt, p, N) for poly in polys] for pt in points]


def converge_T_n3(p: int, s_max: int, count: int, seed: int, N: int,
                  beta: int = 1) -> ConvergenceReport:
    """n = 3 protocol: truncations against the series, then with prefactors.

    Samples put u_2 in the zero disc and u_1 in the disc of beta**2; the
    polynomial side carries u_1**((p**s-3)/2) and the series side
    w(beta) u_1**(-3/2) via a Hensel square root.
    """
    if N < s_max + 3:
        raise PrecisionError(f"N={N} too small for s_max={s_max}")
    report = ConvergenceReport(p, 3, 1, seed, count, N)
    u2s = sample_disc(p, DiscSpec(0), count, seed, N)
    alpha = (beta * beta) % p
    u1s = sample_disc(p, DiscSpec(alpha), count, seed + 1, N)
    omega_beta = teichmuller(PAdic(p, N, beta))

    cutoff = max((p ** s_max - 1) // 2, N)  # discarded tail sits below precision
    series = limit_series(p, 3, 1, cutoff, N)
    points = [(PAdic(p, N, 0), u2) for u2 in u2s]
    series_vals = _evaluate_at(component_polynomials(series, u_monomial), points, p, N)
    const_series = series_constant_vector(p, 3, 1, N)

    prev_plain = prev_full = None
    strict = True
    for s in range(1, s_max + 1):
        inst = KZInstance(3, ModulusContext(p, s))
        trunc = truncated_expansion(inst, 1)
        trunc_vals = _evaluate_at(component_polynomials(trunc, u_monomial), points, p, N)
        envelope = difference_envelope(
            p, s, 3, 1, [trunc.coeffs.keys(), series.coeffs.keys()], cutoff, False)
        bound_full = min(envelope, s + 1)

        # truncation vs series, no prefactor
        plain_vals = []
        plain_ok = True
        for tvals, svals in zip(trunc_vals, series_vals):
            v = _vector_val([a - b for a, b in zip(tvals, svals)])
            plain_vals.append(v)
            if v < envelope:
                plain_ok = False
        measured_plain = min(plain_vals)
        report.rows.append(ConvergenceRow(s, measured_plain, envelope, plain_ok,
                                          measured_plain >= N, "series-only"))

        # constant-term distance (exactly p**-s)
        cvec = constant_vector(inst, 1)
        cdiff = [_as_padic(c, p, N) - sc for c, sc in zip(cvec, const_series)]
        report.constant_term_vals[s] = _vector_val(cdiff)

        # with prefactor: u1**((p**s - 3)/2) T vs w(beta) u1**(-3/2) T-series
        full_vals = []
        full_ok = True
        M = (p ** s - 1) // 2
        for u1, tvals, svals in zip(u1s, trunc_vals, series_vals):
            lhs_scale = u1 ** (M - 1)
            root = hensel_sqrt(u1, beta)
            rhs_scale = omega_beta * (u1 * root).inverse()
            diffs = [lhs_scale * tv - rhs_scale * sv for tv, sv in zip(tvals, svals)]
            v = _vector_val(diffs)
            full_vals.append(v)
            if v < bound_full:
                full_ok = False
        measured_full = min(full_vals)
        report.rows.append(ConvergenceRow(s, measured_full, bound_full, full_ok,
                                          measured_full >= N, "with-prefactor"))

        if prev_plain is not None and measured_plain <= prev_plain:
            strict = False
        if prev_full is not None and measured_full <= prev_full:
            strict = False
        prev_plain, prev_full = measured_plain, measured_full

    report.strictly_decreasing = strict
    report.precision_exhausted = any(r.clamped for r in report.rows)
    if report.precision_exhausted:
        report.notes.append("some differences vanished at working precision")
    return report


def converge_Q_general(p: int, n: int, l: int, s_max: int, count: int, seed: int,
                       N: int, beta: int = 1) -> ConvergenceReport:
    """x-coordinate protocol: x_1**M Q-truncation vs w(beta) x_1**(-1/2) Q-series.

    Samples put x_1 in the disc of beta**2 and x_2..x_{n-1} in the zero disc.
    """
    if N < s_max + 3:
        raise PrecisionError(f"N={N} too small for s_max={s_max}")
    report = ConvergenceReport(p, n, l, seed, count, N)
    alpha = (beta * beta) % p
    x1s = sample_disc(p, DiscSpec(alpha), count, seed, N)
    rest = [sample_disc(p, DiscSpec(0), count, seed + 10 + i, N) for i in range(n - 2)]
    points = [tuple(col[k] for col in rest) for k in range(count)]
    omega_beta = teichmuller(PAdic(p, N, beta))

    cutoff = max((p ** s_max - 1) // 2, N)  # discarded tail sits below precision
    series = limit_series(p, n, l, cutoff, N)
    series_vals = _evaluate_at(component_polynomials(series, x_monomial), points, p, N)

    prev = None
    strict = True
    for s in range(1, s_max + 1):
        inst = KZInstance(n, ModulusContext(p, s))
        trunc = truncated_expansion(inst, l)
        trunc_vals = _evaluate_at(component_polynomials(trunc, x_monomial), points, p, N)
        bound = difference_envelope(
            p, s, n, l, [trunc.coeffs.keys(), series.coeffs.keys()], cutoff, True)
        M = (p ** s - 1) // 2

        vals = []
        ok = True
        for x1, tvals, svals in zip(x1s, trunc_vals, series_vals):
            lhs_scale = x1 ** M
            rhs_scale = omega_beta * hensel_sqrt(x1, beta).inverse()
            diffs = [lhs_scale * tv - rhs_scale * sv for tv, sv in zip(tvals, svals)]
            v = _vector_val(diffs)
            vals.append(v)
            if v < bound:
                ok = False
        measured = min(vals)
        report.rows.append(ConvergenceRow(s, measured, bound, ok, measured >= N, "J-form"))
        if prev is not None and measured <= prev:
            strict = False
        prev = measured

    report.strictly_decreasing = strict
    report.precision_exhausted = any(r.clamped for r in report.rows)
    return report


# -- disjointness of the n = 5 convergence domains ---------------------------------------

@dataclass
class DisjointReport:
    points: int
    in_first: int
    in_second: int
    in_both: int
    reason: str

    @property
    def passed(self) -> bool:
        return self.in_both == 0


def disjoint_domain_probe(p: int, count: int, seed: int) -> DisjointReport:
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
    return DisjointReport(count, first, second, both, reason)


# -- the classical one-variable partial sums ----------------------------------------------

@dataclass
class ClassicRow:
    s: int
    coefficientwise_equal: bool
    mismatches: list        # (k, half-binomial residue, integer-binomial residue)
    refined_ok: bool        # val(coefficient k of the difference) >= s - v_p(k!)


@dataclass
class ClassicReport:
    p: int
    rows: list

    @property
    def passed(self) -> bool:
        return all(r.coefficientwise_equal for r in self.rows)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "rows": [{
                "s": r.s,
                "coefficientwise_equal": r.coefficientwise_equal,
                "mismatches": [[k, str(a), str(b)] for k, a, b in r.mismatches],
                "refined_ok": r.refined_ok,
            } for r in self.rows],
            "pass": self.passed,
        }


def classic_partial_sums(p: int, s_values) -> ClassicReport:
    """Compare sum binom(-1/2,k)**2 z**k with sum binom(M,k)**2 z**k mod p**s.

    The comparison is coefficientwise and exact.  The report also records
    the provable refinement: coefficient k of the difference,
    binom(-1/2,k)**2 - binom(M,k)**2, has valuation at least s - v_p(k!),
    which forces the coefficientwise p-adic limit but is weaker than
    agreement mod p**s once k reaches p.
    """
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
                mismatches.append((k, lhs, rhs))
            dval = fraction_valuation(half_sq - int_sq, p)
            need = s - (int_valuation(math.factorial(k), p) or 0)
            if dval is not None and dval < need:
                refined = False
        rows.append(ClassicRow(s, not mismatches, mismatches, refined))
    return ClassicReport(p, rows)
