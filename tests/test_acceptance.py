"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact (no tolerances); the convergence criteria use
seeded samples compared against proven valuation bounds.

Criterion 8 compares the one-variable truncations
T_s(z) = sum_{k <= (p**s-1)/2} binom((p**s-1)/2, k)**2 z**k with
F(z) = sum_k binom(-1/2, k)**2 z**k.  Taken literally (coefficientwise
agreement mod p**s) the statement holds only at s = 1: for s >= 2 the
first gap is at k = p.  What is provable, and asserted, is that coefficient
k of F - T_s has valuation at least s - v_p(k!), so T_s approximates F with
a precision that grows with s; see the README.
"""

import math
import random
from fractions import Fraction

from kz_padic.asymptotic import factorization_report, truncated_expansion
from kz_padic.cartier import verify_grading_relation, verify_iterated_product
from kz_padic.convergence import (
    classic_partial_sums,
    converge_Q_general,
    converge_T_n3,
    disjoint_domain_probe,
    sample_disc,
    DiscSpec,
)
from kz_padic.kz import KZInstance, verify_solution
from kz_padic.padic import (
    PAdic,
    binom_prime_power_valuation,
    binom_shift_valuation,
    hensel_sqrt,
    int_valuation,
    teichmuller,
)
from kz_padic.solutions import (
    extract_at_index,
    extract_solution,
    leading_term_vector,
    leading_vector_of,
    master_component,
    solution_from_formula,
    verify_shift_relation,
)
from kz_padic.sparsepoly import ModulusContext

GRID = [(5, 1, 3), (5, 2, 3), (5, 3, 3), (7, 1, 3), (7, 2, 3),
        (5, 1, 5), (5, 2, 5), (7, 1, 5)]


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


def _instance(p, s, n):
    return KZInstance(n, ModulusContext(p, s))


def test_criterion_1_exact_kz_verification():
    """Every extracted solution has zero residual and zero coordinate sum."""
    ok = True
    for p, s, n in GRID:
        inst = _instance(p, s, n)
        for l in range(1, inst.g + 1):
            rec = extract_solution(inst, None, l)
            check = verify_solution(rec.vector, inst)
            if not check.passed:
                ok = False
    _report("criterion-1 exact KZ verification", ok, f"{len(GRID)} parameter sets")
    assert ok


def test_criterion_2_oracle_equivalence():
    """Closed coefficient formula == fast extraction == full expansion;
    leading terms match their closed form; coordinate sums divisible."""
    ok = True
    for p, s, n in GRID:
        inst = _instance(p, s, n)
        mod = inst.ctx.modulus
        for l in range(1, inst.g + 1):
            fast = extract_solution(inst, None, l).vector
            formula = solution_from_formula(inst, l)
            if formula != fast:
                ok = False
            for j in range(1, n + 1):
                oracle = master_component(inst, None, j).slice_power("x", l * p ** s - 1)
                if oracle != fast[j - 1]:
                    ok = False
            if leading_term_vector(inst, l) != leading_vector_of(fast):
                ok = False
            if not fast.sum_entries().reduce_mod(mod).is_zero():
                ok = False
    _report("criterion-2 oracle equivalence", ok)
    assert ok


def test_criterion_3_general_exponents_and_valuations():
    """Randomized admissible exponent vectors still verify; the raising
    identity is exact; the two binomial valuation laws hold on full grids."""
    ok = True
    rng = random.Random(2024)
    p, s, n = 5, 2, 3
    inst = _instance(p, s, n)
    for _ in range(3):
        mvec = tuple(inst.ctx.half + inst.ctx.modulus * rng.randrange(0, 3)
                     for _ in range(n))
        for t in (1, 2):
            vec = extract_at_index(inst, mvec, 1 * p ** t - 1)
            if not verify_solution(vec, inst.level(t)).passed:
                ok = False
    for (j, l, r) in [(1, 1, 2), (2, 1, 1), (3, 1, 2)]:
        if not verify_shift_relation(inst, None, j, l, r).passed:
            ok = False

    for q in (3, 5, 7):
        for sv in (1, 2, 3):
            for a in range(1, q ** sv + 1):
                if binom_prime_power_valuation(q, sv, a) != sv - int_valuation(a, q):
                    ok = False
            for r in range(sv):
                for m in (1, 2, 3, 4):
                    if m % q == 0:
                        continue
                    for l in (1, 2, 3):
                        if binom_shift_valuation(q, sv, r, m, l) < sv - r:
                            ok = False
    _report("criterion-3 general exponents, raising identity, valuation grids", ok)
    assert ok


def test_criterion_4_cartier_manin():
    """Multiplication by p acts through the twisted Cartier-Manin matrix."""
    ok = True
    for p, n, t in [(5, 3, 2), (5, 3, 3), (7, 3, 2), (5, 5, 2)]:
        inst = _instance(p, t, n)
        if not verify_grading_relation(inst, t).passed:
            ok = False
    inst = _instance(5, 3, 3)
    if verify_iterated_product(inst, 3, 2).reformulation_ok is not True:
        ok = False
    _report("criterion-4 Cartier-Manin grading and iterated product", ok)
    assert ok


def test_criterion_5_zone_factorization():
    """Hat solution == prefactor * closed truncation with the stated constant
    term; the n=3 truncation is the explicit two-binomial pattern."""
    ok = True
    for p, s, n in GRID:
        inst = _instance(p, s, n)
        for l in range(1, inst.g + 1):
            rep = factorization_report(inst, l)
            if not rep.passed:
                ok = False
    for p, s, n in GRID:
        if n != 3:
            continue
        inst = _instance(p, s, n)
        M = inst.ctx.half
        st = truncated_expansion(inst, 1)
        expected = {}
        for a in range(M):
            expected[(a, a)] = (math.comb(M - 1, a) * math.comb(M, a), 0, 0)
            expected[(a + 1, a)] = (
                0,
                math.comb(M, a + 1) * math.comb(M - 1, a),
                math.comb(M, a + 1) * math.comb(M, a),
            )
        expected = {k: v for k, v in expected.items() if any(v)}
        if st.coeffs != expected:
            ok = False
    _report("criterion-5 asymptotic-zone factorization", ok)
    assert ok


def test_criterion_6_convergence_n3():
    """p=5, N=12, 50 seeded samples, s = 1..4: every sampled difference
    meets the valuation bound, the max norm strictly decreases, and the
    constant-term distance is exactly p**-s."""
    report = converge_T_n3(5, 4, 50, 0, 12)
    ok = (report.passed
          and report.constant_term_vals == {"1": 1, "2": 2, "3": 3, "4": 4}
          and all(r["bound_ok"] for r in report.rows)
          and not report.precision_exhausted)
    _report("criterion-6 p-adic convergence n=3", ok,
            "measured vals " + str([r["measured_val"] for r in report.rows
                                    if r["phase"] == "with-prefactor"]))
    assert ok


def test_criterion_7_convergence_n5():
    """Same protocol at n=5 for both indices, plus domain disjointness."""
    ok = True
    for l in (1, 2):
        report = converge_Q_general(5, 5, l, 2, 50, 0, 10)
        if not report.passed:
            ok = False
    probe = disjoint_domain_probe(5, 10_000, 0)
    if not probe.passed or probe.in_first == 0 or probe.in_second == 0:
        ok = False
    _report("criterion-7 p-adic convergence n=5 + disjoint domains", ok,
            f"overlap {probe.in_both}/10000")
    assert ok


def _val(q: Fraction, p: int):
    """p-adic valuation of a nonzero rational; None for zero."""
    if q == 0:
        return None
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _binom_minus_half(k: int) -> Fraction:
    """binom(-1/2, k) from the defining product prod_{j<k} (-1/2 - j)/(j + 1)."""
    out = Fraction(1)
    for j in range(k):
        out *= (Fraction(-1, 2) - j) / (j + 1)
    return out


def test_criterion_8_classic_partial_sums():
    """T_s approximates F coefficientwise with a precision that grows with s.

    At p = 5 and s = 1..3: (a) at s = 1 the partial sums agree mod p
    coefficientwise; (b) coefficient k of F - T_s has valuation at least
    s - v_p(k!), recomputed here from Fraction and math.comb alone; (c) the
    literal mod-p**s gaps reported by classic_partial_sums are exactly those
    of the independent recomputation; (d) the report's refined flag holds.

    The literal statement (agreement mod p**s for every s) is false for
    s >= 2: at s = 2, k = 5 the residues are 4 vs 14 mod 25.  The printed
    line names the first literal gap for each s.
    """
    p, s_values = 5, [1, 2, 3]
    report = classic_partial_sums(p, s_values)
    assert [row["s"] for row in report.rows] == s_values

    # (a) the literal statement at s = 1
    assert report.rows[0]["coefficientwise_equal"]

    for row in report.rows:
        s = row["s"]
        M, mod = (p ** s - 1) // 2, p ** s
        expected = []
        for k in range(M + 1):
            half_sq = _binom_minus_half(k) ** 2
            int_sq = math.comb(M, k) ** 2
            # (b) the provable precision of coefficient k of F - T_s
            dval = _val(half_sq - int_sq, p)
            need = s - _val(Fraction(math.factorial(k)), p)
            assert dval is None or dval >= need, (s, k, dval, need)
            lhs = half_sq.numerator * pow(half_sq.denominator, -1, mod) % mod
            rhs = int_sq % mod
            if lhs != rhs:
                expected.append([k, str(lhs), str(rhs)])
        # (c) the reported literal gaps match the independent computation
        assert row["mismatches"] == expected, s
        assert row["coefficientwise_equal"] == (not expected)
        # (d) the report's own refined check agrees
        assert row["refined_ok"], s

    assert report.rows[1]["mismatches"][0] == [5, "4", "14"]

    detail = "; ".join(
        f"s={row['s']}: " + ("equal" if row["coefficientwise_equal"] else
                          "first literal gap k={} ({} vs {} mod {})".format(
                              *row["mismatches"][0], p ** row["s"]))
        for row in report.rows
    )
    _report("criterion-8 classical partial sums within p**(s - v_p(k!))",
            True, detail)


def test_criterion_9_padic_kernel():
    """Teichmuller fixed points, exact Hensel square roots, and the
    power-tower step inequality on seeded samples."""
    ok = True
    for p in (5, 7):
        for t in range(p):
            w = teichmuller(PAdic(p, 12, t))
            if (w ** p) != w or w.residue % p != t:
                ok = False
    rng = random.Random(99)
    for p in (5, 7):
        for _ in range(25):
            beta = rng.randrange(1, p)
            alpha = beta * beta % p
            t = PAdic(p, 12, alpha + p * rng.randrange(p ** 11))
            y = hensel_sqrt(t, beta)
            if y * y != t or y.residue % p != beta:
                ok = False
    samples = sample_disc(5, DiscSpec(1), 50, 5, 12) + sample_disc(5, DiscSpec(0), 50, 6, 12)
    assert len(samples) == 100
    for t in samples:
        for s in (1, 2, 3):
            diff = t ** (5 ** (s + 1)) - t ** (5 ** s)
            if diff.norm_exponent() < s + 1:
                ok = False
    _report("criterion-9 p-adic kernel unit checks", ok)
    assert ok
