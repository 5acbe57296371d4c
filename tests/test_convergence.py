import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kz_padic import convergence
from kz_padic.asymptotic import (
    component_polynomials,
    limit_series,
    truncated_expansion,
    u_monomial,
)
from kz_padic.convergence import (
    DiscSpec,
    check_bin_bound,
    check_xps_convergence,
    classic_partial_sums,
    converge_Q_general,
    converge_T_n3,
    disjoint_domain_probe,
    evaluate_poly_dict,
    nonresidue_alternation,
    sample_disc,
    tail_floor,
)
from kz_padic.kz import KZInstance
from kz_padic.padic import PAdic, PrecisionError, int_valuation
from kz_padic.sparsepoly import ModulusContext


def padic_evaluate(poly, point, p, N):
    """Oracle evaluator: one ``PAdic`` operation per power, term and partial sum."""
    if not poly:
        return PAdic(p, N, 0)
    maxes = [0] * len(point)
    for exps in poly:
        for i, e in enumerate(exps):
            maxes[i] = max(maxes[i], e)
    powers = []
    for v, top in zip(point, maxes):
        row = [PAdic(p, N, 1)]
        for _ in range(top):
            row.append(row[-1] * v)
        powers.append(row)
    total = PAdic(p, N, 0)
    for exps, coeff in poly.items():
        term = coeff if isinstance(coeff, PAdic) else PAdic(p, N, coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * powers[i][e]
        total = total + term
    return total


def test_sample_disc_determinism_and_membership():
    a = sample_disc(5, DiscSpec(2), 10, 42, 8)
    b = sample_disc(5, DiscSpec(2), 10, 42, 8)
    assert a == b
    assert all(t.residue % 5 == 2 for t in a)
    zeros = sample_disc(5, DiscSpec(0), 10, 1, 8)
    assert all(t.norm_exponent() >= 1 for t in zeros)
    assert sample_disc(5, DiscSpec(2), 5, 0, 8) != sample_disc(5, DiscSpec(2), 5, 1, 8)


def test_power_tower_exact_example():
    assert int_valuation(2 ** 25 - 2 ** 5, 5) == 2


def test_power_tower_report():
    samples = sample_disc(5, DiscSpec(2), 25, 3, 12)
    report = check_xps_convergence(5, 2, samples, 4, 12)
    assert report.passed
    # an exact Teichmuller point sits at the precision floor immediately
    from kz_padic.padic import teichmuller

    w = teichmuller(PAdic(5, 12, 2))
    exact = check_xps_convergence(5, 2, [w], 4, 12)
    assert exact.passed


def test_power_tower_requires_precision():
    with pytest.raises(PrecisionError):
        check_xps_convergence(5, 2, [], 12, 12)


def test_nonresidue_has_no_limit():
    for alpha in (2, 3):        # non-squares mod 5
        assert nonresidue_alternation(5, alpha, 1, 10)
        assert nonresidue_alternation(5, alpha, 2, 10)
    with pytest.raises(ValueError):
        nonresidue_alternation(5, 4, 1, 10)


def test_bin_bound_difference_is_half_p_power():
    report = check_bin_bound(5, 0, 0, 1, [1, 2, 3])
    by_key = {(r.s, r.a): r for r in report.rows}
    for s in (1, 2, 3):
        row = by_key[(s, 1)]
        assert row.valuation == s  # difference is exactly -p^s/2
        assert row.bound == s - 1
        assert row.ok
    assert report.passed


def test_bin_bound_degenerate_and_vacuous_rows():
    zero_diff = check_bin_bound(5, 1, 0, 0, [1, 2])
    assert all(r.valuation is None for r in zero_diff.rows if r.a == 0)
    rep = check_bin_bound(5, 0, 0, 2, [2])
    row = [r for r in rep.rows if r.a == 2][0]
    assert row.bound == 0 and not row.active and row.ok
    exact = Fraction(3, 8) - math.comb(12, 2)
    assert int_valuation(exact.numerator, 5) - int_valuation(exact.denominator, 5) == row.valuation


def test_bin_bound_grids():
    for l1 in (0, 1):
        for l2 in (0, 1):
            report = check_bin_bound(7, l1, l2, 5, [1, 2])
            assert report.passed
            assert report.smallest_passing_s == 1


def test_tail_floor():
    assert tail_floor(10) == 11
    assert tail_floor(12) == 13


def test_series_tail_control():
    # raising the cutoff by one moves evaluations by at most p^-(D+1)
    p, N = 5, 10
    for n, l, D in [(3, 1, 4), (5, 1, 3), (5, 2, 3)]:
        small = component_polynomials(limit_series(p, n, l, D, N), u_monomial)
        large = component_polynomials(limit_series(p, n, l, D + 1, N), u_monomial)
        samples = [
            tuple(s[k] for s in (sample_disc(p, DiscSpec(0), 6, 20 + i, N)
                                 for i in range(n - 1)))
            for k in range(6)
        ]
        for point in samples:
            for sp, lp_ in zip(small, large):
                diff = (evaluate_poly_dict(sp, point, p, N)
                        - evaluate_poly_dict(lp_, point, p, N))
                assert diff.norm_exponent() >= D + 1


def test_evaluate_poly_dict():
    p, N = 5, 6
    poly = {(2,): 3, (0,): 1}
    x = PAdic(p, N, 10)
    got = evaluate_poly_dict(poly, (x,), p, N)
    assert got == PAdic(p, N, 3 * 100 + 1)
    assert evaluate_poly_dict({}, (x,), p, N) == PAdic(p, N, 0)


EP, EN = 5, 6


@st.composite
def polys_with_points(draw):
    width = draw(st.integers(1, 4))
    residues = st.integers(0, EP ** EN - 1)
    coeffs = st.one_of(st.integers(-10 ** 40, 10 ** 40),
                       residues.map(lambda r: PAdic(EP, EN, r)))
    exps = st.tuples(*[st.integers(0, 7)] * width)
    poly = draw(st.dictionaries(exps, coeffs, max_size=10))
    point = tuple(PAdic(EP, EN, draw(residues)) for _ in range(width))
    return poly, point


@settings(max_examples=200, deadline=None)
@given(polys_with_points())
@example(({}, (PAdic(EP, EN, 7),)))
@example(({(0, 0): 3, (0, 2): PAdic(EP, EN, 11), (4, 0): -2}, (PAdic(EP, EN, 0), PAdic(EP, EN, 5))))
def test_residue_evaluator_matches_padic_oracle(case):
    poly, point = case
    assert evaluate_poly_dict(poly, point, EP, EN) == padic_evaluate(poly, point, EP, EN)


@pytest.mark.parametrize("n,l", [(3, 1), (5, 1), (5, 2)])
def test_converge_payloads_match_oracle_evaluator(monkeypatch, n, l):
    def runs():
        out = [converge_Q_general(5, n, l, 2, 6, 4, 8).to_json()]
        if n == 3:
            out.append(converge_T_n3(5, 2, 6, 4, 8).to_json())
        return out

    fast = runs()
    monkeypatch.setattr(convergence, "evaluate_poly_dict", padic_evaluate)
    assert runs() == fast


def test_converge_t_n3_small():
    report = converge_T_n3(5, 2, 12, 0, 9)
    assert report.passed
    assert report.constant_term_vals == {1: 1, 2: 2}
    plain = [r for r in report.rows if r.phase == "series-only"]
    full = [r for r in report.rows if r.phase == "with-prefactor"]
    assert [r.bound_val for r in plain] == [1, 2]
    assert [r.measured_val for r in full] == [1, 2]


def test_converge_t_requires_precision():
    with pytest.raises(PrecisionError):
        converge_T_n3(5, 4, 5, 0, 5)


def test_zero_point_reduces_to_constant_term():
    # evaluating the truncation-minus-series at u2 = 0 leaves the constant gap
    p, s, N = 5, 2, 9
    inst = KZInstance(3, ModulusContext(p, s))
    tpolys = component_polynomials(truncated_expansion(inst, 1), u_monomial)
    spolys = component_polynomials(limit_series(p, 3, 1, 2 * N + 1, N), u_monomial)
    zero = PAdic(p, N, 0)
    diffs = []
    for tp, sp in zip(tpolys, spolys):
        tval = evaluate_poly_dict(tp, (zero, zero), p, N)
        sval = evaluate_poly_dict(sp, (zero, zero), p, N)
        diffs.append(tval - sval)
    assert min(d.norm_exponent() for d in diffs) == s


def test_converge_q_small_n5():
    for l in (1, 2):
        report = converge_Q_general(5, 5, l, 2, 8, 0, 8)
        assert report.passed, (l, [r.__dict__ for r in report.rows])


def test_converge_q_matches_t_for_n3():
    # the J-form protocol differs from the T-form one by a unit factor,
    # so the measured valuations coincide
    t_rep = converge_T_n3(5, 2, 10, 3, 9)
    q_rep = converge_Q_general(5, 3, 1, 2, 10, 3, 9)
    t_full = [r.measured_val for r in t_rep.rows if r.phase == "with-prefactor"]
    q_full = [r.measured_val for r in q_rep.rows]
    assert t_full == q_full


def test_disjoint_domains():
    report = disjoint_domain_probe(5, 3000, 7)
    assert report.passed
    assert report.in_first > 0 and report.in_second > 0
    assert "val(u3)" in report.reason


def test_classic_partial_sums_reality():
    report = classic_partial_sums(5, [1, 2])
    first, second = report.rows
    assert first.coefficientwise_equal
    assert not second.coefficientwise_equal
    # the first failing coefficient: k = 5, residues 4 vs 14 mod 25
    k, lhs, rhs = second.mismatches[0]
    assert (k, lhs, rhs) == (5, 4, 14)
    assert first.refined_ok and second.refined_ok


def test_classic_refined_congruence_everywhere():
    for p in (5, 7):
        report = classic_partial_sums(p, [1, 2, 3])
        assert all(r.refined_ok for r in report.rows)
