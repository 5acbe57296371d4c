import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from kz_padic import asymptotic
from kz_padic.asymptotic import (
    component_polynomials,
    components_of_class,
    constant_vector,
    difference_form,
    factorization_report,
    hat_solution,
    index_class,
    limit_series,
    prefactor_truncated,
    q_consistency_report,
    series_constant_vector,
    series_prefactor_exponents,
    shift_solution,
    translation_membership,
    truncated_expansion,
    truncation_correspondence,
    truncation_index_count,
    u_monomial,
    w_variables,
    x_dictionary,
    x_monomial,
)
from kz_padic.kz import KZInstance, verify_solution
from kz_padic.padic import PAdic
from kz_padic.solutions import DeskEnvelopeError
from kz_padic.sparsepoly import ModulusContext, Polynomial, u_variables


def make(p, s, n):
    return KZInstance(n, ModulusContext(p, s))


def box_indices(n, l, M):
    """Oracle: the whole index box [0, M]**(n-1), filtered by ``index_class``."""
    tagged = ((a, index_class(n, l, a)) for a in itertools.product(range(M + 1), repeat=n - 1))
    return {a: tag for a, tag in tagged if tag is not None}


def box_coefficients(n, l, M, indices):
    """Oracle coefficients: component j multiplies binom(M - [i = j], a_i) over i."""
    coeffs = {}
    for a, tag in indices.items():
        vec = [0] * n
        for j in components_of_class(n, l, tag):
            vec[j - 1] = math.prod(math.comb(M - (i == j), e) for i, e in enumerate(a, 1))
        if any(vec):
            coeffs[a] = tuple(vec)
    return coeffs


def test_difference_form_against_full_expansion():
    # oracle: expand v^a prod (v - w_i)^b fully and slice the v power
    inst = make(5, 1, 3)
    M = inst.ctx.half
    wv = w_variables(3)
    allv = ("v",) + wv
    v = Polynomial.variable("v", allv)
    w1, w2 = (Polynomial.variable(w, allv) for w in wv)
    diff = difference_form(inst, 1)
    k = 4
    products = [
        v ** M * (v - w1) ** (M - 1) * (v - w2) ** M,
        v ** M * (v - w1) ** M * (v - w2) ** (M - 1),
        v ** (M - 1) * (v - w1) ** M * (v - w2) ** M,
    ]
    for got, full in zip(diff.entries, products):
        assert got == full.slice_power("v", k)
        assert full.degree_in("v") == 3 * M - 1


def test_shift_solution_satisfies_system():
    for p, s in [(5, 1), (5, 2), (7, 1)]:
        inst = make(p, s, 3)
        vec = shift_solution(inst, 1)
        assert verify_solution(vec, inst).passed
    inst5 = make(5, 1, 5)
    assert verify_solution(shift_solution(inst5, 1), inst5).passed


def test_shift_solution_depends_only_on_differences():
    inst = make(5, 1, 3)
    vec = shift_solution(inst, 1)
    wide = inst.zvars + ("c",)
    c = Polynomial.variable("c", wide)
    images = {
        name: Polynomial.variable(name, wide) + c
        for name in inst.zvars
    }
    for entry in vec.entries:
        shifted = entry.substitute(images, wide)
        widened = entry.substitute({}, wide)
        assert shifted == widened


def test_hat_solution_frozen_small_case():
    inst = make(5, 1, 3)
    hat = hat_solution(inst, 1)
    uv = u_variables(3)
    u1, u2 = (Polynomial.variable(v, uv) for v in uv)
    one = Polynomial.one(uv)
    assert hat[0] == (-1) * (u1 * (one + 2 * u2))
    assert hat[1] == (-1) * (u1 * (2 * one + u2))
    assert hat[2] == (-1) * (u1 * (2 * one + 2 * u2))


def test_prefactor_exponents():
    inst = make(5, 1, 3)
    pre = prefactor_truncated(inst, 1)
    assert pre.sign == -1 and pre.exponents == (1, 0)
    inst5 = make(5, 1, 5)
    # block n-2l = 3: exponents M(3), M(2), M(1) each minus l
    assert prefactor_truncated(inst5, 1).exponents == (5, 3, 1, 0)
    assert prefactor_truncated(inst5, 2).exponents == (0, 0, 0, 0)
    for p, s, n in [(5, 2, 3), (7, 1, 5), (5, 2, 5), (7, 2, 3)]:
        inst = make(p, s, n)
        for l in range(1, inst.g + 1):
            assert all(e >= 0 for e in prefactor_truncated(inst, l).exponents)


def test_series_prefactor_monomials_distinct():
    # no two limiting prefactors share their exponent pattern
    for n in (3, 5, 7):
        g = (n - 1) // 2
        seen = {series_prefactor_exponents(n, l) for l in range(1, g + 1)}
        assert len(seen) == g


@pytest.mark.parametrize("p,s,n", [(5, 1, 3), (5, 2, 3), (7, 1, 3), (5, 1, 5)])
def test_factorization_two_paths(p, s, n):
    inst = make(p, s, n)
    for l in range(1, inst.g + 1):
        report = factorization_report(inst, l)
        assert report.factorization_ok, report.first_mismatch
        assert report.constant_term_ok


def test_constant_vector_values():
    inst = make(5, 1, 3)
    assert constant_vector(inst, 1) == (1, 2, 2)
    inst2 = make(5, 2, 3)
    assert constant_vector(inst2, 1) == (1, 12, 12)
    inst5 = make(5, 1, 5)
    assert constant_vector(inst5, 1) == (0, 0, 1, 2, 2)
    assert constant_vector(inst5, 2) == (1, 1, 1, 1, 1)


def test_n3_closed_form_matches_triple_pattern():
    # component coefficients at index (a1, a2) must be exactly
    # (binom(M-1,a)binom(M,a), binom(M,a+1)binom(M-1,a), binom(M,a+1)binom(M,a))
    for p, s in [(5, 1), (5, 2), (7, 1)]:
        inst = make(p, s, 3)
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
        expected[(M, M)] = (math.comb(M - 1, M) * math.comb(M, M), 0, 0)
        expected = {k: v for k, v in expected.items() if any(v)}
        assert st.coeffs == expected


def test_truncation_indices_satisfy_constraints():
    for p, s, n, l in [(5, 1, 5, 1), (5, 1, 5, 2), (5, 2, 3, 1)]:
        inst = make(p, s, n)
        st = truncated_expansion(inst, l)
        assert st.constraints_ok()


@pytest.mark.parametrize("p,s,n", [(p, s, n) for p in (5, 7) for s in (1, 2) for n in (3, 5)])
def test_hyperplane_enumeration_equals_filtered_box(p, s, n):
    inst = make(p, s, n)
    M = inst.ctx.half
    for l in range(1, inst.g + 1):
        box = box_indices(n, l, M)
        walked = list(asymptotic._truncated_index_iter(n, l, M))
        assert len(walked) == len(box) == truncation_index_count(n, l, M)
        assert dict(walked) == box
        assert truncated_expansion(inst, l).coeffs == box_coefficients(n, l, M, box)


def test_desk_guard_counts_hyperplane_tuples():
    # (p, s, n, l) = (5, 3, 5, 1): the box has 63**4 tuples, the hyperplanes 89,436
    inst = make(5, 3, 5)
    M = inst.ctx.half
    assert (M + 1) ** 4 > asymptotic.DESK_TUPLE_LIMIT
    assert truncation_index_count(5, 1, M) == 89_436
    assert sum(1 for _ in asymptotic._truncated_index_iter(5, 1, M)) == 89_436
    st = truncated_expansion(inst, 1)
    assert st.constraints_ok() and len(st.coeffs) <= 89_436


def test_desk_guard_refuses_before_enumerating(monkeypatch):
    inst = make(5, 4, 5)
    assert truncation_index_count(5, 1, inst.ctx.half) == 10_369_061

    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the desk guard")

    monkeypatch.setattr(asymptotic, "_truncated_index_iter", enumerate_nothing)
    with pytest.raises(DeskEnvelopeError):
        truncated_expansion(inst, 1)


def test_limit_series_small_values():
    series = limit_series(5, 3, 1, 4, 8)
    a0 = series.coeffs[(0, 0)]
    assert a0[0] == PAdic(5, 8, 1)
    half = PAdic.from_fraction(Fraction(-1, 2), 5, 8)
    assert series.coeffs[(1, 0)][1] == half  # binom(-1/2,1) binom(-3/2,0)
    a1 = series.coeffs[(1, 1)]
    # vector (binom(-3/2,1)binom(-1/2,1), 0, 0) at the balanced index
    assert a1[0] == PAdic.from_fraction(Fraction(3, 4), 5, 8)
    a2 = series.coeffs[(2, 1)]
    assert a2[1] == PAdic.from_fraction(Fraction(3, 8) * Fraction(-3, 2), 5, 8)
    assert a2[2] == PAdic.from_fraction(Fraction(3, 8) * Fraction(-1, 2), 5, 8)


def test_series_coefficients_are_integral():
    series = limit_series(5, 5, 1, 6, 6)
    for vec in series.coeffs.values():
        for c in vec:
            assert isinstance(c, PAdic)  # constructed via from_fraction: norm <= 1


def test_series_constant_vector():
    got = series_constant_vector(5, 3, 1, 8)
    assert got[0] == PAdic(5, 8, 1)
    assert got[1] == PAdic.from_fraction(Fraction(-1, 2), 5, 8)
    assert got[2] == PAdic.from_fraction(Fraction(-1, 2), 5, 8)


def test_constant_term_distance_is_exactly_p_to_minus_s():
    for s in (1, 2, 3):
        inst = make(5, s, 3)
        cvec = constant_vector(inst, 1)
        svec = series_constant_vector(5, 3, 1, s + 6)
        diffs = [PAdic(5, s + 6, c) - sc for c, sc in zip(cvec, svec)]
        assert min(d.norm_exponent() for d in diffs) == s


@pytest.mark.parametrize("p,s", [(5, 1), (5, 2)])
def test_truncation_correspondence(p, s):
    inst = make(p, s, 3)
    report = truncation_correspondence(inst, 1, min(3, inst.ctx.half))
    assert report.passed
    active = [r for r in report.rows if not r["vacuous"]]
    assert active, "bound must be active somewhere"


def test_binomial_difference_exact_value():
    # binom(-1/2,1) - binom(M,1) = -p^s/2 exactly
    for p, s in [(5, 1), (5, 2), (7, 1)]:
        M = (p ** s - 1) // 2
        from kz_padic.padic import binom_half_fraction, fraction_valuation

        diff = binom_half_fraction(0, 1) - M
        assert diff == Fraction(-(p ** s), 2)
        assert fraction_valuation(diff, p) == s
        # l1 = 1, a = 0: the two constants agree exactly
        assert binom_half_fraction(1, 0) - 1 == 0


def test_x_dictionary():
    assert x_dictionary(3, 1) == [(1, 0), (0, 1)]
    assert x_dictionary(5, 1) == [(3, 2, 1, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert x_dictionary(5, 2) == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1)]


def test_q_consistency():
    for p, s, n, l in [(5, 1, 3, 1), (5, 1, 5, 1), (5, 1, 5, 2), (5, 2, 3, 1)]:
        inst = make(p, s, n)
        assert q_consistency_report(inst, l)


def test_q_collapses_to_t_for_n3():
    inst = make(5, 1, 3)
    st = truncated_expansion(inst, 1)
    upolys = component_polynomials(st, u_monomial)
    xpolys = component_polynomials(st, x_monomial)
    for j in range(3):
        # u-keys are (0, a); x-keys are (a,)
        assert {k[1:]: v for k, v in upolys[j].items()} == xpolys[j]


def test_q_constant_terms():
    inst = make(5, 1, 5)
    zero_key = (0,) * 3                     # x_2..x_4
    for l in (1, 2):
        xpolys = component_polynomials(truncated_expansion(inst, l), x_monomial)
        assert tuple(poly.get(zero_key, 0) for poly in xpolys) == constant_vector(inst, l)
    xpolys = component_polynomials(limit_series(5, 5, 1, 4, 6), x_monomial)
    got = [poly.get(zero_key, PAdic(5, 6, 0)) for poly in xpolys]
    want = series_constant_vector(5, 5, 1, 6)
    assert all(a == b for a, b in zip(got, want))


def test_factorization_failure_site_names_the_tampered_coefficient(monkeypatch):
    p, s, n, l = 5, 1, 5, 1
    inst = make(p, s, n)
    st = truncated_expansion(inst, l)
    a = random.Random(0).choice(sorted(st.coeffs))
    j = components_of_class(n, l, index_class(n, l, a))[0]
    coeffs = dict(st.coeffs)
    coeffs[a] = tuple(c + (k == j - 1) for k, c in enumerate(coeffs[a]))
    monkeypatch.setattr(asymptotic, "truncated_expansion",
                        lambda *_: dataclasses.replace(st, coeffs=coeffs))
    report = factorization_report(inst, l)
    # the only changed coefficient sits at a's u-monomial in component j times
    # the prefactor u_m**(M(n-2l-m+1) - l), m <= n-2l, and carries its sign
    M, block = inst.ctx.half, n - 2 * l
    pre = [M * (block - m + 1) - l if m <= block else 0 for m in range(1, n)]
    mono = [e + pe for e, pe in zip(u_monomial(n, l, j, a), pre)]
    sign = prefactor_truncated(inst, l).sign
    assert report.first_mismatch == {"component": j, "monomial": mono, "coefficient": sign}
    assert not report.factorization_ok and not report.passed


@pytest.mark.parametrize("p,s", [(5, 1), (5, 2), (7, 1)])
def test_translation_membership(p, s):
    inst = make(p, s, 3)
    report = translation_membership(inst, 1)
    assert report.exact_ok
    assert report.diagonal_unit
    assert all(r["valuation_ok"] and r["quasi_constant_ok"] for r in report.rows)


def test_zone_functions_reject_out_of_range_index():
    inst = make(5, 1, 3)
    with pytest.raises(ValueError):
        difference_form(inst, 2)
    with pytest.raises(ValueError):
        truncated_expansion(inst, 0)
    with pytest.raises(ValueError):
        limit_series(5, 3, 2, 4, 6)
    with pytest.raises(ValueError):
        constant_vector(inst, 2)


def test_index_class_partition():
    assert index_class(3, 1, (2, 2)) == "A"
    assert index_class(3, 1, (3, 2)) == "B"
    assert index_class(3, 1, (4, 2)) is None
    assert index_class(5, 2, (3, 1, 0, 0)) == "B"


def test_u_monomial_prefactor():
    # component 1 of the n=5, l=1 expansion carries u_2 u_3
    assert u_monomial(5, 1, 1, (0, 0, 0, 0)) == (0, 1, 1, 0)
    assert u_monomial(5, 1, 3, (0, 0, 0, 0)) == (0, 0, 0, 0)
    assert u_monomial(5, 1, 5, (1, 0, 1, 1)) == (0, 1, 1, 1)
