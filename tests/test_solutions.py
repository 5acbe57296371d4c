import random
import warnings

import pytest

from kz_padic.kz import KZInstance, verify_solution
from kz_padic.solutions import (
    DeskEnvelopeError,
    QuasiConstantError,
    coefficient_vector,
    express_in_shifted_family,
    extract_at_index,
    extract_solution,
    is_quasi_constant,
    leading_term_vector,
    leading_vector_of,
    linear_independence_probe,
    master_component,
    master_polynomial,
    minimal_mvec,
    module_element,
    raised_mvec,
    shift_membership,
    solution_degree,
    solution_from_formula,
    solution_sign,
    validate_mvec,
    verify_shift_relation,
)
from kz_padic.sparsepoly import ModulusContext, Polynomial, z_variables


def make(p, s, n):
    return KZInstance(n, ModulusContext(p, s))


def test_minimal_mvec_and_validation():
    inst = make(5, 2, 3)
    assert minimal_mvec(inst) == (12, 12, 12)
    assert validate_mvec(inst, (12, 37, 12)) == (12, 37, 12)
    with pytest.raises(ValueError):
        validate_mvec(inst, (12, 13, 12))
    with pytest.raises(ValueError):
        validate_mvec(inst, (12, 12))


def test_master_polynomial_shape():
    inst = make(5, 1, 3)
    phi = master_polynomial(inst)
    assert phi.degree_in("x") == 6
    assert phi.coefficient((6, 0, 0, 0)) == 1
    # total x-degree = sum of exponents for a general admissible vector
    phi2 = master_polynomial(inst, (2, 7, 2))
    assert phi2.degree_in("x") == 11


def test_extraction_against_full_expansion():
    inst = make(5, 1, 3)
    rec = extract_solution(inst)
    for j in (1, 2, 3):
        full = master_component(inst, None, j).slice_power("x", 4)
        assert rec.vector[j - 1] == full


def test_extraction_frozen_values():
    inst = make(5, 1, 3)
    vec = extract_solution(inst).vector
    zv = inst.zvars
    z1, z2, z3 = (Polynomial.variable(v, zv) for v in zv)
    assert vec[0] == -1 * (z1 + 2 * z2 + 2 * z3)
    assert vec[1] == -1 * (2 * z1 + z2 + 2 * z3)
    assert vec[2] == -1 * (2 * z1 + 2 * z2 + z3)


def test_degree_and_homogeneity():
    for p, s, n in [(5, 1, 3), (5, 2, 3), (7, 1, 5)]:
        inst = make(p, s, n)
        for l in range(1, inst.g + 1):
            rec = extract_solution(inst, None, l)
            assert rec.degree == solution_degree(inst, l)
            assert rec.degree == n * inst.ctx.half - l * inst.ctx.modulus
            assert rec.homogeneous()
            assert rec.column_sums_divisible()


def test_coefficient_vector_example():
    inst = make(5, 1, 3)
    assert coefficient_vector(inst, 1, (1, 0, 0)) == (-1, -2, -2)
    assert coefficient_vector(inst, 1, (3, 0, 0)) == (0, 0, 0)
    assert coefficient_vector(inst, 1, (1, 1, 0)) == (0, 0, 0)  # wrong degree


def test_coefficient_sums_divisible():
    for p, s, n in [(5, 1, 3), (7, 1, 3), (5, 1, 5)]:
        inst = make(p, s, n)
        mod = inst.ctx.modulus
        from kz_padic.sparsepoly import bounded_compositions

        for l in range(1, inst.g + 1):
            delta = solution_degree(inst, l)
            for d in bounded_compositions(delta, (inst.ctx.half,) * n):
                assert sum(coefficient_vector(inst, l, d)) % mod == 0


def test_formula_matches_extraction_small_grid():
    for p, s, n in [(5, 1, 3), (7, 1, 3), (5, 1, 5)]:
        inst = make(p, s, n)
        for l in range(1, inst.g + 1):
            assert solution_from_formula(inst, l) == extract_solution(inst, None, l).vector


def test_leading_term_vector():
    inst = make(5, 1, 3)
    mono, vec = leading_term_vector(inst, 1)
    assert mono == (1, 0, 0)
    assert vec == (-1, -2, -2)
    got_mono, got_vec = leading_vector_of(extract_solution(inst).vector)
    assert (got_mono, got_vec) == (mono, vec)


def test_leading_term_vector_degenerate_top_index():
    # l = g on n = 5: the solution is a constant vector
    inst = make(5, 1, 5)
    mono, vec = leading_term_vector(inst, 2)
    assert mono == (0, 0, 0, 0, 0)
    assert vec == (1, 1, 1, 1, 1)
    rec = extract_solution(inst, None, 2)
    assert leading_vector_of(rec.vector) == (mono, vec)
    for l in (1, 2):
        mono, vec = leading_term_vector(inst, l)
        assert leading_vector_of(extract_solution(inst, None, l).vector) == (mono, vec)


def test_sign_identity():
    # (-1)^delta_l == (-1)^(s(p-1)/2 + l)
    for p, s, n in [(5, 1, 3), (5, 2, 3), (7, 1, 3), (5, 1, 5), (7, 2, 5)]:
        inst = make(p, s, n)
        for l in range(1, inst.g + 1):
            lhs = solution_sign(inst, l)
            rhs = -1 if (s * (p - 1) // 2 + l) % 2 else 1
            assert lhs == rhs


def test_quasi_constants():
    zv = z_variables(2)
    z1, z2 = (Polynomial.variable(v, zv) for v in zv)
    for p, s in [(5, 1), (5, 2), (7, 1)]:
        assert is_quasi_constant((z1 + z2) ** p ** s, p, s)
    # p^(s-1) z1^p z2^(p^2) at level s
    assert is_quasi_constant((z1 ** 5 * z2 ** 25).scale(5), 5, 2)
    assert not is_quasi_constant(z1, 5, 1)
    assert is_quasi_constant(Polynomial.constant(3, zv), 5, 3)


def test_quasi_constant_random_agreement():
    # both criteria run inside is_quasi_constant and must agree
    rng = random.Random(9)
    zv = z_variables(3)
    for _ in range(200):
        terms = {
            tuple(rng.choice((0, 1, 5, 25)) for _ in range(3)): rng.randrange(-50, 50)
            for _ in range(4)
        }
        is_quasi_constant(Polynomial(zv, terms), 5, rng.randrange(0, 3))


def test_module_element_identity_coefficient():
    inst = make(5, 2, 3)
    elt = module_element(inst, {(2, 1): 1})
    expected = extract_solution(inst).vector.reduce_mod(25)
    assert elt.vector == expected
    assert elt.level == 2


def test_module_element_lower_level():
    inst = make(5, 2, 3)
    elt = module_element(inst, {(1, 1): 1})
    assert elt.level == 1
    assert verify_solution(elt.vector, inst).passed


def test_module_element_quasi_constant_coefficient():
    inst = make(5, 2, 3)
    z1 = Polynomial.variable("z1", inst.zvars)
    elt = module_element(inst, {(2, 1): z1 ** 25})
    assert verify_solution(elt.vector, inst).passed


def test_module_element_rejects_bad_coefficient():
    inst = make(5, 2, 3)
    z1 = Polynomial.variable("z1", inst.zvars)
    with pytest.raises(QuasiConstantError) as err:
        module_element(inst, {(2, 1): z1})
    assert "(r=2, l=1)" in str(err.value)


def test_shift_relation_exact():
    inst = make(5, 1, 3)
    report = verify_shift_relation(inst, None, 1, 1, 1)
    assert report.exact
    assert report.all_classified
    # the a = p^s summand has unit binomial but hits a negative index: it dies
    top = [row for row in report.rows if row["a"] == 5 ** 1][0]
    assert top["binom_valuation"] == 0 and top["index"] is None
    for row in report.rows:
        if row["a"] not in (0, 5):
            assert row["binom_valuation"] == 1 - row["carry"]


def test_shift_relation_higher_level():
    inst = make(5, 2, 3)
    for (j, l, r) in [(1, 1, 2), (2, 1, 1), (3, 1, 2)]:
        report = verify_shift_relation(inst, None, j, l, r)
        assert report.exact and report.all_classified
        for row in report.rows:
            if row["a"] not in (0, 25):
                assert row["binom_valuation"] == 2 - row["carry"]


def test_shift_membership_and_back():
    inst = make(5, 2, 3)
    for j in (1, 2):
        fwd = shift_membership(inst, None, j, 1, 2)
        assert fwd.passed
    for r in (1, 2):
        for j in (1, 2):
            rev = express_in_shifted_family(inst, None, j, 1, r)
            assert rev.passed


def test_out_of_range_index_warns_and_zeroes():
    inst = make(5, 1, 3)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        rec = extract_solution(inst, None, 2)  # g = 1, so l = 2 is out of range
    assert rec.vector.is_zero()
    assert any("zero vector" in str(w.message) for w in log)


def test_negative_index_gives_zero():
    inst = make(5, 1, 3)
    assert extract_at_index(inst, None, -1).is_zero()


def test_top_index_has_unit_coefficient():
    # the components have x-degree 5 here; their top slice is the constant 1
    inst = make(5, 1, 3)
    from kz_padic.solutions import extract_component

    top = extract_component(inst, None, 1, 5)
    assert top == Polynomial.one(inst.zvars)
    assert extract_component(inst, None, 1, 6).is_zero()


def test_linear_independence():
    assert linear_independence_probe(make(5, 1, 3), 30, 0).passed
    report = linear_independence_probe(make(5, 1, 5), 100, 0)
    assert report.passed
    assert report.leading_monomials_distinct and report.leading_vectors_echelon


def test_desk_envelope_guard():
    inst = make(5, 4, 5)
    with pytest.raises(DeskEnvelopeError):
        extract_solution(inst, None, 1)


def test_raised_mvec():
    inst = make(5, 2, 3)
    assert raised_mvec(inst, None, 3) == (12, 12, 37)
