import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from kz_padic import asymptotic, solutions
from kz_padic.asymptotic import translation_membership
from kz_padic.kz import KZInstance, verify_solution
from kz_padic.padic import int_valuation
from kz_padic.solutions import (
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
    module_sum,
    raised_mvec,
    solution_degree,
    solution_from_formula,
    solution_sign,
    validate_mvec,
    verify_shift_relation,
)
from kz_padic.sparsepoly import (
    DeskEnvelopeError,
    ModulusContext,
    Polynomial,
    PolyVector,
    bounded_compositions,
    z_variables,
)


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
    assert max(m[0] for m in phi.terms) == 6
    assert phi.terms.get((6, 0, 0, 0), 0) == 1
    # total x-degree = sum of exponents for a general admissible vector
    phi2 = master_polynomial(inst, (2, 7, 2))
    assert max(m[0] for m in phi2.terms) == 11


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


@pytest.mark.parametrize("p,s,n", [(5, 1, 3), (5, 2, 3), (5, 3, 3), (7, 1, 3), (7, 2, 3),
                                   (5, 1, 5), (5, 2, 5), (7, 1, 5)])
def test_extraction_matches_the_closed_formula_on_the_grid(p, s, n):
    # the binomial-row walk against math.comb per monomial, keys in the walk's lex order
    inst = make(p, s, n)
    for l in range(1, inst.g + 1):
        vec = extract_solution(inst, None, l).vector
        want = {d: coefficient_vector(inst, l, d)
                for d in bounded_compositions(solution_degree(inst, l), minimal_mvec(inst))}
        for i, entry in enumerate(vec):
            assert list(entry.terms) == sorted(entry.terms)
            assert entry.terms == {d: c[i] for d, c in want.items() if c[i]}, (l, i)


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


def quasi_constant_by_derivative(f, p, r):
    """Oracle: every partial derivative of f vanishes mod p**r (at r = 0, mod 1)."""
    return r == 0 or all(f.diff_index(i).reduce_mod(p ** r).is_zero() for i in range(len(f.vars)))


def quasi_constant_by_span(f, p, r):
    """Oracle: p**(r-t) | c for each term c*z**d, with t the largest t <= r
    such that p**t divides every exponent of d."""
    for mono, coeff in f.terms.items():
        gcd_val = min((int_valuation(e, p) for e in mono if e), default=None)
        t = r if gcd_val is None else min(r, gcd_val)
        if coeff % p ** (r - t):
            return False
    return True


ORACLES = [quasi_constant_by_derivative, quasi_constant_by_span]


def test_quasi_constant_random_agreement():
    # the termwise criterion against both oracles, on negative exponents, the
    # zero polynomial, constants and level r = 0 among them
    rng = random.Random(9)
    zv = z_variables(3)
    exps = (-25, -5, -1, 0, 1, 5, 25)
    polys = [Polynomial.zero(zv), Polynomial.constant(7, zv), Polynomial.constant(-50, zv)]
    for _ in range(200):
        polys.append(Polynomial(zv, {
            tuple(rng.choice(exps) for _ in range(3)): rng.randrange(-50, 50) for _ in range(4)
        }))
    verdicts = set()
    for f in polys:
        for r in range(4):
            got = is_quasi_constant(f, 5, r)
            assert got == quasi_constant_by_derivative(f, 5, r) == quasi_constant_by_span(f, 5, r)
            verdicts.add((r, got))
    assert verdicts == {(0, True), (1, True), (1, False), (2, True), (2, False),
                        (3, True), (3, False)}


@st.composite
def laurent_cases(draw):
    """A prime, a level and a Laurent polynomial whose exponents and coefficients
    carry p-powers, so both verdicts occur at every level r >= 1."""
    p = draw(st.sampled_from((3, 5, 7)))
    r = draw(st.integers(0, 3))
    scaled = st.sampled_from(sorted({m * p ** k for m in range(-4, 5) for k in range(4)}))
    terms = draw(st.dictionaries(st.tuples(scaled, scaled, scaled), scaled, max_size=5))
    return p, r, Polynomial(z_variables(3), terms)


@settings(max_examples=300, deadline=None)
@given(laurent_cases())
@example((5, 0, Polynomial.zero(z_variables(3))))
@example((5, 2, Polynomial.constant(3, z_variables(3))))
@example((5, 2, Polynomial(z_variables(3), {(-5, 25, 0): 5})))
@example((5, 2, Polynomial(z_variables(3), {(-5, 25, 0): 1})))
def test_termwise_quasi_constance_equals_both_oracles(case):
    p, r, f = case
    assert is_quasi_constant(f, p, r) == quasi_constant_by_derivative(f, p, r) == \
        quasi_constant_by_span(f, p, r)


def _module_reports():
    """The reports of the four quasi-constant callers on the inputs their tests use."""
    inst = make(5, 2, 3)
    z1 = Polynomial.variable("z1", inst.zvars)
    reports = []
    for coeffs in ({(2, 1): 1}, {(1, 1): 1}, {(2, 1): z1 ** 25}, {(2, 1): z1}):
        try:
            reports.append(module_element(inst, coeffs))
        except QuasiConstantError as err:
            reports.append(str(err))
    shifts = [(make(5, 1, 3), 1, 1, 1)] + [(inst, j, l, r) for j, l, r in
                                            [(1, 1, 2), (2, 1, 1), (3, 1, 2), (2, 1, 2)]]
    reports += [verify_shift_relation(i, None, j, l, r) for i, j, l, r in shifts]
    reports += [express_in_shifted_family(inst, None, j, 1, r) for r in (1, 2) for j in (1, 2)]
    reports += [translation_membership(make(p, s, 3), 1) for p, s in [(5, 1), (5, 2), (7, 1)]]
    return reports


def test_module_reports_are_the_same_under_either_oracle(monkeypatch):
    expected = _module_reports()
    assert sum(isinstance(r, str) for r in expected) == 1     # one coefficient refused
    for oracle in ORACLES:
        monkeypatch.setattr(solutions, "is_quasi_constant", oracle)
        monkeypatch.setattr(asymptotic, "is_quasi_constant", oracle)
        assert _module_reports() == expected


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


GRID = [(5, 1, 3), (5, 2, 3), (5, 3, 3), (7, 1, 3), (7, 2, 3),
        (5, 1, 5), (5, 2, 5), (7, 1, 5)]


@pytest.mark.parametrize("p,s,n", GRID)
def test_sums_in_place_equal_sums_added_one_at_a_time(p, s, n):
    inst = make(p, s, n)
    zvars = inst.zvars
    z1, z2 = (Polynomial.variable(v, zvars) for v in zvars[:2])
    rows = [(u, l, Polynomial.constant(u - 2 * l, zvars) + z1 ** p ** u - z2 ** p ** u)
            for u in range(1, s + 1) for l in range(1, inst.g + 1)]
    top = rows[-1]
    rows += [(top[0], top[1], -top[2])]         # cancels one generator exactly
    expected = PolyVector.zero(n, zvars)
    for u, l, c in rows:
        gen = extract_at_index(inst.level(u), None, l * p ** u - 1)
        expected = expected + gen.scale(c.scale(p ** (s - u)))
    total = module_sum(inst, None, rows, s)
    assert total == expected
    for vec in (total, extract_solution(inst, None, 1).vector):
        added = Polynomial.zero(zvars)
        for entry in vec:
            added = added + entry
        assert vec.sum_entries() == added


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
        fwd = verify_shift_relation(inst, None, j, 1, 2)
        assert fwd.passed
    for r in (1, 2):
        for j in (1, 2):
            rev = express_in_shifted_family(inst, None, j, 1, r)
            assert rev.passed


def _break_first_identity(monkeypatch, fault):
    """Patch the summand classifier: in the first identity it classifies, the
    a = 0 summand (level u = r, nonzero generator) gets its unit off by one or
    is dropped."""
    original = solutions._raising_summands
    calls = []

    def broken(inst, j, top, r):
        first = not calls
        calls.append(top)
        for a, carry, u, v, coeff in original(inst, j, top, r):
            if first and a == 0:
                assert u == r
                assert not extract_at_index(inst, None, v * inst.ctx.p ** u - 1).is_zero()
                if fault == "dropped":
                    continue
                coeff = Polynomial(coeff.vars, {m: c + 1 for m, c in coeff.terms.items()})
            yield a, carry, u, v, coeff

    monkeypatch.setattr(solutions, "_raising_summands", broken)


@pytest.mark.parametrize("fault", ["unit-off-by-one", "dropped"])
@pytest.mark.parametrize("check,verdict", [(verify_shift_relation, "exact"),
                                           (express_in_shifted_family, "assembled_ok")])
def test_module_checks_fail_on_a_broken_classifier(check, verdict, fault, monkeypatch):
    inst = make(5, 2, 3)
    assert check(inst, None, 1, 1, 1).passed
    _break_first_identity(monkeypatch, fault)
    report = check(inst, None, 1, 1, 1)
    assert not getattr(report, verdict) and not report.passed


def test_inexact_unit_division_is_refused():
    # at a level r above s the signed binomials no longer divide by p**(r - u)
    inst = make(5, 1, 3)
    with pytest.raises(AssertionError, match="not divisible"):
        list(solutions._raising_summands(inst, 1, 25, 2))


def test_shift_relation_extracts_each_generator_once(monkeypatch):
    inst = make(5, 2, 3)
    original = solutions.extract_at_index
    calls = []

    def counted(inst, mvec, k):
        calls.append((tuple(mvec), k))
        return original(inst, mvec, k)

    monkeypatch.setattr(solutions, "extract_at_index", counted)
    report = verify_shift_relation(inst, None, 1, 1, 2)
    live = [row for row in report.rows if row["index"] is not None]
    assert report.passed and len(live) == 25
    # the raised side once, then one generator per live summand
    assert len(calls) == 1 + len(live) == len(set(calls))


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
    assert list(extract_at_index(inst, None, 5)) == [Polynomial.one(inst.zvars)] * 3
    assert extract_at_index(inst, None, 6).is_zero()


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
