import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kz_padic import sparsepoly
from kz_padic.sparsepoly import (
    DeskEnvelopeError,
    ModulusContext,
    Polynomial,
    PolyVector,
    VariableMismatch,
    bounded_compositions,
    digits,
    poly_to_json,
    product_power_gradient,
    product_power_slice,
    slice_cost,
    slice_size,
    vector_from_json,
    vector_to_json,
    z_variables,
)

XZ = ("x", "z1", "z2", "z3")


def gens(variables):
    return [Polynomial.variable(v, variables) for v in variables]


def random_poly(rng, variables, terms=6, deg=4, coeff=9):
    data = {}
    for _ in range(terms):
        mono = tuple(rng.randrange(deg) for _ in variables)
        data[mono] = rng.randrange(-coeff, coeff + 1)
    return Polynomial(variables, data)


def _naive_mul(a, b):
    """The nested-loop product: the oracle for ``Polynomial.__mul__``."""
    assert a.vars == b.vars
    prod = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            key = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            total = prod.get(key, 0) + c1 * c2
            if total:
                prod[key] = total
            else:
                del prod[key]
    out = Polynomial.zero(a.vars)
    out.terms = prod
    return out


def assert_product(a, b):
    got = a * b
    want = _naive_mul(a, b)
    assert got == want
    assert all(got.terms.values())      # no stored zero coefficient
    assert b * a == want
    return got


@st.composite
def poly_pairs(draw):
    width = draw(st.integers(0, 4))
    variables = tuple(f"v{i}" for i in range(width))
    low, high = draw(st.sampled_from([(0, 1), (0, 4), (250, 260), (-3, 3)]))
    exps = st.tuples(*[st.integers(low, high)] * width)
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))
    a, b = (Polynomial(variables, draw(st.dictionaries(exps, coeffs, max_size=size)))
            for size in (draw(st.integers(0, 40)), draw(st.integers(0, 8))))
    return a, b


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
@example((Polynomial.constant(3, ()), Polynomial.constant(2, ())))
@example((Polynomial.zero(("v0",)), Polynomial.constant(5, ("v0",))))
def test_mul_matches_naive_product(pair):
    assert_product(*pair)


@st.composite
def constant_column_pairs(draw):
    # The longer operand is constant on the columns in `fixed`; the shorter one's
    # exponents there repeat often, so rows are sometimes certified apart (one pass)
    # and sometimes meet (row accumulation).
    width = draw(st.integers(2, 4))
    variables = tuple(f"v{i}" for i in range(width))
    fixed = draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=width - 1))
    level = {i: draw(st.sampled_from((0, 3, 255, 300, -2))) for i in fixed}
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))
    free = draw(st.sampled_from([(0, 9), (250, 262), (-5, 5)]))
    long_exps = st.tuples(*[st.just(level[i]) if i in level else st.integers(*free)
                            for i in range(width)])
    short_exps = st.tuples(*[st.sampled_from((-2, 0, 1, 255, 300))] * width)
    long = draw(st.dictionaries(long_exps, coeffs, min_size=2, max_size=40))
    short = draw(st.dictionaries(short_exps, coeffs, max_size=8))
    return Polynomial(variables, long), Polynomial(variables, short)


@settings(max_examples=100, deadline=None)
@given(constant_column_pairs())
@example((Polynomial(("v0", "v1"), {(0, 0): 1, (1, 0): 2}),
          Polynomial(("v0", "v1"), {(0, -1): 3, (0, 1): 5})))
@example((Polynomial(("v0", "v1"), {(0, 255): 1, (4, 255): -1}),
          Polynomial(("v0", "v1"), {(0, 0): 3, (1, 1): 5})))
def test_mul_with_constant_columns_matches_naive_product(pair):
    # assert_product checks both orders and that no zero coefficient is stored
    assert_product(*pair)


def test_mul_cross_terms_cancel():
    a, b = gens(("a", "b"))
    got = assert_product(a + b, a - b)
    assert got == a * a - b * b and len(got) == 2
    # four of the six products cancel in pairs
    assert assert_product(a * a + a * b + b * b, a - b) == a ** 3 - b ** 3


def test_mul_heavy_collisions():
    zv = ("z1", "z2", "z3")
    z1, z2, z3 = gens(zv)
    one = Polynomial.one(zv)
    f = (z1 + z2 + z3 + one) ** 4
    assert_product(f, f)
    assert_product(f, z1 - z2)
    assert_product((z1 - z2) ** 3, f)
    assert assert_product(f - one, f + one) == f * f - one


def test_mul_collisions_on_a_solution_component():
    # component 1 of the (p, s, n, l) = (5, 2, 5, 1) solution, 13,195 terms:
    # the x**24 coefficient of (x - z1)**11 (x - z2)**12 ... (x - z5)**12
    zv = z_variables(5)
    comp = Polynomial(zv, product_power_slice((11, 12, 12, 12, 12), 24))
    assert len(comp) == 13195
    z1, z2 = gens(zv)[:2]
    assert_product(comp, z1 - z2)
    assert_product((z1 - z2) ** 3, comp)


def test_mul_empty_operand_and_scalars():
    rng = random.Random(9)
    f = random_poly(rng, XZ, terms=12)
    zero = Polynomial.zero(XZ)
    assert (f * zero).is_zero() and (zero * f).is_zero() and (zero * zero).is_zero()
    assert 3 * f == f * 3 == _naive_mul(f, Polynomial.constant(3, XZ))
    assert (0 * f).is_zero() and (f * 0).is_zero()
    assert -1 * f == -f


def test_add_and_subtract_reject_an_int():
    # only products take a bare int; a sum needs Polynomial.constant
    f = random_poly(random.Random(11), XZ, terms=5)
    for op in (lambda: f + 1, lambda: f - 1, lambda: 1 + f, lambda: 1 - f):
        with pytest.raises(TypeError):
            op()


def test_mul_operands_of_very_different_sizes():
    rng = random.Random(10)
    zv = z_variables(4)
    long = random_poly(rng, zv, terms=400, deg=9)
    for short in (Polynomial.variable("z2", zv), random_poly(rng, zv, terms=3, deg=9)):
        assert_product(long, short)
        assert_product(short, long)


def test_mul_exponents_past_a_byte_and_negative():
    zv = ("z1", "z2")
    z1, z2 = gens(zv)
    one = Polynomial.one(zv)
    big = assert_product(z1 ** 256 + z2 ** 3, z1 + one)
    assert big.terms.get((257, 0), 0) == 1
    laurent = Polynomial(zv, {(-2, 1): 3, (0, -1): -1, (1, 1): 2})
    assert_product(laurent, z1 - z2)
    assert assert_product(laurent, laurent).terms.get((-4, 2), 0) == 9


def test_mul_of_zero_variable_constants():
    three, two = Polynomial.constant(3, ()), Polynomial.constant(2, ())
    assert three * two == Polynomial.constant(6, ())
    assert (three * Polynomial.zero(())).is_zero()
    assert (Polynomial.zero(()) * two).is_zero()
    assert Polynomial.constant(-7, ()) ** 3 == Polynomial.constant(-343, ())
    assert 5 * three == Polynomial.constant(15, ())


def test_square_of_binomial():
    x, z1, z2, z3 = gens(XZ)
    expected = Polynomial(XZ, {(2, 0, 0, 0): 1, (1, 1, 0, 0): -2, (0, 2, 0, 0): 1})
    assert (x - z1) * (x - z1) == expected
    assert (x - z1) ** 2 == expected


def test_mul_identity():
    rng = random.Random(1)
    f = random_poly(rng, XZ)
    assert f * Polynomial.one(XZ) == f


def test_symmetric_function_coefficient():
    # x^4 coefficient of ((x-z1)(x-z2)(x-z3))^2 is e1^2 + 2 e2,
    # checked against the brute-force expansion
    x, z1, z2, z3 = gens(XZ)
    f = (x - z1) * (x - z2) * (x - z3)
    square = f * f
    slice4 = square.slice_power("x", 4)
    zv = ("z1", "z2", "z3")
    a, b, c = gens(zv)
    e1 = a + b + c
    e2 = a * b + a * c + b * c
    assert slice4 == e1 * e1 + 2 * e2


def test_pow_binomial_coefficient():
    x, z1, *_ = gens(XZ)
    f = (x - z1) ** 4
    assert f.terms.get((2, 2, 0, 0), 0) == 6


def test_pow_zero_is_one():
    rng = random.Random(2)
    f = random_poly(rng, XZ)
    assert f ** 0 == Polynomial.one(XZ)


def test_diff_basics():
    zv = ("z1", "z2")
    z1, z2 = gens(zv)
    f = z1 * z1 * z2
    assert f.diff("z1") == 2 * (z1 * z2)
    assert (z1 ** 25).diff("z2").is_zero()


@pytest.mark.parametrize("p,s", [(5, 1), (5, 2), (3, 2)])
def test_diff_of_prime_power_is_divisible(p, s):
    # every coefficient of d/dz1 (z1+z2)^(p^s) is p^s * binom(p^s-1, k)
    zv = ("z1", "z2")
    z1, z2 = gens(zv)
    q = p ** s
    deriv = ((z1 + z2) ** q).diff("z1")
    assert not deriv.is_zero()
    assert deriv.reduce_mod(q).is_zero()


def test_ring_axioms_random():
    rng = random.Random(4)
    for _ in range(25):
        a, b, c = (random_poly(rng, XZ) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_leibniz_rule_random():
    rng = random.Random(5)
    for _ in range(25):
        a, b = (random_poly(rng, XZ) for _ in range(2))
        lhs = (a * b).diff("z2")
        assert lhs == a.diff("z2") * b + a * b.diff("z2")


def test_reduce_mod_is_homomorphism():
    rng = random.Random(6)
    for m in (5, 25, 7):
        for _ in range(10):
            a, b = (random_poly(rng, XZ) for _ in range(2))
            direct = (a * b).reduce_mod(m)
            reduced = (a.reduce_mod(m) * b.reduce_mod(m)).reduce_mod(m)
            assert direct == reduced


def test_reduce_mod_examples():
    zv = ("z1", "z2", "z3")
    z1, z2, z3 = gens(zv)
    assert (5 * z1).reduce_mod(5).is_zero()
    assert (-1 * z1).reduce_mod(25) == 24 * z1
    e1 = z1 + z2 + z3
    e2 = z1 * z2 + z1 * z3 + z2 * z3
    # e1**2 + 2 e2 = sum z_i**2 + 4 e2, already reduced mod 5
    assert (e1 * e1 + 2 * e2).reduce_mod(5).terms == {
        (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): 4, (1, 0, 1): 4, (0, 1, 1): 4}


def test_variable_mismatch():
    a = Polynomial.variable("z1", ("z1", "z2"))
    b = Polynomial.variable("z1", ("z1", "z3"))
    with pytest.raises(VariableMismatch):
        a * b


def test_product_power_slice_matches_expansion():
    rng = random.Random(7)
    for _ in range(15):
        caps = [rng.randrange(0, 5) for _ in range(3)]
        variables = ("X", "y1", "y2", "y3")
        X, y1, y2, y3 = gens(variables)
        full = Polynomial.one(variables)
        for y, e in zip((y1, y2, y3), caps):
            full = full * (X - y) ** e
        for k in range(-1, sum(caps) + 2):
            got = product_power_slice(caps, k)
            want = full.slice_power("X", k)
            assert Polynomial(("y1", "y2", "y3"), got) == want
            assert slice_size(caps, k) == len(got)


def test_product_power_gradient_matches_expansion():
    # entry i is the X**k coefficient of the product with exponent E_i lowered by one
    rng = random.Random(11)
    ys = ("y1", "y2", "y3")
    X, *y = gens(("X",) + ys)
    for _ in range(10):
        caps = tuple(rng.randrange(1, 5) for _ in range(3))
        lowered = [Polynomial.one(X.vars) for _ in caps]
        for i in range(3):
            for j, e in enumerate(caps):
                lowered[i] = lowered[i] * (X - y[j]) ** (e - (i == j))
        for k in range(-1, sum(caps) + 1):
            want = [poly.slice_power("X", k) for poly in lowered]
            assert list(product_power_gradient(caps, k, ys)) == want, (caps, k)


def _lowered_expansions(caps):
    """prod_j (X - y_j)**E_j over (X, y) and, per i, the product over (X - y_i) (0 if E_i = 0)."""
    variables = ("X",) + z_variables(len(caps))
    X, *y = gens(variables)

    def product(exponents):
        poly = Polynomial.one(variables)
        for yj, e in zip(y, exponents):
            poly = poly * (X - yj) ** e
        return poly

    return product(caps), [product([e - (i == j) for j, e in enumerate(caps)]) if cap
                           else Polynomial.zero(variables) for i, cap in enumerate(caps)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 4]).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)))
@example([0])
@example([3, 0])
@example([0, 2, 0, 1])
def test_binomial_row_rule_matches_full_expansion(caps):
    # unequal and zero caps, every k from -1 to sum(E) + 1: the gradient's entry i is
    # the slice of the product over (X - y_i), and 0 when E_i = 0
    full, lowered = _lowered_expansions(caps)
    ys = z_variables(len(caps))
    for k in range(-1, sum(caps) + 2):
        got = product_power_gradient(caps, k, ys)
        assert list(got) == [poly.slice_power("X", k) for poly in lowered], (caps, k)
        assert Polynomial(ys, product_power_slice(caps, k)) == full.slice_power("X", k)


def test_binomial_row_by_recurrence_matches_math_comb():
    for top in range(-1, 9):
        for lo in range(0, 11):
            for hi in range(lo - 1, 11):
                for sign in (1, -1):
                    want = {e: sign ** e * math.comb(top, e) if top >= 0 else 0
                            for e in range(lo, hi + 1)}
                    assert sparsepoly.binomial_row(top, lo, hi, sign) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=1, max_size=5),
    st.integers(0, n), st.integers(0, n))))
def test_row_products_are_products_without_quotients(case):
    # rows with zeros and non-units: each live entry is the special factor times the
    # plain factors of the other slots, the first value the plain product
    plain, special, indices, lo, hi = case
    live = range(min(lo, hi), max(lo, hi))
    [(chunk, whole, entries)] = sparsepoly.row_products(map(tuple, indices), plain, special, live)
    assert chunk == list(map(tuple, indices))
    for t, a in enumerate(chunk):
        factors = [row[e] for row, e in zip(plain, a)]
        assert whole[t] == math.prod(factors)
        assert [col[t] for col in entries] == [
            special[i][a[i]] * math.prod(factors[:i] + factors[i + 1:]) for i in live]


def test_slice_above_the_desk_limit_is_refused_before_enumerating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the desk guard")

    monkeypatch.setattr(sparsepoly, "bounded_compositions", enumerate_nothing)
    caps = (24,) * 9
    assert slice_cost(caps, 100) > sparsepoly.DESK_LIMIT
    with pytest.raises(DeskEnvelopeError, match=r"slice at X\*\*100 would cost"):
        product_power_slice(caps, 100)
    with pytest.raises(DeskEnvelopeError, match=r"gradient at X\*\*100 would cost"):
        product_power_gradient(caps, 100, z_variables(9))


def test_one_desk_budget_in_one_place():
    # one limit, named only where it is checked, and one refusal path
    texts = {path.name: path.read_text()
             for path in Path(sparsepoly.__file__).parent.glob("*.py")}
    raises = {name: text.count("raise DeskEnvelopeError") for name, text in texts.items()}
    assert sum(raises.values()) == 1 and raises["sparsepoly.py"] == 1
    assert [name for name, text in texts.items() if "DESK_LIMIT" in text] == ["sparsepoly.py"]
    for gone in ("DESK_TUPLE_LIMIT", "DESK_MULADD_LIMIT", "_check_desk", "20_000"):
        assert not any(gone in text for text in texts.values()), gone


def test_slice_cost_weighs_tuples_by_coefficient_digits():
    # caps (3, 3) at X**2: tuples (0,2), (1,1), (2,0) with |coefficient| at most
    # binom(6, 2) = 15 < (4*6/2)**2, so one digit; a gradient walks 2n = 4 more times
    assert slice_size((3, 3), 2) == 3
    assert slice_cost((3, 3), 2) == 3 * 2 * (1 + 1)
    assert slice_cost((3, 3), 2, 4) == 3 * 2 * (1 + 4)
    # (M,)*3, M = 312: at X**(2M) the bound is 2**(3M), 32 digits; at X**(3M - 10),
    # K = 10 and binom(3M, 10) < 2**(10 * (bitlen(93) + 2)) = 2**90, 3 digits
    M = 312
    assert slice_cost((M,) * 3, 2 * M) == slice_size((M,) * 3, 2 * M) * 3 * (32 + 1)
    assert slice_cost((M,) * 3, 3 * M - 10) == slice_size((M,) * 3, 3 * M - 10) * 3 * (3 + 1)
    assert digits(0) == digits(1) == digits(30) == 1 and digits(31) == 2


def test_bounded_compositions_counts():
    out = list(bounded_compositions(3, (2, 2, 2)))
    assert len(out) == 7  # compositions of 3 into 3 parts <= 2
    assert all(sum(d) == 3 and all(x <= 2 for x in d) for d in out)
    assert list(bounded_compositions(7, (2, 2, 2))) == []
    assert list(bounded_compositions(0, (2, 2))) == [(0, 0)]


def test_slice_size_counts_bounded_compositions():
    for caps in [(), (0,), (3,), (1, 4), (2, 0, 5), (3, 1, 4, 2), (5, 5, 1, 0, 2)]:
        for k in range(-1, sum(caps) + 2):
            total = sum(caps) - k
            want = (sum(1 for _ in bounded_compositions(total, caps))
                    if k >= 0 and total >= 0 else 0)
            assert slice_size(caps, k) == want, (caps, k)


def test_json_roundtrip():
    rng = random.Random(8)
    f = random_poly(rng, XZ)
    data = poly_to_json(f)
    assert vector_from_json({"vars": data["vars"], "entries": [data["terms"]]}) == PolyVector([f])
    vec = PolyVector([random_poly(rng, XZ) for _ in range(3)])
    assert vector_from_json(vector_to_json(vec)) == vec
    with pytest.raises(ValueError):
        vector_from_json({"vars": ["z1"], "entries": [[{"e": [-1], "c": "1"}]]})


def test_json_decimal_strings_survive_big_coefficients():
    big = 10 ** 50 + 7
    f = Polynomial(("z1",), {(3,): big})
    data = poly_to_json(f)
    assert data["terms"][0]["c"] == str(big)
    assert vector_from_json({"vars": data["vars"], "entries": [data["terms"]]}) == PolyVector([f])


def test_modulus_context():
    ctx = ModulusContext(5, 2)
    assert ctx.modulus == 25
    assert ctx.half == 12
    assert (2 * ctx.inv2) % 25 == 1
    assert ctx.level(1).modulus == 5
    with pytest.raises(ValueError):
        ModulusContext(9, 1)
    with pytest.raises(ValueError):
        ModulusContext(2, 1)
    with pytest.raises(ValueError):
        ModulusContext(5, 0)


def test_substitute_and_scale_exponents():
    zv = ("z1", "z2")
    z1, z2 = gens(zv)
    f = z1 * z2 + z1
    wide = ("z1", "z2", "c")
    shifted = f.substitute(
        {"z1": Polynomial.variable("z1", wide) + Polynomial.variable("c", wide)}, wide)
    z1w, z2w, cw = gens(wide)
    assert shifted == z1w * z2w + cw * z2w + z1w + cw
    assert f.scale_exponents(5) == (z1 ** 5) * (z2 ** 5) + z1 ** 5


def test_vector_operations():
    zv = ("z1", "z2")
    z1, z2 = gens(zv)
    vec = PolyVector([z1, z2])
    assert vec.sum_entries() == z1 + z2
    assert (vec - vec).is_zero()
    assert vec.scale(3)[0] == 3 * z1
    assert vec.scale(z2)[1] == z2 * z2
    assert PolyVector.zero(2, zv).first_term() is None
    assert PolyVector([Polynomial.zero(zv), 3 * z1 * z2 + 5 * z2]).first_term() == (2, (0, 1), 5)
