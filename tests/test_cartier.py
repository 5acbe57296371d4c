import pytest

from kz_padic import cartier
from kz_padic.cartier import (
    cartier_matrix,
    iterated_product,
    matmul,
    verify_grading_relation,
    verify_iterated_product,
)
from kz_padic.kz import KZInstance
from kz_padic.solutions import extract_solution
from kz_padic.sparsepoly import ModulusContext, Polynomial, z_variables


def test_genus_one_entry_is_symmetric_function():
    C = cartier_matrix(5, 3)
    zv = z_variables(3)
    z1, z2, z3 = (Polynomial.variable(v, zv) for v in zv)
    e1 = z1 + z2 + z3
    e2 = z1 * z2 + z1 * z3 + z2 * z3
    assert C.entry(1, 1) == (e1 * e1 + 2 * e2).reduce_mod(5)
    assert C.expected_degree(1, 1) == 2
    assert C.degrees_ok()


def test_entry_against_full_expansion_oracle():
    # p = 7, n = 3: entry = coefficient of x^6 in f^3 mod 7
    p, n = 7, 3
    zv = z_variables(n)
    xv = ("x",) + zv
    x = Polynomial.variable("x", xv)
    f = Polynomial.one(xv)
    for v in zv:
        f = f * (x - Polynomial.variable(v, xv))
    cube = f ** 3
    want = cube.slice_power("x", 6).reduce_mod(7)
    C = cartier_matrix(p, n)
    assert C.entry(1, 1) == want
    assert C.expected_degree(1, 1) == 3
    assert C.degrees_ok()


def test_degrees_for_genus_two():
    for p in (5, 7):
        C = cartier_matrix(p, 5)
        assert C.degrees_ok()


def test_validation():
    with pytest.raises(ValueError):
        cartier_matrix(4, 3)
    with pytest.raises(ValueError):
        cartier_matrix(3, 5)  # p < n


@pytest.mark.parametrize("p,n,t", [(5, 3, 2), (7, 3, 2), (5, 5, 2)])
def test_grading_relation(p, n, t):
    inst = KZInstance(n, ModulusContext(p, t))
    report = verify_grading_relation(inst, t)
    assert report.passed, report.first_mismatch


def test_grading_failure_site_names_the_tampered_entry(monkeypatch):
    p, n, t = 5, 5, 2
    inst = KZInstance(n, ModulusContext(p, t))
    mu = (1, 0, 2, 0, 0)
    untampered = cartier.cartier_matrix

    def tampered(p_, n_):
        C = untampered(p_, n_)
        entries = [list(row) for row in C.entries]
        entries[0][1] = (entries[0][1] + Polynomial(z_variables(n_), {mu: 1})).reduce_mod(p_)
        return cartier.CartierMatrix(p_, n_, entries)

    monkeypatch.setattr(cartier, "cartier_matrix", tampered)
    report = verify_grading_relation(inst, t)
    # +z**mu in C_1^2 adds lower_1 * z**(p mu) to the l = 2 combination, so the
    # first mismatch is -lower_1 at its first nonzero component mod p, shifted
    lower = extract_solution(inst.level(1), None, 1, 1).vector.reduce_mod(p)
    comp = next(k for k, entry in enumerate(lower, 1) if entry)
    least = min(lower[comp - 1].terms)
    assert report.matches == [True, False]
    assert report.first_mismatch == {
        "l": 2, "component": comp,
        "monomial": [e + p * m for e, m in zip(least, mu)],
        "coefficient": -lower[comp - 1].terms[least] % p,
    }


def test_twist_matches_substitution():
    C = cartier_matrix(5, 3)
    zv = z_variables(3)
    images = {v: Polynomial.variable(v, zv) ** 5 for v in zv}
    assert C.twist(1).entry(1, 1) == C.entry(1, 1).substitute(images, zv)


def test_iterated_product_m1_is_single_twist():
    inst = KZInstance(3, ModulusContext(5, 3))
    one = iterated_product(inst, 3, 1)
    assert one.entries == cartier_matrix(5, 3).twist(2).entries


def test_iterated_product_composition():
    # lowering two levels equals lowering one level twice (genus 2, so the
    # factor order is visible)
    inst = KZInstance(5, ModulusContext(5, 3))
    whole = iterated_product(inst, 3, 2)
    left = iterated_product(inst, 2, 1)            # levels 2 -> 1
    right = iterated_product(inst, 3, 1)           # levels 3 -> 2
    assert matmul(left, right).entries == whole.entries


def test_iterated_reformulation_genus_one():
    inst = KZInstance(3, ModulusContext(5, 3))
    report = verify_iterated_product(inst, 3, 2)
    assert report.reformulation_ok is True
    assert report.passed


def test_matmul_frame_mismatch():
    with pytest.raises(ValueError):
        matmul(cartier_matrix(5, 3), cartier_matrix(7, 3))
