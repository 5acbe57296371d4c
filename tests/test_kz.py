import random

import pytest
from hypothesis import given, settings, strategies as st

from kz_padic import kz
from kz_padic.kz import (
    KZInstance,
    apply_omega,
    kz_residue,
    omega,
    verify_master_identities,
    verify_solution,
)
from kz_padic.solutions import extract_solution, master_component
from kz_padic.sparsepoly import ModulusContext, Polynomial, PolyVector, z_variables


def inst513():
    return KZInstance(3, ModulusContext(5, 1))


def test_omega_entries():
    om = omega(1, 2, 3)
    assert om.rows == ((-1, 1, 0), (1, -1, 0), (0, 0, 0))
    assert omega(1, 3, 3).rows == ((-1, 0, 1), (0, 0, 0), (1, 0, -1))
    assert om.rows == omega(2, 1, 3).rows


def test_omega_row_sums_vanish():
    for n in (3, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                assert all(sum(row) == 0 for row in omega(i, j, n).rows)


def test_omega_equal_indices_rejected():
    with pytest.raises(ValueError):
        omega(2, 2, 3)


def test_apply_omega_matches_matrix():
    rng = random.Random(0)
    zv = z_variables(3)
    vec = PolyVector([
        Polynomial(zv, {(rng.randrange(3),) * 3: rng.randrange(1, 9)})
        for _ in range(3)
    ])
    for i, j in ((1, 2), (1, 3), (2, 3)):
        fast = apply_omega(vec, i, j)
        rows = omega(i, j, 3).rows
        slow = []
        for r in range(3):
            acc = Polynomial.zero(zv)
            for c in range(3):
                if rows[r][c]:
                    acc = acc + vec[c].scale(rows[r][c])
            slow.append(acc)
        assert fast == PolyVector(slow)


def test_residue_of_zero_vector():
    inst = inst513()
    zero = PolyVector.zero(3, inst.zvars)
    for i in (1, 2, 3):
        assert kz_residue(zero, i, inst).is_zero()


def test_constructed_solution_has_zero_residues():
    # independent oracle: full expansion of the master components, then slice
    inst = inst513()
    entries = []
    for j in (1, 2, 3):
        full = master_component(inst, None, j)
        entries.append(full.slice_power("x", 4))
    vec = PolyVector(entries)
    zv = inst.zvars
    z1, z2, z3 = (Polynomial.variable(v, zv) for v in zv)
    assert vec[0] == -1 * (z1 + 2 * z2 + 2 * z3)
    assert vec[1] == -1 * (2 * z1 + z2 + 2 * z3)
    assert vec[2] == -1 * (2 * z1 + 2 * z2 + z3)
    for i in (1, 2, 3):
        assert kz_residue(vec, i, inst).is_zero()
    assert vec.sum_entries().reduce_mod(5).is_zero()


def test_constant_vector_fails_only_the_sum_condition():
    # the interaction matrices kill constant vectors, so the differential
    # residuals vanish; the algebraic constraint is what rejects (1,1,1)
    inst = inst513()
    ones = PolyVector([Polynomial.one(inst.zvars)] * 3)
    check = verify_solution(ones, inst)
    assert all(check.equations)
    assert not check.sum_ok
    assert not check.passed
    assert check.first_failure.equation == "sum"


def test_non_solution_has_nonzero_residual():
    inst = inst513()
    zv = inst.zvars
    z1 = Polynomial.variable("z1", zv)
    vec = PolyVector([z1, -1 * z1, Polynomial.zero(zv)])
    check = verify_solution(vec, inst)
    assert check.sum_ok
    assert not all(check.equations)
    assert check.first_failure is not None
    assert not check.passed


def test_tampered_solution_detected():
    inst = inst513()
    rec = extract_solution(inst)
    terms = dict(rec.vector[0].terms)
    mono = next(iter(terms))
    terms[mono] += 1
    tampered = PolyVector([Polynomial(inst.zvars, terms), rec.vector[1], rec.vector[2]])
    check = verify_solution(tampered, inst)
    assert not check.passed
    assert check.first_failure is not None


def test_scaled_lower_level_solution_verifies():
    # p^(s-t) I at level t stays a solution mod p^s
    inst = KZInstance(3, ModulusContext(5, 2))
    low = extract_solution(inst.level(1), None, 1, 1)
    scaled = low.vector.scale(5)
    assert verify_solution(scaled, inst).passed


def test_quasi_constant_multiple_verifies():
    inst = KZInstance(3, ModulusContext(5, 2))
    rec = extract_solution(inst)
    f = Polynomial.variable("z1", inst.zvars) ** 25
    assert verify_solution(rec.vector.scale(f), inst).passed


def test_linear_combination_verifies():
    inst = inst513()
    rec = extract_solution(inst)
    combo = rec.vector.scale(3) + rec.vector.scale(Polynomial.variable("z2", inst.zvars) ** 5)
    assert verify_solution(combo, inst).passed


@pytest.mark.parametrize("p,s,n,mvec", [
    (5, 1, 3, (2, 2, 2)),
    (7, 1, 3, (3, 3, 3)),
    (5, 2, 3, (12, 12, 37)),
    (5, 1, 5, (2, 2, 2, 2, 7)),
])
def test_master_identities(p, s, n, mvec):
    inst = KZInstance(n, ModulusContext(p, s))
    check = verify_master_identities(inst, mvec)
    assert check.derivative_sum_exact
    assert check.derivative_sum_mod
    assert all(check.vector_identities)
    assert check.passed


def test_instance_validation():
    with pytest.raises(ValueError):
        KZInstance(4, ModulusContext(5, 1))
    with pytest.raises(ValueError):
        KZInstance(7, ModulusContext(5, 1))  # p < n
    KZInstance(5, ModulusContext(5, 1))      # p = n is allowed


# -- the factored residual against the expanded formula ------------------------

GRID = [(5, 1, 3), (5, 2, 3), (5, 3, 3), (7, 1, 3), (7, 2, 3),
        (5, 1, 5), (5, 2, 5), (7, 1, 5)]
# (5,2,5,l=1) is left out: its expanded residual alone takes over 20 s.
GRID_SOLUTIONS = [(p, s, n, l) for p, s, n in GRID for l in range(1, (n - 1) // 2 + 1)
                  if (p, s, n, l) != (5, 2, 5, 1)]


def expanded_residue(I, i, inst):
    """The oracle: L_i dI/dz_i - inv2 sum_{j != i} R_ij Omega_ij I mod p**s, expanded."""
    zv = I.vars
    z = [Polynomial.variable(v, zv) for v in zv]

    def differences(skip):
        out = Polynomial.one(zv)
        for j in range(1, inst.n + 1):
            if j != i and j != skip:
                out = out * (z[i - 1] - z[j - 1])
        return out

    lead = differences(None)
    res = PolyVector([lead * e.diff(f"z{i}") for e in I.entries])
    for j in range(1, inst.n + 1):
        if j != i:
            res = res - apply_omega(I, i, j).scale(differences(j)).scale(inst.ctx.inv2)
    return res.reduce_mod(inst.ctx.modulus)


def assert_matches_oracle(vec, inst, monkeypatch):
    """kz_residue equals the oracle on every equation, and so do the verify payloads."""
    oracle = {}

    def recording(I, i, inst_):
        oracle[i] = expanded_residue(I, i, inst_)
        return oracle[i]

    with monkeypatch.context() as patch:
        patch.setattr(kz, "kz_residue", recording)
        expected = verify_solution(vec, inst).to_json()
    for i in range(1, inst.n + 1):
        assert kz_residue(vec, i, inst) == oracle[i], f"equation {i}"
    assert verify_solution(vec, inst).to_json() == expected
    return expected


@pytest.mark.parametrize("p,s,n,l", GRID_SOLUTIONS)
def test_residue_matches_oracle_on_grid(p, s, n, l, monkeypatch):
    inst = KZInstance(n, ModulusContext(p, s))
    payload = assert_matches_oracle(extract_solution(inst, None, l).vector, inst, monkeypatch)
    assert payload["pass"]


def sum_preserving_corruption(vec, rng):
    """+1 on I_1 and -1 on I_2 at one monomial of their support: the sum is kept."""
    first, second = dict(vec[0].terms), dict(vec[1].terms)
    mono = rng.choice(sorted(set(first) | set(second)))
    first[mono] = first.get(mono, 0) + 1
    second[mono] = second.get(mono, 0) - 1
    return PolyVector([Polynomial(vec.vars, first), Polynomial(vec.vars, second),
                       *vec.entries[2:]])


@pytest.mark.parametrize("p,s,n,l", GRID_SOLUTIONS)
def test_residue_matches_oracle_on_corrupted_copies(p, s, n, l, monkeypatch):
    inst = KZInstance(n, ModulusContext(p, s))
    vec = extract_solution(inst, None, l).vector
    rng = random.Random(f"{p}-{s}-{n}-{l}")
    corrupted = sum_preserving_corruption(vec, rng)
    payload = assert_matches_oracle(corrupted, inst, monkeypatch)
    assert payload["sum_ok"] and not payload["pass"]

    bumped = [dict(e.terms) for e in vec.entries]
    slot = rng.randrange(n)
    mono = rng.choice(sorted(bumped[slot]))
    bumped[slot][mono] += 1
    payload = assert_matches_oracle(
        PolyVector([Polynomial(vec.vars, t) for t in bumped]), inst, monkeypatch)
    assert not payload["sum_ok"] and not payload["pass"]


def test_residue_when_only_the_sum_derivative_survives(monkeypatch):
    # I = (0, (z1-z2)**M, (z1-z3)**M) with M = -1/2 mod 5: every pair residual
    # r_1k vanishes, but dS/dz_1 does not, so equation 1 fails in component 1
    inst = inst513()
    z1, z2, z3 = (Polynomial.variable(v, inst.zvars) for v in inst.zvars)
    M = inst.ctx.half
    vec = PolyVector([Polynomial.zero(inst.zvars), (z1 - z2) ** M, (z1 - z3) ** M])
    res = kz_residue(vec, 1, inst)
    assert not res[0].is_zero() and res[1].is_zero() and res[2].is_zero()
    payload = assert_matches_oracle(vec, inst, monkeypatch)
    assert payload["equations"][0] is False


@st.composite
def sparse_vectors(draw):
    """A random sparse vector over z_1..z_n, p = 5; half of them have entries summing to 0."""
    n = draw(st.sampled_from([3, 5]))
    s = draw(st.sampled_from([1, 2]))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    entries = [draw(st.dictionaries(monos, st.integers(-60, 60), max_size=6))
               for _ in range(n)]
    if draw(st.booleans()):
        last = {}
        for entry in entries[:-1]:
            for mono, c in entry.items():
                last[mono] = last.get(mono, 0) - c
        entries[-1] = last
    zv = z_variables(n)
    return KZInstance(n, ModulusContext(5, s)), PolyVector([Polynomial(zv, e) for e in entries])


@settings(max_examples=60, deadline=None)
@given(sparse_vectors())
def test_residue_matches_oracle_on_random_vectors(case):
    inst, vec = case
    for i in range(1, inst.n + 1):
        assert kz_residue(vec, i, inst) == expanded_residue(vec, i, inst)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_genus_three_solutions_verify(l):
    inst = KZInstance(7, ModulusContext(7, 1))
    rec = extract_solution(inst, None, l)
    assert rec.homogeneous() and not rec.vector.is_zero()
    check = verify_solution(rec.vector, inst)
    assert check.passed and check.equations == [True] * 7


def test_residue_rejects_bad_input():
    inst = inst513()
    with pytest.raises(ValueError):
        kz_residue(PolyVector.zero(3, inst.zvars), 0, inst)
    with pytest.raises(ValueError):
        kz_residue(PolyVector.zero(3, ("x", "z1", "z2")), 1, inst)
