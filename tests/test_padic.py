import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kz_padic.padic import (
    NonResidueError,
    PAdic,
    binom_half,
    binom_half_fraction,
    binom_half_rows,
    binom_prime_power_valuation,
    binom_shift_valuation,
    fraction_valuation,
    hensel_sqrt,
    int_valuation,
    legendre,
    teichmuller,
)


def test_valuation_examples():
    assert PAdic(5, 3, 50).valuation() == 2
    assert PAdic(5, 3, 0).valuation() is None
    assert PAdic(5, 3, 0).norm_exponent() == 3
    assert PAdic(5, 3, 7).valuation() == 0


def test_arithmetic_closed_at_precision():
    a = PAdic(5, 2, 24)
    b = PAdic(5, 2, 3)
    assert (a + b).residue == 2
    assert (a * b).residue == (24 * 3) % 25
    assert (a - b).residue == 21
    assert (a ** 2).residue == 24 * 24 % 25
    with pytest.raises(ValueError):
        a + PAdic(7, 2, 1)


def test_from_fraction():
    x = PAdic.from_fraction(Fraction(-1, 2), 5, 1)
    assert x.residue == 2


def test_from_fraction_rejects_negative_valuation():
    with pytest.raises(ValueError):
        PAdic.from_fraction(Fraction(3, 25), 5, 3)
    # p-divisible numerators cancel p-divisible denominators
    ok = PAdic.from_fraction(Fraction(50, 15), 5, 2)
    assert ok.residue == (10 * pow(3, -1, 25)) % 25


def test_teichmuller_fixed_points():
    assert teichmuller(PAdic(5, 4, 0)).residue == 0
    assert teichmuller(PAdic(5, 4, 1)).residue == 1
    assert teichmuller(PAdic(5, 2, 2)).residue == 7  # 2^5 = 32 = 7 mod 25
    for p in (5, 7):
        for t in range(p):
            w = teichmuller(PAdic(p, 12, t))
            assert (w ** p) == w
            assert w.residue % p == t


def test_teichmuller_locally_constant():
    rng = random.Random(11)
    p, N = 7, 10
    for alpha in range(p):
        a = alpha + p * rng.randrange(p ** (N - 1))
        b = alpha + p * rng.randrange(p ** (N - 1))
        assert teichmuller(PAdic(p, N, a)) == teichmuller(PAdic(p, N, b))


def test_hensel_sqrt_trivial_branches():
    one = PAdic(5, 4, 1)
    assert hensel_sqrt(one, 1).residue == 1
    assert hensel_sqrt(one, 4).residue == 5 ** 4 - 1


def test_hensel_sqrt_against_exhaustive_search():
    x = PAdic(5, 2, 6)
    y = hensel_sqrt(x, 1)
    roots = [r for r in range(25) if (r * r - 6) % 25 == 0 and r % 5 == 1]
    assert roots == [y.residue]
    assert (y * y) == x


def test_hensel_sqrt_branches_negate():
    rng = random.Random(12)
    p, N = 7, 9
    for _ in range(10):
        beta = rng.randrange(1, p)
        alpha = beta * beta % p
        t = PAdic(p, N, alpha + p * rng.randrange(p ** (N - 1)))
        plus = hensel_sqrt(t, beta)
        minus = hensel_sqrt(t, p - beta)
        assert plus + minus == PAdic(p, N, 0)
        assert plus * plus == t


def test_hensel_sqrt_rejects_nonresidues():
    with pytest.raises(NonResidueError):
        hensel_sqrt(PAdic(5, 3, 2), 1)  # 2 is not a square mod 5
    with pytest.raises(NonResidueError):
        hensel_sqrt(PAdic(5, 3, 5), 1)  # alpha = 0
    with pytest.raises(NonResidueError):
        hensel_sqrt(PAdic(5, 3, 6), 2)  # branch does not square to 1


def test_binom_half_values():
    assert binom_half(0, 0, 5, 3).residue == 1
    assert binom_half(0, 1, 5, 1).residue == 2      # -1/2 mod 5
    assert binom_half(1, 1, 5, 1).residue == 1      # -3/2 mod 5


def test_binom_half_against_fraction_oracle():
    for l1 in (0, 1, 2):
        for k in range(8):
            frac = Fraction(1)
            for j in range(k):
                frac *= Fraction(-1, 2) - l1 - j
            frac /= math.factorial(k)
            assert binom_half_fraction(l1, k) == frac
            for p in (3, 5, 7):
                got = binom_half(l1, k, p, 6)
                assert got == PAdic.from_fraction(frac, p, 6)
                # half-integer binomials are p-adic integers: norm <= 1
                assert fraction_valuation(frac, p) is None or fraction_valuation(frac, p) >= 0


@st.composite
def half_row_cases(draw):
    p = draw(st.sampled_from((3, 5, 7, 11)))
    # up to 3p**2 the rows pass e with p | e + 1 and with p | 2e + 1 several times
    return p, draw(st.integers(1, 6)), draw(st.integers(0, 3 * p * p))


@settings(max_examples=60, deadline=None)
@given(half_row_cases())
@example((3, 1, 27))
@example((11, 6, 363))
# tops past p**3: the valuation climbs to 3-6 and falls back, above and below N
@example((3, 1, 3 ** 5))
@example((3, 4, 3 ** 6))
@example((5, 3, 5 ** 4 + 2))
@example((7, 2, 7 ** 3 + 7))
def test_binom_half_rows_match_binom_half(case):
    p, N, top = case
    plain, special = binom_half_rows(top, p, N)
    assert plain == [binom_half(0, e, p, N).residue for e in range(top + 1)]
    assert special == [binom_half(1, e, p, N).residue for e in range(top + 1)]


def test_binom_prime_power_valuation():
    assert binom_prime_power_valuation(5, 2, 25) == 0
    assert binom_prime_power_valuation(5, 2, 1) == 2
    assert math.comb(25, 5) == 53130 == 2 * 3 * 5 * 7 * 11 * 23
    assert binom_prime_power_valuation(5, 2, 5) == 1
    with pytest.raises(ValueError):
        binom_prime_power_valuation(5, 2, 26)


def test_binom_prime_power_valuation_full_grids():
    # the closed form against the factorization of the exact binomial
    for p in (3, 5, 7):
        for s in (1, 2, 3):
            for a in range(1, p ** s + 1):
                v = binom_prime_power_valuation(p, s, a)
                assert v == int_valuation(math.comb(p ** s, a), p)


def test_binom_shift_valuation_examples():
    assert math.comb(9, 4) == 126
    assert binom_shift_valuation(5, 1, 0, 1, 1) == 1
    assert math.comb(29, 24) == 118755 and 118755 % 5 == 0 and 118755 // 5 == 23751
    assert binom_shift_valuation(5, 2, 1, 1, 1) >= 1
    assert math.comb(4, 2) == 6
    assert binom_shift_valuation(3, 1, 0, 2, 1) == 1


def test_binom_shift_valuation_grids():
    for p in (3, 5, 7):
        for s in (1, 2, 3):
            for r in range(s):
                for m in (1, 2, 3, 4):
                    if m % p == 0:
                        continue
                    for l in (1, 2, 3):
                        assert binom_shift_valuation(p, s, r, m, l) >= s - r


def test_power_tower_step_inequality():
    # |t^(p^(s+1)) - t^(p^s)| <= p^-(s+1) on any unit disc
    val = int_valuation(2 ** 25 - 2 ** 5, 5)
    assert val == 2
    rng = random.Random(13)
    p, N = 5, 12
    for _ in range(40):
        t = PAdic(p, N, rng.randrange(p ** N))
        for s in (1, 2, 3):
            diff = t ** (p ** (s + 1)) - t ** (p ** s)
            assert diff.norm_exponent() >= s + 1


def test_legendre():
    assert [legendre(a, 5) for a in range(5)] == [0, 1, -1, -1, 1]


def test_json_roundtrip():
    x = PAdic(7, 5, 1234)
    data = x.to_json()
    assert PAdic(int(data["p"]), int(data["N"]), int(data["residue"])) == x
