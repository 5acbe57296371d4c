import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kz_padic import convergence, sparsepoly
from kz_padic.asymptotic import (
    coefficient_difference_bound,
    component_polynomials,
    components_of_class,
    index_class,
    limit_series,
    truncated_expansion,
    u_monomial,
    x_monomial,
)
from kz_padic.convergence import (
    check_bin_bound,
    check_xps_convergence,
    classic_partial_sums,
    converge_Q_general,
    converge_T_n3,
    convergence_cost,
    difference_envelope,
    disjoint_domain_probe,
    nonresidue_alternation,
    sample_disc,
    tail_floor,
    zone_muladds,
)
from kz_padic.cli import main
from kz_padic.kz import KZInstance
from kz_padic.padic import PAdic, PrecisionError, int_valuation
from kz_padic.sparsepoly import DESK_LIMIT, DeskEnvelopeError, ModulusContext

GRID = [(5, 1, 3), (5, 2, 3), (5, 3, 3), (7, 1, 3), (7, 2, 3),
        (5, 1, 5), (5, 2, 5), (7, 1, 5)]
GRID_CASES = [(p, s, n, l) for p, s, n in GRID for l in range(1, (n - 1) // 2 + 1)]
GENUS_3 = [(7, 1, 7, l) for l in (1, 2, 3)]


# -- the index-walk oracle: every index listed, every monomial evaluated ---------------

def evaluate_poly_dict(poly: dict, point, p: int, N: int) -> PAdic:
    """Oracle evaluator on residues mod p**N: one table of powers per coordinate."""
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


def level_of(M, p):
    s = 1
    while (p ** s - 1) // 2 < M:
        s += 1
    assert (p ** s - 1) // 2 == M
    return s


@functools.lru_cache(maxsize=None)
def truncation_polys(p, s, n, l):
    return component_polynomials(truncated_expansion(KZInstance(n, ModulusContext(p, s)), l),
                                 x_monomial)


@functools.lru_cache(maxsize=None)
def series_polys(p, n, l, cutoff, N):
    return component_polynomials(limit_series(p, n, l, cutoff, N), x_monomial)


def walk_values(polys, points, p, N):
    return [[evaluate_poly_dict(poly, pt, p, N).residue for poly in polys] for pt in points]


def walk_truncation_sums(n, l, M, points, p, N):
    return walk_values(truncation_polys(p, level_of(M, p), n, l), points, p, N)


def walk_series_sums(n, l, cutoff, points, p, N):
    return walk_values(series_polys(p, n, l, cutoff, N), points, p, N)


def walk_zone_sums(p, n, l, s_max, points, N):
    """``_zone_sums`` by the index walk: the series at the converge cutoff, then levels 1..s_max."""
    cutoff = max((p ** s_max - 1) // 2, N)
    return [walk_series_sums(n, l, cutoff, points, p, N)] + [
        walk_truncation_sums(n, l, (p ** s - 1) // 2, points, p, N) for s in range(1, s_max + 1)]


def walk_envelope(p, s, n, l, cutoff, with_prefactor):
    """The envelope over every stored index of the truncation and the series."""
    trunc = truncated_expansion(KZInstance(n, ModulusContext(p, s)), l)
    series = limit_series(p, n, l, cutoff, s + 1)
    best = None
    for a in set(trunc.coeffs) | set(series.coeffs):
        for j in components_of_class(n, l, index_class(n, l, a)):
            bound = sum(x_monomial(n, l, j, a)) + coefficient_difference_bound(p, s, n, l, a, j)
            best = bound if best is None else min(best, bound)
    floors = [tail_floor(cutoff), best]
    if with_prefactor:
        floors.append(s + 1)
    return min(floors)


def use_index_walk(monkeypatch):
    monkeypatch.setattr(convergence, "_zone_sums", walk_zone_sums)
    monkeypatch.setattr(convergence, "difference_envelope", walk_envelope)


def zone_points(p, n, N, count, seed):
    """Points x_2..x_{n-1} of the zero disc, the converge samples' domain."""
    cols = [sample_disc(p, 0, count, seed + i, N) for i in range(n - 2)]
    return [tuple(col[k] for col in cols) for k in range(count)]


def test_sample_disc_determinism_and_membership():
    a = sample_disc(5, 2, 10, 42, 8)
    b = sample_disc(5, 2, 10, 42, 8)
    assert a == b
    assert all(t.residue % 5 == 2 for t in a)
    zeros = sample_disc(5, 0, 10, 1, 8)
    assert all(t.norm_exponent() >= 1 for t in zeros)
    assert sample_disc(5, 2, 5, 0, 8) != sample_disc(5, 2, 5, 1, 8)


def test_power_tower_exact_example():
    assert int_valuation(2 ** 25 - 2 ** 5, 5) == 2


def test_power_tower_report():
    samples = sample_disc(5, 2, 25, 3, 12)
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


def test_power_tower_refuses_no_samples():
    with pytest.raises(ValueError, match="no samples"):
        check_xps_convergence(5, 2, [], 4, 12)


def test_nonresidue_has_no_limit():
    for alpha in (2, 3):        # non-squares mod 5
        assert nonresidue_alternation(5, alpha, 1, 10)
        assert nonresidue_alternation(5, alpha, 2, 10)
    with pytest.raises(ValueError):
        nonresidue_alternation(5, 4, 1, 10)


def test_bin_bound_difference_is_half_p_power():
    report = check_bin_bound(5, 0, 0, 1, [1, 2, 3])
    by_key = {(r["s"], r["a"]): r for r in report.rows}
    for s in (1, 2, 3):
        row = by_key[(s, 1)]
        assert row["valuation"] == s  # difference is exactly -p^s/2
        assert row["bound"] == s - 1
        assert row["ok"]
    assert report.passed


def test_bin_bound_degenerate_and_vacuous_rows():
    zero_diff = check_bin_bound(5, 1, 0, 0, [1, 2])
    assert all(r["valuation"] is None for r in zero_diff.rows if r["a"] == 0)
    rep = check_bin_bound(5, 0, 0, 2, [2])
    row = [r for r in rep.rows if r["a"] == 2][0]
    assert row["bound"] == 0 and not row["active"] and row["ok"]
    exact = Fraction(3, 8) - math.comb(12, 2)
    assert (int_valuation(exact.numerator, 5) - int_valuation(exact.denominator, 5)
            == row["valuation"])


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
            tuple(s[k] for s in (sample_disc(p, 0, 6, 20 + i, N)
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
    # the index-walk path: truncation/series -> component_polynomials ->
    # oracle evaluator, and the envelope over every stored index
    def runs():
        out = [converge_Q_general(5, n, l, 2, 6, 4, 8).to_json()]
        if n == 3:
            out.append(converge_T_n3(5, 2, 6, 4, 8).to_json())
        return out

    fast = runs()
    use_index_walk(monkeypatch)
    assert runs() == fast


@pytest.mark.parametrize("p,s,n,l", GRID_CASES + GENUS_3)
def test_zone_sums_match_index_walk(p, s, n, l):
    N = s + 6
    M = (p ** s - 1) // 2
    points = zone_points(p, n, N, 4, 31 * s + n)
    # a coordinate of valuation 2 and an exact zero shorten their rows
    points.append(tuple(PAdic(p, N, p * p * (i + 1)) for i in range(n - 2)))
    points.append(tuple(PAdic(p, N, 0 if i % 2 else p) for i in range(n - 2)))
    series, *levels = convergence._zone_sums(p, n, l, s, points, N)
    for level, sums in enumerate(levels, 1):
        assert sums == walk_truncation_sums(n, l, (p ** level - 1) // 2, points, p, N)
    for cutoff in (N - 1, N + 2):
        assert series == walk_series_sums(n, l, cutoff, points, p, N)


@pytest.mark.slow
@pytest.mark.parametrize("l", [1, 3])
def test_genus_3_level_2_sums_match_index_walk(l, monkeypatch):
    p, s, n, N = 7, 2, 7, 9
    points = zone_points(p, n, N, 2, 5)
    M = (p ** s - 1) // 2
    fast = convergence._zone_sums(p, n, l, s, points, N)[s]
    # the oracle expands the whole truncation, above the desk budget at (7, 2, 7)
    with monkeypatch.context() as m:
        m.setattr(sparsepoly, "DESK_LIMIT", 4 * DESK_LIMIT)
        assert fast == walk_truncation_sums(n, l, M, points, p, N)


ZONE_CASES = [(5, 1, 3, 1), (5, 2, 3, 1), (7, 1, 3, 1), (5, 1, 5, 1), (5, 1, 5, 2),
              (5, 2, 5, 2), (7, 1, 5, 1), (7, 1, 5, 2), (7, 1, 7, 2)]


@st.composite
def zone_cases(draw):
    p, s, n, l = draw(st.sampled_from(ZONE_CASES))
    N = draw(st.integers(s + 1, s + 5))
    vals = st.integers(1, N).map(lambda v: p ** v)
    units = st.integers(1, p ** N)
    point = tuple(PAdic(p, N, draw(vals) * draw(units)) for _ in range(n - 2))
    return p, s, n, l, N, point


@settings(max_examples=60, deadline=None)
@given(zone_cases())
def test_zone_sums_match_index_walk_at_random_points(case):
    p, s, n, l, N, point = case
    series, *levels = convergence._zone_sums(p, n, l, s, [point], N)
    assert series == walk_series_sums(n, l, N - 1, [point], p, N)
    for level, sums in enumerate(levels, 1):
        assert sums == walk_truncation_sums(n, l, (p ** level - 1) // 2, [point], p, N)


def test_zone_sums_reject_points_off_the_zero_disc():
    unit = (PAdic(5, 6, 1), PAdic(5, 6, 5), PAdic(5, 6, 0))
    with pytest.raises(ValueError, match="zero disc"):
        convergence._zone_sums(5, 5, 1, 1, [unit], 6)


@pytest.mark.parametrize("p,s,n,l", GRID_CASES + GENUS_3)
def test_pruned_envelope_matches_index_walk(p, s, n, l):
    for cutoff in sorted({s + 3, s + 7, max((p ** s - 1) // 2, s + 3)}):
        for with_prefactor in (False, True):
            assert (difference_envelope(p, s, n, l, cutoff, with_prefactor)
                    == walk_envelope(p, s, n, l, cutoff, with_prefactor)), (cutoff, with_prefactor)


# -- the schoolbook oracle: block products by convolution, then inner products -------

def _mul(a: list, b: list, m: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    width = len(b)
    for i, c in enumerate(a):
        if c:
            out[i:i + width] = [o + c * d for o, d in zip(out[i:i + width], b)]
    return [c % m for c in out]


def schoolbook_block_sums(block, l, plain_rows, special_rows, m, tally=None):
    """Component j's sum_r R(r) L(r + offset), the block products convolved mod m;
    the multiply-adds of the products are appended to ``tally``."""
    n = len(plain_rows) + 1
    muladds = 0

    def block_product(slots, j):
        nonlocal muladds
        out = [1]
        for i in slots:
            row = special_rows[i] if i == j - 1 else plain_rows[i]
            muladds += len(out) * len(row)
            out = _mul(out, row, m)
        return out

    left, right = range(block), range(block, n - 1)
    L, R = block_product(left, 0), block_product(right, 0)
    out = []
    for j in range(1, n + 1):
        if j <= block:
            lhs, rhs, offset = block_product(left, j), R, l - 1
        else:
            lhs, rhs, offset = L, (block_product(right, j) if j < n else R), l
        out.append(sum(c * d for c, d in zip(rhs, lhs[offset:])))
    if tally is not None:
        tally.append(muladds)
    return out


def schoolbook_zone_sums(p, n, l, s_max, point, N, tally=None):
    """``_zone_sums`` at one point, its slot rows through ``schoolbook_block_sums``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convergence, "_block_sums",
                      functools.partial(schoolbook_block_sums, tally=tally))
        return convergence._zone_sums(p, n, l, s_max, [point], N)


NL = [(3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)]


@st.composite
def slot_row_cases(draw):
    """Slot rows of any length, random, with zeros, or all m - 1 (the most carries)."""
    n, l = draw(st.sampled_from(NL))
    p = draw(st.sampled_from([3, 5, 7]))
    m = p ** draw(st.integers(1, 4))
    fill = st.one_of(st.integers(0, m - 1), st.sampled_from([0, m - 1]))

    def row(cap, entries):
        return [draw(entries) for _ in range(cap + 1)]

    plain_rows, special_rows = [], []
    for _ in range(n - 1):
        cap = draw(st.integers(0, 6))
        entries = draw(st.sampled_from([fill, st.just(m - 1)]))
        plain_rows.append(row(cap, entries))
        special_rows.append(row(cap, entries))
    return n - 2 * l, l, plain_rows, special_rows, m


def _full_rows(n, l, caps, m):
    rows = [[m - 1] * (cap + 1) for cap in caps]
    return n - 2 * l, l, rows, [list(r) for r in rows], m


WORST = [_full_rows(n, l, caps, m) for n, l in NL
         for caps, m in (([4] * (n - 1), 7 ** 3), ([0] + [3] * (n - 2), 5 ** 2),
                         ([6] * (n - 1), 3 ** 4), ([12] * (n - 1), 31 ** 13))]
WORST += [_full_rows(n, l, [12] * (n - 1), 31 ** 13) for n, l in ((9, 1), (9, 4), (11, 2), (11, 5))]


def assert_block_sums_agree(case):
    # the packed sums are congruent mod m to the exact schoolbook ones: the
    # schoolbook modulus exceeds every coefficient's bound
    block, l, plain_rows, special_rows, m = case
    exact = m ** len(plain_rows) * math.prod(len(r) for r in plain_rows) + 1
    packed = convergence._block_sums(block, l, plain_rows, special_rows, m)
    schoolbook = schoolbook_block_sums(block, l, plain_rows, special_rows, exact)
    assert [v % m for v in packed] == [v % m for v in schoolbook]


@pytest.mark.parametrize("case", WORST, ids=lambda c: f"n{len(c[2]) + 1}-l{c[1]}-m{c[4]}-"
                         + ",".join(str(len(r) - 1) for r in c[2]))
def test_packed_block_sums_carry_nothing_on_rows_of_m_minus_1(case):
    # every coefficient of every product is as large as the rows allow, so a
    # field narrower than its bound, or a fold too few, spills into the
    # inner product's field; n = 3 takes dot products of the rows
    assert_block_sums_agree(case)


@settings(max_examples=300, deadline=None)
@given(slot_row_cases())
def test_packed_block_sums_match_schoolbook(case):
    assert_block_sums_agree(case)


@settings(max_examples=100, deadline=None)
@given(zone_cases())
# level 1 (M = 2) stops below the row top, so its rows are shorter than the
# series' and level 2's at the same point; valuations 2 and 3 and an exact zero
@example((5, 2, 5, 1, 5, (PAdic(5, 5, 25 * 3), PAdic(5, 5, 0), PAdic(5, 5, 125))))
@example((5, 2, 5, 2, 4, (PAdic(5, 4, 0), PAdic(5, 4, 25 * 2), PAdic(5, 4, 5))))
def test_zone_values_match_schoolbook(case):
    p, s, n, l, N, point = case
    assert (convergence._zone_sums(p, n, l, s, [point], N)
            == schoolbook_zone_sums(p, n, l, s, point, N))


@pytest.mark.parametrize("n,l", NL)
def test_muladd_count_is_exact_at_valuation_one(n, l):
    # zone_muladds counts the schoolbook products that the packed ones replace:
    # the series, then levels 1 and 2 (M = 3 and 24)
    p, N = 7, 9
    tops = [convergence._row_top(l, N)] + [min(M, convergence._row_top(l, N)) for M in (3, 24)]
    tally = []
    schoolbook_zone_sums(p, n, l, 2, tuple(PAdic(p, N, p * (i + 2)) for i in range(n - 2)),
                         N, tally)
    assert tally == [zone_muladds(n, l, top, N) for top in tops]
    # a coordinate of higher valuation only shortens its row
    tally = []
    schoolbook_zone_sums(p, n, l, 2, (PAdic(p, N, p ** 3),) * (n - 2), N, tally)
    assert all(count < zone_muladds(n, l, top, N) for count, top in zip(tally, tops))


def test_desk_guard_refuses_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the desk guard")

    monkeypatch.setattr(convergence, "sample_disc", no_sampling)
    for run in (lambda: converge_Q_general(5, 5, 1, 2, 10 ** 7, 0, 10),
                lambda: converge_Q_general(5, 5, 1, 300, 50, 0, 308),
                lambda: converge_T_n3(5, 3, 50, 0, 3000)):
        start = time.perf_counter()
        with pytest.raises(DeskEnvelopeError):
            run()
        assert time.perf_counter() - start < 1.0
    assert convergence_cost(5, 5, 1, 4, 50, 12) < DESK_LIMIT


@pytest.mark.parametrize("p,smax", [(7, 6), (31, 4)])
def test_classic_desk_guard_refuses_before_the_first_k(monkeypatch, capsys, p, smax):
    # both ran for minutes: every k <= (p**smax - 1)/2 builds its binomials exactly
    def no_binomials(*args):
        raise AssertionError("formed a coefficient before the desk guard")

    monkeypatch.setattr(convergence, "binom_half_fraction", no_binomials)
    start = time.perf_counter()
    with pytest.raises(DeskEnvelopeError, match="classic comparison"):
        classic_partial_sums(p, range(1, smax + 1))
    with pytest.raises(SystemExit) as err:
        main(["converge", "--classic", "--p", str(p), "--smax", str(smax)])
    assert err.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert "above the desk budget" in capsys.readouterr().err


def test_converge_t_n3_small():
    report = converge_T_n3(5, 2, 12, 0, 9)
    assert report.passed
    assert report.constant_term_vals == {"1": 1, "2": 2}
    plain = [r for r in report.rows if r["phase"] == "series-only"]
    full = [r for r in report.rows if r["phase"] == "with-prefactor"]
    assert [r["bound_val"] for r in plain] == [1, 2]
    assert [r["measured_val"] for r in full] == [1, 2]


@pytest.mark.parametrize("run", [
    lambda: converge_T_n3(5, 0, 4, 0, 5),
    lambda: converge_T_n3(5, 2, 0, 0, 8),
    lambda: converge_Q_general(5, 5, 1, 0, 4, 0, 5),
    lambda: converge_Q_general(5, 5, 1, 2, 0, 0, 8),
], ids=["T-smax0", "T-count0", "Q-smax0", "Q-count0"])
def test_vacuous_converge_is_refused_before_sampling(run, monkeypatch):
    # with no level or no sample the run had no rows and passed, or died in min()
    def no_sampling(*args):
        raise AssertionError("sampled a run with nothing to compare")

    monkeypatch.setattr(convergence, "sample_disc", no_sampling)
    with pytest.raises(ValueError, match="need s_max >= 1 and count >= 1"):
        run()


def test_checks_without_levels_are_refused():
    with pytest.raises(ValueError, match="no level s gives a row"):
        check_bin_bound(5, 0, 0, 1, [])
    with pytest.raises(ValueError, match="no levels s to compare"):
        classic_partial_sums(5, [])


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


def _norm_cases(p, N):
    m = p ** N
    for k in range(N + 3):
        for unit in (1, 2, p - 1, p + 1, -1, -p - 1):
            for lift in (-2, 0, 1):     # the same residue, negative or past p**N
                yield unit * p ** k + lift * m
    yield from (0, m, -m, 3 * m)


@pytest.mark.parametrize("p, N", [(3, 4), (5, 6), (7, 2), (257, 3)])
def test_phase_row_norm_exponent_matches_padic(p, N):
    # the phase rows read each difference as an unreduced int mod p**N
    for x in _norm_cases(p, N):
        assert convergence._vector_val([x], p, N) == PAdic(p, N, x).norm_exponent(), x


@given(st.sampled_from([3, 5, 7]), st.integers(1, 6),
       st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=5))
def test_phase_row_vector_norm_is_least_entry_norm(p, N, diffs):
    assert convergence._vector_val(diffs, p, N) == \
        min(PAdic(p, N, d).norm_exponent() for d in diffs)


def test_converge_q_small_n5():
    for l in (1, 2):
        report = converge_Q_general(5, 5, l, 2, 8, 0, 8)
        assert report.passed, (l, report.rows)


def test_converge_q_matches_t_for_n3():
    # the J-form protocol differs from the T-form one by a unit factor,
    # so the measured valuations coincide
    t_rep = converge_T_n3(5, 2, 10, 3, 9)
    q_rep = converge_Q_general(5, 3, 1, 2, 10, 3, 9)
    t_full = [r["measured_val"] for r in t_rep.rows if r["phase"] == "with-prefactor"]
    q_full = [r["measured_val"] for r in q_rep.rows]
    assert t_full == q_full


def test_disjoint_domains():
    report = disjoint_domain_probe()
    assert report.passed
    assert report.cells == 2500 and report.first_overlap is None
    assert report.in_first > 0 and report.in_second > 0
    assert "val(u3)" in report.reason


def _randrange_probe_counts(p, count, seed):
    """Per point drawn by randrange: its cell and its concrete (first, second)
    membership, decided from the real units and the set of squares mod p."""
    rng = random.Random(seed)
    squares = {a * a % p for a in range(1, p)}

    def coord():
        val = rng.randrange(-2, 3)
        unit = rng.randrange(1, p ** 4)
        while unit % p == 0:
            unit = rng.randrange(1, p ** 4)
        return val, unit

    def chi(a):
        return 1 if a % p in squares else -1

    out = []
    for _ in range(count):
        (v1, a1), (v2, a2), (v3, a3), (v4, a4) = [coord() for _ in range(4)]
        p1 = (3 * v1 + 2 * v2 + v3 == 0 and a1 ** 3 * a2 ** 2 * a3 % p in squares
              and v2 + v3 >= 1 and v3 >= 1 and v4 >= 1)
        p2 = (v1 == 0 and a1 % p in squares
              and v2 >= 1 and v2 + v3 >= 1 and v2 + v3 + v4 >= 1)
        cell = (v1 + 2, v2 + 2, v3 + 2, v4 + 2, chi(a1), chi(a3))
        out.append((cell, p1, p2))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 101])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 257])
def test_disjoint_probe_follows_the_randrange_stream(p, seed):
    # the cells decide membership for every point the old seeded sampler
    # drew: the concrete predicates on real units agree with the cell
    # predicates, and no sampled point lies in both domains; at p = 257 a
    # unit draw is 33 bits wide and so spans two Mersenne Twister words
    assert p != 257 or (p ** 4 - 1).bit_length() == 33
    points = _randrange_probe_counts(p, 10_000, seed)
    for cell, p1, p2 in points:
        assert (convergence._in_first(*cell), convergence._in_second(*cell)) == (p1, p2), cell
    assert sum(p1 and p2 for _, p1, p2 in points) == 0
    assert any(p1 for _, p1, _ in points) and any(p2 for _, _, p2 in points)


def test_disjoint_probe_counts_match_all_symbol_cells():
    # all 10,000 (w, chi)**4 cells: chi(a2) and chi(a4) are never read, so
    # each of the probe's 2,500 cells stands for four of them
    first = second = both = 0
    for w in itertools.product(range(5), repeat=4):
        for c in itertools.product((1, -1), repeat=4):
            cell = (*w, c[0], c[2])
            p1, p2 = convergence._in_first(*cell), convergence._in_second(*cell)
            first += p1
            second += p2
            both += p1 and p2
    report = disjoint_domain_probe()
    assert (first, second, both) == \
        (4 * report.in_first, 4 * report.in_second, 4 * report.in_both)


def _in_first_without_balance(w1, w2, w3, w4, c1, c3):
    return w3 >= 3 and w4 >= 3 and w2 + w3 >= 5 and c1 == c3


def _in_second_without_w2(w1, w2, w3, w4, c1, c3):
    return w1 == 2 and c1 == 1 and w2 + w3 >= 5 and w2 + w3 + w4 >= 7


@pytest.mark.parametrize("name,broken", [("_in_first", _in_first_without_balance),
                                         ("_in_second", _in_second_without_w2)])
def test_disjoint_probe_fails_on_a_broken_predicate(name, broken, monkeypatch):
    # each broken copy admits cells of the other domain, and the probe names one
    monkeypatch.setattr(convergence, name, broken)
    report = disjoint_domain_probe()
    assert not report.passed and report.in_both > 0
    val, chi = report.first_overlap["val"], report.first_overlap["chi"]
    cell = (*(v + 2 for v in val), *chi)
    assert broken(*cell) and convergence._in_first(*cell) and convergence._in_second(*cell)


def test_disjoint_probe_needs_no_w3_bound(monkeypatch):
    # val(u3) >= 1 is not what keeps the domains apart: val(u2 u3) >= 1 in
    # the first already contradicts val(u3) = -2 val(u2) <= -2, so the first
    # domain without w3 >= 3 is larger and still misses the second
    monkeypatch.setattr(convergence, "_in_first", lambda w1, w2, w3, w4, c1, c3: (
        w4 >= 3 and w2 + w3 >= 5 and 3 * w1 + 2 * w2 + w3 == 12 and c1 == c3))
    report = disjoint_domain_probe()
    assert report.passed and report.in_first > 12


@pytest.mark.parametrize("name", ["_in_first", "_in_second"])
def test_disjoint_probe_fails_as_vacuous(name, monkeypatch):
    monkeypatch.setattr(convergence, name, lambda *cell: False)
    report = disjoint_domain_probe()
    assert not report.passed and report.in_both == 0 and report.first_overlap is None


@pytest.mark.parametrize("seed", range(5))
def test_disjoint_probe_fails_with_an_empty_domain(seed, monkeypatch):
    # one sampled point lands in at most one domain, so predicates cut down
    # to that point's cell check nothing
    [(cell, _, _)] = _randrange_probe_counts(5, 1, seed)
    for name in ("_in_first", "_in_second"):
        real = getattr(convergence, name)
        monkeypatch.setattr(convergence, name,
                            lambda *c, real=real: c == cell and real(*c))
    report = disjoint_domain_probe()
    assert report.in_first == 0 or report.in_second == 0
    assert not report.passed


def _classic_row_oracle(p, s):
    """Level s of ``classic_partial_sums`` with every binomial and k! rebuilt
    exactly at each k, as Fractions."""
    M = (p ** s - 1) // 2
    mismatches = []
    refined = True
    for k in range(M + 1):
        half_sq = Fraction(math.prod(range(1, 2 * k, 2)), (-2) ** k * math.factorial(k)) ** 2
        int_sq = math.comb(M, k) ** 2
        lhs = PAdic.from_fraction(half_sq, p, s).residue
        rhs = int_sq % p ** s
        if lhs != rhs:
            mismatches.append([k, str(lhs), str(rhs)])
        diff = half_sq - int_sq
        if diff and (int_valuation(diff.numerator, p)
                     < s - (int_valuation(math.factorial(k), p) or 0)):
            refined = False
    return {"s": s, "coefficientwise_equal": not mismatches,
            "mismatches": mismatches, "refined_ok": refined}


@pytest.mark.parametrize("p, smax", [(3, 5), (5, 3), (7, 3), (11, 2), (13, 2)])
def test_classic_running_products_match_exact_binomials(p, smax):
    report = classic_partial_sums(p, range(1, smax + 1))
    assert report.rows == [_classic_row_oracle(p, s) for s in range(1, smax + 1)]


def test_classic_partial_sums_reality():
    report = classic_partial_sums(5, [1, 2])
    first, second = report.rows
    assert first["coefficientwise_equal"]
    assert not second["coefficientwise_equal"]
    # the first failing coefficient: k = 5, residues 4 vs 14 mod 25
    assert second["mismatches"][0] == [5, "4", "14"]
    assert first["refined_ok"] and second["refined_ok"]


def test_classic_refined_congruence_everywhere():
    for p in (5, 7):
        report = classic_partial_sums(p, [1, 2, 3])
        assert all(r["refined_ok"] for r in report.rows)
