"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports kz_padic.  Every expected value is recomputed from
``math.comb``, ``fractions.Fraction`` and plain integer arithmetic, and each
check returns a list of problems (empty when the output is right), so a
workload can report every failing site rather than a bare bool.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# -- solution vectors ------------------------------------------------------------


def solution_degree(p: int, s: int, n: int, l: int, r: int) -> int:
    """delta = n M - l p**r with M = (p**s - 1)/2: the common degree of the entries."""
    return n * (p ** s - 1) // 2 - l * p ** r


def closed_formula(n: int, M: int, delta: int, d) -> tuple:
    """Coefficient vector of z**d in the solution of degree delta, from the paper.

    (-1)**delta prod_{k != i} C(M, d_k) (C(M, d_i) - C(M-1, d_i-1)) in slot i.
    """
    d = tuple(d)
    if len(d) != n or sum(d) != delta or any(e < 0 or e > M for e in d):
        return (0,) * n
    sign = -1 if delta % 2 else 1
    binoms = [math.comb(M, e) for e in d]
    out = []
    for i, e in enumerate(d):
        rest = sign
        for k, b in enumerate(binoms):
            if k != i:
                rest *= b
        out.append(rest * (binoms[i] - (math.comb(M - 1, e - 1) if e else 0)))
    return tuple(out)


def entries_of(artifact: dict) -> list:
    """The solution artifact's vector as a list of {monomial: coefficient} dicts."""
    return [{tuple(t["e"]): int(t["c"]) for t in entry}
            for entry in artifact["vector"]["entries"]]


def random_composition(rng: random.Random, total: int, n: int, cap: int) -> tuple:
    """A tuple of n integers in [0, cap] summing to total (total <= n cap)."""
    out = []
    for i in range(n):
        room = cap * (n - i - 1)
        e = rng.randint(max(0, total - room), min(cap, total))
        out.append(e)
        total -= e
    return tuple(out)


def distinct_point(rng: random.Random, p: int, n: int, units: bool = False) -> list:
    """Integers with pairwise distinct residues mod p (nonzero ones if ``units``)."""
    residues = rng.sample(range(1 if units else 0, p), n)
    return [a + p * rng.randrange(p ** 4) for a in residues]


def residual_at(entries: list, z, mod: int) -> list:
    """KZ residual dI/dz_i - 1/2 sum_j Omega_ij I/(z_i - z_j) at z, mod ``mod``.

    Returns the n x n matrix R[i][c] (equation i, component c).  One pass
    over the terms evaluates every I_c and every dI_c/dz_i, using prefix and
    suffix products of the monomial, so the cost is O(terms * n).  The
    differences z_i - z_j must be units mod ``mod``.
    """
    n = len(z)
    z = [v % mod for v in z]
    top = [0] * n
    for entry in entries:
        for d in entry:
            for k, e in enumerate(d):
                if e > top[k]:
                    top[k] = e
    powers = []
    for k in range(n):
        row = [1]
        for _ in range(top[k]):
            row.append(row[-1] * z[k] % mod)
        powers.append(row)

    val = [0] * n
    der = [[0] * n for _ in range(n)]          # der[c][i] = dI_c/dz_i
    for c, entry in enumerate(entries):
        total = 0
        grad = [0] * n
        for d, coeff in entry.items():
            coeff %= mod
            if not coeff:
                continue
            prefix = [1] * (n + 1)
            for k in range(n):
                prefix[k + 1] = prefix[k] * powers[k][d[k]] % mod
            total += coeff * prefix[n]
            suffix = 1
            for k in range(n - 1, -1, -1):
                e = d[k]
                if e:
                    grad[k] += coeff * e * prefix[k] * powers[k][e - 1] * suffix % mod
                suffix = suffix * powers[k][e] % mod
        val[c] = total % mod
        der[c] = [g % mod for g in grad]

    inv2 = (mod + 1) // 2
    R = [[0] * n for _ in range(n)]
    for i in range(n):
        diag = der[i][i]
        for j in range(n):
            if j == i:
                continue
            w = pow((z[i] - z[j]) % mod, -1, mod)
            # Omega_ij I has I_j - I_i in slot i and I_i - I_j in slot j
            diag -= inv2 * (val[j] - val[i]) * w
            R[i][j] = (der[j][i] - inv2 * (val[i] - val[j]) * w) % mod
        R[i][i] = diag % mod
    return R


def check_solution(artifact: dict, rng: random.Random, samples: int, points: int) -> list:
    """Problems with a solution artifact: its stated degree, then ``check_vector``."""
    p, s, n, l, r = (artifact[k] for k in ("p", "s", "n", "l", "r"))
    delta = solution_degree(p, s, n, l, r)
    problems = []
    if artifact.get("delta") != delta:
        problems.append(f"p={p} s={s} n={n} l={l} r={r}: artifact delta "
                        f"{artifact.get('delta')} != {delta}")
    return problems + check_vector((p, s, n, l, r), entries_of(artifact), rng, samples, points)


def check_vector(params, entries: list, rng: random.Random, samples: int, points: int) -> list:
    """Problems with solution (p, s, n, l, r), found by recomputing it independently.

    Checks homogeneity of degree n M - l p**r, the coordinate sum mod p**r,
    the closed formula on ``samples`` monomials of the support and
    ``samples`` random monomials of the right degree, and a zero KZ residual
    mod p**r at ``points`` seeded points with pairwise distinct residues
    mod p.
    """
    p, s, n, l, r = params
    M = (p ** s - 1) // 2
    mod = p ** r
    delta = solution_degree(p, s, n, l, r)
    tag = f"p={p} s={s} n={n} l={l} r={r}"
    if len(entries) != n:
        return [f"{tag}: {len(entries)} components, expected {n}"]
    if not any(entries):
        return [f"{tag}: zero vector"]

    problems = []
    sums: dict = {}
    for c, entry in enumerate(entries):
        for d, coeff in entry.items():
            if len(d) != n or sum(d) != delta:
                problems.append(f"{tag}: component {c + 1} monomial {d} not of degree {delta}")
                break
            sums[d] = sums.get(d, 0) + coeff
    bad_sum = sorted(d for d, total in sums.items() if total % mod)
    if bad_sum:
        problems.append(f"{tag}: coordinate sum at {bad_sum[0]} is nonzero mod {mod}")

    support = sorted(set().union(*entries))
    monos = rng.sample(support, min(samples, len(support)))
    monos += [random_composition(rng, delta, n, M) for _ in range(samples)]
    for d in monos:
        want = closed_formula(n, M, delta, d)
        got = tuple(entry.get(d, 0) for entry in entries)
        if got != want:
            problems.append(f"{tag}: coefficient at {d} is {got}, closed formula gives {want}")
            break

    for _ in range(points):
        z = distinct_point(rng, p, n)
        R = residual_at(entries, z, mod)
        nonzero = [(i + 1, c + 1) for i in range(n) for c in range(n) if R[i][c]]
        if nonzero:
            problems.append(f"{tag}: KZ residual nonzero mod {mod} at z={z}, "
                            f"(equation, component) {nonzero[0]}")
            break
    return problems


def corrupt(artifact: dict, rng: random.Random) -> dict:
    """A copy with +1 on I_1 and -1 on I_2 at one seeded monomial of their support.

    The change keeps the coordinate sum, so only the KZ equations can catch it.
    """
    entries = artifact["vector"]["entries"]
    support = sorted({tuple(t["e"]) for t in entries[0]} | {tuple(t["e"]) for t in entries[1]})
    mono = rng.choice(support)
    out = dict(artifact)
    new_entries = [list(entry) for entry in entries]
    for slot, delta in ((0, 1), (1, -1)):
        terms = {tuple(t["e"]): int(t["c"]) for t in new_entries[slot]}
        terms[mono] = terms.get(mono, 0) + delta
        new_entries[slot] = [{"e": list(d), "c": str(c)} for d, c in sorted(terms.items()) if c]
    out["vector"] = {"vars": artifact["vector"]["vars"], "entries": new_entries}
    return out


def check_rejected(artifact: dict, report: dict, rng: random.Random) -> list:
    """Problems with the verdict on a sum-preserving corrupted artifact.

    The report must fail, keep ``sum_ok``, and name an equation as its first
    failure; the benchmark's own evaluator must see a nonzero residual at a
    seeded point with distinct unit coordinates (there the corruption
    contributes the unit -1/2 z**d / (z_1 - z_3) to equation 1, component 3).
    """
    p, n, r = artifact["p"], artifact["n"], artifact["r"]
    tag = f"corrupted p={p} n={n}"
    problems = []
    if report.get("pass") is not False:
        problems.append(f"{tag}: verdict {report.get('pass')!r}, expected false")
    if report.get("sum_ok") is not True:
        problems.append(f"{tag}: sum_ok {report.get('sum_ok')!r}, the corruption keeps the sum")
    failure = report.get("first_failure") or {}
    if not (isinstance(failure.get("equation"), int) and 1 <= failure["equation"] <= n):
        problems.append(f"{tag}: first_failure {failure or None} names no equation")
    R = residual_at(entries_of(artifact), distinct_point(rng, p, n, units=True), p ** r)
    if not any(any(row) for row in R):
        problems.append(f"{tag}: independent residual vanishes")
    return problems


def check_verified(report: dict, n: int) -> list:
    """Problems with the report of a genuine solution: it must pass everywhere."""
    problems = []
    if report.get("pass") is not True:
        problems.append(f"verdict {report.get('pass')!r}, expected true")
    if report.get("sum_ok") is not True or report.get("equations") != [True] * n:
        problems.append(f"sum_ok/equations {report.get('sum_ok')!r}/{report.get('equations')!r}")
    if report.get("first_failure") is not None:
        problems.append(f"first_failure {report.get('first_failure')} on a genuine solution")
    return problems


# -- leading terms and Cartier-Manin entries ------------------------------------------


def leading_term(p: int, s: int, n: int, l: int) -> tuple:
    """Lex-leading monomial of the level-s solution l and its coefficient vector.

    z_1**M..z_{2g-2l}**M z_{2g-2l+1}**(M-l) with (-1)**delta C(M, l) times
    (0,..,0, l/M, 1,..,1), where C(M, l) l/M = C(M-1, l-1).
    """
    M = (p ** s - 1) // 2
    zeros = n - 1 - 2 * l
    mono = [M] * zeros + [M - l] + [0] * (n - zeros - 1)
    sign = -1 if solution_degree(p, s, n, l, s) % 2 else 1
    vec = [0] * zeros + [sign * math.comb(M - 1, l - 1)] + [sign * math.comb(M, l)] * (2 * l)
    return tuple(mono), tuple(vec)


def lex_leading(entries: list) -> tuple:
    """Largest monomial over all components, with the coefficient vector there."""
    top = max(max(entry) for entry in entries if entry)
    return top, tuple(entry.get(top, 0) for entry in entries)


def _poly_mul_mod(a: list, b: list, p: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def cartier_expected(p: int, z, i: int, j: int) -> int:
    """Coefficient of x**(j p - 1) in x**(i-1) f(x)**((p-1)/2) mod p, f = prod (x - z_k)."""
    f = [1]
    for zk in z:
        f = _poly_mul_mod(f, [-zk % p, 1], p)
    power = [1]
    for _ in range((p - 1) // 2):
        power = _poly_mul_mod(power, f, p)
    k = j * p - 1 - (i - 1)
    return power[k] if 0 <= k < len(power) else 0


def evaluate_terms(terms: dict, z, mod: int) -> int:
    """A {monomial: coefficient} polynomial at the integer point z, mod ``mod``."""
    total = 0
    for d, coeff in terms.items():
        term = coeff
        for v, e in zip(z, d):
            term = term * pow(v, e, mod)
        total += term
    return total % mod


def check_cartier(p: int, n: int, entries: list, rng: random.Random, points: int) -> list:
    """Problems with a Cartier-Manin matrix given as g x g {monomial: coeff} dicts."""
    g = (n - 1) // 2
    if len(entries) != g or any(len(row) != g for row in entries):
        return [f"cartier p={p} n={n}: matrix is not {g} x {g}"]
    for _ in range(points):
        z = [rng.randrange(p * p) for _ in range(n)]
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                got = evaluate_terms(entries[i - 1][j - 1], z, p)
                want = cartier_expected(p, z, i, j)
                if got != want:
                    return [f"cartier p={p} n={n}: C[{i}][{j}] at z={z} is {got}, "
                            f"expected {want}"]
    return []


# -- p-adic convergence reports ------------------------------------------------------


def valuation(q: Fraction, p: int) -> int | None:
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


def binom_fraction(a: Fraction, k: int) -> Fraction:
    """C(a, k) from its defining product prod_{j<k} (a - j)/(j + 1)."""
    out = Fraction(1)
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def constant_distance(p: int, n: int, l: int, s: int) -> int | None:
    """Valuation of the constant-term distance between truncation s and the limit.

    The truncation's constant term has C(M-1, l-1) in slot 2g-2l+1 and
    C(M, l) after it; the limit has C(-3/2, l-1) and C(-1/2, l) there.
    """
    M = (p ** s - 1) // 2
    diffs = [Fraction(math.comb(M, l)) - binom_fraction(Fraction(-1, 2), l),
             Fraction(math.comb(M - 1, l - 1)) - binom_fraction(Fraction(-3, 2), l - 1)]
    vals = [v for v in (valuation(d, p) for d in diffs) if v is not None]
    return min(vals) if vals else None


def check_converge(report: dict, p: int, n: int, l: int, smax: int) -> list:
    """Problems with a ``kz converge`` report.

    It must pass; within each phase the measured valuations must strictly
    increase with s = 1..smax; the constant-term distance must be exactly
    p**-s, recomputed here from Fractions and, where the report carries it,
    equal to the reported value.
    """
    tag = f"converge p={p} n={n} l={l}"
    problems = []
    if report.get("pass") is not True:
        problems.append(f"{tag}: verdict {report.get('pass')!r}, expected true")
    phases: dict = {}
    for row in report.get("rows", []):
        phases.setdefault(row["phase"], []).append(row)
    if not phases:
        problems.append(f"{tag}: no rows")
    for phase, rows in sorted(phases.items()):
        if [row["s"] for row in rows] != list(range(1, smax + 1)):
            problems.append(f"{tag}: phase {phase} has levels {[row['s'] for row in rows]}")
            continue
        vals = [row["measured_val"] for row in rows]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            problems.append(f"{tag}: phase {phase} valuations {vals} do not strictly increase")
    for s in range(1, smax + 1):
        if constant_distance(p, n, l, s) != s:
            problems.append(f"{tag}: constant-term distance at s={s} is not p**-{s}")
    reported = report.get("constant_term_vals") or {}
    if reported and reported != {str(s): s for s in range(1, smax + 1)}:
        problems.append(f"{tag}: reported constant-term valuations {reported}")
    probe = report.get("disjoint_domains")
    if n == 5 and (probe is None or probe.get("pass") is not True or probe.get("in_both") != 0):
        problems.append(f"{tag}: disjoint-domain probe {probe}")
    return problems
