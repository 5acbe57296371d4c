"""The reduced KZ system as a verifiable object.

The system couples n first-order equations
    dI/dz_i = (1/2) sum_{j != i} Omega_ij / (z_i - z_j) I
with the algebraic constraint I_1 + ... + I_n = 0.  Verification works
modulo p**s on polynomial vectors after clearing denominators.  Write
    L_i = prod_{j != i}(z_i - z_j),   R_ik = L_i / (z_i - z_k),
    S = I_1 + ... + I_n;
equation i holds iff the cleared residual
    L_i dI/dz_i - inv(2) sum_{j != i} R_ij Omega_ij I
vanishes mod p**s.  Omega_ik only mixes slots i and k, so with the reduced
pair residuals
    r_ik = (z_i - z_k) dI_k/dz_i - inv(2) (I_i - I_k)
the cleared residual factors exactly, over Z before any reduction:
    component k != i:   R_ik r_ik,
    component i:        L_i dS/dz_i - sum_{k != i} R_ik r_ik.
R_ik and L_i are monic in z_i, so multiplying by them is injective on
(Z/p**s)[z]: the residual vanishes mod p**s iff every r_ik and dS/dz_i
does.  ``kz_residue`` therefore forms those in one linear pass over the
terms and multiplies polynomials only to rebuild a residual that is not
zero.  Multiplying a vanishing identity by a polynomial keeps it
vanishing, so a zero residual is sound; as a converse probe the residual
is also evaluated at random points where the cleared factor is a unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .sparsepoly import ModulusContext, Polynomial, PolyVector, z_variables


@dataclass(frozen=True)
class KZInstance:
    """System size n = 2g+1 with its arithmetic frame."""

    n: int
    ctx: ModulusContext

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError("n must be odd and >= 3")
        # p = n is admitted: the defining identities only need M = -1/2 mod p^s.
        if self.ctx.p < self.n:
            raise ValueError(f"prime {self.ctx.p} smaller than n={self.n}")

    @property
    def g(self) -> int:
        return (self.n - 1) // 2

    @property
    def zvars(self) -> tuple:
        return z_variables(self.n)

    def level(self, r: int) -> "KZInstance":
        return KZInstance(self.n, self.ctx.level(r))


@dataclass(frozen=True)
class OmegaMatrix:
    """Interaction matrix with -1 at (i,i),(j,j) and +1 at (i,j),(j,i)."""

    i: int
    j: int
    n: int
    rows: tuple = field(init=False)

    def __post_init__(self):
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise ValueError("indices out of range")
        if self.i == self.j:
            raise ValueError("indices must differ")
        rows = [[0] * self.n for _ in range(self.n)]
        a, b = self.i - 1, self.j - 1
        rows[a][a] = rows[b][b] = -1
        rows[a][b] = rows[b][a] = 1
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))


def omega(i: int, j: int, n: int) -> OmegaMatrix:
    return OmegaMatrix(i, j, n)


def apply_omega(vec: PolyVector, i: int, j: int) -> PolyVector:
    """Omega_ij applied to a vector: slots i,j get the antisymmetric mix."""
    a, b = i - 1, j - 1
    out = [Polynomial.zero(vec.vars) for _ in range(len(vec))]
    out[a] = vec[b] - vec[a]
    out[b] = vec[a] - vec[b]
    return PolyVector(out)


def _times_difference(terms: dict, a: int, b: int) -> dict:
    """(z_a - z_b) f for a term map f (0-based a, b): a shift up in z_a and in z_b."""
    out: dict = {}
    for mono, c in terms.items():
        up = list(mono)
        up[a] += 1
        key = tuple(up)
        out[key] = out.get(key, 0) + c
        up[a] -= 1
        up[b] += 1
        key = tuple(up)
        out[key] = out.get(key, 0) - c
    return out


def _reduce(terms: dict, m: int) -> dict:
    return {mono: c % m for mono, c in terms.items() if c % m}


def kz_residue(I: PolyVector, i: int, inst: KZInstance) -> PolyVector:
    """Cleared-denominator residual of equation i, reduced mod p**s.

    Computed through the reduced pair residuals r_ik and dS/dz_i (see the
    module docstring).  Since (z_i - z_k) d/dz_i z**d = d_i z**d - d_i z**d',
    with d' = d - e_i + e_k, a term c z**d of I_k adds (d_i + inv2) c z**d
    and -d_i c z**d' to r_ik, and r_ik = that sum - inv2 I_i: one pass over
    the terms.  When every r_ik and dS/dz_i vanishes mod p**s so does the
    residual, and no polynomial is multiplied.
    """
    n = inst.n
    if len(I) != n:
        raise ValueError(f"vector length {len(I)} != n={n}")
    if I.vars != inst.zvars:
        raise ValueError(f"vector over {I.vars}, expected {inst.zvars}")
    if not 1 <= i <= n:
        raise ValueError(f"equation {i} outside 1..{n}")
    m = inst.ctx.modulus
    inv2 = inst.ctx.inv2
    a = i - 1
    pairs = {}                              # k -> r_ik mod p**s, nonzero only
    for k in range(n):
        if k == a:
            continue
        r = {mono: -inv2 * c for mono, c in I[a].terms.items()}
        for mono, c in I[k].terms.items():
            e = mono[a]
            r[mono] = r.get(mono, 0) + (e + inv2) * c
            if e:
                down = list(mono)
                down[a] -= 1
                down[k] += 1
                key = tuple(down)
                r[key] = r.get(key, 0) - e * c
        r = _reduce(r, m)
        if r:
            pairs[k] = r
    dS = I.sum_entries().diff_index(a).reduce_mod(m).terms
    if not pairs and not dS:
        return PolyVector.zero(n, I.vars)

    comps = [{} for _ in range(n)]
    for k, r in pairs.items():
        for j in range(n):
            if j not in (a, k):
                r = _times_difference(r, a, j)
        comps[k] = r
    lead = dS
    for j in range(n):
        if j != a:
            lead = _times_difference(lead, a, j)
    for comp in comps:
        for mono, c in comp.items():
            lead[mono] = lead.get(mono, 0) - c
    comps[a] = lead
    return PolyVector([Polynomial(I.vars, _reduce(c, m)) for c in comps])


@dataclass
class FailureSite:
    equation: int | str
    component: int
    monomial: tuple
    coefficient: int

    def to_json(self) -> dict:
        return {
            "equation": self.equation,
            "component": self.component,
            "monomial": list(self.monomial),
            "coefficient": str(self.coefficient),
        }


@dataclass
class SolutionCheck:
    sum_ok: bool
    equations: list
    first_failure: FailureSite | None
    point_checks: list

    @property
    def passed(self) -> bool:
        return self.sum_ok and all(self.equations) and all(self.point_checks)

    def to_json(self) -> dict:
        return {
            "sum_ok": self.sum_ok,
            "equations": self.equations,
            "point_checks": self.point_checks,
            "first_failure": self.first_failure.to_json() if self.first_failure else None,
            "pass": self.passed,
        }


def _first_term(vec: PolyVector):
    for comp, entry in enumerate(vec.entries):
        if entry:
            mono = min(entry.terms)
            return comp + 1, mono, entry.terms[mono]
    return None


def _distinct_point(rng: random.Random, inst: KZInstance) -> list:
    """A point with pairwise distinct coordinates mod p (cleared factor a unit)."""
    p, m = inst.ctx.p, inst.ctx.modulus
    residues = rng.sample(range(p), inst.n)
    return [r + p * rng.randrange(m // p) for r in residues]


def verify_solution(I: PolyVector, inst: KZInstance, point_checks: int = 4,
                    seed: int = 0) -> SolutionCheck:
    """Check the sum constraint and every cleared equation residual mod p**s."""
    m = inst.ctx.modulus
    sum_ok = I.sum_entries().reduce_mod(m).is_zero()
    indices = range(1, inst.n + 1)
    residues = [kz_residue(I, i, inst) for i in indices]

    equations = [r.is_zero() for r in residues]
    first_failure = None
    if not sum_ok:
        total = I.sum_entries().reduce_mod(m)
        mono = min(total.terms)
        first_failure = FailureSite("sum", 0, mono, total.terms[mono])
    else:
        for i, r in zip(indices, residues):
            if not r.is_zero():
                comp, mono, coeff = _first_term(r)
                first_failure = FailureSite(i, comp, mono, coeff)
                break

    rng = random.Random(seed)
    points = []
    for _ in range(point_checks):
        z = _distinct_point(rng, inst)
        ok = all(
            all(entry.evaluate(z, m) == 0 for entry in r.entries)
            for r in residues
        )
        points.append(ok)
    return SolutionCheck(sum_ok, equations, first_failure, points)


@dataclass
class MasterIdentityCheck:
    """Outcome of the two defining identities of the master polynomial."""

    derivative_sum_exact: bool      # sum_j M_j Phi/(x-z_j) == dPhi/dx over Z
    derivative_sum_mod: bool        # M * sum_j Phi/(x-z_j) == dPhi/dx mod p^s
    vector_identities: list         # cleared equation-wise identity mod p^s

    @property
    def passed(self) -> bool:
        return self.derivative_sum_exact and self.derivative_sum_mod and all(self.vector_identities)

    def to_json(self) -> dict:
        return {
            "derivative_sum_exact": self.derivative_sum_exact,
            "derivative_sum_mod": self.derivative_sum_mod,
            "vector_identities": self.vector_identities,
            "pass": self.passed,
        }


def verify_master_identities(inst: KZInstance, mvec) -> MasterIdentityCheck:
    """Symbolically verify the identities behind the solution construction.

    Over the exact integers, sum_j M_j Phi/(x-z_j) equals dPhi/dx; with every
    M_j = -1/2 mod p**s this collapses to the uniform form.  The vector
    identity is checked per equation in cleared-denominator form, with
    Psi^i carrying -Phi/(x-z_i) at slot i.
    """
    from .solutions import master_component, validate_mvec  # local import, no cycle

    mvec = validate_mvec(inst, mvec)
    n = inst.n
    m = inst.ctx.modulus
    xvars = ("x",) + inst.zvars
    comps = [master_component(inst, mvec, j, xvars) for j in range(1, n + 1)]
    P = PolyVector(comps)

    x = Polynomial.variable("x", xvars)
    phi = comps[0] * (x - Polynomial.variable("z1", xvars))
    total = Polynomial.zero(xvars)
    for Mi, comp in zip(mvec, comps):
        total = total + comp.scale(Mi)
    exact = total == phi.diff("x")

    half = inst.ctx.half
    uniform = Polynomial.zero(xvars)
    for comp in comps:
        uniform = uniform + comp
    mod_ok = (uniform.scale(half) - phi.diff("x")).reduce_mod(m).is_zero()

    inv2 = inst.ctx.inv2
    zpols = [Polynomial.variable(v, xvars) for v in inst.zvars]
    vector_ok = []
    for i in range(1, n + 1):
        lead = Polynomial.one(xvars)
        for j in range(1, n + 1):
            if j != i:
                lead = lead * (zpols[i - 1] - zpols[j - 1])
        lhs = PolyVector([lead * e.diff(f"z{i}") for e in P.entries])
        for j in range(1, n + 1):
            if j == i:
                continue
            rest = Polynomial.one(xvars)
            for k in range(1, n + 1):
                if k not in (i, j):
                    rest = rest * (zpols[i - 1] - zpols[k - 1])
            lhs = lhs - apply_omega(P, i, j).scale(rest).scale(inv2)
        rhs = [Polynomial.zero(xvars) for _ in range(n)]
        rhs[i - 1] = lead * (-comps[i - 1]).diff("x")
        vector_ok.append((lhs - PolyVector(rhs)).reduce_mod(m).is_zero())

    return MasterIdentityCheck(exact, mod_ok, vector_ok)
