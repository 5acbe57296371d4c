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
This map from the reduced residual, r_ik in component k and dS/dz_i in
component i, to the cleared one is triangular, with factors R_ik and L_i
monic in z_i.  Multiplying by a monic polynomial is injective on
(Z/p**s)[z], so the cleared residual vanishes mod p**s iff every r_ik and
dS/dz_i does.  ``kz_residue`` therefore returns the reduced residual,
formed in one linear pass over the terms with no polynomial multiplied, and
``verify_solution`` decides on it and reports its first nonzero term: the
pair (i, k), or dS/dz_i at k = i, with the least monomial and its
coefficient.

The solutions come from one identity.  For the master vector
P = (Phi/(x - z_1), ..., Phi/(x - z_n)), Phi = prod_j (x - z_j)**M_j with
every M_j = -1/2 mod p**s, the KZ operator gives an exact x-derivative,
    L_i dP/dz_i - inv(2) sum_{j != i} R_ij Omega_ij P = -L_i dP_i/dx e_i
mod p**s, so the x**(l p**s - 1) coefficients of P solve the system.  In
pair form, with S = sum_k P_k, the cleared identity minus its right side
has component k != i equal to R_ik r_ik and component i equal to
    L_i (dS/dz_i + dP_i/dx) - sum_{k != i} R_ik r_ik,
and the same monic-cofactor argument, now over (Z/p**s)[x, z], gives:
equation i holds mod p**s iff every r_ik and dS/dz_i + dP_i/dx vanish.
``master_vector_identities`` checks exactly that, through the same pair
operator as ``kz_residue``.
"""

from __future__ import annotations

import types
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


def _pair_residues(I: PolyVector, i: int, ctx: ModulusContext) -> dict:
    """The nonzero reduced pair residuals r_ik mod p**s of equation i, by 0-based k.

    z_i and z_k are found by name, so I may be over z_1..z_n or (x, z_1..z_n).
    Since (z_i - z_k) d/dz_i z**d = d_i z**d - d_i z**d', with
    d' = d - e_i + e_k, a term c z**d of I_k adds (d_i + inv2) c z**d and
    -d_i c z**d' to r_ik, and r_ik = that sum - inv2 I_i: one pass over the
    terms.
    """
    m, inv2 = ctx.modulus, ctx.inv2
    a = i - 1
    zi = I.vars.index(f"z{i}")
    pairs = {}
    for k in range(len(I)):
        if k == a:
            continue
        zk = I.vars.index(f"z{k + 1}")
        r = {mono: -inv2 * c for mono, c in I[a].terms.items()}
        for mono, c in I[k].terms.items():
            e = mono[zi]
            r[mono] = r.get(mono, 0) + (e + inv2) * c
            if e:
                down = list(mono)
                down[zi] -= 1
                down[zk] += 1
                key = tuple(down)
                r[key] = r.get(key, 0) - e * c
        r = {mono: c % m for mono, c in r.items() if c % m}
        if r:
            pairs[k] = r
    return pairs


def kz_residue(I: PolyVector, i: int, inst: KZInstance) -> PolyVector:
    """The reduced residual of equation i mod p**s: component k != i is the pair
    residual r_ik and component i is dS/dz_i.

    The cleared residual is R_ik r_ik in component k and
    L_i dS/dz_i - sum_k R_ik r_ik in component i, a triangular map with
    factors monic in z_i, so it vanishes iff this vector does (see the module
    docstring).
    """
    return _residue(I, i, inst, I.sum_entries())


def _residue(I: PolyVector, i: int, inst: KZInstance, S: Polynomial) -> PolyVector:
    """``kz_residue``, given the sum S = I_1 + ... + I_n of the vector."""
    n = inst.n
    if len(I) != n:
        raise ValueError(f"vector length {len(I)} != n={n}")
    if I.vars != inst.zvars:
        raise ValueError(f"vector over {I.vars}, expected {inst.zvars}")
    if not 1 <= i <= n:
        raise ValueError(f"equation {i} outside 1..{n}")
    comps = _pair_residues(I, i, inst.ctx)
    comps[i - 1] = S.diff_index(i - 1).reduce_mod(inst.ctx.modulus).terms
    return PolyVector([Polynomial(I.vars, comps.get(k)) for k in range(n)])


class Check(types.SimpleNamespace):
    """A verdict: ``passed`` and the measured fields it was computed from."""

    def to_json(self) -> dict:
        """The fields, with ``passed`` under the key "pass"."""
        out = dict(vars(self))
        out["pass"] = out.pop("passed")
        return out


def failure_site(vec: PolyVector, **where) -> dict | None:
    """Component, least monomial and coefficient of the first nonzero entry, or None.

    The keys of ``where`` name the failing check and override those three.
    """
    site = vec.first_term()
    if site is None:
        return None
    comp, mono, coeff = site
    return {"component": comp, "monomial": list(mono), "coefficient": coeff, **where}


def verify_solution(I: PolyVector, inst: KZInstance) -> Check:
    """Check the sum constraint and every KZ equation mod p**s.

    Equation i passes iff its reduced residual (``kz_residue``) vanishes.  The
    first failure is the sum's least term, or else the least monomial of the
    first nonzero component of the first failing equation's reduced residual:
    component k != i names the pair (i, k), component i names dS/dz_i.
    """
    S = I.sum_entries()
    total = S.reduce_mod(inst.ctx.modulus)
    sum_ok = total.is_zero()
    indices = range(1, inst.n + 1)
    residues = [_residue(I, i, inst, S) for i in indices]

    equations = [r.is_zero() for r in residues]
    first_failure = failure_site(PolyVector([total]), equation="sum", component=0)
    for i, r in zip(indices, residues):
        first_failure = first_failure or failure_site(r, equation=i)
    if first_failure:
        first_failure["coefficient"] = str(first_failure["coefficient"])
    return Check(passed=sum_ok and all(equations), sum_ok=sum_ok,
                 equations=equations, first_failure=first_failure)


def master_vector_identities(P: PolyVector, inst: KZInstance) -> list:
    """Per equation: does the cleared identity of the master vector P hold mod p**s?

    P is over (x, z_1..z_n).  Equation i holds iff every pair residual r_ik
    and dS/dz_i + dP_i/dx vanish mod p**s (see the module docstring), so no
    cofactor is multiplied.
    """
    xvars = ("x",) + inst.zvars
    if len(P) != inst.n or P.vars != xvars:
        raise ValueError(f"expected {inst.n} entries over {xvars}")
    m = inst.ctx.modulus
    S = P.sum_entries()
    return [not _pair_residues(P, i, inst.ctx)
            and (S.diff(f"z{i}") + P[i - 1].diff("x")).reduce_mod(m).is_zero()
            for i in range(1, inst.n + 1)]


def verify_master_identities(inst: KZInstance, mvec) -> Check:
    """Symbolically verify the identities behind the solution construction.

    Over the exact integers, sum_j M_j Phi/(x-z_j) equals dPhi/dx; with every
    M_j = -1/2 mod p**s this collapses to the uniform form.  The vector
    identity is checked per equation by ``master_vector_identities``.
    """
    from .solutions import master_component, validate_mvec  # local: solutions imports kz

    mvec = validate_mvec(inst, mvec)
    m = inst.ctx.modulus
    xvars = ("x",) + inst.zvars
    P = PolyVector([master_component(inst, mvec, j) for j in range(1, inst.n + 1)])

    x = Polynomial.variable("x", xvars)
    dphi = (P[0] * (x - Polynomial.variable("z1", xvars))).diff("x")
    total = Polynomial.zero(xvars)
    for Mi, comp in zip(mvec, P):
        total = total + comp.scale(Mi)
    exact = total == dphi
    mod_ok = (P.sum_entries().scale(inst.ctx.half) - dphi).reduce_mod(m).is_zero()
    identities = master_vector_identities(P, inst)
    return Check(passed=exact and mod_ok and all(identities), derivative_sum_exact=exact,
                 derivative_sum_mod=mod_ok, vector_identities=identities)
