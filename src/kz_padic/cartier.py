"""Cartier-Manin matrices of y**2 = (x - z_1)...(x - z_n) mod p.

Entry (i, j) is the coefficient of x**(j*p - 1) in x**(i-1) f(x)**((p-1)/2)
reduced mod p; it is homogeneous of degree i + (g - j) p + (p - n)/2.  These
matrices realize multiplication by p on the graded pieces of the solution
module: reducing a level-t solution mod p expresses it over level t-1
generators through C twisted by z -> z**(p**(t-1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kz import Check, KZInstance, failure_site
from .sparsepoly import ModulusContext, Polynomial, PolyVector, product_power_slice, z_variables


@dataclass
class CartierMatrix:
    p: int
    n: int
    entries: list  # g x g nested list of Polynomial mod p (entries[i-1][j-1] = C_i^j)

    @property
    def g(self) -> int:
        return (self.n - 1) // 2

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i - 1][j - 1]

    def twist(self, e: int) -> "CartierMatrix":
        """Substitute z -> z**(p**e) by exponent scaling."""
        k = self.p ** e
        return CartierMatrix(self.p, self.n,
                             [[c.scale_exponents(k) for c in row] for row in self.entries])

    def expected_degree(self, i: int, j: int) -> int:
        return i + (self.g - j) * self.p + (self.p - self.n) // 2

    def degrees_ok(self) -> bool:
        for i in range(1, self.g + 1):
            for j in range(1, self.g + 1):
                entry = self.entry(i, j)
                if entry.is_zero():
                    continue
                if entry.degrees_present() != {self.expected_degree(i, j)}:
                    return False
        return True

    def to_json(self) -> dict:
        from .sparsepoly import poly_to_json

        return {
            "p": self.p,
            "n": self.n,
            "entries": [[poly_to_json(c) for c in row] for row in self.entries],
        }


def cartier_matrix(p: int, n: int) -> CartierMatrix:
    """C_i^j = coefficient of x**(j p - 1) in x**(i-1) f(x)**((p-1)/2) mod p."""
    ModulusContext(p, 1)  # validates that p is an odd prime
    if n % 2 == 0 or n < 3 or p < n:
        raise ValueError("need odd n >= 3 and p >= n")
    g = (n - 1) // 2
    zvars = z_variables(n)
    caps = ((p - 1) // 2,) * n
    entries = []
    for i in range(1, g + 1):
        row = []
        for j in range(1, g + 1):
            sl = product_power_slice(caps, j * p - 1 - (i - 1))
            row.append(Polynomial(zvars, sl).reduce_mod(p))
        entries.append(row)
    return CartierMatrix(p, n, entries)


def matmul(A: CartierMatrix, B: CartierMatrix) -> CartierMatrix:
    if (A.p, A.n) != (B.p, B.n):
        raise ValueError("matrix frames differ")
    g = A.g
    rows = []
    for i in range(g):
        row = []
        for j in range(g):
            acc = Polynomial.zero(A.entries[0][0].vars)
            for k in range(g):
                acc = acc + A.entries[i][k] * B.entries[k][j]
            row.append(acc.reduce_mod(A.p))
        rows.append(row)
    return CartierMatrix(A.p, A.n, rows)


def _level_solution(inst: KZInstance, t: int, l: int) -> PolyVector:
    from .solutions import extract_solution

    return extract_solution(inst.level(t), None, l, t).vector


def _lowered_differences(inst: KZInstance, t: int, base_level: int,
                         matrix: CartierMatrix) -> list:
    """Per l = 1..g, reduced mod p: the level-t solution l minus
    sum_m (level-base_level solution m) * matrix[m][l]."""
    base = [_level_solution(inst, base_level, m) for m in range(1, inst.g + 1)]
    diffs = []
    for l in range(1, inst.g + 1):
        rhs = PolyVector.zero(inst.n, inst.zvars)
        for m, vec in enumerate(base, 1):
            rhs = rhs + vec.scale(matrix.entry(m, l))
        diffs.append((_level_solution(inst, t, l) - rhs).reduce_mod(inst.ctx.p))
    return diffs


def verify_grading_relation(inst: KZInstance, t: int) -> Check:
    """Check I at level t = sum_m (level t-1 solution)_m * C_m^l(z**(p**(t-1))) mod p."""
    if not 2 <= t <= inst.ctx.s:
        raise ValueError(f"t={t} outside 2..{inst.ctx.s}")
    C = cartier_matrix(inst.ctx.p, inst.n).twist(t - 1)
    diffs = _lowered_differences(inst, t, t - 1, C)
    first_mismatch = None
    for l, diff in enumerate(diffs, 1):
        first_mismatch = first_mismatch or failure_site(diff, l=l)
    matches = [diff.is_zero() for diff in diffs]
    return Check(passed=all(matches), t=t, matches=matches, first_mismatch=first_mismatch)


def iterated_product(inst: KZInstance, t: int, m: int) -> CartierMatrix:
    """C(z**(p**(t-m))) C(z**(p**(t-m+1))) ... C(z**(p**(t-1))) mod p.

    Left-to-right factors carry ascending twists, matching repeated
    application of the level-lowering map from level t down to level t-m.
    """
    if not 1 <= m < t:
        raise ValueError("need 1 <= m < t")
    C = cartier_matrix(inst.ctx.p, inst.n)
    product = C.twist(t - m)
    for k in range(t - m + 1, t):
        product = matmul(product, C.twist(k))
    return product


def verify_iterated_product(inst: KZInstance, t: int, m: int) -> Check:
    """For t = s, m = s-1 also check the fully lowered reformulation:

    the level-s solution reduces mod p to the level-1 solutions paired with
    the full twisted matrix product.
    """
    product = iterated_product(inst, t, m)
    reform = None
    if t == inst.ctx.s and m == inst.ctx.s - 1 and m >= 1:
        reform = all(diff.is_zero() for diff in _lowered_differences(inst, t, 1, product))
    return Check(passed=reform is not False, product=product, reformulation_ok=reform)
