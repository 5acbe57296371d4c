"""Cartier-Manin matrices of y**2 = (x - z_1)...(x - z_n) mod p.

Entry (i, j) is the coefficient of x**(j*p - 1) in x**(i-1) f(x)**((p-1)/2)
reduced mod p; it is homogeneous of degree i + (g - j) p + (p - n)/2.  These
matrices realize multiplication by p on the graded pieces of the solution
module: reducing a level-t solution mod p expresses it over level t-1
generators through C twisted by z -> z**(p**(t-1)), and over level t-m
generators through the product of the m twists from t-m to t-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kz import Check, KZInstance, failure_site
from .solutions import extract_at_index, module_sum
from .sparsepoly import (
    ModulusContext,
    Polynomial,
    desk_check,
    poly_to_json,
    product_power_slice,
    slice_cost,
)


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
        return {
            "p": self.p,
            "n": self.n,
            "entries": [[poly_to_json(c) for c in row] for row in self.entries],
        }


def cartier_matrix(p: int, n: int) -> CartierMatrix:
    """C_i^j = coefficient of x**(j p - 1) in x**(i-1) f(x)**((p-1)/2) mod p."""
    # the instance validates an odd prime p >= n and an odd n >= 3
    return cartier_matrix_of(KZInstance(n, ModulusContext(p, 1)))


def cartier_matrix_of(inst: KZInstance) -> CartierMatrix:
    """``cartier_matrix`` at the p and n of an instance, without testing p again."""
    p, n, g = inst.ctx.p, inst.n, inst.g
    caps = ((p - 1) // 2,) * n
    index = [[j * p - i for j in range(1, g + 1)] for i in range(1, g + 1)]
    desk_check(sum(slice_cost(caps, k) for row in index for k in row), "matrix")
    entries = [[Polynomial(inst.zvars, product_power_slice(caps, k)).reduce_mod(p) for k in row]
               for row in index]
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


def iterated_product(inst: KZInstance, t: int, m: int) -> CartierMatrix:
    """C(z**(p**(t-m))) C(z**(p**(t-m+1))) ... C(z**(p**(t-1))) mod p.

    Left-to-right factors carry ascending twists, matching repeated
    application of the level-lowering map from level t down to level t-m.
    """
    if not 1 <= m < t:
        raise ValueError("need 1 <= m < t")
    C = cartier_matrix_of(inst)
    product = C.twist(t - m)
    for k in range(t - m + 1, t):
        product = matmul(product, C.twist(k))
    return product


def _lowered_differences(inst: KZInstance, t: int, m: int) -> tuple:
    """The product C(z**(p**(t-m))) ... C(z**(p**(t-1))) and, per l = 1..g, reduced
    mod p: the level-t solution l minus sum_k (level t-m solution)_k * product[k][l]."""
    if not 1 <= m < t <= inst.ctx.s:
        raise ValueError(f"need 1 <= m < t <= {inst.ctx.s}, got t={t}, m={m}")
    p, g = inst.ctx.p, inst.g
    product = iterated_product(inst, t, m)
    upper = inst.level(t)
    diffs = [(extract_at_index(upper, None, l * p ** t - 1)
              - module_sum(inst, None, [(t - m, k, product.entry(k, l)) for k in range(1, g + 1)],
                           t - m)).reduce_mod(p)
             for l in range(1, g + 1)]
    return product, diffs


def verify_grading_relation(inst: KZInstance, t: int) -> Check:
    """Check I at level t = sum_m (level t-1 solution)_m * C_m^l(z**(p**(t-1))) mod p."""
    _, diffs = _lowered_differences(inst, t, 1)
    first_mismatch = None
    for l, diff in enumerate(diffs, 1):
        first_mismatch = first_mismatch or failure_site(diff, l=l)
    matches = [diff.is_zero() for diff in diffs]
    return Check(passed=all(matches), t=t, matches=matches, first_mismatch=first_mismatch)


def verify_iterated_product(inst: KZInstance, t: int, m: int) -> Check:
    """Lower the level-t solutions m levels at once, for any 1 <= m < t <= s:

    each reduces mod p to the level t-m solutions paired with the column of
    the twisted matrix product.
    """
    product, diffs = _lowered_differences(inst, t, m)
    reform = all(diff.is_zero() for diff in diffs)
    return Check(passed=reform, product=product, reformulation_ok=reform)
