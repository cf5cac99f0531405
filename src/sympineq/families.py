"""The named symmetric-polynomial families: fast exact evaluators, and the
proof of their Schur directions.

All families act on nonnegative rational vectors:

- ``E_k``       elementary symmetric polynomials, ``f_kr_all(x, 1)[k]``,
- ``F_{k,r}``   terms of ``(sum x)^k / k!`` with every exponent at most r,
- ``G_{k,r}``   terms with at least r distinct variables (``Gbar`` is the
                complement; the exactly-r slice ``DeltaGbar_{k,r}`` is the
                difference ``Gbar_{k,r+1} - Gbar_{k,r}``),
- ``M_{k,r}``   k-th powers of all r-element subset sums.

The generic family ``H_S`` over an index set of exponent tuples is a
brute-force enumeration and lives with the oracles.

E, F, G, Gbar and M are coefficients of per-entry products that the integer
kernels in ``series`` compute, so each costs time polynomial in n:

- F: ``prod_i T_r(x_i t)`` with ``T_r(s) = sum_{j<=r} s^j / j!``; E is
  r = 1, where ``T_1 = 1 + s``,
- M_{k,r} = ``k! [u^r t^k] prod_i (1 + u e^{x_i t})``: u picks the r-subset,
  and ``e^{s t}`` over it gives ``s^k / k!``,
- DeltaGbar_{k,m} = ``[u^m t^k] prod_i (1 + u (e^{x_i t} - 1))``: each entry
  contributes either nothing or a nonempty power of itself, so u counts the
  distinct variables.  The factor is ``(1 - u) + u e^{x_i t}``, so G and
  Gbar are binomial transforms of the M rows of one table.

F and G are Schur-concave and M is Schur-convex, for every n, k and r.  By
the Schur-Ostrowski criterion (Marshall, Olkin & Arnold, *Inequalities:
Theory of Majorization*, 2nd ed., 2011, ch. 3.A) it is enough that, for any
two entries a and b, the difference of the partials ``d_a - d_b`` divided by
``b - a`` be nonnegative for F and G, and divided by ``a - b`` for M.  Each
generating function above writes that quotient as a polynomial in the
entries with nonnegative coefficients.  Write ``h_m(a, b) = sum_{i<=m} a^i
b^(m-i)``, with ``h_m = 0`` for m < 0:

- F: the template satisfies ``T_r' = T_r - s^r / r!``, so with ``R =
  prod_{l != a,b} T_r(x_l t)``, ``(d_a F_{k,r} - d_b F_{k,r}) / (b - a) =
  [t^k] t^(r+1) / r! R(t) sum_{j<r} t^j / j! (ab)^j h_{r-j-1}(a, b)``.
- G: ``d_a - d_b`` turns the factors of a and b into ``u (1 - u) t (e^{at} -
  e^{bt})``, so the sum over the rows m >= r telescopes to one row: with
  ``R_m = [u^m] prod_{l != a,b} (1 + u (e^{x_l t} - 1))`` and ``R_{-1} = 0``,
  ``d_a G_{k,r} - d_b G_{k,r} = -[t^k] t (e^{at} - e^{bt}) R_{r-2}(t)``, and
  ``(e^{at} - e^{bt}) / (a - b) = sum_m h_{m-1}(a, b) t^m / m!``.
- M: the r-subsets that hold both a and b cancel, so ``(d_a M_{k,r} -
  d_b M_{k,r}) / (a - b) = k sum_T h_{k-2}(a + s_T, b + s_T)`` over the
  (r-1)-subsets T of the other entries, with s_T the sum of T.

``tests/test_families.py`` checks the three identities exactly, against
partials of the brute-force oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul

from .series import SubsetPowerTable, product_over_vector, subset_power_table
from .vectors import RationalVector

__all__ = [
    "f_kr_all",
    "g_kr",
    "gbar_kr",
    "gbar_numerators",
    "m_kr",
    "m_cell",
]


def f_kr_all(x: RationalVector, r: int) -> list[Fraction]:
    """F_{0,r}..F_{nr,r}: the coefficient list of the order-r exponential-template
    product over the entries."""
    return list(product_over_vector(x, r).coeffs)


def gbar_numerators(table: SubsetPowerTable, r: int) -> list[int]:
    """``k! L^k Gbar_{k,r}`` for k <= k_max, from the rows below r.

    As ``1 + u (e^{x t} - 1) = (1 - u) + u e^{x t}``, ``k! L^k DeltaGbar_{k,m}
    = sum_{j<=m} (-1)^(m-j) C(n-j, m-j) rows[j][k]``; summing over m < r with
    ``sum_{i<=a} (-1)^i C(N, i) = (-1)^a C(N-1, a)`` leaves one sum over j < r.
    """
    n = table.n
    if r > n:  # every term uses at most n < r variables
        return [table.total ** k for k in range(table.k_max + 1)]
    table.entry(r - 1, 0)  # IndexError unless the rows below r were built
    coeffs = [(-1) ** (r - 1 - j) * comb(n - 1 - j, r - 1 - j) for j in range(r)]
    return [sum(map(mul, coeffs, column)) for column in zip(*table.rows[:r])]


def gbar_kr(x: RationalVector, k: int, r: int) -> Fraction:
    """Terms of ``(sum x)^k / k!`` using fewer than r distinct variables."""
    if k < 0 or r < 1:
        raise ValueError("need k >= 0 and r >= 1")
    r = min(r, k + 1)  # a degree-k term has at most k distinct variables
    table = subset_power_table(x, k, r - 1)
    return Fraction(gbar_numerators(table, r)[k], factorial(k) * table.denominator ** k)


def g_kr(x: RationalVector, k: int, r: int) -> Fraction:
    """Terms of ``(sum x)^k / k!`` using at least r distinct variables."""
    gbar = gbar_kr(x, k, r)
    return x.total() ** k / factorial(k) - gbar


def m_cell(table: SubsetPowerTable, k: int, r: int) -> Fraction:
    """M_{k,r} read from a subset_power_table with k_max >= k and
    r_max >= min(r, n); zero for r > n, the empty sum."""
    return Fraction(table.entry(r, k), table.denominator ** k)


def m_kr(x: RationalVector, k: int, r: int) -> Fraction:
    """Sum of k-th powers of all r-element subset sums."""
    if k < 1 or r < 1:
        raise ValueError("need k, r >= 1")
    return m_cell(subset_power_table(x, k, r), k, r)
