"""The named symmetric-polynomial families: fast exact evaluators and gradients.

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

- F: ``prod_i A(x_i t)`` with ``A = taylor_template(r)``; E is r = 1, where
  ``A = 1 + s``,
- M_{k,r} = ``k! [u^r t^k] prod_i (1 + u e^{x_i t})``: u picks the r-subset,
  and ``e^{s t}`` over it gives ``s^k / k!``,
- DeltaGbar_{k,m} = ``[u^m t^k] prod_i (1 + u (e^{x_i t} - 1))``: each entry
  contributes either nothing or a nonempty power of itself, so u counts the
  distinct variables.  The factor is ``(1 - u) + u e^{x_i t}``, so G and
  Gbar are binomial transforms of the M rows of one table.

The F gradient and the G and M partials take their entry-dependent part from
the family at x with entry i left out.  That value comes by division: the
product at x, divided by entry i's factor, is the product without it, so one
product (or table) at x gives every partial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import mul

from .series import (SubsetPowerTable, product_over_vector, subset_power_table,
                     taylor_template)
from .vectors import RationalVector

__all__ = [
    "f_kr_all",
    "g_kr",
    "gbar_kr",
    "gbar_numerators",
    "g_cell",
    "m_kr",
    "m_cell",
    "grad_f_kr",
]


def f_kr_all(x: RationalVector, r: int) -> list[Fraction]:
    """F_{0,r}..F_{nr,r}: the coefficient list of the order-r exponential-template
    product over the entries."""
    if r < 1:
        raise ValueError("need r >= 1")
    return list(product_over_vector(x, taylor_template(r)).coeffs)


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


def g_cell(table: SubsetPowerTable, k: int, r: int) -> Fraction:
    """G_{k,r}, the complement of Gbar_{k,r} in ``(sum x)^k / k!``, read
    from a subset_power_table with k_max >= k and the rows below r."""
    gbar = gbar_numerators(table, r)[k]
    return Fraction(table.total ** k - gbar, factorial(k) * table.denominator ** k)


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


def grad_f_kr(x: RationalVector, r: int, k: int) -> tuple[Fraction, ...]:
    """Exact gradient of F_{k,r}, from one product.

    The template ``T_r`` satisfies ``T_r'(s) = T_r(s) - s^r / r!``, so
    ``dF_{k,r}/dx_i = F_{k-1,r}(x) - x_i^r / r! * F_{d,r}(x without i)`` with
    d = k - 1 - r.  The first term is shared by every i; the second vanishes
    for k <= r.  Leaving x_i out divides the product by ``T_r(x_i t)``, so
    with ``1 / T_r(s) = sum_m b_m s^m``, ``F_{d,r}(x without i) = sum_m b_m
    x_i^m F_{d-m,r}(x)``: a polynomial in x_i with coefficients from the
    product at x."""
    n = len(x)
    if r < 1:
        raise ValueError("need r >= 1")
    if not 0 <= k <= n * r:
        raise ValueError(f"need 0 <= k <= {n * r}")
    if k == 0:
        return tuple(Fraction(0) for _ in range(n))
    tpl = taylor_template(r)
    f = product_over_vector(x, tpl, degree_bound=k - 1).coeffs
    if k <= r:  # n = 1 always ends here, as k <= n r
        return (f[k - 1],) * n
    d, a = k - 1 - r, tpl.base_coeffs
    b = [Fraction(1)]
    for m in range(1, d + 1):
        b.append(-sum(a[j] * b[m - j] for j in range(1, min(m, r) + 1)))
    horner = [a[r] * bm * f[d - m] for m, bm in enumerate(b)][::-1]  # x_i^d first
    return tuple(f[k - 1] - xi ** r * reduce(lambda v, c: v * xi + c, horner, 0)
                 for xi in x.entries)
