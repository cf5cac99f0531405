"""Exact truncated power series in one formal variable and per-entry products.

Two integer kernels multiply out per-entry factors modulo ``t^(D+1)``, with
the entries written ``x_i = v_i / L``; ``Fraction`` appears only on read-back.
``product_over_vector`` computes ``prod_i A(x_i t)`` for a base template (E,
F, and the catalysts as the product over the tensor vector), and
``subset_power_table`` computes ``prod_i (1 + u e^{x_i t})`` in exponential
generating function form (M, and by a binomial transform G and Gbar).  The
coefficient lists are dense because these products are dense by
construction.  ``product_over_vector`` multiplies each factor into its row in
one whole-row pass per template degree, so its inner loops run in C over
``map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, lcm
from operator import add, mul
from typing import Mapping, Optional, Sequence

from .vectors import RationalLike, RationalVector, to_fraction

__all__ = [
    "TruncatedSeries",
    "SeriesTemplate",
    "Catalyst",
    "taylor_template",
    "padded_taylor_template",
    "SubsetPowerTable",
    "subset_power_table",
    "product_over_vector",
    "tensor",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial in t modulo ``t^(D+1)`` with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class SeriesTemplate:
    """Base series ``s -> sum_j a_j s^j`` with a_0 = 1 and nonnegative a_j."""

    base_coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(to_fraction(c) for c in self.base_coeffs)
        object.__setattr__(self, "base_coeffs", coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("a template must have constant coefficient 1")
        if any(c < 0 for c in coeffs):
            raise ValueError("template coefficients must be nonnegative")

    @property
    def degree(self) -> int:
        return len(self.base_coeffs) - 1


def taylor_template(r: int) -> SeriesTemplate:
    """The degree-r truncation of exp: coefficients 1/j! for j <= r."""
    if r < 1:
        raise ValueError("template order must be >= 1")
    return SeriesTemplate(tuple(Fraction(1, factorial(j)) for j in range(r + 1)))


def padded_taylor_template(r: int, extras: Mapping[int, RationalLike]) -> SeriesTemplate:
    """Order-r exponential template extended by terms ``a_j s^j / j!`` with
    0 <= a_j < 1 for j > r.

    This builds order-zero style variants of the exponential template; any
    growth condition on the resulting entire function is the caller's
    responsibility.
    """
    base = taylor_template(r)
    if not extras:
        return base
    if min(extras) <= r:
        raise ValueError("padding starts above the template order")
    coeffs = list(base.base_coeffs)
    for j in range(r + 1, max(extras) + 1):
        a = to_fraction(extras.get(j, 0))
        if not 0 <= a < 1:
            raise ValueError("padding coefficients must lie in [0, 1)")
        coeffs.append(a / factorial(j))
    return SeriesTemplate(tuple(coeffs))


@dataclass(frozen=True)
class Catalyst:
    """Finite auxiliary vector c with c_0 = 1; comparisons are run on the
    tensor products of the inputs with c."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ent = tuple(to_fraction(c) for c in self.entries)
        object.__setattr__(self, "entries", ent)
        if not ent or ent[0] != 1:
            raise ValueError("a catalyst must start with entry 1")
        if any(c < 0 for c in ent):
            raise ValueError("catalyst entries must be nonnegative")

    def __len__(self) -> int:
        return len(self.entries)


def _over_denominator(x: RationalVector,
                      den: Optional[int] = None) -> tuple[int, list[int]]:
    """``den`` (default: the entries' lcm) and the integers ``v_i = x_i den``."""
    den = lcm(*(e.denominator for e in x.entries)) if den is None else den
    if any(den % e.denominator for e in x.entries):
        raise ValueError(f"the entries are not all multiples of 1/{den}")
    return den, [e.numerator * (den // e.denominator) for e in x.entries]


def product_over_vector(x: RationalVector, tpl: SeriesTemplate,
                        degree_bound: Optional[int] = None) -> TruncatedSeries:
    """Exact coefficients of ``prod_i tpl(x_i t)`` modulo ``t^(D+1)``.

    The default bound n * deg(tpl) captures the full polynomial when the
    template is itself a polynomial; callers may truncate lower.

    With ``x_i = v_i / L`` and the template ``sum_j a_j s^j`` scaled by the
    lcm S of its coefficient denominators, every factor has the integer
    coefficients ``fa_j = S a_j v_i^j`` at ``(t/L)^j``, so the product runs in
    Python ints and coefficient k is read back as ``Fraction(row[k], S^n L^k)``.
    Multiplying the row by a factor is ``fa_0 row`` plus, for each j >= 1,
    ``fa_j`` times the row shifted up by j: one pass over the whole row per
    template degree, cut at degree D.  The row only grows to the top degree
    reached so far.
    """
    t_degree = len(x) * tpl.degree if degree_bound is None else degree_bound
    if t_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    af = tpl.base_coeffs[:t_degree + 1]
    s = lcm(*(c.denominator for c in af))
    ai = [c.numerator * (s // c.denominator) for c in af]
    den, nums = _over_denominator(x)
    deg = len(ai) - 1
    row = [1]  # up to the top degree so far, at most t_degree
    for v in nums:
        fa = list(map(mul, ai, accumulate(repeat(v, deg), mul, initial=1)))
        grown = list(map(mul, repeat(fa[0]), row))
        grown += [0] * (min(len(row) + deg, t_degree + 1) - len(row))
        for j in range(1, deg + 1):  # grown[j:] += fa_j row, cut at t_degree
            if fa[j]:
                grown[j:j + len(row)] = map(add, grown[j:j + len(row)],
                                            map(mul, repeat(fa[j]), row))
        row = grown
    row += [0] * (t_degree + 1 - len(row))
    scale = s ** len(nums)
    return TruncatedSeries(tuple(Fraction(c, scale * den ** k)
                                 for k, c in enumerate(row)))


@dataclass(frozen=True)
class SubsetPowerTable:
    """Exponential-generating-function form of ``prod_i (1 + u e^{x_i t})``:
    with ``x_i = v_i / L``, ``rows[r][k]`` is the sum over r-subsets S of
    ``(sum_{i in S} v_i)^k``, that is ``L^k M_{k,r}``, and ``total`` is
    ``sum_i v_i``."""

    rows: tuple[tuple[int, ...], ...]
    n: int
    denominator: int
    total: int

    @property
    def k_max(self) -> int:
        return len(self.rows[0]) - 1

    def entry(self, r: int, k: int) -> int:
        """``L^k M_{k,r}``: zero for r > n, ``IndexError`` past k_max or
        for a row at most n that was not built."""
        if not 0 <= k <= self.k_max:
            raise IndexError(f"t-degree {k} outside 0..{self.k_max}")
        if r > self.n:
            return 0
        if not 0 <= r < len(self.rows):
            raise IndexError(f"subset size {r} outside 0..{len(self.rows) - 1}")
        return self.rows[r][k]


def _times_exp(row: Sequence[int], v: int, k_max: int) -> list[int]:
    """A copy of the EGF row times ``e^{v t}`` up to t^k_max:
    ``sum_j C(k, j) v^j row[k - j]`` is the product of the steps
    ``row[k] += v row[k-1]`` over k >= m for m = 1..k_max, so no binomials."""
    row = list(row)
    for m in range(1, k_max + 1):
        for k in range(k_max, m - 1, -1):  # reads only old entries
            row[k] += v * row[k - 1]
    return row


def subset_power_table(x: RationalVector, k_max: int, r_max: int,
                       denominator: Optional[int] = None) -> SubsetPowerTable:
    """The rows r <= min(n, r_max) of ``prod_i (1 + u e^{x_i t})`` in EGF
    form, for k <= k_max, over ``denominator`` (default: the entries' lcm).

    Then ``e^{x_i t}`` has the EGF coefficients ``v_i^k``, and taking in
    entry i adds ``e^{v_i t}`` times row r - 1 to row r.
    """
    if k_max < 0 or r_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    den, nums = _over_denominator(x, denominator)
    top = min(len(nums), r_max)
    rows = [[1] + [0] * k_max] + [[0] * (k_max + 1) for _ in range(top)]
    for i, v in enumerate(nums):
        # r descending: row r adds row r - 1 before that row takes entry i
        for r in range(min(i + 1, top), 1, -1):
            rows[r] = list(map(add, rows[r], _times_exp(rows[r - 1], v, k_max)))
        if top:  # row 0 is 1, so row 1 adds e^{v t} itself
            rows[1] = list(map(add, rows[1],
                               accumulate(repeat(v, k_max), mul, initial=1)))
    return SubsetPowerTable(tuple(map(tuple, rows)), len(nums), den, sum(nums))


def tensor(x: RationalVector, c: Catalyst) -> RationalVector:
    """All products x_i * c_j in row-major order: the catalyst comparison of
    x is ``product_over_vector`` over this vector."""
    return RationalVector(xi * cj for xi in x.entries for cj in c.entries)
