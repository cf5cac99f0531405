"""Exact truncated power series in one formal variable and per-entry products.

Two integer kernels multiply out per-entry factors modulo ``t^(D+1)``;
``Fraction`` appears only on read-back.  ``product_over_vector`` computes
``prod_i T_r(x_i t)`` for the order-r exponential truncation ``T_r(s) =
sum_{j<=r} s^j / j!`` (E, F, and the catalysts as the product over the
tensor vector), and ``subset_power_table`` computes
``prod_i (1 + u e^{x_i t})`` in exponential generating function form (M, and
by a binomial transform G and Gbar).  The coefficient lists are dense because
these products are dense by construction.

``product_over_vector`` multiplies each factor into its row in one whole-row
pass per degree of ``T_r``, so its inner loops run in C over ``map``.  Each
product takes the cheaper of two integer scalings by a predicted bit cost
(``_common_scale``): a common scale ``c L`` of t, which makes every factor's
constant term 1 and suits one shared or small denominator L at low orders, or
per-entry denominators, which suit distinct denominators and high orders.
``subset_power_table`` keeps one common denominator, since its subset sums
mix the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm, prod
from operator import add, mul
from typing import Optional, Sequence

from .vectors import RationalVector

__all__ = [
    "TruncatedSeries",
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


def _powers(v: int, deg: int) -> list[int]:
    """``v^0, ..., v^deg``."""
    return list(accumulate(repeat(v, deg), mul, initial=1))


def _template_integers(r: int, t_degree: int) -> list[int]:
    """``deg! / j!`` for j <= deg = min(r, t_degree): the coefficients of
    ``T_r`` up to t^t_degree over their lcm ``S = deg!``."""
    deg = min(r, t_degree)
    return [factorial(deg) // factorial(j) for j in range(deg + 1)]


def _t_scale(ai: Sequence[int]) -> int:
    """A c with every ``a_j c^j`` an integer, from ``ai = S a_j``; for the
    exponential template the least one, the product of the primes up to
    its degree (6 where S is 24 at degree 4)."""
    s, c = ai[0], 1
    for j, a in enumerate(ai):
        c *= s // gcd(s, a * c ** j)
    return c


def _common_scale(dens: Sequence[int], ai: Sequence[int],
                  t_degree: int) -> Optional[int]:
    """The lcm L of ``dens``, the nonzero entries' denominators, when
    ``product_over_vector`` should take the common scale, else None for
    per-entry denominators; ``ai`` is ``_template_integers``.

    A row entry costs about the bits of its scale in each whole-row pass.
    The common scale ``(c L)^k`` averages ``top (bits c + bits L) / 2`` bits
    over the degrees k <= top that the product reaches, in deg passes per
    factor.  Per-entry denominators carry ``S^n prod_i d_i^deg`` at every k,
    in deg + 1 passes.  So high orders, where ``c^k`` outgrows ``S^n``, and
    distinct denominators, whose lcm outgrows them, go per-entry.  The
    factor 4/5 on the per-entry side is calibrated on timings: it sends
    vectors over one denominator at orders of 6 or more per-entry.
    """
    den = lcm(*dens)
    deg = len(ai) - 1
    top = min(t_degree, len(dens) * deg)
    common = 5 * deg * top * (_t_scale(ai).bit_length() + den.bit_length())
    per_entry = 8 * (deg + 1) * (len(dens) * ai[0].bit_length()
                                 + deg * sum(map(int.bit_length, dens)))
    return den if common <= per_entry else None


def product_over_vector(x: RationalVector, r: int,
                        degree_bound: Optional[int] = None) -> TruncatedSeries:
    """Exact coefficients of ``prod_i T_r(x_i t)`` modulo ``t^(D+1)``.

    The default bound n * r captures the full polynomial; callers may
    truncate lower.

    Zero entries are left out, as their factor is 1.  Each other factor
    gets integer coefficients ``fa_j`` by one of two scalings of ``T_r =
    sum_j a_j s^j`` with ``a_j = 1 / j!``, as ``_common_scale`` chooses; S is
    ``deg!`` for ``deg = min(r, D)`` and c is ``_t_scale``:

    - common scale: with ``x_i = v_i / L``, ``fa_j = a_j c^j v_i^j`` at
      ``(t / (c L))^j``, so ``fa_0 = 1`` and coefficient k reads back over
      ``(c L)^k``;
    - per-entry denominators: with ``x_i = n_i / d_i``,
      ``fa_j = S a_j n_i^j d_i^(deg-j)``, and every coefficient reads back
      over ``S^n prod_i d_i^deg``.

    Multiplying the row by a factor is ``fa_0 row`` (a copy when fa_0 is 1)
    plus, for each j >= 1, ``fa_j`` times the row shifted up by j: one pass
    over the whole row per degree of ``T_r``, cut at degree D.  The row only
    grows to the top degree reached so far.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    t_degree = len(x) * r if degree_bound is None else degree_bound
    if t_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    ai = _template_integers(r, t_degree)
    s, deg = ai[0], len(ai) - 1
    entries = [(e.numerator, e.denominator) for e in x.entries if e.numerator]
    dens = [d for _, d in entries]
    den = _common_scale(dens, ai, t_degree)
    if den is not None:
        c = _t_scale(ai)
        bi = [a * c ** j // s for j, a in enumerate(ai)]  # a_j c^j
        factors = [list(map(mul, bi, _powers(n * (den // d), deg)))
                   for n, d in entries]
    else:
        factors = [list(map(mul, map(mul, ai, _powers(n, deg)),
                            _powers(d, deg)[::-1]))
                   for n, d in entries]
    row = [1]  # up to the top degree so far, at most t_degree
    for fa in factors:
        grown = list(row) if fa[0] == 1 else list(map(mul, repeat(fa[0]), row))
        grown += [0] * (min(len(row) + deg, t_degree + 1) - len(row))
        for j in range(1, deg + 1):  # grown[j:] += fa_j row, cut at t_degree
            if fa[j]:
                grown[j:j + len(row)] = map(add, grown[j:j + len(row)],
                                            map(mul, repeat(fa[j]), row))
        row = grown
    row += [0] * (t_degree + 1 - len(row))
    if den is not None:
        return TruncatedSeries(tuple(map(Fraction, row, accumulate(
            repeat(c * den, t_degree), mul, initial=1))))
    scale = s ** len(dens) * prod(dens) ** deg
    return TruncatedSeries(tuple(Fraction(v, scale) for v in row))


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
    den = (lcm(*(e.denominator for e in x.entries)) if denominator is None
           else denominator)
    if any(den % e.denominator for e in x.entries):
        raise ValueError(f"the entries are not all multiples of 1/{den}")
    nums = [e.numerator * (den // e.denominator) for e in x.entries]
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


def tensor(x: RationalVector, c: RationalVector) -> RationalVector:
    """All products x_i * c_j in row-major order, for a catalyst c with c_0 =
    1: the catalyst comparison of x is ``product_over_vector`` over them."""
    if c[0] != 1:
        raise ValueError("a catalyst must start with entry 1")
    return RationalVector(xi * cj for xi in x.entries for cj in c.entries)
