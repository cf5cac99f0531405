"""Exact truncated power series in one formal variable and per-entry products.

The generating objects here all share one shape: per-entry factors
``A(x_i t) + u B(x_i t)`` are multiplied out modulo ``t^(D+1)`` and
``u^(U+1)``.  With ``B = 0`` this is the one-variable product of a base
template ``s -> sum_j a_j s^j``; the second variable ``u`` counts how many
entries contribute their B part.  One integer kernel, ``product_table``,
computes every such product; ``Fraction`` appears only when a coefficient is
read back.  The coefficient lists are dense because these products are dense
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .vectors import RationalLike, RationalVector, to_fraction

__all__ = [
    "TruncatedSeries",
    "SeriesTemplate",
    "Catalyst",
    "series_mul",
    "taylor_template",
    "padded_taylor_template",
    "substitute_scale",
    "ProductTable",
    "product_table",
    "product_over_vector",
    "catalyst_product",
    "tensor",
]


class TruncatedSeries:
    """Polynomial in t modulo ``t^(D+1)`` with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = tuple(to_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = cs

    @classmethod
    def one(cls, degree_bound: int) -> "TruncatedSeries":
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        return cls([Fraction(1)] + [Fraction(0)] * degree_bound)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree_bound(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.degree_bound:
            raise IndexError(f"coefficient {k} outside degree bound {self.degree_bound}")
        return self._coeffs[k]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(str(c) for c in self._coeffs)}])"


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact Cauchy product truncated at the common degree bound."""
    if a.degree_bound != b.degree_bound:
        raise ValueError(
            f"degree bounds differ: {a.degree_bound} vs {b.degree_bound}")
    d = a.degree_bound
    ac, bc = a.coeffs, b.coeffs
    out = [Fraction(0)] * (d + 1)
    for i, ai in enumerate(ac):
        if not ai:
            continue
        for j in range(d - i + 1):
            bj = bc[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(out)


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
    if r < 1:
        raise ValueError("template order must be >= 1")
    if not extras:
        return taylor_template(r)
    top = max(extras)
    if min(extras) <= r:
        raise ValueError("padding starts above the template order")
    coeffs = [Fraction(1, factorial(j)) for j in range(r + 1)]
    for j in range(r + 1, top + 1):
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


def substitute_scale(tpl: SeriesTemplate, a: RationalLike,
                     degree_bound: int) -> TruncatedSeries:
    """The series of ``tpl(a*t)`` modulo ``t^(D+1)``: coefficient j is a^j a_j."""
    af = to_fraction(a)
    if af < 0:
        raise ValueError("scale must be nonnegative")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    out = [Fraction(0)] * (degree_bound + 1)
    power = Fraction(1)
    for j in range(degree_bound + 1):
        if j <= tpl.degree:
            out[j] = tpl.base_coeffs[j] * power
        power *= af
    return TruncatedSeries(out)


@dataclass(frozen=True)
class ProductTable:
    """Integer form of ``[u^m t^k] prod_i (A(x_i t) + u B(x_i t))``.

    Entry (m, k) is ``numerators[m][k] / (scale * denominator^k)``, where
    ``denominator`` is the common denominator of the entries and ``scale``
    the n-th power of the templates' common coefficient denominator.  Rows
    past the last stored one are zero when ``complete``; otherwise the
    product was cut there and reading them raises ``IndexError``.
    """

    numerators: tuple[tuple[int, ...], ...]
    scale: int
    denominator: int
    complete: bool

    @property
    def t_degree(self) -> int:
        return len(self.numerators[0]) - 1

    def coefficient(self, m: int, k: int) -> Fraction:
        """``[u^m t^k]``."""
        return self.coefficient_sum(m, m + 1, k)

    def coefficient_sum(self, m_from: int, m_to: int, k: int) -> Fraction:
        """Sum of ``[u^m t^k]`` over ``m_from <= m < m_to``."""
        if not 0 <= k <= self.t_degree:
            raise IndexError(f"t-degree {k} outside 0..{self.t_degree}")
        stored = len(self.numerators)
        if m_from < 0 or (m_to > max(m_from, stored) and not self.complete):
            raise IndexError(f"u-degrees {m_from}..{m_to - 1} outside 0..{stored - 1}")
        num = sum(row[k] for row in self.numerators[m_from:m_to])
        return Fraction(num, self.scale * self.denominator ** k)

    def row(self, m: int) -> list[Fraction]:
        return [self.coefficient(m, k) for k in range(self.t_degree + 1)]


def product_table(x: RationalVector, a: Sequence[RationalLike],
                  b: Sequence[RationalLike], t_degree: int,
                  u_degree: int = 0) -> ProductTable:
    """``[u^m t^k] prod_i (A(x_i t) + u B(x_i t))`` for k <= t_degree and
    m <= u_degree, where ``A(s) = sum_j a_j s^j`` and likewise B.

    With ``x_i = v_i / L`` for integers v_i and the templates scaled by the
    lcm S of their coefficient denominators, every factor has the integer
    coefficients ``S a_j v_i^j`` and ``S b_j v_i^j`` at ``(t/L)^j``, so the
    product runs in Python ints.  Rows that vanish for every k <= t_degree
    are not stored: those above n, and with B divisible by s^j, those above
    t_degree // j.
    """
    if t_degree < 0 or u_degree < 0:
        raise ValueError("degree bounds must be nonnegative")
    af = [to_fraction(c) for c in a[:t_degree + 1]]
    bf = [to_fraction(c) for c in b[:t_degree + 1]]
    low = next((j for j, c in enumerate(bf) if c), None)  # B divisible by s^low
    nonzero_rows = (0 if low is None else
                    len(x) if low == 0 else min(len(x), t_degree // low))
    complete = u_degree >= nonzero_rows
    u_degree = min(u_degree, nonzero_rows)
    if not u_degree:
        bf = []
    s = lcm(*(c.denominator for c in af + bf))
    ai = [c.numerator * (s // c.denominator) for c in af]
    bi = [c.numerator * (s // c.denominator) for c in bf]
    den = lcm(*(e.denominator for e in x.entries))
    nums = [e.numerator * (den // e.denominator) for e in x.entries]
    width = max(len(ai), len(bi))
    rows = [[0] * (t_degree + 1) for _ in range(u_degree + 1)]
    rows[0][0] = 1
    top_m = top_k = 0  # highest nonzero row and column so far
    for v in nums:
        powers = [1]
        for _ in range(width - 1):
            powers.append(powers[-1] * v)
        fa = list(map(mul, ai, powers))
        fb = list(map(mul, bi, powers))
        top_m = min(top_m + 1, u_degree) if fb else top_m
        top_k = min(top_k + width - 1, t_degree)
        # in place, m and k descending: each new entry reads only old ones
        for m in range(top_m, -1, -1):
            row = rows[m]
            below = rows[m - 1] if m else None
            for k in range(top_k, -1, -1):
                # entries k, k-1, ..., k-width+1 (clipped at 0)
                window = slice(k, k - width if k >= width else None, -1)
                acc = sum(map(mul, fa, row[window]))
                if below is not None:
                    acc += sum(map(mul, fb, below[window]))
                row[k] = acc
    return ProductTable(tuple(map(tuple, rows)), s ** len(nums), den, complete)


def product_over_vector(x: RationalVector, tpl: SeriesTemplate,
                        degree_bound: Optional[int] = None) -> TruncatedSeries:
    """Exact coefficients of ``prod_i tpl(x_i t)`` modulo ``t^(D+1)``.

    The default bound n * deg(tpl) captures the full polynomial when the
    template is itself a polynomial; callers may truncate lower.
    """
    d = len(x) * tpl.degree if degree_bound is None else degree_bound
    return TruncatedSeries(product_table(x, tpl.base_coeffs, (), d).row(0))


def tensor(x: RationalVector, c: Catalyst) -> RationalVector:
    """All products x_i * c_j in row-major order."""
    return RationalVector(xi * cj for xi in x.entries for cj in c.entries)


def catalyst_product(x: RationalVector, c: Catalyst, tpl: SeriesTemplate,
                     degree_bound: Optional[int] = None) -> TruncatedSeries:
    """Exact coefficients of ``prod_i prod_j tpl(c_j x_i t)``.

    Evaluated one catalyst entry at a time: the kernel product over the
    scaled copy ``c_j x`` for each entry, multiplied together with
    ``series_mul``.  The product over ``tensor(x, c)`` gives the same series.
    """
    d = len(x) * len(c) * tpl.degree if degree_bound is None else degree_bound
    acc = TruncatedSeries.one(d)
    for cj in c.entries:
        acc = series_mul(acc, product_over_vector(x.scale(cj), tpl, d))
    return acc
