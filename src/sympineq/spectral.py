"""Exact matrix pipeline: Gram products, the characteristic coefficients
det(I + tA), and the truncated-exponential determinants
det(sum_j A^j t^j / j!), all from the power sums of the spectrum.

The route is traces -> one exp step -> Cayley-Hamilton extension.  The
power sums tr A^k, k <= n, are read off the powers A^2..A^ceil(n/2); the
exp step turns them into the integer coefficients of det(I + tA), the
order-1 table; the recurrence of the characteristic polynomial extends the
power sums past n, and the same exp step gives every higher order.  So
integer inputs give exact rational outputs.  The eigenvalues themselves,
which only the float lp-mean grids use, are the correctly rounded roots of
the same integer characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import add, mul
from typing import Iterable, Sequence

from .roots import rounded_roots

__all__ = [
    "IntMatrix",
    "as_int_matrix",
    "gram",
    "SpectralSummary",
    "spectral_summary",
]

IntMatrix = tuple[tuple[int, ...], ...]


def as_int_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Validate and freeze a rectangular integer matrix."""
    m = tuple(tuple(row) for row in rows)
    if not m or not m[0]:
        raise ValueError("matrix must be nonempty")
    width = len(m[0])
    for row in m:
        if len(row) != width:
            raise ValueError("rows must all have the same length")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"integer entries required, got {v!r}")
    return m


def _require_square(m: IntMatrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("square matrix required")
    return n


def gram(q: Iterable[Sequence[int]]) -> IntMatrix:
    """The exact integer Gram product Q Q^T (symmetric, PSD)."""
    qm = as_int_matrix(q)
    return tuple(tuple(sum(map(mul, r1, r2)) for r2 in qm) for r1 in qm)


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _traces(am: IntMatrix) -> list[int]:
    # the power sums p_k = tr A^k, k = 0..n, each tr(A^(k//2) A^(k - k//2)):
    # the entrywise dot of A^(k//2) with the transpose of A^(k - k//2), so
    # only A^2..A^ceil(n/2) are formed
    n = len(am)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], am]
    for _ in range(2, (n + 1) // 2 + 1):
        powers.append(_mat_mul(powers[-1], am))
    rows = [list(chain.from_iterable(m)) for m in powers]
    cols = [list(chain.from_iterable(zip(*m))) for m in powers]
    return [sum(map(mul, rows[k // 2], cols[k - k // 2])) for k in range(n + 1)]


def _f_table(p: Sequence[int], r: int, deg: int) -> tuple[Fraction, ...]:
    # the exp step of spectral_summary, from the power sums p_0..p_deg or more.
    # g(s) = sum_{j<=r} s^j / j! is the exponential generating function of
    # the moments mu_j = 1 for j <= r and 0 beyond, so log g(s) =
    # sum_m kappa_m s^m / m! with the integer cumulants
    # kappa_m = mu_m - sum_{j<m} C(m-1, j-1) kappa_j mu_{m-j}; at k = m both
    # that sum and the one for G_k read the Pascal row C(k-1, j-1), j = 1..k,
    # which is carried along k
    kappa, c, g = [], [], [1]  # kappa_j and c_j = kappa_j p_j from j = 1
    row = [1]
    for k in range(1, deg + 1):
        lo = max(0, k - 1 - r)  # mu_{k-j} = 0 for j < k - r
        kappa.append((k <= r) - sum(map(mul, row[lo:k - 1], kappa[lo:])))
        c.append(kappa[-1] * p[k])
        g.append(sum(map(mul, row, map(mul, c, reversed(g)))))
        row = [1, *map(add, row, row[1:]), 1]
    return tuple(map(Fraction, g, accumulate(range(1, deg + 1), mul, initial=1)))


@dataclass(frozen=True)
class SpectralSummary:
    """Exact spectral coefficients of one matrix: the elementary symmetric
    values of its eigenvalues and the order-r family tables."""

    e_coeffs: tuple[Fraction, ...]
    f_coeffs: dict[int, tuple[Fraction, ...]]

    def eigenvalues(self) -> tuple[float, ...]:
        """The eigenvalues of a matrix whose eigenvalues are all real (a
        symmetric one), ascending and with multiplicity, each the float
        nearest to it: the roots of the characteristic polynomial
        ``sum_k (-1)^k e_k x^(n-k)`` (``roots.rounded_roots``).  A symmetric
        matrix of rank r has exactly n - r of them at 0.0, read off the
        zero coefficients e_(r+1), ..., e_n."""
        e = self.e_coeffs
        n = len(e) - 1
        return rounded_roots([(-1) ** (n - j) * e[n - j].numerator
                              for j in range(n + 1)])


def spectral_summary(a: Iterable[Sequence[int]], rs: Sequence[int] = (1,),
                     assume_psd: bool = False) -> SpectralSummary:
    """The coefficients of det(I + tA) and, for each order r in rs, those of
    ``det(sum_{j<=r} A^j t^j / j!)`` up to degree n*r, in exact integer
    arithmetic: traces -> one exp step -> Cayley-Hamilton extension.

    Triangularizing A over C shows that the order-r determinant is
    ``F(t) = prod_i g(lambda_i t)`` over the eigenvalues, with
    ``g(s) = sum_{j<=r} s^j / j!``, for every square A.  So
    ``log F(t) = sum_m kappa_m p_m t^m / m!``, where p_m = tr A^m are the
    power sums of the spectrum and kappa_m the cumulants of g; the integers
    ``G_k = k! F_k`` follow from ``G_k = sum_j C(k-1, j-1) kappa_j p_j
    G_{k-j}``.  At r = 1, g = 1 + s and F(t) = det(I + tA), whose
    coefficient k is the k-th elementary symmetric function e_k of the
    spectrum, and the recurrence is Newton's identities.  With the spectrum
    nonnegative, coefficient k of the order-r table is the family value
    F_{k,r} of the eigenvalues.

    The traces give p_0..p_n; the order-1 step gives e (``e_coeffs``, which
    is also ``f_coeffs[1]``); the Cayley-Hamilton recurrence
    ``p_m = sum_{i=1}^n (-1)^(i-1) e_i p_{m-i}`` gives the power sums up to
    degree n * max(rs), shared by every order.  So asking for several orders
    costs ceil(n/2) - 1 matrix products and one exp step per distinct order.
    With ``assume_psd`` (e.g. for Gram products) negative determinant
    coefficients are rejected as a bug instead of returned.
    """
    am = as_int_matrix(a)
    n = _require_square(am)
    if any(r < 1 for r in rs):
        raise ValueError("need r >= 1")
    p = _traces(am)
    e = _f_table(p, 1, n)
    if assume_psd and any(c < 0 for c in e):
        raise ValueError("negative spectral coefficient on a PSD matrix; "
                         "this indicates a bug in the input or the pipeline")
    # Cayley-Hamilton, for m > n
    signed = [(-1) ** i * c.numerator for i, c in enumerate(e[1:])]
    for m in range(n + 1, n * max(rs, default=1) + 1):
        p.append(sum(map(mul, signed, reversed(p[m - n:]))))
    return SpectralSummary(e_coeffs=e, f_coeffs={
        r: e if r == 1 else _f_table(p, r, n * r) for r in dict.fromkeys(rs)})
