"""The headline verifier: exact polynomial-family comparisons on one side,
lp-mean grids on the other.

The hypothesis side is exact rational arithmetic.  The conclusion side is
always measured on float grids, even where the implication guarantees the
outcome, so the verifier doubles as an end-to-end self-test.

For Gram products (``theorem1 --qx/--qy``) the hypotheses are the order-r
determinant tables of ``spectral_summary`` (``check_hypotheses_coeffs``),
and the grids compare the two spectra from ``SpectralSummary.eigenvalues``:
each eigenvalue the float nearest to a root of the integer characteristic
polynomial, and those of a singular product exactly 0.  Nothing on either
side needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, repeat
from operator import add, ge, mul, sub, truediv
from typing import NamedTuple, Optional, Sequence

from .families import f_kr_all
from .vectors import RationalVector, lp_mean

__all__ = [
    "HypothesisCheck",
    "HypothesisReport",
    "check_hypotheses",
    "check_hypotheses_coeffs",
    "GridPoint",
    "ConclusionReport",
    "verify_conclusions",
    "FullReport",
    "full_report",
]

DEFAULT_GRID_POINTS = 101
DEFAULT_TOL = 1e-9


class HypothesisCheck(NamedTuple):
    k: int
    fx: Fraction
    fy: Fraction
    ok: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Per-k ledger of the exact comparisons F_{k,r}(x) <= F_{k,r}(y) for
    k in [r, n*r], plus the exact total-sum equality flag."""

    r: int
    checks: tuple[HypothesisCheck, ...]
    all_pass: bool
    sums_equal: bool

    def first_failure(self) -> Optional[HypothesisCheck]:
        for c in self.checks:
            if not c.ok:
                return c
        return None


def check_hypotheses(x: RationalVector, y: RationalVector, r: int) -> HypothesisReport:
    """Exact family comparisons for every k in [r, n*r]."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    return check_hypotheses_coeffs(f_kr_all(x, r), f_kr_all(y, r), r, len(x))


def check_hypotheses_coeffs(fx: Sequence[Fraction], fy: Sequence[Fraction],
                            r: int, n: int) -> HypothesisReport:
    """The same check from precomputed coefficient tables (index k = 0..n*r),
    so exact matrix-determinant pipelines can feed the verifier directly."""
    if r < 1:
        raise ValueError("need r >= 1")
    if len(fx) != n * r + 1 or len(fy) != n * r + 1:
        raise ValueError(f"coefficient tables must have length {n * r + 1}")
    # a <= b over positive denominators, without Fraction's dispatch
    checks = tuple(HypothesisCheck(k, a, b, a.numerator * b.denominator
                                   <= b.numerator * a.denominator)
                   for k, a, b in zip(range(r, n * r + 1), fx[r:], fy[r:]))
    # coefficient 1 is the entry sum for every template order
    sums_equal = fx[1] == fy[1]
    return HypothesisReport(r=r, checks=checks,
                            all_pass=all(c.ok for c in checks),
                            sums_equal=sums_equal)


class GridPoint(NamedTuple):
    p: float
    x_mean: float
    y_mean: float
    margin: float
    ok: Optional[bool]  # None when the point is measured but not asserted


@dataclass(frozen=True)
class ConclusionReport:
    """Float comparisons of lp means over [0, 1] and [1, r+1].

    Low-grid margins are y - x (x is required not to exceed y); high-grid
    margins are x - y, and the high grid is only asserted under exact sum
    equality.
    """

    r: int
    tol: float
    sums_equal: bool
    low_grid: tuple[GridPoint, ...]
    high_grid: tuple[GridPoint, ...]

    @property
    def low_all_pass(self) -> bool:
        return all(pt.ok for pt in self.low_grid)

    @property
    def high_all_pass(self) -> Optional[bool]:
        if not self.sums_equal:
            return None
        return all(pt.ok for pt in self.high_grid)

    @property
    def all_asserted_pass(self) -> bool:
        high = self.high_all_pass
        return self.low_all_pass and (high is None or high)


def _check_grid(grid_points: int, tol: float) -> None:
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")


def verify_conclusions(x: RationalVector, y: RationalVector, r: int,
                       grid_points: int = DEFAULT_GRID_POINTS,
                       tol: float = DEFAULT_TOL,
                       sums_equal: Optional[bool] = None) -> ConclusionReport:
    """Measure the lp-mean inequalities on uniform grids over [0, 1] and
    [1, r+1]; both interval endpoints always land on grid points.

    ``sums_equal`` may be supplied by callers that certified it through an
    exact side channel (e.g. equal degree-1 determinant coefficients); by
    default it is computed exactly from the vectors.
    """
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    if r < 1:
        raise ValueError("need r >= 1")
    _check_grid(grid_points, tol)
    if sums_equal is None:
        sums_equal = x.total() == y.total()

    grids = []
    # each grid's columns through map, so the only Python run per point is
    # its two lp means
    for start, width, asserted in ((0.0, 1, True), (1.0, r, sums_equal)):
        # p = start + i * width / (grid_points - 1), rounded step by step
        ps = list(map(add, repeat(start),
                      map(truediv, map(mul, range(grid_points), repeat(width)),
                          repeat(grid_points - 1))))
        # x's mean, then y's, point by point, so the first mean beyond the
        # float range is the one whose error comes out
        means = list(map(lp_mean, cycle((x, y)),
                         chain.from_iterable(zip(ps, ps))))
        nx, ny = means[::2], means[1::2]
        margins = list(map(sub, ny, nx) if not grids else map(sub, nx, ny))
        oks = map(ge, margins, repeat(-tol)) if asserted else repeat(None)
        # GridPoint._make without a Python frame per point
        grids.append(tuple(map(tuple.__new__, repeat(GridPoint),
                               zip(ps, nx, ny, margins, oks))))
    return ConclusionReport(r=r, tol=tol, sums_equal=sums_equal,
                            low_grid=grids[0], high_grid=grids[1])


@dataclass(frozen=True)
class FullReport:
    """The Theorem 1 verdict (see ``full_report``): per-order hypothesis
    reports, the certified order, and the grids measured at it or, with
    nothing certified, at the one order requested."""

    hypotheses: tuple[HypothesisReport, ...]
    certified_r: Optional[int]
    conclusions: Optional[ConclusionReport]

    @property
    def certified_interval(self) -> Optional[tuple[float, float]]:
        # the certified p-interval [0, r+1]; the upper half needs equal sums
        if self.certified_r is None:
            return None
        return (0.0, float(self.certified_r + 1))

    @property
    def passed(self) -> bool:
        # a certified order always has its grids measured
        return (self.certified_r == self.hypotheses[-1].r
                and self.conclusions.all_asserted_pass)


def full_report(hypotheses: Sequence[HypothesisReport],
                x: RationalVector, y: RationalVector,
                grid_points: int = DEFAULT_GRID_POINTS,
                tol: float = DEFAULT_TOL) -> FullReport:
    """Apply the Theorem 1 verdict rule to hypothesis reports in ascending
    order (from ``check_hypotheses`` or ``check_hypotheses_coeffs``) and to
    the vectors the lp-mean grids compare (the spectra in matrix mode).

    Measure: the grids run at the certified order, the largest whose
    hypotheses all hold, with its exact ``sums_equal``; with none certified
    they run at the order requested if there is only one, and not at all
    for a scan.  Assert: grid points count only at a certified order.
    Pass: the last requested order is certified and its asserted grid points
    all pass.
    """
    if not hypotheses:
        raise ValueError("need at least one template order")
    _check_grid(grid_points, tol)  # also when no order is measured
    certified = [h for h in hypotheses if h.all_pass]
    measured = certified or (list(hypotheses) if len(hypotheses) == 1 else [])
    conclusions = (verify_conclusions(x, y, measured[-1].r, grid_points, tol,
                                      sums_equal=measured[-1].sums_equal)
                   if measured else None)
    return FullReport(hypotheses=tuple(hypotheses),
                      certified_r=certified[-1].r if certified else None,
                      conclusions=conclusions)
