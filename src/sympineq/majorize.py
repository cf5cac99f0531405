"""The majorization order and the equivalence scan between the
distinct-variable and subset-power families."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Sequence, Union

from . import families, series
from .vectors import RationalVector, log_of_fraction, partial_sums_desc

__all__ = [
    "MajorizationVerdict",
    "majorizes",
    "CellViolation",
    "Theorem2Report",
    "theorem2_scan",
    "psi_value",
    "psi_sum",
    "PsiComparison",
    "psi_compare",
    "t_transform_pair",
]


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of an exact majorization comparison, with the descending
    partial sums of both vectors it was read from."""

    holds: bool
    sum_equal: bool
    first_violation: Optional[tuple[int, Fraction, Fraction]]
    x_partial_sums: tuple[Fraction, ...]
    y_partial_sums: tuple[Fraction, ...]


def majorizes(x: RationalVector, y: RationalVector) -> MajorizationVerdict:
    """Exact partial-sum dominance of x over y, with total-sum equality read
    off the last partial sums: each vector is summed once."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    px, py = partial_sums_desc(x), partial_sums_desc(y)
    sum_equal = px[-1] == py[-1]
    first = next(((k + 1, a, b) for k, (a, b) in enumerate(zip(px[:-1], py))
                  if a < b), None)
    return MajorizationVerdict(holds=sum_equal and first is None,
                               sum_equal=sum_equal, first_violation=first,
                               x_partial_sums=px, y_partial_sums=py)


@dataclass(frozen=True)
class CellViolation:
    r: int
    k: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class Theorem2Report:
    """Truth table of the three equivalent majorization characterizations,
    with the polynomial families scanned only up to k_max."""

    sums_equal: bool
    k_max: int
    majorization: Optional[MajorizationVerdict]
    distinct_var_violation: Optional[CellViolation]  # G_{k,r}(x) > G_{k,r}(y)
    subset_power_violation: Optional[CellViolation]  # M_{k,r}(x) < M_{k,r}(y)
    cells_checked: int
    note: ClassVar[str] = ("polynomial families checked only for k <= k_max; "
                           "the characterization quantifies over all k")

    @property
    def majorization_holds(self) -> bool:
        return self.majorization is not None and self.majorization.holds

    @property
    def passed(self) -> bool:
        """Majorization holds and no family cell up to k_max contradicts it."""
        return (self.majorization_holds and self.distinct_var_violation is None
                and self.subset_power_violation is None)


def theorem2_scan(x: RationalVector, y: RationalVector, k_max: int) -> Theorem2Report:
    """Scan majorization against the G and M family inequalities.

    Requires exactly equal totals, read off the majorization verdict; with
    unequal totals the characterization does not apply and a not-applicable
    report, with no verdict, is returned.  Every cell is read from one
    subset-power table per vector, built once; cells are walked in (r, k)
    order and the first violation per family is recorded.
    """
    verdict = majorizes(x, y)  # ValueError for unequal lengths
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    if not verdict.sum_equal:
        return Theorem2Report(sums_equal=False, k_max=k_max, majorization=None,
                              distinct_var_violation=None,
                              subset_power_violation=None, cells_checked=0)
    n = len(x)
    # over one denominator L every cell of both vectors shares its
    # denominator, k! L^k for G and L^k for M, so cells compare as ints; with
    # equal totals, G(x) > G(y) exactly when Gbar(x) < Gbar(y), and G is
    # (total^k - Gbar numerator) / (k! L^k)
    den = math.lcm(*(e.denominator for e in x.entries + y.entries))
    rows = min(n, k_max)  # cells need r <= k <= k_max
    tx, ty = (series.subset_power_table(v, k_max, rows, den) for v in (x, y))
    g_violation = m_violation = None
    cells = 0
    for r in range(1, rows + 1):
        ks = range(r, k_max + 1)
        cells += len(ks)
        if g_violation is None:
            bx, by = families.gbar_numerators(tx, r), families.gbar_numerators(ty, r)
            k = next((k for k in ks if bx[k] < by[k]), None)
            if k is not None:
                scale = math.factorial(k) * den ** k
                g_violation = CellViolation(
                    r, k, Fraction(tx.total ** k - bx[k], scale),
                    Fraction(ty.total ** k - by[k], scale))
        if m_violation is None:
            mx, my = tx.rows[r], ty.rows[r]
            k = next((k for k in ks if mx[k] < my[k]), None)
            if k is not None:
                m_violation = CellViolation(r, k, Fraction(mx[k], den ** k),
                                            Fraction(my[k], den ** k))
    return Theorem2Report(sums_equal=True, k_max=k_max, majorization=verdict,
                          distinct_var_violation=g_violation,
                          subset_power_violation=m_violation,
                          cells_checked=cells)


def psi_value(s: Union[float, Fraction], lam: float) -> Union[float, Fraction]:
    """``min(s, lambda) + lambda * log_+(s / lambda)`` (natural log).

    s is a float or an exact rational; up to lambda it is returned as it
    came.  Past lambda an exact s is divided by lambda exactly, so psi(s) is
    finite for any rational s, however far beyond the float range.
    """
    if not lam > 0:  # NaN included
        raise ValueError("lambda must be positive")
    if s < 0:
        raise ValueError("psi is defined on [0, inf)")
    if s <= lam:
        return s
    if isinstance(s, Fraction):
        return lam + lam * log_of_fraction(s / Fraction(lam))
    return lam + lam * math.log(s / lam)


def psi_sum(x: RationalVector, lam: Union[int, float, Fraction]) -> float:
    """Sum of the concave test function over the vector's cached floats.

    A vector with an entry that has no normal float (see
    ``RationalVector.to_floats``), or whose sum of floats overflows, is
    summed from its exact entries instead.  A sum beyond the float range
    (lambda = inf with such an entry) raises ValueError, which names lambda.
    """
    lamf = float(lam)
    try:
        return math.fsum(psi_value(s, lamf) for s in x.to_floats())
    except OverflowError:
        pass
    try:
        return math.fsum(psi_value(s, lamf) for s in x)
    except OverflowError:
        raise ValueError(f"the psi sum at lambda={lam} is beyond the float "
                         "range") from None


@dataclass(frozen=True)
class PsiComparison:
    lam: float
    lhs: float
    rhs: float
    holds: bool


def psi_compare(x: RationalVector, y: RationalVector,
                lambda_grid: Sequence[Union[int, float, Fraction]]
                ) -> list[PsiComparison]:
    """Evaluate ``sum psi(x_i) <= sum psi(y_i)`` on a lambda grid, to 1e-9 relative.

    An empirical companion to the polynomial-family hypotheses; this reports
    observations and proves nothing.
    """
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    rows = []
    for lam in lambda_grid:
        lhs, rhs = psi_sum(x, lam), psi_sum(y, lam)
        rows.append(PsiComparison(float(lam), lhs, rhs,
                                  lhs <= rhs + 1e-9 * max(1.0, abs(rhs))))
    return rows


def t_transform_pair(rng: random.Random, n: int) -> tuple[RationalVector, RationalVector]:
    """A random exact pair with x majorizing y, built by one to three Robin
    Hood transfers: each moves part of the gap between two entries from the
    larger to the smaller.  x has numerators at most 40 and denominators at
    most 8; no rejection needed."""
    if n < 1:
        raise ValueError("need n >= 1")
    x = RationalVector(Fraction(rng.randint(0, 40), rng.randint(1, 8))
                       for _ in range(n))
    ys = list(x.entries)
    if n >= 2:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            if ys[i] == ys[j]:
                continue
            if ys[i] < ys[j]:
                i, j = j, i
            delta = (ys[i] - ys[j]) * Fraction(rng.randint(0, 8), 16)
            ys[i] -= delta
            ys[j] += delta
    return x, RationalVector(ys)
