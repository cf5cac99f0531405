"""Brute-force reference evaluators for the polynomial families and the
matrix route.

This is test equipment: independent enumeration loops, and a determinant
evaluated at nodes and interpolated, that deliberately share no code with the
fast paths they check.  Oversized instances are refused with a typed error
rather than attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .vectors import RationalVector

__all__ = [
    "OracleSizeError",
    "enumerate_compositions",
    "composition_count",
    "oracle_value",
    "majorizes_int",
    "IndexSet",
    "max_part_index_set",
    "min_support_index_set",
    "h_s",
    "is_schur_concave_index_set",
    "f_from_matrix_oracle",
    "MAX_COMPOSITIONS",
    "MAX_SUBSETS",
    "MAX_INTERPOLATION_DEGREE",
]

MAX_COMPOSITIONS = 200_000
MAX_SUBSETS = 10 ** 6
MAX_INTERPOLATION_DEGREE = 48


class OracleSizeError(ValueError):
    """A brute-force enumeration would exceed the size guards."""


def composition_count(n: int, k: int) -> int:
    return comb(n + k - 1, k)


def enumerate_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every composition of k into n nonnegative parts exactly once, in
    lexicographic order."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    count = composition_count(n, k)
    if count > MAX_COMPOSITIONS:
        raise OracleSizeError(
            f"{count} compositions of {k} into {n} parts exceeds the "
            f"oracle budget of {MAX_COMPOSITIONS}")

    def rec(parts_left: int, total_left: int, prefix: tuple[int, ...]):
        if parts_left == 1:
            yield prefix + (total_left,)
            return
        for v in range(total_left + 1):
            yield from rec(parts_left - 1, total_left - v, prefix + (v,))

    return rec(n, k, ())


def oracle_value(family: str, x: RationalVector, k: int, r: int) -> Fraction:
    """Ground truth by direct summation of the defining expression.

    Families: "F" (every exponent <= r), "G" (at least r distinct variables),
    "Gbar" (fewer than r distinct variables), "M" (k-th powers of r-element
    subset sums).
    """
    n = len(x)
    if family == "F":
        return h_s(x, max_part_index_set(n, k, r))
    if family == "G":
        return h_s(x, min_support_index_set(n, k, r))
    if family == "Gbar":
        support = min_support_index_set(n, k, r).membership
        return h_s(x, IndexSet(n, k, lambda p: not support(p)))
    if family == "M":
        if r > n:
            return Fraction(0)
        if n > 24 or comb(n, r) > MAX_SUBSETS:
            raise OracleSizeError(f"too many {r}-subsets of {n} elements")
        total = Fraction(0)
        # bitmask order, independent of the combinations() order of the fast path
        for mask in range(1 << n):
            if mask.bit_count() != r:
                continue
            s = sum((x[i] for i in range(n) if mask >> i & 1), Fraction(0))
            total += s ** k
        return total
    raise ValueError(f"unknown family {family!r}")


def majorizes_int(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """Integer majorization: sorted partial-sum dominance with equal totals."""
    if len(p) != len(q) or sum(p) != sum(q):
        return False
    acc_p = acc_q = 0
    for a, b in zip(sorted(p, reverse=True), sorted(q, reverse=True)):
        acc_p += a
        acc_q += b
        if acc_p < acc_q:
            return False
    return True


@dataclass(frozen=True)
class IndexSet:
    """A set of exponent tuples p (p_i >= 0, sum p_i = k) given by a
    membership predicate, which must be permutation-invariant for the
    associated polynomial to be symmetric."""

    n: int
    k: int
    membership: Callable[[tuple[int, ...]], bool]


def max_part_index_set(n: int, k: int, r: int) -> IndexSet:
    """Exponent tuples with every part at most r (the F-family index set)."""
    return IndexSet(n, k, lambda p: max(p) <= r)


def min_support_index_set(n: int, k: int, r: int) -> IndexSet:
    """Exponent tuples with at least r nonzero parts (the G-family index set)."""
    return IndexSet(n, k, lambda p: sum(1 for v in p if v) >= r)


def h_s(x: RationalVector, idx: IndexSet) -> Fraction:
    """Generic family value: direct sum of ``prod_i x_i^{p_i} / p_i!`` over
    the members of the index set."""
    if len(x) != idx.n:
        raise ValueError("vector length does not match the index set")
    total = Fraction(0)
    for p in enumerate_compositions(idx.n, idx.k):
        if idx.membership(p):
            term = Fraction(1)
            for xi, e in zip(x.entries, p):
                if e:
                    term *= xi ** e / factorial(e)
            total += term
    return total


def is_schur_concave_index_set(
        idx: IndexSet) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Check downward closure under integer majorization.

    Returns (True, None), or (False, (p, q)) for the first member p that
    majorizes a non-member q.  Raises if the membership predicate is not
    permutation-invariant.
    """
    comps = list(enumerate_compositions(idx.n, idx.k))
    member: dict[tuple[int, ...], bool] = {}
    by_signature: dict[tuple[int, ...], bool] = {}
    for p in comps:
        m = bool(idx.membership(p))
        member[p] = m
        sig = tuple(sorted(p, reverse=True))
        if by_signature.setdefault(sig, m) != m:
            raise ValueError("membership is not permutation-invariant")
    non_members = [q for q in comps if not member[q]]
    for p in comps:
        if not member[p]:
            continue
        for q in non_members:
            if majorizes_int(p, q):
                return False, (p, q)
    return True, None


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    # Gaussian elimination with a nonzero pivot search; exact in rationals
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pv = m[col][col]
        det *= pv
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] / pv
                row, prow = m[i], m[col]
                for l in range(col, n):
                    row[l] -= f * prow[l]
    return det


def _interpolate(nodes: Sequence[int], values: Sequence[Fraction]) -> list[Fraction]:
    # exact Lagrange interpolation, coefficients accumulated per basis poly
    out = [Fraction(0)] * len(nodes)
    for i, (ti, yi) in enumerate(zip(nodes, values)):
        if yi == 0:
            continue
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, tj in enumerate(nodes):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for deg, b in enumerate(basis):
                new[deg] -= tj * b
                new[deg + 1] += b
            basis = new
            denom *= ti - tj
        scale = yi / denom
        for deg, b in enumerate(basis):
            out[deg] += scale * b
    return out


def f_from_matrix_oracle(a: Iterable[Sequence[int]], r: int) -> list[Fraction]:
    """Coefficients of ``det(sum_{j<=r} A^j t^j / j!)`` up to degree n*r, by
    evaluating the determinant exactly at the integer nodes t = 0..n*r and
    recovering the coefficients by exact Lagrange interpolation.

    Costs O(n^4 r + (n r)^3) rational operations, so degrees above
    ``MAX_INTERPOLATION_DEGREE`` are refused.
    """
    am = [list(row) for row in a]
    n = len(am)
    if n == 0 or any(len(row) != n for row in am):
        raise ValueError("square matrix required")
    if r < 1:
        raise ValueError("need r >= 1")
    deg = n * r
    if deg > MAX_INTERPOLATION_DEGREE:
        raise OracleSizeError(
            f"degree {deg} exceeds the interpolation budget of "
            f"{MAX_INTERPOLATION_DEGREE}")
    powers: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(n)]
                                      for i in range(n)]]
    for _ in range(r):
        prev = powers[-1]
        powers.append([[sum(prev[i][l] * am[l][j] for l in range(n))
                        for j in range(n)] for i in range(n)])
    values = []
    for t in range(deg + 1):
        mat = [[sum(Fraction(powers[j][i][l] * t ** j, factorial(j))
                    for j in range(r + 1))
                for l in range(n)] for i in range(n)]
        values.append(_det_fraction(mat))
    return _interpolate(range(deg + 1), values)
