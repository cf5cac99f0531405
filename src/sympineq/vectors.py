"""Exact nonnegative rational vectors and the lp-mean conventions shared repo-wide.

Every polynomial-family value in this package is an exact ``fractions.Fraction``;
lp means are the one deliberately float-valued quantity, and they are only ever
compared on grids with explicit tolerances.  A vector is immutable, so it
converts its entries to floats once, on the first lp mean, and every later
grid point reuses them.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Union

RationalLike = Union[Fraction, int, float, str]
_MIN_NORMAL = sys.float_info.min

__all__ = [
    "RationalLike",
    "RationalVector",
    "to_fraction",
    "log_of_fraction",
    "lp_mean",
    "partial_sums_desc",
]


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce a scalar to an exact rational.

    Strings parse exactly: ``"3/7"`` as a quotient, ``"1.9"`` as the decimal
    19/10 -- never as the nearest binary float.  Python floats convert to the
    exact rational value they already hold; infinities raise ValueError, as
    NaN does inside ``Fraction``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, float) and math.isinf(value):
        raise ValueError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def log_of_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, safe far beyond the float range."""
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    return math.log(q.numerator) - math.log(q.denominator)


class RationalVector:
    """Finite vector of nonnegative exact rationals; the universal input type."""

    __slots__ = ("_entries", "_floats")

    def __init__(self, entries: Iterable[RationalLike]):
        ent = tuple(to_fraction(e) for e in entries)
        if not ent:
            raise ValueError("a vector needs at least one entry")
        for e in ent:
            if e < 0:
                raise ValueError(f"vector entries must be nonnegative, got {e}")
        self._entries = ent

    @classmethod
    def from_json(cls, text: str) -> "RationalVector":
        """Parse the shared vector literal format: a JSON array whose items are
        numbers or strings, each read as an exact rational."""
        data = json.loads(text, parse_float=Fraction)
        if not isinstance(data, list):
            raise ValueError("vector literal must be a JSON array")
        return cls(data)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._entries)

    def __getitem__(self, i: int) -> Fraction:
        return self._entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalVector) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"RationalVector([{', '.join(str(e) for e in self._entries)}])"

    def total(self) -> Fraction:
        return sum(self._entries, Fraction(0))

    def sorted_desc(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self._entries, reverse=True))

    def to_floats(self) -> tuple[float, ...]:
        """The entries as floats, converted on the first call and kept."""
        try:
            return self._floats
        except AttributeError:
            self._floats = tuple(float(e) for e in self._entries)
            return self._floats


def lp_mean(x: RationalVector, p: Union[int, float, Fraction]) -> float:
    """The lp mean ``(n^-1 sum x_i^p)^(1/p)`` with its continuous-limit conventions.

    p = 0 is the geometric mean, p = +/-inf the largest/smallest entry, and a
    negative p with any zero entry gives 0.  The powers are taken of the
    entries' floats while their mean is a normal float.  When a power
    overflows or the mean falls below the normal range, the mean is
    ``m M_p(x / m)`` instead, from the exact ratios, with m the entry whose
    power dominates: the largest for p > 0, the smallest for p < 0.
    A mean beyond the float range raises ValueError, which names p.
    """
    entries = x.entries
    try:
        pf = float(p)
        if not 0.0 < pf < math.inf:  # finite p > 0, the common case, skips this
            if math.isinf(pf):
                return float(max(entries) if pf > 0 else min(entries))
            if 0 in entries:
                return 0.0
            if pf == 0.0:
                return math.exp(math.fsum(map(log_of_fraction, entries)) / len(entries))
        try:
            floats = x.to_floats()
            mean_pow = math.fsum(map(pow, floats, repeat(pf))) / len(floats)
            if mean_pow >= _MIN_NORMAL:
                return mean_pow ** (1 / pf)
        except (OverflowError, ZeroDivisionError):  # a power left the float range
            pass
        m = max(entries) if pf > 0 else min(entries)
        if m == 0:
            return 0.0
        # each (e / m)^p lies in [0, 1]: raise the ratio that is at most 1 to |p|
        ratios = [e / m if pf > 0 else m / e for e in entries]
        mean_pow = math.fsum([float(q) ** abs(pf) for q in ratios]) / len(entries)
        scale = mean_pow ** (1.0 / pf)
        try:
            return float(m) * scale
        except OverflowError:  # m is beyond the float range; the mean may not be
            e = m.numerator.bit_length() - m.denominator.bit_length()
            return math.ldexp(float(m / 2 ** e) * scale, e)
    except OverflowError:
        raise ValueError(f"the lp mean at p={p} is beyond the float range") from None


def partial_sums_desc(x: RationalVector) -> tuple[Fraction, ...]:
    """Exact sums of the k largest entries, k = 1..n."""
    return tuple(accumulate(x.sorted_desc()))
