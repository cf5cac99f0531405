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
# below this |p| the powers of floats round toward 1, and lp_mean takes its
# fallback
_FAST_P_MIN = 2.0 ** -10

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
            if e.numerator < 0:  # what e < 0 tests, without Fraction.__lt__
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
        """The entries as floats, converted on the first call and kept.

        Raises OverflowError when an entry has no normal float: ``float()``
        raises it past the top of the range, and this raises it for a
        nonzero entry below the normal range, which rounds to 0.0 or to a
        subnormal float with fewer bits.  Callers then take the exact
        entries instead.
        """
        try:
            return self._floats
        except AttributeError:
            floats = tuple(float(e) for e in self._entries)
            if any(f < _MIN_NORMAL for f, e in zip(floats, self._entries) if e):
                raise OverflowError("an entry is below the normal float range")
            self._floats = floats
            return floats


def lp_mean(x: RationalVector, p: Union[int, float, Fraction]) -> float:
    """The lp mean ``(n^-1 sum x_i^p)^(1/p)`` with its continuous-limit conventions.

    p = 0 is the geometric mean, p = +/-inf the largest/smallest entry, and a
    negative p with any zero entry gives 0.  Other exponents take one of two
    paths:

    - The powers of the entries' cached floats, for finite |p| > 2^-10,
      while every entry has a normal float, no power overflows and the mean
      of the powers is a normal float.
    - The fallback, for every other p and for entries beyond the float range
      or nonzero below its normal range.  With m the entry whose power
      dominates (the largest for p > 0, the smallest for p < 0), it takes
      the mean of (e / m)^p - 1 as ``expm1(p log(e / m))`` of the exact
      ratios and returns ``m exp(log1p(mean) / p)``, with the powers of two
      of m and of that factor put back by one ``ldexp``.  Where that mean
      is below -1/2, m's power dominates, and ``log1p(mean)`` is taken as
      the log of the mean of the powers ``exp(p log(e / m))`` themselves.
      So it keeps its digits as p nears 0, where the powers of the floats
      round toward 1, and for an m outside the float range.  For
      |p| < 2^-512 the mean equals the geometric mean to double precision,
      and that is returned.

    A mean beyond the float range raises ValueError, which names p.
    """
    try:
        pf = float(p)
        # finite |p| > 2^-10; p > 2^-10, the common case, stops at the first test
        if _FAST_P_MIN < pf < math.inf or -math.inf < pf < -_FAST_P_MIN:
            try:
                floats = x.to_floats()
                mean_pow = math.fsum(map(pow, floats, repeat(pf))) / len(floats)
                if mean_pow >= _MIN_NORMAL:
                    return mean_pow ** (1 / pf)
            except (OverflowError, ZeroDivisionError):
                pass  # out of the float range, or a zero entry at p < 0
        elif math.isinf(pf):
            return float(max(x.entries) if pf > 0 else min(x.entries))
        elif pf < 2.0 ** -512 and 0 in x.entries:
            return 0.0
        elif abs(pf) < 2.0 ** -512:
            return math.exp(math.fsum(map(log_of_fraction, x.entries)) / len(x))
        entries = x.entries  # the fast path reads only the cached floats
        m = max(entries) if pf > 0 else min(entries)
        if m == 0:
            return 0.0
        # p log(e / m) per entry, each <= 0, and the mean of (e / m)^p - 1
        logs = [pf * log_of_fraction(e / m) if e else -math.inf
                for e in entries]
        mean = math.fsum(map(math.expm1, logs)) / len(entries)
        if mean < -0.5:
            # log1p would scale the rounding of the mean, and expm1 near -1
            # keeps (e / m)^p to an absolute 2^-53 only: sum the powers
            log_ratio = math.log(math.fsum(map(math.exp, logs)) / len(entries))
        else:
            log_ratio = math.log1p(mean)
        t = log_ratio / (pf * math.log(2))  # log2 of the lp mean over m
        b = m.numerator.bit_length() - m.denominator.bit_length()
        # 2^t alone may leave the float range: ldexp takes its integer part
        return math.ldexp(float(m * Fraction(2) ** -b) * 2.0 ** (t % 1),
                          b + math.floor(t))
    except OverflowError:
        raise ValueError(f"the lp mean at p={p} is beyond the float range") from None


def partial_sums_desc(x: RationalVector) -> tuple[Fraction, ...]:
    """Exact sums of the k largest entries, k = 1..n."""
    return tuple(accumulate(x.sorted_desc()))
