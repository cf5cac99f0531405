"""Correctly rounded real roots of real-rooted integer polynomials.

A polynomial is a sequence of ints, lowest degree first, whose roots are all
real: the characteristic polynomial of a symmetric integer matrix, say.
Both functions rely on that; neither checks it in full.

- ``count_above`` counts the roots above a dyadic rational x, with
  multiplicity.  Descartes' rule of signs bounds the number of positive roots
  of q(x + y) by the sign variations of its coefficients, and the bound is
  exact when every root is real (the positive and the negative roots then
  use up all the variations of q(x + y) and q(x - y) between them).  So one
  Taylor shift in ints gives the count, and its trailing zeros give the
  multiplicity of x itself.
- ``rounded_roots`` gives every root as the float nearest to it, ties to
  even, with multiplicity.  Laguerre's iteration, with q, q' and q'' evaluated
  exactly in ints at each float iterate, walks down from an upper bound of
  the roots, dividing out the roots it has found.  Each float it stops at is
  then proved, never trusted: either q takes opposite signs at the two
  half-ulp midpoints around it, so an odd number of roots rounds to it, or
  the counts at those midpoints say exactly how many do.  Once the floats
  account for all deg q roots, each sign-checked float holds exactly one of
  them.  Should the walk stall, a bisection over the floats by counts alone
  finds every root (Collins & Akritas 1976 isolate real roots by Descartes'
  rule in the same way).
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

__all__ = ["count_above", "rounded_roots"]

_MAX_STEPS = 100  # Laguerre steps per root before the walk gives up
_CUBIC = 2.0 ** -26  # a relative step this small leaves less than an ulp to go
_GAP = 2.0 ** -20  # relative distance of a walk's next start below a found root
_NEAR_INTEGER = 0.1  # how close G^2 / H must come to a multiplicity
_WINDOW = 64  # floats each side of a float that no root rounds to
_BOUND_BITS = 64  # fraction bits of the square root in the bounds


def _as_poly(coeffs: Sequence[int]) -> list[int]:
    q = list(coeffs)
    if any(isinstance(c, bool) or not isinstance(c, int) for c in q):
        raise ValueError("integer coefficients required")
    if not q or not q[-1]:
        raise ValueError("the leading coefficient must be nonzero")
    return q


def _shift_signs(q: Sequence[int], m: int, s: int) -> tuple[int, int]:
    """(roots above x, multiplicity of x) for x = m / 2^s: the sign
    variations and the trailing zeros of 2^(s deg q) q(x + z / 2^s)."""
    d = len(q) - 1
    a = [c << (s * (d - i)) for i, c in enumerate(q)]
    if m:
        for i in range(d):  # Horner's Taylor shift by m
            for j in range(d - 1, i - 1, -1):
                a[j] += m * a[j + 1]
    at = 0
    while not a[at]:
        at += 1
    variations, positive = 0, a[at] > 0
    for c in a[at + 1:]:
        if c and (c > 0) != positive:
            variations += 1
            positive = not positive
    return variations, at


def count_above(coeffs: Sequence[int], x: Union[int, float, Fraction]) -> int:
    """The number of roots greater than x, with multiplicity, of a
    polynomial whose roots are all real; x is any int, float or Fraction
    whose denominator is a power of two."""
    num, den = x.as_integer_ratio()
    s = den.bit_length() - 1
    if den != 1 << s:
        raise ValueError(f"{x!r} is not a dyadic rational")
    return _shift_signs(_as_poly(coeffs), num, s)[0]


def _sign_at(q: Sequence[int], m: int, s: int) -> int:
    acc, shift = q[-1], 0
    for c in reversed(q[:-1]):
        shift += s
        acc = acc * m + (c << shift)
    return (acc > 0) - (acc < 0)


def _cell(f: float) -> tuple[int, int, int]:
    """(a, b, s): the midpoints between f and its neighbours below and above
    are a / 2^s and b / 2^s.  The reals that round to f lie between them."""
    if f < 0:
        a, b, s = _cell(-f)
        return -b, -a, s
    e = max(math.frexp(f)[1] - 53, -1074)
    m = int(math.ldexp(f, -e))  # f = m 2^e
    # below a power of two the floats are twice as dense
    a = 4 * m - 1 if m == 1 << 52 and e > -1074 else 4 * m - 2
    s = 2 - e
    if s < 0:
        return a << -s, (4 * m + 2) << -s, 0
    return a, 4 * m + 2, s


def _log_derivatives(q: Sequence[int], x: float) -> Optional[tuple[float, float]]:
    """q'/q and (q'^2 - q q'')/q^2 at x, each rounded once from exact ints;
    None when x is a root.  With x = m / 2^s, the ints p, p1, p2 are q, q'
    and q''/2 at x times 2^(s d), 2^(s (d-1)) and 2^(s (d-2))."""
    m, den = x.as_integer_ratio()
    s = den.bit_length() - 1
    p, p1, p2, shift = q[-1], 0, 0, 0
    for c in reversed(q[:-1]):
        shift += s
        p2 = p2 * m + p1
        p1 = p1 * m + p
        p = p * m + (c << shift)
    if not p:
        return None
    return (p1 << s) / p, ((p1 * p1 - 2 * p * p2) << 2 * s) / (p * p)


def _laguerre(q: Sequence[int], found: Sequence[tuple[float, float]],
              x: float, cubic: bool = True) -> Optional[tuple[float, float, bool]]:
    """The root that Laguerre's iteration reaches from x, for q with the
    roots in ``found`` divided out; None when it does not settle.

    With G and H the sums of 1 / (x - r) and 1 / (x - r)^2 over the n roots
    left, the step is n / (G +- sqrt((n - k)/k (n H - G^2))), signed for the
    nearer root, where k = 1 or the multiplicity of that root.  With every
    root real and k = 1 it converges to a root from any start, cubically
    when the root is simple, so a small enough step is the last
    (``cubic``), and with two roots left or fewer it is exact, so the first
    step is; without ``cubic`` it runs until a step stays below half an
    ulp.  Near a root of multiplicity k, G^2 / H tends to k, and k = 1
    converges only linearly there; so once two successive iterates agree
    on such a k, the step takes it, and converges cubically again.

    A root comes back as a float f, the rest c of the last Laguerre point,
    f + c, and whether it looks simple.  Dividing out f + c instead of f
    keeps the error of H, about ulp / (x - f)^3, from swamping the roots
    left when the next start lies close to f."""
    n = len(q) - 1 - len(found)
    seen = 0  # the multiplicity the last iterate pointed to, if any
    for _ in range(_MAX_STEPS):
        try:
            derivs = _log_derivatives(q, x)
        except OverflowError:  # x is within 1e-154 or so of a root
            return x, 0.0, False
        if derivs is None:
            return x, 0.0, False
        g, h = derivs
        for f, c in found:
            t = 1.0 / ((x - f) - c)
            g -= t
            h -= t * t
        if h <= 0:
            return None
        ratio = g / h * g
        k = round(ratio)
        mult = k if 1 < k == seen else 1
        seen = k if abs(ratio - k) < _NEAR_INTEGER else 0
        root = math.sqrt(max((n - mult) / mult * (n * h - g * g), 0.0))
        den = g + root if g >= 0 else g - root
        if not den:
            return None
        step = n / den
        nxt = x - step
        if nxt == x or cubic and (n <= 2 or abs(step) <= abs(nxt) * _CUBIC):
            # with at most two roots left, the step lands on one of them,
            # and no root left can have multiplicity 3
            return nxt, (x - nxt) - step, n <= 2 or ratio < 1.5
        x = nxt
    return None


def _key(f: float) -> int:
    """An int that orders floats as they are ordered, one apart for
    neighbours."""
    bits = struct.unpack("<q", struct.pack("<d", f))[0]
    return bits if bits >= 0 else -(bits & ((1 << 63) - 1))


def _float(key: int) -> float:
    f = struct.unpack("<d", struct.pack("<q", abs(key)))[0]
    return -f if key < 0 else f


def _rounds_above(q: Sequence[int], key: int) -> int:
    """The number of roots whose nearest float has a larger key."""
    _, b, s = _cell(_float(key))
    above, at = _shift_signs(q, b, s)
    # a root on the midpoint goes to the even neighbour
    return above + at * (abs(key + 1) % 2 == 0)


def _split(q: Sequence[int], lo: int, n_lo: int, hi: int, n_hi: int,
           out: list[float]) -> None:
    """Append, in descending order, the rounded roots whose keys lie in
    (lo, hi]; n_lo and n_hi are the counts of roots rounding above lo and
    above hi."""
    if n_lo == n_hi:
        return
    if hi == lo + 1:
        out.extend([_float(hi)] * (n_lo - n_hi))
        return
    mid = (lo + hi) // 2
    n_mid = _rounds_above(q, mid)
    _split(q, mid, n_mid, hi, n_hi, out)
    _split(q, lo, n_lo, mid, n_mid, out)


def _between(q: Sequence[int], lo: int, hi: int) -> list[float]:
    """The rounded roots whose keys lie in (lo, hi], descending, by
    bisection on counts alone."""
    out: list[float] = []
    _split(q, lo, _rounds_above(q, lo), hi, _rounds_above(q, hi), out)
    return out


def _bounds(q: Sequence[int]) -> tuple[float, float]:
    """Floats below and above every root: mean -+ sqrt(d - 1) times the
    standard deviation of the roots (Laguerre-Samuelson), from the top three
    coefficients and rounded outward."""
    d = len(q) - 1
    c, c1 = q[-1], q[-2]
    c2 = q[-3] if d >= 2 else 0
    if c < 0:
        c, c1, c2 = -c, -c1, -c2
    spread = (d - 1) * ((d - 1) * c1 * c1 - 2 * d * c * c2)
    if spread < 0:
        raise ValueError("the polynomial has roots off the real line")
    k = _BOUND_BITS
    root = isqrt(spread << 2 * k) + 1
    den = d * c << k
    try:
        return (math.nextafter((-(c1 << k) - root) / den, -math.inf),
                math.nextafter((-(c1 << k) + root) / den, math.inf))
    except OverflowError:
        raise ValueError("the roots reach beyond the float range") from None


def _walk(q: Sequence[int], high: float) -> Optional[list[float]]:
    """The rounded roots in descending order, from Laguerre's walk down
    from ``high``, above every root; None when it stalls."""
    d = len(q) - 1
    c, c1, c2 = q[-1], q[-2], (q[-3] if d >= 2 else 0)
    # the sums of the roots left and of their squares, and bounds on their
    # rounding errors, which grow as each root found is taken off
    s1, s2 = -c1 / c, (c1 * c1 - 2 * c * c2) / (c * c)
    err2 = (d + 2) * 2.0 ** -52 * s2
    err1 = err2 / math.sqrt(s2 / d) if s2 else 0.0
    out: list[float] = []
    found: list[tuple[float, float]] = []  # out, each with its rest
    top = x = high  # every root that rounds above top is in out
    while len(out) < d:
        if out:
            # start the next root from the Laguerre-Samuelson bound of the
            # roots left, mean + sqrt(n - 1) sd, with the rounding errors
            # added so it stays above them, or from a little below the roots
            # found if that is lower
            n = d - len(out)
            mean = s1 / n
            var = s2 / n - mean * mean + 3 * err2 / n
            x = min(mean + err1 / n + math.sqrt((n - 1) * max(var, 0.0)),
                    top - abs(top) * _GAP)
        root = _laguerre(q, found, x)
        if root is None or root[0] > top:
            return None
        x, rest, simple = root
        a, b, s = _cell(x)
        if simple and _sign_at(q, a, s) * _sign_at(q, b, s) < 0:
            new = [x]  # an odd number of roots rounds to x
            found.append((x, rest))
            top = math.nextafter(x, -math.inf)
        else:
            # a multiple root, or a float that an even number of roots or
            # none rounds to: take the iteration to its end and count the
            # roots that round to its float, or failing any, to the floats
            # around it
            root = _laguerre(q, found, x, cubic=False)
            if root is None or root[0] > top:
                return None
            key = _key(root[0])
            lo = key - 1
            new = _between(q, lo, key)
            if not new:
                lo = key - _WINDOW
                new = _between(q, lo, min(key + _WINDOW, _key(top)))
                if not new:
                    return None
            for f, group in itertools.groupby(new):
                # k roots round to f: their mean is about f - k q/q' at f
                k = len(list(group))
                derivs = _log_derivatives(q, f)
                found += [(f, -k / derivs[0] if derivs else 0.0)] * k
            top = _float(lo)
        out += new
        s1 -= math.fsum(new)
        s2 -= math.fsum(f * f for f in new)
    return out if len(out) == d else None


def rounded_roots(coeffs: Sequence[int]) -> tuple[float, ...]:
    """Every root of a polynomial whose roots are all real, each as the
    float nearest to it (ties to even), with multiplicity, ascending.

    Roots at 0 come from the trailing zero coefficients and are exact."""
    q = _as_poly(coeffs)
    zeros = next(i for i, c in enumerate(q) if c)
    q = q[zeros:]
    if len(q) == 1:
        return (0.0,) * zeros
    low, high = _bounds(q)
    try:
        found = _walk(q, high)
    except ArithmeticError:
        # a float left its range, or an iterate hit a root found; the
        # counts are all ints
        found = None
    if found is None:
        found = _between(q, _key(low) - 1, _key(high))
    return tuple(sorted(found + [0.0] * zeros))
