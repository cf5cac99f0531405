"""Numerical validation of the Mellin-transform machinery behind the verifier.

Both integral kernels are evaluated after the substitution ``s = a * e^u``,
which makes the integrands smooth and exponentially decaying at the window
edges for exponents inside their finiteness intervals.  Windows are sized per
call from analytic tail bounds so the truncation error stays far below the
quadrature tolerance; inside a window a composite Gauss-Legendre rule is
refined by panel doubling until stable.

Every integrand value depends on its node alone: the gap series of the J
kernel stops at each node once that node has converged, not when the whole
array has.  So the rule evaluates its ascending nodes in blocks of a fixed
number of panels, which bounds the temporaries, and sums all values in one
dot product with the weights; the result does not depend on the block size.

This module is validation equipment: it exists to test the integral
identities numerically and to catch transcription errors.  It certifies
nothing by itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "delta_r",
    "integral_I",
    "integral_J",
    "identity_lhs",
    "identity_check",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_LOG4 = math.log(4.0)
_BLOCK_PANELS = 2048  # panels per integrand call: bounds the temporaries


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    estimated_error: float
    node_count: int

    def __post_init__(self) -> None:
        if self.estimated_error < 0:
            raise ValueError("error estimate cannot be negative")


def _log_pr_from_logs(s_log: np.ndarray, r: int) -> np.ndarray:
    """log of the order-r exponential truncation at s = exp(s_log), stable for
    any magnitude of s."""
    out = np.empty_like(s_log)
    cut = (250.0 / r) * math.log(10.0)  # beyond this s**r would overflow
    hi = s_log > cut
    lo = ~hi
    if lo.any():
        s = np.exp(s_log[lo])
        poly = np.zeros_like(s)  # P_r(s) - 1 via Horner, all terms positive
        for j in range(r, 0, -1):
            poly = (poly + 1.0) * s / j
        out[lo] = np.log1p(poly)
    if hi.any():
        sl = s_log[hi]
        corr = np.zeros_like(sl)
        c = 1.0
        for m in range(1, r + 1):
            c *= r - m + 1  # r! / (r-m)!
            corr += c * np.exp(-m * sl)
        out[hi] = r * sl - math.lgamma(r + 1) + np.log1p(corr)
    return out


def _delta_small(s: np.ndarray, r: int) -> np.ndarray:
    """The gap ``s - log P_r(s)`` for a nonempty array of s <= 4, via -log1p
    of the scaled exponential remainder; immune to the cancellation that
    kills the direct difference when the gap is O(s^(r+1)).

    Each node leaves the remainder series once its own term is at most
    1e-22 of its own sum: with s <= 4 every later term is smaller still and
    below half an ulp of the sum, so adding it changes nothing.  Each value
    therefore depends on its node alone.  Nodes in ascending s converge
    in ascending order, so the loop runs over a shrinking suffix; in any
    other order the converged nodes behind the first unconverged one keep
    adding terms that leave them unchanged.
    """
    term = s ** (r + 1) / math.factorial(r + 1)
    rem = term.copy()
    lo = 0  # nodes before lo have converged
    for j in range(r + 2, r + 64):
        t, total = term[lo:], rem[lo:]
        t *= s[lo:]
        t /= j
        total += t
        done = t <= 1e-22 * total
        first_open = int(done.argmin())
        if done[first_open]:
            break
        lo += first_open
    q = np.exp(-s) * rem  # = 1 - e^{-s} P_r(s), always in [0, 1)
    return -np.log1p(-q)


def delta_r(s: float, r: int) -> float:
    """The nonnegative gap between s and the log of the order-r exponential
    truncation; O(s^(r+1)) near zero, computed cancellation-safe there."""
    _validate_r(r)
    if not 0 <= s < math.inf:
        raise ValueError("need a finite s >= 0")
    arr = np.array([s], dtype=float)
    if arr[0] <= 4.0:
        gap = _delta_small(arr, r)
    else:
        gap = arr - _log_pr_from_logs(np.log(arr), r)
    return float(gap[0])


def _validate_r(r: int) -> None:
    if isinstance(r, bool) or not isinstance(r, int) or r < 1:
        raise ValueError("r must be an integer >= 1")


def _times_decay(val: np.ndarray, u: np.ndarray, p: float) -> np.ndarray:
    # val * exp(-p u) in log space: extreme windows cannot overflow
    out = np.zeros_like(val)
    pos = val > 0
    if pos.any():
        out[pos] = np.exp(np.log(val[pos]) - p * u[pos])
    return out


def _i_integrand(u: np.ndarray, log_a: float, p: float, r: int) -> np.ndarray:
    return _times_decay(_log_pr_from_logs(u + log_a, r), u, p)


def _j_integrand(u: np.ndarray, log_a: float, p: float, r: int) -> np.ndarray:
    """The J integrand at ascending nodes u, which split at s = 4 into a
    prefix on the gap series and a suffix on the log form."""
    s_log = u + log_a
    out = np.empty_like(u)
    cut = int(np.searchsorted(s_log, _LOG4, side="right"))
    if cut:
        gap = _delta_small(np.exp(s_log[:cut]), r)
        out[:cut] = _times_decay(gap, u[:cut], p)
    if cut < u.size:
        ub = u[cut:]
        # (s - log P_r(s)) e^{-pu} split into two separately-safe terms
        linear = np.exp(log_a + (1.0 - p) * ub)
        out[cut:] = linear - _times_decay(_log_pr_from_logs(s_log[cut:], r), ub, p)
    return out


def _window(kind: str, r: int, p: float, a: float, eps: float) -> tuple[float, float]:
    """Truncation window [lo, hi] in u with both tail integrals below eps,
    from closed-form bounds on the integrands."""
    eps = max(eps, 1e-300)
    log_a = math.log(a)
    if kind == "I":
        # upper: log P_r(s) <= r log s + log(r+1) for s >= 1
        alpha = float(r)
        beta = r * log_a + math.log(r + 1)
        hi = max(40.0, -log_a + 1.0)
        for _ in range(32):
            bound = alpha * hi / p + alpha / p ** 2 + abs(beta) / p
            hi = max(math.log(max(bound, 1.0) / eps) / p, -log_a + 1.0)
        hi += 5.0
        # lower: log P_r(s) <= s
        lo = min(math.log(eps * (1.0 - p) / a) / (1.0 - p), -1.0) - 5.0
    elif kind == "J":
        # upper: the gap is at most s
        hi = max(math.log(a / (eps * (p - 1.0))) / (p - 1.0), 1.0) + 5.0
        # lower: the gap is at most 3 s^{r+1} / (r+1)! once s <= 1/2
        rho = (r + 1) - p
        lo = (math.log(eps * rho * math.factorial(r + 1) / 3.0)
              - (r + 1) * log_a) / rho
        lo = min(lo, -math.log(2.0 * a)) - 5.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return lo, hi


def _integrate_panels(fvec, lo: float, hi: float, rel_tol: float = 1e-10,
                      abs_floor: float = 1e-14,
                      max_rounds: int = 9) -> tuple[float, float, int]:
    """Composite 16-point Gauss-Legendre with panel doubling; the error
    estimate is the change under the last doubling.

    The integrand runs on ascending nodes, _BLOCK_PANELS panels at a time,
    into one value array; a single dot product with the weights sums it."""
    panels = max(8, math.ceil((hi - lo) / 4.0))
    prev = None
    err = math.inf
    value = 0.0
    nodes = 0
    for _ in range(max_rounds):
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        vals = np.empty((panels, _GL_NODES.size))
        for first in range(0, panels, _BLOCK_PANELS):
            block = slice(first, first + _BLOCK_PANELS)
            pts = mid[block, None] + half[block, None] * _GL_NODES[None, :]
            vals[block] = fvec(pts.ravel()).reshape(pts.shape)
        value = float(wts @ vals.ravel())
        nodes += wts.size
        if prev is not None:
            err = abs(value - prev)
            if err <= max(rel_tol * abs(value), abs_floor):
                break
        prev = value
        panels *= 2
    return value, err, nodes


@functools.lru_cache(maxsize=512)
def _mellin_value(kind: str, r: int, p: float, a: float) -> QuadratureResult:
    integrand = _i_integrand if kind == "I" else _j_integrand
    log_a = math.log(a)

    def f(u: np.ndarray) -> np.ndarray:
        return integrand(u, log_a, p, r)

    # pass 1: rough magnitude; pass 2: window sized from it
    lo, hi = _window(kind, r, p, a, 1e-6)
    rough, _, n0 = _integrate_panels(f, lo, hi, rel_tol=1e-6, max_rounds=6)
    eps = max(1e-13, abs(rough) * 1e-10)
    lo, hi = _window(kind, r, p, a, eps)
    value, err, n1 = _integrate_panels(f, lo, hi)
    return QuadratureResult(value, err + 2.0 * eps, n0 + n1)


def integral_I(r: int, p: float) -> QuadratureResult:
    """``int_0^inf log(P_r(s)) s^(-p-1) ds``; finite and positive for 0 < p < 1."""
    _validate_r(r)
    if not 0.0 < p < 1.0:
        raise ValueError("this transform is finite only for 0 < p < 1")
    return _mellin_value("I", r, float(p), 1.0)


def integral_J(r: int, p: float) -> QuadratureResult:
    """``int_0^inf (s - log P_r(s)) s^(-p-1) ds``; finite and positive for
    1 < p < r + 1."""
    _validate_r(r)
    if not 1.0 < p < r + 1.0:
        raise ValueError("this transform is finite only for 1 < p < r + 1")
    return _mellin_value("J", r, float(p), 1.0)


def identity_lhs(which: str, a: float, p: float, r: int) -> QuadratureResult:
    """The normalized scaled transform whose exact value is a^p: the kernel at
    scale a divided by the kernel at scale 1."""
    if which not in ("id1", "id2"):
        raise ValueError("which must be 'id1' or 'id2'")
    if not 0 <= a < math.inf:
        raise ValueError("need a finite a >= 0")
    norm = integral_I(r, p) if which == "id1" else integral_J(r, p)
    if a == 0:
        return QuadratureResult(0.0, 0.0, norm.node_count)
    kind = "I" if which == "id1" else "J"
    num = _mellin_value(kind, r, float(p), float(a))
    value = num.value / norm.value
    rel = (num.estimated_error / max(abs(num.value), 1e-300)
           + norm.estimated_error / max(abs(norm.value), 1e-300))
    return QuadratureResult(value, abs(value) * rel,
                            num.node_count + norm.node_count)


def identity_check(which: str, a: float, p: float, r: int) -> float:
    """Relative error between the normalized scaled transform and a^p."""
    lhs = identity_lhs(which, a, p, r).value
    target = float(a) ** float(p) if a > 0 else 0.0
    return abs(lhs - target) / max(target, 1e-15)
