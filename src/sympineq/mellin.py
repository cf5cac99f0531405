"""Numerical validation of the Mellin-transform machinery behind the verifier.

Both integral kernels are evaluated after the substitution ``s = a * e^u``,
which makes the integrands smooth and exponentially decaying at the window
edges for exponents inside their finiteness intervals.  Windows are sized per
call from analytic tail bounds so the truncation error stays far below the
quadrature tolerance; inside a window a composite Gauss-Legendre rule is
refined by panel doubling until stable.

A quadrature is a generator of stages.  A stage is the panel rounds it still
needs: rounds 0 and 1 of a pass together, because the stop test needs both,
then one round at a time.  It is sent back one rule sum per round.  An
identity check needs the same kernel at scales 1 and a, so one driver runs
both quadratures in lockstep.  When their pending stages fit in one block of
``_BLOCK_PANELS`` panels, the driver joins their nodes, sorts them by
``s_log = u + log a`` and makes one integrand call; larger rounds run block by
block, one quadrature at a time, which bounds the temporaries.

No grouping changes a bit of the result.  Every integrand value depends on
its node alone: the gap series of the J kernel stops at each node once that
node has converged, not when the whole array has.  And each round is summed
in one dot product of its own values with its own weights.

This module is validation equipment: it exists to test the integral
identities numerically and to catch transcription errors.  It certifies
nothing by itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice

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
_MEMO_SIZE = 512


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    estimated_error: float
    node_count: int
    converged: bool  # every panel-doubling pass met its tolerance

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


def _i_integrand(u: np.ndarray, log_a: np.ndarray, p: float,
                 r: int) -> np.ndarray:
    return _times_decay(_log_pr_from_logs(u + log_a, r), u, p)


def _j_integrand(u: np.ndarray, log_a: np.ndarray, p: float,
                 r: int) -> np.ndarray:
    """The J integrand at nodes u of scales e^log_a, one scale per node, in
    ascending s_log = u + log_a; they split at s = 4 into a prefix on the gap
    series and a suffix on the log form."""
    s_log = u + log_a
    out = np.empty_like(u)
    cut = int(np.searchsorted(s_log, _LOG4, side="right"))
    if cut:
        gap = _delta_small(np.exp(s_log[:cut]), r)
        out[:cut] = _times_decay(gap, u[:cut], p)
    if cut < u.size:
        ub = u[cut:]
        # (s - log P_r(s)) e^{-pu} split into two separately-safe terms
        linear = np.exp(log_a[cut:] + (1.0 - p) * ub)
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


def _panel_grid(lo: float, hi: float,
                panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and half-widths of `panels` equal panels on [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])


def _integrate_panels(lo: float, hi: float, rel_tol: float = 1e-10,
                      abs_floor: float = 1e-14, max_rounds: int = 9):
    """Composite 16-point Gauss-Legendre with panel doubling; the error
    estimate is the change under the last doubling.

    A generator: it yields the panel grids (mid, half) of the rounds it still
    needs, is sent back their rule sums, and returns (value, err, nodes,
    converged).  It takes at least two rounds."""
    panels = max(8, math.ceil((hi - lo) / 4.0))
    prev, value = yield (_panel_grid(lo, hi, panels),
                         _panel_grid(lo, hi, 2 * panels))
    nodes = 3 * panels * _GL_NODES.size
    panels *= 2
    rounds = 2
    while True:
        err = abs(value - prev)
        if err <= max(rel_tol * abs(value), abs_floor):
            return value, err, nodes, True
        if rounds == max_rounds:
            return value, err, nodes, False
        panels *= 2
        (latest,) = yield (_panel_grid(lo, hi, panels),)
        prev, value = value, latest
        nodes += panels * _GL_NODES.size
        rounds += 1


def _mellin_value(kind: str, r: int, p: float, a: float):
    """The quadrature of the kernel at scale a: a generator of stages, as
    `_integrate_panels`, that returns its QuadratureResult."""
    # pass 1: rough magnitude; pass 2: window sized from it
    lo, hi = _window(kind, r, p, a, 1e-6)
    rough, _, n0, ok0 = yield from _integrate_panels(lo, hi, rel_tol=1e-6,
                                                     max_rounds=6)
    eps = max(1e-13, abs(rough) * 1e-10)
    lo, hi = _window(kind, r, p, a, eps)
    value, err, n1, ok1 = yield from _integrate_panels(lo, hi)
    return QuadratureResult(value, err + 2.0 * eps, n0 + n1, ok0 and ok1)


def _node_values(integrand, p: float, r: int, grids) -> np.ndarray:
    """The integrand at the nodes of the grids (mid, half, log_a), grid after
    grid, from one call on the nodes in ascending s_log = u + log_a."""
    pts = [(mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
           for mid, half, _ in grids]
    log_a = np.repeat([log for _, _, log in grids], [x.size for x in pts])
    if len(pts) == 1:  # the nodes of one grid ascend already
        return integrand(pts[0], log_a, p, r)
    u = np.concatenate(pts)
    order = np.argsort(u + log_a, kind="stable")
    vals = np.empty_like(u)
    vals[order] = integrand(u[order], log_a[order], p, r)
    return vals


def _weighted_sum(half: np.ndarray, vals: np.ndarray) -> float:
    return float((half[:, None] * _GL_WEIGHTS[None, :]).ravel() @ vals)


def _blockwise_sum(integrand, p: float, r: int, mid: np.ndarray,
                   half: np.ndarray, log_a: float) -> float:
    """The rule sum of one grid, _BLOCK_PANELS panels per integrand call."""
    vals = np.empty((mid.size, _GL_NODES.size))
    for first in range(0, mid.size, _BLOCK_PANELS):
        block = slice(first, first + _BLOCK_PANELS)
        grid = [(mid[block], half[block], log_a)]
        vals[block] = _node_values(integrand, p, r, grid).reshape(-1, _GL_NODES.size)
    return _weighted_sum(half, vals.ravel())


def _rule_sums(integrand, p: float, r: int, grids) -> list[float]:
    """The rule sum of each grid (mid, half, log_a): grids that fit in one
    block together share one integrand call, and otherwise each grid runs
    block by block."""
    if sum(mid.size for mid, _, _ in grids) > _BLOCK_PANELS:
        return [_blockwise_sum(integrand, p, r, *grid) for grid in grids]
    vals = _node_values(integrand, p, r, grids)
    sums, start = [], 0
    for _, half, _ in grids:
        stop = start + half.size * _GL_NODES.size
        sums.append(_weighted_sum(half, vals[start:stop]))
        start = stop
    return sums


def _lockstep(kind: str, r: int, p: float,
              scales: list[float]) -> list[QuadratureResult]:
    """The quadratures of one kernel at several scales, run side by side:
    each step answers the pending stages of all of them at once."""
    integrand = _i_integrand if kind == "I" else _j_integrand
    runs = [_mellin_value(kind, r, p, a) for a in scales]
    log_as = [math.log(a) for a in scales]
    results: dict[int, QuadratureResult] = {}
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        grids = [(mid, half, log_as[i]) for i, stage in pending.items()
                 for mid, half in stage]
        sums = iter(_rule_sums(integrand, p, r, grids))
        for i in list(pending):
            try:
                pending[i] = runs[i].send(tuple(islice(sums, len(pending[i]))))
            except StopIteration as done:
                del pending[i]
                results[i] = done.value
    return [results[i] for i in range(len(runs))]


@functools.cache
def _memo() -> dict[tuple, QuadratureResult]:
    """Finished quadratures by (kind, r, p, a), the newest _MEMO_SIZE of
    them; `_memo.cache_clear()` drops them all, as for any functools cache."""
    return {}


def _quadratures(kind: str, r: int, p: float,
                 scales: tuple[float, ...]) -> list[QuadratureResult]:
    """The kernel at each scale, memoized; the scales not held yet run in
    lockstep."""
    memo = _memo()
    keys = [(kind, r, p, a) for a in scales]
    todo = [key for key in dict.fromkeys(keys) if key not in memo]
    if todo:
        memo.update(zip(todo, _lockstep(kind, r, p, [key[3] for key in todo])))
    found = [memo[key] for key in keys]
    while len(memo) > _MEMO_SIZE:
        del memo[next(iter(memo))]
    return found


def _checked_p(kind: str, r: int, p: float) -> float:
    _validate_r(r)
    if kind == "I" and not 0.0 < p < 1.0:
        raise ValueError("this transform is finite only for 0 < p < 1")
    if kind == "J" and not 1.0 < p < r + 1.0:
        raise ValueError("this transform is finite only for 1 < p < r + 1")
    return float(p)


def integral_I(r: int, p: float) -> QuadratureResult:
    """``int_0^inf log(P_r(s)) s^(-p-1) ds``; finite and positive for 0 < p < 1."""
    return _quadratures("I", r, _checked_p("I", r, p), (1.0,))[0]


def integral_J(r: int, p: float) -> QuadratureResult:
    """``int_0^inf (s - log P_r(s)) s^(-p-1) ds``; finite and positive for
    1 < p < r + 1."""
    return _quadratures("J", r, _checked_p("J", r, p), (1.0,))[0]


def identity_lhs(which: str, a: float, p: float, r: int) -> QuadratureResult:
    """The normalized scaled transform whose exact value is a^p: the kernel at
    scale a divided by the kernel at scale 1.  The two quadratures run in
    lockstep, and the result has converged when both have."""
    if which not in ("id1", "id2"):
        raise ValueError("which must be 'id1' or 'id2'")
    if not 0 <= a < math.inf:
        raise ValueError("need a finite a >= 0")
    kind = "I" if which == "id1" else "J"
    p = _checked_p(kind, r, p)
    if a == 0:
        (norm,) = _quadratures(kind, r, p, (1.0,))
        return QuadratureResult(0.0, 0.0, norm.node_count, norm.converged)
    norm, num = _quadratures(kind, r, p, (1.0, float(a)))
    value = num.value / norm.value
    rel = (num.estimated_error / max(abs(num.value), 1e-300)
           + norm.estimated_error / max(abs(norm.value), 1e-300))
    return QuadratureResult(value, abs(value) * rel,
                            num.node_count + norm.node_count,
                            num.converged and norm.converged)


def identity_check(which: str, a: float, p: float, r: int) -> float:
    """Relative error between the normalized scaled transform and a^p."""
    lhs = identity_lhs(which, a, p, r).value
    target = float(a) ** float(p) if a > 0 else 0.0
    return abs(lhs - target) / max(target, 1e-15)
