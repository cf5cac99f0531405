"""Numerical validation of the Mellin-transform machinery behind the verifier.

Both integral kernels are evaluated after the substitution ``s = a * e^u``,
which makes the integrands smooth and exponentially decaying at the window
edges for exponents inside their finiteness intervals.  Each kernel runs in
one pass.  Its windows are sized from analytic tail bounds so that each tail
stays below eps, 1e-10 of a proved closed-form lower bound on the kernel
(`_lower_bound`) but at least 1e-300; inside a window a composite
Gauss-Legendre rule is refined by panel doubling until two rounds agree to
1e-10 of the value.  The error bar is the change under the last doubling
plus 2 eps.  The truncation share 2 eps is proved; the doubling share is a
heuristic.  A window's rounds take at most ``_MAX_PANELS`` panels: too few
within about 1e-4 of an interval end, where the result has not converged.

Each integrand value is exp(L - p u), L the log of its numerator (a
numerator of 0 gives L = -inf and 0).  Near the interval ends the windows
reach far below the normal floats, so the low-s prefix of L is taken in log
space: for I below s = tiny, where log P_r(s) = s to the last bit, and for J
where s^(r+1)/(r+1)!, the first term of the gap series, is subnormal.  A
linear numerator would drop to 0 there, and panel doubling could not
converge across that step.

An identity check needs the same kernel at scales 1 and a, so one
panel-doubling loop refines the windows of all its scales side by side, each
window's panels and rounds held in plain lists: one call answers rounds 0 and
1 of every window, then each round one call answers the windows still open.
When a call's grids fit in one block of ``_BLOCK_PANELS`` panels, their nodes
are joined, sorted by ``s_log = u + log a`` and given to one integrand call;
larger rounds run block by block, one grid at a time, bounding temporaries.
The ratio q = N / D of the kernels at scales a and 1 has the bar
``(e_N + |q| e_D) / (D - e_D)``, proved when their bars are and e_D < D.

No grouping changes a bit of the result.  Every integrand value depends on
its node alone: the gap series of the J kernel, and the ratio series of its
log-space prefix, stop at each node once that node has converged, not when
the whole array has.  And each round is summed from its own values and
weights alone, in dots of at most ``_DOT_BLOCK`` products added in order:
OpenBLAS splits a longer dot across threads, and its bits would then depend
on their number.

This module is validation equipment: it exists to test the integral
identities numerically and to catch transcription errors.  As the doubling
share of each bar is not proved, it certifies nothing by itself.
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
_BLOCK_PANELS = 2048  # panels per integrand call: bounds the temporaries
_DOT_BLOCK = 8192  # products per dot: below OpenBLAS's threading threshold
_MAX_PANELS = 2 ** 18  # panels per window per round: bounds the nodes
_MAX_ROUNDS, _REL_TOL = 9, 1e-10  # of panel doubling
_MEMO_SIZE = 512
_LOG_TINY = math.log(np.finfo(float).tiny)  # below it exp(s_log) is subnormal


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
    any magnitude of s, for ascending s_log (all callers pass it so).  The
    arithmetic runs in place: fewer temporaries mean fewer page faults."""
    out = np.empty_like(s_log)
    # past this s**r would overflow
    cut = int(np.searchsorted(s_log, (250.0 / r) * math.log(10.0), side="right"))
    s = np.exp(s_log[:cut])
    poly = np.zeros_like(s)  # P_r(s) - 1 via Horner, all terms positive
    for j in range(r, 0, -1):
        poly += 1.0
        poly *= s
        poly /= j
    np.log1p(poly, out=out[:cut])
    if cut < s_log.size:
        sl = s_log[cut:]
        corr = np.zeros_like(sl)
        c = 1.0
        for m in range(1, r + 1):
            c *= r - m + 1  # r! / (r-m)!
            corr += c * np.exp(-m * sl)
        out[cut:] = r * sl - math.lgamma(r + 1) + np.log1p(corr)
    return out


def _series_top(r: int) -> float:
    """The largest s whose gap comes from the remainder series.  Past s = r + 1
    the gap exceeds log 2 (the median of the order-(r+1) gamma law is below
    r + 1), so the direct difference loses only about log2(s) bits."""
    return max(4.0, r + 1.0)


def _delta_small(s: np.ndarray, r: int) -> np.ndarray:
    """The gap ``s - log P_r(s)`` for a nonempty array of s <= _series_top(r)
    whose nodes above 4 come last (both callers pass ascending s), via
    -log1p of the scaled exponential remainder; immune to the cancellation
    that kills the direct difference when the gap is O(s^(r+1)).  Above
    s = 4 the first term, where s^(r+1) could overflow, is taken in log space.

    Each node leaves the remainder series once its own term is at most
    1e-22 of its own sum: with s <= r + 1 < j every later term is smaller
    still and their sum stays below half an ulp of the sum, so adding them
    changes nothing.  Each value therefore depends on its node alone, and the
    stop is tested only at the first step and then every 4th: the steps in
    between leave the nodes that had already converged unchanged.  Nodes
    in ascending s converge in ascending order, so the loop runs over a
    shrinking suffix; in any other order the converged nodes behind the first
    unconverged one keep adding terms that leave them unchanged.  Past
    j = r + 1 the terms fall like exp(-(j - r - 1)^2 / (2 s)), which sets the
    loop bound.
    """
    k = int(np.searchsorted(s, 4.0, side="right"))
    term = np.empty_like(s)
    np.divide(s[:k] ** (r + 1), math.factorial(r + 1), out=term[:k])
    np.exp((r + 1) * np.log(s[k:]) - math.lgamma(r + 2), out=term[k:])
    rem = term.copy()
    lo = 0  # nodes before lo have converged
    for j in range(r + 2, r + 64 + math.ceil(12 * math.sqrt(r + 1))):
        t, total = term[lo:], rem[lo:]
        t *= s[lo:]
        t /= j
        total += t
        if (j - r - 2) % 4:
            continue
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
    if arr[0] <= _series_top(r):
        gap = _delta_small(arr, r)
    else:
        gap = arr - _log_pr_from_logs(np.log(arr), r)
    return float(gap[0])


def _validate_r(r: int) -> None:
    # (r+1)! must be a float, in delta_r and in the J window: 171! is not
    if isinstance(r, bool) or not isinstance(r, int) or not 1 <= r <= 169:
        raise ValueError("r must be an integer with 1 <= r <= 169")


def _log_gap_tail(s_log: np.ndarray, r: int) -> np.ndarray:
    """log of the gap ``s - log P_r(s)`` at s = exp(s_log) for nodes below
    _j_tail_top(r).  The gap is -log1p(-q) with q = e^-s rem, rem the
    exponential remainder sum_{j>r} s^j / j!; there q is at most about the
    smallest normal float, so the gap is q itself.  Its log is the log of
    the first term s^(r+1)/(r+1)!, minus s, plus the log of the ratio
    rem / term = sum_j s^j (r+1)! / (r+1+j)!.  That ratio is at least 1 and
    s < 1 there, so once every term is below half an ulp of 1 the later ones
    change no node: each value depends on its node alone."""
    s = np.exp(s_log)
    term, ratio = np.ones_like(s), np.ones_like(s)
    j = r + 2
    while term.max() >= 2.0 ** -53:
        term *= s
        term /= j
        ratio += term
        j += 1
    return (r + 1) * s_log - math.lgamma(r + 2) - s + np.log(ratio)


def _j_tail_top(r: int) -> float:
    """The s_log below which s^(r+1)/(r+1)!, the first term of the gap
    series, is subnormal: s ~ 1e-154 at r = 1, s ~ 0.99 at r = 169."""
    return (_LOG_TINY + math.lgamma(r + 2)) / (r + 1)


def _i_integrand(u: np.ndarray, log_a: np.ndarray, p: float,
                 r: int) -> np.ndarray:
    """The I integrand at nodes u of scales e^log_a, one scale per node, in
    ascending s_log = u + log_a.  Below s = tiny, log P_r(s) = s to the last
    bit, so L = log log P_r(s) is s_log there."""
    logs = u + log_a  # s_log, overwritten by L past s = tiny
    tail = int(np.searchsorted(logs, _LOG_TINY))
    with np.errstate(divide="ignore"):
        np.log(_log_pr_from_logs(logs[tail:], r), out=logs[tail:])
    logs -= p * u
    return np.exp(logs, out=logs)


def _j_integrand(u: np.ndarray, log_a: np.ndarray, p: float,
                 r: int) -> np.ndarray:
    """The J integrand at nodes u of scales e^log_a, one scale per node, in
    ascending s_log = u + log_a.  L is the log-space gap below
    _j_tail_top(r), then the log of the gap series up to s = _series_top(r);
    past it L = log log P_r(s), and the value is s e^(-pu) - exp(L - p u)."""
    s_log = u + log_a
    logs = np.empty_like(u)
    tail = int(np.searchsorted(s_log, _j_tail_top(r)))
    cut = int(np.searchsorted(s_log, math.log(_series_top(r)), side="right"))
    if tail:
        logs[:tail] = _log_gap_tail(s_log[:tail], r)
    with np.errstate(divide="ignore"):  # a gap of 0 or -0.0: L = -inf, value 0
        if tail < cut:
            np.log(_delta_small(np.exp(s_log[tail:cut]), r), out=logs[tail:cut])
        np.log(_log_pr_from_logs(s_log[cut:], r), out=logs[cut:])
    logs -= p * u
    out = np.exp(logs, out=logs)
    if cut < u.size:
        linear = (1.0 - p) * u[cut:]
        linear += log_a[cut:]
        np.subtract(np.exp(linear, out=linear), out[cut:], out=out[cut:])
    return out


def _window(kind: str, r: int, p: float, a: float, eps: float) -> tuple[float, float]:
    """Truncation window [lo, hi] in u with both tail integrals below eps,
    from closed-form bounds on the integrands."""
    log_a = math.log(a)
    if kind == "I":
        # upper: log P_r(s) <= r log s + log(r+1) for s >= 1
        alpha = float(r)
        beta = r * log_a + math.log(r + 1)
        hi = max(40.0, -log_a + 1.0)
        for _ in range(32):  # until hi is a fixed point: later passes repeat it
            bound = alpha * hi / p + alpha / p ** 2 + abs(beta) / p
            step = max(math.log(max(bound, 1.0) / eps) / p, -log_a + 1.0)
            if step == hi:
                break
            hi = step
        hi += 5.0
        # lower: log P_r(s) <= s
        lo = min(math.log(eps * (1.0 - p) / a) / (1.0 - p), -1.0) - 5.0
    else:  # "J"
        # upper: the gap is at most s
        hi = max(math.log(a / (eps * (p - 1.0))) / (p - 1.0), 1.0) + 5.0
        # lower: the gap is at most 3 s^{r+1} / (r+1)! once s <= 1/2
        rho = (r + 1) - p
        lo = (math.log(eps * rho * math.factorial(r + 1) / 3.0)
              - (r + 1) * log_a) / rho
        lo = min(lo, -math.log(2.0 * a)) - 5.0
    return lo, hi


def _panel_grid(lo: float, hi: float, log_a: float,
                panels: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The grid (mid, half, log_a): midpoints and half-widths of `panels`
    equal panels on the window [lo, hi] of scale e^log_a."""
    # the operations of np.linspace(lo, hi, panels + 1), without its overhead
    edges = np.arange(panels + 1.0)
    edges *= (hi - lo) / panels
    edges += lo
    edges[-1] = hi
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1]), log_a


def _node_values(integrand, p: float, r: int, grids) -> np.ndarray:
    """The integrand at the nodes of the grids (mid, half, log_a), grid after
    grid, from one call on the nodes in ascending s_log = u + log_a."""
    pts = [(mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
           for mid, half, _ in grids]
    log_a = np.repeat([log for _, _, log in grids], [x.size for x in pts])
    if len(pts) == 1:  # the nodes of one grid ascend already
        return integrand(pts[0], log_a, p, r)
    u = np.concatenate(pts)
    del pts  # each unsorted array goes as soon as it is used up
    order = np.argsort(u + log_a, kind="stable")
    u, log_a = u[order], log_a[order]
    vals = np.empty_like(u)
    vals[order] = integrand(u, log_a, p, r)
    return vals


def _weighted_sum(half: np.ndarray, vals: np.ndarray) -> float:
    """The rule sum, in dots of at most _DOT_BLOCK products added in order."""
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    total = weights[:_DOT_BLOCK] @ vals[:_DOT_BLOCK]
    for first in range(_DOT_BLOCK, weights.size, _DOT_BLOCK):
        block = slice(first, first + _DOT_BLOCK)
        total += weights[block] @ vals[block]
    return float(total)


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


def _doubling(integrand, p: float, r: int,
              windows) -> list[tuple[float, float, int, bool]]:
    """Composite 16-point Gauss-Legendre with panel doubling on each window
    (lo, hi, log_a), the windows side by side; the error estimate is the
    change under the last doubling.

    One rule-sum call answers rounds 0 and 1 of every window, because the
    stop test needs both; each later round is one call for the windows still
    open.  Round 0 takes at most half of _MAX_PANELS; a window whose next
    round would pass it stops unconverged, so converged panels are at most 4
    wide, as sized.  Returns (value, err, nodes, converged) per window."""
    panels = [min(max(8, math.ceil((hi - lo) / 4.0)), _MAX_PANELS // 2)
              for lo, hi, _ in windows]
    sums = _rule_sums(integrand, p, r, [_panel_grid(*window, k * n) for window, n
                                        in zip(windows, panels) for k in (1, 2)])
    prev, value = sums[0::2], sums[1::2]
    nodes = [3 * n * _GL_NODES.size for n in panels]
    panels = [2 * n for n in panels]
    results: list = [None] * len(windows)
    active = range(len(windows))
    for rounds in range(2, _MAX_ROUNDS + 1):
        for i in active:
            err = abs(value[i] - prev[i])
            capped = 2 * panels[i] > _MAX_PANELS
            ok = err <= _REL_TOL * abs(value[i]) and not capped
            if ok or capped or rounds == _MAX_ROUNDS:
                results[i] = (value[i], err, nodes[i], ok)
        active = [i for i in active if results[i] is None]
        if not active:
            break
        for i in active:
            panels[i] *= 2
        sums = _rule_sums(integrand, p, r,
                          [_panel_grid(*windows[i], panels[i]) for i in active])
        for i, latest in zip(active, sums):
            prev[i], value[i] = value[i], latest
            nodes[i] += panels[i] * _GL_NODES.size
    return results


def _lower_bound(kind: str, r: int, p: float) -> float:
    """A proved lower bound on the kernel at scale 1, in closed form.

    I: ``P_r(s) >= (1 + s/r)^r``, since ``C(r, j) / r^j <= 1 / j!``, and
    ``int log(1 + s/r) s^(-p-1) ds = r^(-p) pi / (p sin pi p)``, so
    ``I(r, p) >= r^(1-p) pi / (p sin pi p)``: the order-1 closed form at
    r = 1, and within a factor 1.22 of the kernel at every p checked for
    r <= 10.

    J, the larger of two bounds:

    - the gap is ``-log(1 - F(s)) >= F(s)`` with F the CDF of the gamma law
      of shape r + 1, ``F(s) = 1 - e^-s P_r(s)``, and integrating by parts
      gives ``int F(s) s^(-p-1) ds = Gamma(r+1-p) / (p r!)``;
    - ``P_r(s) <= (1 + s)^r``, since ``1 / j! <= C(r, j)``, and
      ``log(1 + s) <= log s + 1/s``, so on [s*, inf) the gap is at least
      ``s - r log s - r/s``; as the gap is nonnegative below s*,
      ``J >= s*^(1-p)/(p-1) - r s*^(-p) (p log s* + 1)/p^2
      - r s*^(-p-1)/(p+1)``, taken at s* = 2^m (r+1) for m = 0..7.

    In floats each term is within about 1e-12 of its value: sin takes
    min(p, 1 - p), where 1 - p is exact for p >= 1/2, and the exponent of
    the gamma term is a difference of lgammas below 710.  The bound takes
    off 1e-9 of the terms it sums, and 1e-9 of itself, so it holds in floats
    too."""
    if kind == "I":
        den = p * math.sin(math.pi * min(p, 1.0 - p))  # 0 past the float range
        return r ** (1.0 - p) * math.pi / den * (1.0 - 1e-9) if den else math.inf
    best = math.exp(math.lgamma(r + 1.0 - p) - math.lgamma(r + 1.0)) / p
    for m in range(8):
        s = 2.0 ** m * (r + 1)
        terms = (s ** (1.0 - p) / (p - 1.0),
                 r * s ** -p * (p * math.log(s) + 1.0) / p ** 2,
                 r * s ** (-p - 1.0) / (p + 1.0))
        best = max(best, terms[0] - terms[1] - terms[2] - 1e-9 * sum(terms))
    return best * (1.0 - 1e-9)


def _lockstep(kind: str, r: int, p: float,
              scales: list[float]) -> list[QuadratureResult]:
    """The quadratures of one kernel at several scales, in one
    panel-doubling pass run side by side.  The kernel at scale a is a^p
    times the kernel at scale 1, so ``eps = 1e-10 a^p _lower_bound`` is at
    most 1e-10 of the value at scale a, unless this floors it at 1e-300.
    By _window's closed-form tail bounds both tails of each window stay
    below eps, so the truncation share 2 eps of each error bar is proved;
    the rest, the change under the last doubling, is a heuristic.  A scale
    whose target a^p, least value a^p _lower_bound, window or result leaves
    the float range raises ValueError, the first such scale named."""
    integrand = _i_integrand if kind == "I" else _j_integrand
    bound = _lower_bound(kind, r, p)
    epss, windows = [], []
    for a in scales:
        try:
            least = a ** p * bound
        except OverflowError:  # a^p
            least = math.inf
        if least == math.inf:
            raise _beyond(a, p)
        epss.append(max(1e-10 * least, 1e-300))
        lo, hi = _window(kind, r, p, a, epss[-1])
        if not math.isfinite(hi - lo):
            raise _beyond(a, p)
        windows.append((lo, hi, math.log(a)))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        results = _doubling(integrand, p, r, windows)
    for a, (value, err, _, _) in zip(scales, results):
        if not (math.isfinite(value) and math.isfinite(err)):
            raise _beyond(a, p)
    return [QuadratureResult(value, err + 2.0 * eps, nodes, ok)
            for (value, err, nodes, ok), eps in zip(results, epss)]


def _beyond(a: float, p: float) -> ValueError:
    """The error for the kernel at scale a: at scale 1 the transform itself,
    at any other scale the identity's target a^p or the scaled kernel."""
    if a == 1.0:
        return ValueError(f"the transform at scale 1 or its window is beyond "
                          f"the float range at p={p!r}")
    return ValueError(f"a^p or the transform at scale a is beyond the float "
                      f"range at a={a!r}, p={p!r}")


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
    """The normalized scaled transform whose exact value is a^p: q = N / D,
    the kernels at scales a and 1 run in lockstep, with the quotient bar.
    It has converged when both have and e_D < D.  When a^p, or a kernel or
    window it needs, is beyond the float range, it raises ValueError naming
    the scale."""
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
    q, margin = num.value / norm.value, norm.value - norm.estimated_error
    bar = ((num.estimated_error + abs(q) * norm.estimated_error) / margin
           if margin > 0 else math.inf)
    return QuadratureResult(q, bar, num.node_count + norm.node_count,
                            num.converged and norm.converged and margin > 0)


def identity_check(which: str, a: float, p: float, r: int) -> float:
    """Relative error between the normalized scaled transform and a^p."""
    lhs = identity_lhs(which, a, p, r).value
    target = float(a) ** float(p) if a > 0 else 0.0
    return abs(lhs - target) / max(target, 1e-15)
