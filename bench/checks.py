"""Correctness checks for captured `sympineq` reports.

Nothing here imports `sympineq`.  Each check recomputes what the report
claims from the request's own inputs, by independent exact arithmetic
(template products, determinants by elimination, subset-sum loops, a
generating function for the distinct-variable family), or tests a property
the mathematics guarantees (Schur-concavity, Theorem 1, Karamata's
inequality, closed forms of the r = 1 Mellin kernels).  Polynomial tables
are compared by exact evaluation at random rational points, so a change to
any single coefficient is caught.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from typing import Optional

PSI_TOL = 1e-9
FLOAT_RTOL = 1e-9


class CheckError(Exception):
    """A report disagrees with the independent computation."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---- exact building blocks ------------------------------------------------

def poly_at(coeffs: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def template_at(s: Fraction, r: int) -> Fraction:
    """sum_{j <= r} s^j / j!"""
    total, term = Fraction(1), Fraction(1)
    for j in range(1, r + 1):
        term = term * s / j
        total += term
    return total


def template_product_at(x: list[Fraction], r: int, t: Fraction) -> Fraction:
    out = Fraction(1)
    for xi in x:
        out *= template_at(xi * t, r)
    return out


def random_points(rng: random.Random, count: int = 2) -> list[Fraction]:
    return [Fraction(rng.randint(1, 97), rng.randint(2, 89)) for _ in range(count)]


def gram(q: list[list[int]]) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(r1, r2)) for r2 in q] for r1 in q]


def trace(a: list[list[int]]) -> int:
    return sum(a[i][i] for i in range(len(a)))


def det(m: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with row swaps."""
    a = [list(map(Fraction, row)) for row in m]
    n = len(a)
    sign, out = 1, Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        out *= piv
        for i in range(c + 1, n):
            f = a[i][c] / piv
            if f:
                a[i] = [u - f * v for u, v in zip(a[i], a[c])]
    return sign * out


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def truncated_exp_det(a: list[list[int]], r: int, t: Fraction) -> Fraction:
    """det(sum_{j <= r} (tA)^j / j!)"""
    n = len(a)
    ta = [[t * v for v in row] for row in a]
    term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = [row[:] for row in term]
    for j in range(1, r + 1):
        term = [[v / j for v in row] for row in matmul(term, ta)]
        total = [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(total, term)]
    return det(total)


def partial_sums_desc(x: list[Fraction]) -> list[Fraction]:
    return list(accumulate(sorted(x, reverse=True)))


def majorizes(x: list[Fraction], y: list[Fraction]) -> bool:
    px, py = partial_sums_desc(x), partial_sums_desc(y)
    return px[-1] == py[-1] and all(a >= b for a, b in zip(px, py))


def subset_power_sum(x: list[Fraction], k: int, r: int) -> Fraction:
    """sum over r-element subsets S of (sum_{i in S} x_i)^k, by recursion
    over which entries are taken."""
    n = len(x)

    def walk(start: int, left: int, acc: Fraction) -> Fraction:
        if left == 0:
            return acc ** k
        return sum((walk(i + 1, left - 1, acc + x[i])
                    for i in range(start, n - left + 1)), Fraction(0))

    return walk(0, r, Fraction(0)) if r <= n else Fraction(0)


def distinct_var_family(x: list[Fraction], k: int, r: int) -> Fraction:
    """G_{k,r}: the part of (sum x)^k / k! made of monomials with at least r
    distinct variables, read off prod_i (1 + u (e^{x_i t} - 1)) as
    sum_{m >= r} [u^m t^k]."""
    n = len(x)
    table = [[Fraction(0)] * (k + 1) for _ in range(n + 1)]
    table[0][0] = Fraction(1)
    for xi in x:
        powers = [xi ** j / math.factorial(j) for j in range(k + 1)]
        for m in range(n, 0, -1):
            row, below = table[m], table[m - 1]
            for deg in range(k, 0, -1):
                row[deg] += sum(below[deg - j] * powers[j] for j in range(1, deg + 1))
    return sum((table[m][k] for m in range(r, n + 1)), Fraction(0))


def lp_mean(x: list[Fraction], p: float) -> float:
    n = len(x)
    if math.isinf(p):
        return float(max(x) if p > 0 else min(x))
    if p == 0:
        if any(e == 0 for e in x):
            return 0.0
        return math.exp(sum(math.log(e.numerator) - math.log(e.denominator)
                            for e in x) / n)
    if p < 0 and any(e == 0 for e in x):
        return 0.0
    return (sum(float(e) ** p for e in x) / n) ** (1.0 / p)


def psi_sum(x: list[Fraction], lam: float) -> float:
    total = 0.0
    for e in x:
        s = float(e)
        total += s if s <= lam else lam + lam * math.log(s / lam)
    return total


# ---- per-kind checks ------------------------------------------------------

def _check_table(coeffs: list[Fraction], truth, points, label: str) -> None:
    for t in points:
        need(poly_at(coeffs, t) == truth(t),
             f"{label}: table disagrees with the independent product at t={t}")


def _check_ledgers(rep: dict, tables_x, tables_y, sums_equal: bool,
                   points) -> Optional[int]:
    """Ledger rows against independent tables; returns the certified order."""
    certified = None
    for hyp in rep["hypotheses"]:
        r = hyp["r"]
        rows = hyp["checks"]
        fx = [Fraction(c["fx"]) for c in rows]
        fy = [Fraction(c["fy"]) for c in rows]
        need([c["k"] for c in rows] == list(range(r, r + len(rows))),
             f"r={r}: ledger rows are not k = r..nr")
        for c, a, b in zip(rows, fx, fy):
            need(c["pass"] == (a <= b), f"r={r} k={c['k']}: verdict disagrees")
            kf = math.factorial(c["k"])
            need(Fraction(c["kfact_fx"]) == a * kf and Fraction(c["kfact_fy"]) == b * kf,
                 f"r={r} k={c['k']}: k!-scaled values disagree")
        need(hyp["all_pass"] == all(c["pass"] for c in rows),
             f"r={r}: all_pass disagrees")
        need(hyp["sums_equal"] == sums_equal, f"r={r}: sums_equal disagrees")
        low_x, truth_x = tables_x(r)
        low_y, truth_y = tables_y(r)
        _check_table(low_x + fx, truth_x, points, f"r={r} x ledger")
        _check_table(low_y + fy, truth_y, points, f"r={r} y ledger")
        if hyp["all_pass"]:
            certified = r
    need(rep["certified_r"] == certified, "certified_r disagrees")
    return certified


def _check_conclusions(rep: dict, certified: Optional[int], r_values: list[int],
                       x=None, y=None) -> bool:
    """Grid verdicts; Theorem 1 makes every asserted point pass.  Returns the
    expected pass flag of the whole report."""
    conc = rep["conclusions"]
    measure_r = certified if certified is not None else (
        r_values[0] if len(r_values) == 1 else None)
    if measure_r is None:
        need(conc is None, "conclusions measured without an order")
        return False
    need(conc is not None and conc["r"] == measure_r,
         "conclusion grids missing or at the wrong order")
    for name, lo, hi in (("low_grid", 0.0, 1.0),
                         ("high_grid", 1.0, 1.0 + measure_r)):
        grid = conc[name]
        need(grid[0]["p"] == lo and grid[-1]["p"] == hi,
             f"{name} does not span [{lo}, {hi}]")
        for pt in grid:
            if x is not None:
                need(close(pt["nx"], lp_mean(x, pt["p"]))
                     and close(pt["ny"], lp_mean(y, pt["p"])),
                     f"{name} p={pt['p']}: lp mean disagrees")
            margin = (pt["ny"] - pt["nx"]) if name == "low_grid" else (pt["nx"] - pt["ny"])
            need(close(pt["margin"], margin, 1e-12), f"{name}: margin disagrees")
            if name == "low_grid" or conc["sums_equal"]:
                need(pt["pass"] == (margin >= -conc["tol"]),
                     f"{name} p={pt['p']}: verdict disagrees")
    asserted = certified is not None
    need(rep["conclusions_asserted"] == asserted, "conclusions_asserted disagrees")
    if asserted:
        need(conc["low_all_pass"] and conc["high_all_pass"] in (True, None),
             f"order {certified} certified but an asserted grid point fails")
    return certified == max(r_values)


def _r_values(req) -> list[int]:
    argv = req.argv
    if "--r-max" in argv:
        return list(range(1, int(argv[argv.index("--r-max") + 1]) + 1))
    return [int(argv[argv.index("--r") + 1])]


def check_theorem1_vectors(req, code, rep, rng):
    x, y = req.ctx["x"], req.ctx["y"]
    r_values = _r_values(req)
    need(rep["requested_r"] == r_values, "requested_r disagrees")
    points = random_points(rng)

    def tables(v):
        e1 = sum(v)
        return lambda r: ([e1 ** k / math.factorial(k) for k in range(r)],
                          lambda t: template_product_at(v, r, t))

    certified = _check_ledgers(rep, tables(x), tables(y), sum(x) == sum(y), points)
    if req.ctx["related"]:
        # F_{k,r} is Schur-concave: a Robin Hood pair passes every ledger
        need(all(h["all_pass"] for h in rep["hypotheses"]),
             "a majorizing pair fails a ledger")
    ok = _check_conclusions(rep, certified, r_values, x, y)
    need(rep["pass"] == ok and code == (0 if ok else 1), "pass flag or exit code disagrees")


def check_theorem1_matrices(req, code, rep, rng):
    ax, ay = gram(req.ctx["qx"]), gram(req.ctx["qy"])
    points = random_points(rng)

    def tables(a):
        return lambda r: ([Fraction(trace(a)) ** k / math.factorial(k) for k in range(r)],
                          lambda t: truncated_exp_det(a, r, t))

    certified = _check_ledgers(rep, tables(ax), tables(ay), trace(ax) == trace(ay),
                               points)
    ok = _check_conclusions(rep, certified, _r_values(req))
    need(rep["pass"] == ok and code == (0 if ok else 1), "pass flag or exit code disagrees")


def check_fkr(req, code, rep, rng):
    x, r = req.ctx["x"], int(req.argv[req.argv.index("--r") + 1])
    rows = rep["values"]
    need(code == 0 and rep["n"] == len(x) and rep["r"] == r, "header disagrees")
    need([row["k"] for row in rows] == list(range(len(x) * r + 1)), "rows are not k = 0..nr")
    vals = [Fraction(row["value"]) for row in rows]
    e1 = sum(x)
    for k in range(r + 1):
        need(vals[k] == e1 ** k / math.factorial(k), f"k={k}: not E_1^k/k!")
    for row, v in zip(rows, vals):
        need(Fraction(row["kfact_value"]) == v * math.factorial(row["k"]),
             f"k={row['k']}: k!-scaled value disagrees")
    _check_table(vals, lambda t: template_product_at(x, r, t), random_points(rng), "fkr")


def check_catalyst(req, code, rep, rng):
    x, y, c = req.ctx["x"], req.ctx["y"], req.ctx["c"]
    r = int(req.argv[req.argv.index("--r") + 1])
    tx = [a * b for a in x for b in c]
    ty = [a * b for a in y for b in c]
    need([Fraction(s) for s in rep["tensor_x"]] == tx, "tensor_x disagrees")
    need(rep["degree_bound"] == len(tx) * r, "degree bound disagrees")
    cx = [Fraction(s) for s in rep["x_coeffs"]]
    cy = [Fraction(s) for s in rep["y_coeffs"]]
    points = random_points(rng)
    _check_table(cx, lambda t: template_product_at(tx, r, t), points, "catalyst x")
    _check_table(cy, lambda t: template_product_at(ty, r, t), points, "catalyst y")
    for k, row in enumerate(rep["comparison"]):
        need(row["k"] == k and Fraction(row["cx"]) == cx[k] and Fraction(row["cy"]) == cy[k]
             and row["pass"] == (cx[k] <= cy[k]), f"comparison row {k} disagrees")
    # tensoring with a catalyst keeps x majorizing y, and F is Schur-concave
    need(rep["pass"] is True and code == 0, "a majorizing pair fails with a catalyst")


def check_norms(req, code, rep, rng):
    x = req.ctx["x"]
    need(code == 0 and [Fraction(s) for s in rep["entries"]] == x, "entries disagree")
    need([Fraction(s) for s in rep["partial_sums_desc"]] == partial_sums_desc(x),
         "partial sums disagree")
    means = rep["means"]
    for row in means:
        need(close(row["mean"], lp_mean(x, row["p"])), f"p={row['p']}: mean disagrees")
    for a, b in zip(means, means[1:]):
        need(a["p"] < b["p"] and a["mean"] <= b["mean"] * (1 + FLOAT_RTOL),
             "lp means decrease in p")


def check_spectral(req, code, rep, rng):
    a = gram(req.ctx["q"])
    n = len(a)
    need(code == 0 and rep["n"] == n and rep["matrix"] == a, "matrix disagrees")
    e = [Fraction(s) for s in rep["e_coeffs"]]
    need(len(e) == n + 1 and e[0] == 1, "e_coeffs has the wrong shape")
    need(e[1] == trace(a), "e_1 is not the trace")
    need(e[n] == det(a), "e_n is not the determinant")
    need(all(v >= 0 for v in e), "negative coefficient on a Gram matrix")
    points = random_points(rng)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    _check_table(e, lambda t: det([[ident[i][j] + t * a[i][j] for j in range(n)]
                                   for i in range(n)]), points, "det(I + tA)")
    need(sorted(rep["f_tables"]) == ["1", "2", "3"], "f_tables orders disagree")
    for key, rows in rep["f_tables"].items():
        r = int(key)
        vals = [Fraction(row["value"]) for row in rows]
        need([row["k"] for row in rows] == list(range(n * r + 1)), f"r={r}: rows")
        need(all(v >= 0 for v in vals), f"r={r}: negative coefficient on a Gram matrix")
        for row, v in zip(rows, vals):
            need(Fraction(row["kfact_value"]) == v * math.factorial(row["k"]),
                 f"r={r} k={row['k']}: k!-scaled value disagrees")
        _check_table(vals, lambda t: truncated_exp_det(a, r, t), points, f"F table r={r}")


def _check_cell(cell, family, x, y):
    r, k = cell["r"], cell["k"]
    lhs, rhs = Fraction(cell["lhs"]), Fraction(cell["rhs"])
    need(lhs == family(x, k, r) and rhs == family(y, k, r),
         f"violation cell (r={r}, k={k}) values disagree")
    return r, k, lhs, rhs


def check_theorem2(req, code, rep, rng):
    x, y = req.ctx["x"], req.ctx["y"]
    n, kmax = len(x), int(req.argv[req.argv.index("--k-max") + 1])
    need(code in (0, 1) and rep is not None, f"exit code {code} on a valid input")
    holds = majorizes(x, y)
    need(rep["sums_equal"] == (sum(x) == sum(y)), "sums_equal disagrees")
    need(rep["majorization_holds"] == holds, "majorization verdict disagrees")
    need(rep["cells_checked"] == sum(max(0, kmax - r + 1) for r in range(1, n + 1)),
         "cells_checked disagrees")
    g_cell = rep["distinct_var_family_violation"]
    m_cell = rep["subset_power_family_violation"]
    if holds:
        need(g_cell is None and m_cell is None, "violation reported under majorization")
    else:
        need(m_cell is not None, "no subset-power violation without majorization")
    if m_cell is not None:
        r, k, lhs, rhs = _check_cell(m_cell, subset_power_sum, x, y)
        need(lhs < rhs, "reported M cell is not a violation")
        for r2 in range(1, r + 1):
            for k2 in range(r2, (k if r2 == r else kmax + 1)):
                need(subset_power_sum(x, k2, r2) >= subset_power_sum(y, k2, r2),
                     f"an earlier M cell (r={r2}, k={k2}) is violated")
    if g_cell is not None:
        r, k, lhs, rhs = _check_cell(g_cell, distinct_var_family, x, y)
        need(lhs > rhs, "reported G cell is not a violation")
    ok = holds and g_cell is None and m_cell is None
    need(rep["pass"] == ok and code == (0 if ok else 1), "pass flag or exit code disagrees")


def check_majorize(req, code, rep, rng):
    x, y = req.ctx["x"], req.ctx["y"]
    holds = majorizes(x, y)
    px, py = partial_sums_desc(x), partial_sums_desc(y)
    need(rep["holds"] == holds and code == (0 if holds else 1), "verdict disagrees")
    need([Fraction(s) for s in rep["x_partial_sums"]] == px
         and [Fraction(s) for s in rep["y_partial_sums"]] == py, "partial sums disagree")
    first = next((k for k in range(len(x) - 1) if px[k] < py[k]), None)
    fv = rep["first_violation"]
    need((fv is None) == (first is None)
         and (fv is None or (fv["k"] == first + 1 and Fraction(fv["x_partial"]) == px[first]
                             and Fraction(fv["y_partial"]) == py[first])),
         "first violation disagrees")
    for row in rep["psi"]:
        lam = row["lambda"]
        lhs, rhs = row["lhs"], row["rhs"]
        need(close(lhs, psi_sum(x, lam)) and close(rhs, psi_sum(y, lam)),
             f"psi sums at lambda={lam} disagree")
        need(row["holds"] == (lhs <= rhs + PSI_TOL * max(1.0, abs(rhs))),
             f"psi verdict at lambda={lam} disagrees")
        if holds:
            # Karamata: a concave test function reverses majorization
            need(row["holds"], f"psi row lambda={lam} fails under majorization")


def check_mellin(req, code, rep, rng):
    which, r, p, a = (req.ctx[k] for k in ("which", "r", "p", "a"))
    need(rep is not None, f"exit code {code}")
    need((rep["which"], rep["r"], rep["p"], rep["a"]) == (which, r, p, a),
         "request echo disagrees")
    target = a ** p
    need(abs(rep["lhs"] - target) / target <= rep["tol"],
         f"identity off by {abs(rep['lhs'] - target) / target:.3g}")
    need(rep["pass"] is True and code == 0, "pass flag or exit code disagrees")
    norm = rep["normalizer"]
    need(norm["value"] > 0 and norm["estimated_error"] >= 0, "normalizer not positive")
    if r == 1:
        closed = math.pi / (p * math.sin(math.pi * p))
        if which == "id2":
            closed = -closed
        need(abs(norm["value"] - closed) <= norm["estimated_error"],
             f"normalizer off the closed form by {abs(norm['value'] - closed):.3g}, "
             f"claimed error {norm['estimated_error']:.3g}")


CHECKS = {
    "theorem1-vectors": check_theorem1_vectors,
    "theorem1-matrices": check_theorem1_matrices,
    "fkr": check_fkr,
    "catalyst": check_catalyst,
    "norms": check_norms,
    "spectral": check_spectral,
    "theorem2": check_theorem2,
    "majorize": check_majorize,
    "mellin": check_mellin,
}


def check(req, code: Optional[int], report: Optional[dict],
          rng: random.Random) -> Optional[str]:
    """None when the report is right, else what is wrong with it."""
    try:
        need(report is not None or req.kind in ("theorem2", "mellin"),
             f"no report (exit code {code})")
        CHECKS[req.kind](req, code, report, rng)
    except CheckError as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return None
