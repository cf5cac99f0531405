#!/usr/bin/env python3
"""Shows that each correctness check bites.

    python3 bench/selftest.py

For every workload it runs a few small requests through `sympineq.cli`,
confirms the checker accepts the honest reports, then corrupts one
coefficient, verdict or value in a copy of each report and confirms the
checker rejects it.  Exits 1 if an honest report is rejected or a
corruption slips through.  Takes about a second.
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
import sys
from fractions import Fraction

import run  # sets the BLAS thread count before numpy is imported
from checks import check, majorizes
from workloads import build, frac_str


def bump(s: str, delta=Fraction(1, 1000)) -> str:
    return frac_str(Fraction(s) + delta)


def corrupt_fkr(rep):
    row = rep["values"][len(rep["values"]) // 2]
    row["value"] = bump(row["value"])
    row["kfact_value"] = str(Fraction(row["value"]) * math.factorial(row["k"]))


def corrupt_ledger(rep):
    # one fy coefficient, with its scaled copy and verdict kept consistent,
    # so only the independent table evaluation can catch it
    row = rep["hypotheses"][-1]["checks"][-1]
    row["fy"] = bump(row["fy"])
    row["kfact_fy"] = str(Fraction(row["fy"]) * math.factorial(row["k"]))
    row["pass"] = Fraction(row["fx"]) <= Fraction(row["fy"])


def flip_ledger_verdict(rep):
    row = rep["hypotheses"][0]["checks"][0]
    row["pass"] = not row["pass"]


def corrupt_norm(rep):
    rep["means"][4]["mean"] *= 1 + 1e-6


def corrupt_catalyst(rep):
    k = len(rep["x_coeffs"]) // 2
    rep["x_coeffs"][k] = bump(rep["x_coeffs"][k])
    rep["comparison"][k]["cx"] = rep["x_coeffs"][k]
    rep["comparison"][k]["pass"] = (Fraction(rep["comparison"][k]["cx"])
                                    <= Fraction(rep["comparison"][k]["cy"]))


def corrupt_e_coeff(rep):
    rep["e_coeffs"][2] = bump(rep["e_coeffs"][2], 1)


def corrupt_f_table(rep):
    row = rep["f_tables"]["3"][5]
    row["value"] = bump(row["value"])
    row["kfact_value"] = str(Fraction(row["value"]) * math.factorial(row["k"]))


def flip_majorization(rep):
    rep["majorization_holds"] = not rep["majorization_holds"]


def corrupt_m_cell(rep):
    cell = rep["subset_power_family_violation"]
    cell["rhs"] = bump(cell["rhs"])


def flip_majorize(rep):
    rep["holds"] = not rep["holds"]


def corrupt_psi(rep):
    rep["psi"][1]["lhs"] *= 1 + 1e-6


def corrupt_normalizer(rep):
    rep["normalizer"]["value"] *= 1 + 1e-5


def corrupt_lhs(rep):
    rep["lhs"] *= 1 + 1e-5


# (workload, request kind, extra selector, corruption)
CASES = [
    ("vector-ledgers", "fkr", None, corrupt_fkr),
    ("vector-ledgers", "theorem1-vectors", None, corrupt_ledger),
    ("vector-ledgers", "theorem1-vectors", None, flip_ledger_verdict),
    ("vector-ledgers", "norms", None, corrupt_norm),
    ("vector-ledgers", "catalyst", None, corrupt_catalyst),
    ("matrix-ledgers", "spectral", None, corrupt_e_coeff),
    ("matrix-ledgers", "spectral", None, corrupt_f_table),
    ("matrix-ledgers", "theorem1-matrices", None, corrupt_ledger),
    ("majorization-scan", "theorem2", lambda r: not r.known_fault,
     flip_majorization),
    ("majorization-scan", "theorem2", lambda r: not r.known_fault
     and not majorizes(r.ctx["x"], r.ctx["y"]), corrupt_m_cell),
    ("majorization-scan", "majorize", None, flip_majorize),
    ("majorization-scan", "majorize", None, corrupt_psi),
    ("mellin-validate", "mellin", lambda r: r.ctx["r"] == 1 and not r.known_fault,
     corrupt_normalizer),
    ("mellin-validate", "mellin", lambda r: r.ctx["r"] == 2, corrupt_lhs),
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from sympineq import cli

    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    lists = {w: build(w, 0, base / w) for w in {c[0] for c in CASES}}
    bad = 0
    for workload, kind, select, corrupt in CASES:
        req = next(r for r in lists[workload]
                   if r.kind == kind and (select is None or select(r)))
        code, out, err = run.call_cli(cli, req.argv)
        report = json.loads(out)
        honest = check(req, code, report, random.Random(0))
        mutated = copy.deepcopy(report)
        corrupt(mutated)
        caught = check(req, code, mutated, random.Random(0))
        ok = honest is None and caught is not None
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {workload:18s} {corrupt.__name__:20s} "
              f"honest={'accepted' if honest is None else 'REJECTED: ' + honest}; "
              f"corrupted={'rejected: ' + caught if caught else 'ACCEPTED'}")
    shutil.rmtree(base, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
