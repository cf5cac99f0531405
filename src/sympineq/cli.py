"""Command-line front door: parse vectors and matrices, dispatch the
verifiers, and emit human-readable or canonical JSON reports.

Exit codes form a shell predicate: 0 when every requested check passes,
1 when a checked inequality fails (the report carries a witness), 2 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .families import f_kr_all
from .majorize import majorizes, psi_compare, theorem2_scan
from .mellin import identity_check, identity_lhs, integral_I, integral_J
from .series import Catalyst, catalyst_product, taylor_template, tensor
from .spectral import as_int_matrix, gram, spectral_summary
from .theorem1 import (DEFAULT_GRID_POINTS, DEFAULT_TOL, ConclusionReport,
                       HypothesisReport, check_hypotheses,
                       check_hypotheses_coeffs, full_report)
from .vectors import RationalVector, lp_mean, partial_sums_desc


class CliInputError(Exception):
    """Malformed input file or value; maps to exit code 2."""


def _read_input(path: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` applied to the text of the file at ``path``; every failure
    becomes a CliInputError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror}") from exc
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def load_vector(path: str) -> RationalVector:
    return _read_input(path, RationalVector.from_json)


def load_matrix(path: str) -> tuple[tuple[int, ...], ...]:
    def parse(text: str) -> tuple[tuple[int, ...], ...]:
        if path.endswith(".csv"):
            return as_int_matrix([[int(cell) for cell in row]
                                  for row in csv.reader(text.splitlines()) if row])
        return as_int_matrix(json.loads(text))
    return _read_input(path, parse)


def parse_exponent(text: str) -> float:
    # float() reads inf, -inf and infinity in any case; NaN is no exponent
    try:
        exponent = float(text)
    except ValueError:
        exponent = math.nan
    if math.isnan(exponent):
        raise CliInputError(f"bad exponent {text!r}")
    return exponent


def emit(report: dict[str, Any], fmt: str) -> None:
    """Print ``report`` to stdout as text, or as the JSON that
    ``json.dumps(report, indent=2, sort_keys=True)`` gives, byte for byte.

    ``json.dumps`` with an indent runs the stdlib's pure-Python encoder, so
    the JSON writer (``_json_text``) hands the bulk to the C encoder instead:
    an encoder whose item separator is ``",\\n"`` plus the indent writes
    every scalar exactly as the indented encoder does.
    - A container of scalars is one ``encode``; its outer brackets then
      become the indented ones.
    - A list of non-empty scalar-only dicts (grid rows, checks, F values)
      is one ``encode`` at the depth of the row keys; one ``str.replace`` of
      ``"},\\n" + pad + "{"`` then re-indents the seams between rows.  That
      pattern occurs nowhere else: an encoded string never holds a raw
      newline, and within a row every separator is followed by a quoted
      key.  An empty row would encode as ``{}`` and match it, so such a
      list takes the generic path.
    - Everything else (the few containers that hold containers) is one
      ``encode`` with each inner container replaced by a ``0``, which
      writes every key and loose scalar in order; the output splits
      exactly at its separators, again because only separators hold a
      newline, and each ``0`` gives way to the inner container's own text.
    """
    if fmt == "json":
        print(_json_text(report))
    else:
        _print_text(report)


_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _encoder(depth: int) -> Callable[[Any], str]:
    # indent None, so encode runs the C encoder (or, without _json, the
    # pure-Python one, which writes the same bytes)
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "),
                            sort_keys=True).encode


def _flat(items) -> bool:
    return not any(map(isinstance, items, itertools.repeat(_CONTAINERS)))


def _json_text(obj: Any, depth: int = 0) -> str:
    if not isinstance(obj, _CONTAINERS):
        return _encoder(0)(obj)
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    pad, inner = "  " * depth, "  " * (depth + 1)
    values = obj.values() if is_dict else obj
    if _flat(values):
        body = _encoder(depth + 1)(obj)[1:-1]
    elif (not is_dict and all(map(isinstance, obj, itertools.repeat(dict)))
          and all(obj) and _flat(itertools.chain.from_iterable(map(dict.values, obj)))):
        deep = "  " * (depth + 2)
        rows = _encoder(depth + 2)(obj)[2:-2]
        body = ("{\n" + deep
                + rows.replace("},\n" + deep + "{",
                               "\n" + inner + "},\n" + inner + "{\n" + deep)
                + "\n" + inner + "}")
    else:
        placeholders = ({key: 0 if isinstance(v, _CONTAINERS) else v
                         for key, v in obj.items()} if is_dict
                        else [0 if isinstance(v, _CONTAINERS) else v for v in obj])
        pieces = _encoder(depth + 1)(placeholders)[1:-1].split(",\n" + inner)
        if is_dict:
            values = [v for _, v in sorted(obj.items())]
        body = (",\n" + inner).join(
            piece[:-1] + _json_text(v, depth + 1) if isinstance(v, _CONTAINERS) else piece
            for piece, v in zip(pieces, values))
    opening, closing = ("{", "}") if is_dict else ("[", "]")
    return opening + "\n" + inner + body + "\n" + pad + closing


def _print_text(report: dict[str, Any], indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for row in value:
                cells = ", ".join(f"{k}={row[k]}" for k in sorted(row))
                print(f"{pad}  - {cells}")
        else:
            print(f"{pad}{key}: {value}")


def _hypothesis_json(rep: HypothesisReport) -> dict[str, Any]:
    return {
        "r": rep.r,
        "all_pass": rep.all_pass,
        "sums_equal": rep.sums_equal,
        "checks": [
            {"k": c.k, "fx": str(c.fx), "fy": str(c.fy),
             "kfact_fx": str(c.fx * math.factorial(c.k)),
             "kfact_fy": str(c.fy * math.factorial(c.k)),
             "pass": c.ok}
            for c in rep.checks
        ],
    }


def _conclusion_json(rep: ConclusionReport) -> dict[str, Any]:
    def grid(points):
        return [{"p": pt.p, "nx": pt.x_mean, "ny": pt.y_mean,
                 "margin": pt.margin, "pass": pt.ok} for pt in points]

    return {
        "r": rep.r,
        "tol": rep.tol,
        "sums_equal": rep.sums_equal,
        "low_grid": grid(rep.low_grid),
        "high_grid": grid(rep.high_grid),
        "low_all_pass": rep.low_all_pass,
        "high_all_pass": rep.high_all_pass,
    }


def cmd_norms(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x = load_vector(args.x)
    exponents = ([parse_exponent(p) for p in args.p]
                 if args.p else [-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf])
    rows = [{"p": p, "mean": lp_mean(x, p)} for p in exponents]
    report = {
        "command": "norms",
        "n": len(x),
        "entries": list(map(str, x.entries)),
        "partial_sums_desc": list(map(str, partial_sums_desc(x))),
        "means": rows,
    }
    return 0, report


def cmd_fkr(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x = load_vector(args.x)
    table = f_kr_all(x, args.r)
    ks = [args.k] if args.k is not None else list(range(len(table)))
    rows = []
    for k in ks:
        if not 0 <= k < len(table):
            raise CliInputError(f"k={k} outside 0..{len(table) - 1}")
        rows.append({"k": k, "value": str(table[k]),
                     "kfact_value": str(table[k] * math.factorial(k))})
    report = {
        "command": "fkr",
        "n": len(x),
        "r": args.r,
        "values": rows,
    }
    return 0, report


def _float_eigen_vector(matrix, e_coeffs: Sequence[Fraction]) -> RationalVector:
    # float spectrum for the (tolerance-based) norm grids only; exact
    # quantities never go through here.  e_coeffs are those of det(I + tA)
    import numpy as np

    eig = np.linalg.eigvalsh(np.array(matrix, dtype=float))  # ascending
    values = [max(0.0, float(v)) for v in eig]
    n = len(values)
    # a zero eigenvalue comes back as +-1e-16 noise, and positive noise would
    # reach the p -> 0 means; e_k of a PSD matrix is nonzero exactly for
    # k <= rank, so the top nonzero coefficient says how many are zero
    rank = max(k for k, c in enumerate(e_coeffs) if c)
    values[:n - rank] = [0.0] * (n - rank)
    return RationalVector(values)


def cmd_theorem1(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    vector_mode = args.x is not None
    if vector_mode != (args.y is not None) or vector_mode == (args.qx is not None):
        raise CliInputError("provide either --x/--y vectors or --qx/--qy matrices")
    if (args.qx is None) != (args.qy is None):
        raise CliInputError("matrix mode needs both --qx and --qy")
    r_values = (list(range(1, args.r_max + 1)) if args.r_max is not None
                else [args.r])
    if min(r_values, default=0) < 1:
        raise CliInputError("need --r >= 1 or --r-max >= 1")

    if vector_mode:
        x, y = load_vector(args.x), load_vector(args.y)
        hypotheses = [check_hypotheses(x, y, r) for r in r_values]
    else:
        mx, my = gram(load_matrix(args.qx)), gram(load_matrix(args.qy))
        if len(mx) != len(my):
            raise CliInputError("factor matrices must have equal row counts")
        sx, sy = spectral_summary(mx, r_values), spectral_summary(my, r_values)
        hypotheses = [check_hypotheses_coeffs(sx.f_coeffs[r], sy.f_coeffs[r],
                                              r, len(mx))
                      for r in r_values]
        x = _float_eigen_vector(mx, sx.e_coeffs)
        y = _float_eigen_vector(my, sy.e_coeffs)

    rep = full_report(hypotheses, x, y, args.grid_points, args.tol)
    report = {
        "command": "theorem1",
        "mode": "vectors" if vector_mode else "matrices",
        "requested_r": r_values,
        "hypotheses": [_hypothesis_json(h) for h in rep.hypotheses],
        "certified_r": rep.certified_r,
        "certified_interval": (list(rep.certified_interval)
                               if rep.certified_interval else None),
        "conclusions": (_conclusion_json(rep.conclusions)
                        if rep.conclusions else None),
        "conclusions_asserted": rep.certified_r is not None,
        "pass": rep.passed,
    }
    return (0 if rep.passed else 1), report


def cmd_majorize(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x, y = load_vector(args.x), load_vector(args.y)
    verdict = majorizes(x, y)
    report: dict[str, Any] = {
        "command": "majorize",
        "holds": verdict.holds,
        "sums_equal": verdict.sum_equal,
        "first_violation": (
            {"k": verdict.first_violation[0],
             "x_partial": str(verdict.first_violation[1]),
             "y_partial": str(verdict.first_violation[2])}
            if verdict.first_violation else None),
        "x_partial_sums": list(map(str, partial_sums_desc(x))),
        "y_partial_sums": list(map(str, partial_sums_desc(y))),
    }
    if args.psi_grid:
        rows = psi_compare(x, y, [parse_exponent(v) for v in args.psi_grid])
        report["psi"] = [{"lambda": r.lam, "lhs": r.lhs, "rhs": r.rhs,
                          "holds": r.holds} for r in rows]
    return (0 if verdict.holds else 1), report


def cmd_theorem2(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x, y = load_vector(args.x), load_vector(args.y)
    rep = theorem2_scan(x, y, args.k_max)

    def cell(v):
        return ({"r": v.r, "k": v.k, "lhs": str(v.lhs),
                 "rhs": str(v.rhs)} if v else None)

    report = {
        "command": "theorem2",
        "k_max": rep.k_max,
        "sums_equal": rep.sums_equal,
        "majorization_holds": rep.majorization_holds,
        "distinct_var_family_violation": cell(rep.distinct_var_violation),
        "subset_power_family_violation": cell(rep.subset_power_violation),
        "cells_checked": rep.cells_checked,
        "note": rep.note,
        "pass": rep.passed,
    }
    return (0 if rep.passed else 1), report


def cmd_spectral(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    if (args.q is None) == (args.matrix is None):
        raise CliInputError("provide exactly one of --q (factor) or --matrix (square)")
    if args.q is not None:
        matrix = gram(load_matrix(args.q))
        assume_psd = True
    else:
        matrix = load_matrix(args.matrix)
        assume_psd = False
    rs = sorted(set(args.r)) if args.r else [1]
    summary = spectral_summary(matrix, rs=rs, assume_psd=assume_psd)
    report = {
        "command": "spectral",
        "n": len(matrix),
        "matrix": [list(row) for row in matrix],
        "e_coeffs": list(map(str, summary.e_coeffs)),
        "f_tables": {
            str(r): [{"k": k, "value": str(v),
                      "kfact_value": str(v * math.factorial(k))}
                     for k, v in enumerate(table)]
            for r, table in summary.f_coeffs.items()
        },
    }
    return 0, report


def cmd_mellin_validate(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise CliInputError("tolerance must be positive and finite")
    lhs = identity_lhs(args.which, args.a, args.p, args.r)
    error = identity_check(args.which, args.a, args.p, args.r)
    base = (integral_I(args.r, args.p) if args.which == "id1"
            else integral_J(args.r, args.p))
    ok = error <= args.tol
    report = {
        "command": "mellin-validate",
        "which": args.which,
        "r": args.r,
        "p": args.p,
        "a": args.a,
        "normalizer": {"value": base.value,
                       "estimated_error": base.estimated_error,
                       "node_count": base.node_count},
        "lhs": lhs.value,
        "target": float(args.a) ** args.p if args.a > 0 else 0.0,
        "relative_error": error,
        "tol": args.tol,
        "pass": ok,
    }
    return (0 if ok else 1), report


def cmd_catalyst(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x = load_vector(args.x)
    c_vec = load_vector(args.c)
    catalyst = Catalyst(c_vec.entries)
    tpl = taylor_template(args.r)
    cx = catalyst_product(x, catalyst, tpl, args.degree)
    report: dict[str, Any] = {
        "command": "catalyst",
        "r": args.r,
        "degree_bound": cx.degree_bound,
        "tensor_x": list(map(str, tensor(x, catalyst).entries)),
        "x_coeffs": list(map(str, cx.coeffs)),
    }
    code = 0
    if args.y:
        y = load_vector(args.y)
        if len(y) != len(x):
            raise CliInputError("vectors must have equal length")
        cy = catalyst_product(y, catalyst, tpl, cx.degree_bound)
        rows = [{"k": k, "cx": str(a), "cy": str(b), "pass": a <= b}
                for k, (a, b) in enumerate(zip(cx.coeffs, cy.coeffs))]
        report["y_coeffs"] = list(map(str, cy.coeffs))
        report["comparison"] = rows
        report["pass"] = all(row["pass"] for row in rows)
        code = 0 if report["pass"] else 1
    return code, report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympineq",
        description="Exact symmetric-polynomial families, majorization checks, "
                    "and lp-mean inequality verifiers.")
    parser.add_argument("--format", choices=("text", "json"), default="json",
                        help="report format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norms", help="lp means and partial sums of one vector")
    p.add_argument("--x", required=True, help="vector file (JSON array)")
    p.add_argument("--p", action="append",
                   help="exponent (repeatable; accepts inf/-inf)")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("fkr", help="exact order-r family values of one vector")
    p.add_argument("--x", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="single k (default: all)")
    p.set_defaults(func=cmd_fkr)

    p = sub.add_parser("theorem1",
                       help="check the polynomial hypotheses and measure the "
                            "lp-mean conclusion grids")
    p.add_argument("--x", help="vector file for the left side")
    p.add_argument("--y", help="vector file for the right side")
    p.add_argument("--qx", help="integer factor matrix for the left side "
                                "(Gram product is taken)")
    p.add_argument("--qy", help="integer factor matrix for the right side")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, help="single template order")
    group.add_argument("--r-max", type=int, help="scan orders 1..r_max")
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("majorize", help="exact majorization verdict")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--psi-grid", action="append",
                   help="lambda values for the concave test-function probe")
    p.set_defaults(func=cmd_majorize)

    p = sub.add_parser("theorem2",
                       help="scan the majorization characterization via the "
                            "distinct-variable and subset-power families")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--k-max", type=int, default=8)
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("spectral",
                       help="exact determinant coefficients of a matrix "
                            "pipeline")
    p.add_argument("--q", help="integer factor matrix (Gram product is taken)")
    p.add_argument("--matrix", help="square integer matrix used as-is")
    p.add_argument("--r", type=int, action="append",
                   help="family order (repeatable; default 1)")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("mellin-validate",
                       help="validate the scaled-transform identities "
                            "numerically")
    p.add_argument("--which", choices=("id1", "id2"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_mellin_validate)

    p = sub.add_parser("catalyst",
                       help="family values on the tensor product with a "
                            "catalyst vector")
    p.add_argument("--x", required=True)
    p.add_argument("--c", required=True, help="catalyst vector file (c_0 = 1)")
    p.add_argument("--y", help="optional right side for per-k comparison")
    p.add_argument("--r", type=int, default=1, help="template order")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_catalyst)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # one parser per process; main only reads it, and build_parser stays
    # uncached so a caller that patches its parser gets a parser of its own
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        # exact values are read and printed whatever their length; the
        # caller's limit comes back once the report is out
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        try:
            code, report = args.func(args)
        except (CliInputError, ValueError) as exc:
            # library ValueErrors are contract violations of the inputs
            print(f"error: {exc}", file=sys.stderr)
            return 2
        emit(report, args.format)
        return code
    finally:
        if lift:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
