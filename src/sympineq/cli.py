"""Command-line front door: parse vectors and matrices, dispatch the
verifiers, and emit human-readable or canonical JSON reports.

Exit codes form a shell predicate: 0 when every requested check passes,
1 when a checked inequality fails (the report carries a witness), 2 for
usage or input errors.

Importing this module and building its parser loads no library module.
Every library function a command calls is a module global made by
``_lazy``, which imports the function's module on the first call; so a
command loads only the modules on its own route (``norms`` only
``vectors``), and a wrapper put in place of one of these globals is what
the command calls.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import re
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    from .theorem1 import ConclusionReport, HypothesisReport
    from .vectors import RationalVector


def _import(module: str):
    """``sympineq.<module>``, imported.  mellin needs numpy, which only the
    optional ``mellin`` extra installs; without it, a ValueError (exit 2)
    names the extra."""
    key = f"{__package__}.{module}"
    try:
        __import__(key)  # an import statement's route, which -X importtime logs
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ValueError("mellin-validate needs numpy, the 'mellin' extra: "
                         "pip install 'sympineq[mellin]'") from None
    return sys.modules[key]


def _lazy(module: str, name: str) -> Callable[..., Any]:
    """A stand-in for the attribute ``name`` (dotted for a method) of
    ``sympineq.<module>``.  Each call finds the module in ``sys.modules``,
    importing it on the first, and calls the attribute it holds then."""
    key = f"{__package__}.{module}"
    attribute = operator.attrgetter(name)

    def call(*args: Any, **kwargs: Any) -> Any:
        return attribute(sys.modules.get(key) or _import(module))(*args, **kwargs)

    call.__name__ = call.__qualname__ = name.rpartition(".")[2]
    return call


# the library functions the commands call; the benchmark's tracer
# (bench/spans.py) wraps some of these globals to time and count them
rational_vector = _lazy("vectors", "RationalVector")
vector_from_json = _lazy("vectors", "RationalVector.from_json")
lp_mean = _lazy("vectors", "lp_mean")
partial_sums_desc = _lazy("vectors", "partial_sums_desc")
tensor = _lazy("series", "tensor")
product_over_vector = _lazy("series", "product_over_vector")
f_kr_all = _lazy("families", "f_kr_all")
majorizes = _lazy("majorize", "majorizes")
psi_compare = _lazy("majorize", "psi_compare")
theorem2_scan = _lazy("majorize", "theorem2_scan")
check_hypotheses = _lazy("theorem1", "check_hypotheses")
check_hypotheses_coeffs = _lazy("theorem1", "check_hypotheses_coeffs")
full_report = _lazy("theorem1", "full_report")
as_int_matrix = _lazy("spectral", "as_int_matrix")
gram = _lazy("spectral", "gram")
spectral_summary = _lazy("spectral", "spectral_summary")
identity_lhs = _lazy("mellin", "identity_lhs")
identity_check = _lazy("mellin", "identity_check")
integral_I = _lazy("mellin", "integral_I")
integral_J = _lazy("mellin", "integral_J")


def _read_input(path: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` applied to the text of the file at ``path``; every failure
    becomes a ValueError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from exc
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_vector(path: str) -> RationalVector:
    return _read_input(path, vector_from_json)


def load_matrix(path: str) -> tuple[tuple[int, ...], ...]:
    def parse(text: str) -> tuple[tuple[int, ...], ...]:
        if path.endswith(".csv"):
            import csv
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
        raise ValueError(f"bad exponent {text!r}")
    return exponent


def emit(report: dict[str, Any], fmt: str) -> None:
    """Print ``report`` to stdout as text, or as the JSON that
    ``json.dumps(report, indent=2, sort_keys=True)`` gives, byte for byte.

    A report holds each list of same-shaped rows (theorem1 grids and
    ledgers, F tables, ``norms`` means, ``majorize`` psi rows, ``catalyst``
    comparisons) as a ``_Rows``: its keys once, in sorted order, and a tuple
    of values per row.  ``--format text`` prints every row as
    ``- key=value, ...``, and a ``_Rows`` inside a row as the repr of its
    rows as dicts.

    ``json.dumps`` with an indent runs the stdlib's pure-Python encoder, so
    the JSON writer (``_json_text``) hands the scalars to the C encoder
    instead.  It first writes a skeleton: the indented brackets and commas,
    with a ``%s`` for each dict key and each scalar, and for a ``_Rows``
    its row template (its keys written in, cached per shape and depth)
    once per row.  One ``encode`` of those keys and scalars in slot order,
    with a newline as item separator, writes each exactly as the indented
    encoder does; no encoded scalar holds a raw newline, so the output
    splits into the slots' texts exactly.
    """
    if fmt == "json":
        print(_json_text(report))
    else:
        _print_text(report)


class _Rows:
    """Report rows of one shape: ``fields``, the keys in sorted order, and
    ``rows``, one tuple of values per row in that order.  ``order`` is the
    key order of its repr, the rows as dicts (default: sorted)."""

    __slots__ = ("fields", "rows", "order")

    def __init__(self, fields: tuple[str, ...], rows: list[tuple],
                 order: Optional[tuple[str, ...]] = None) -> None:
        if not fields or list(fields) != sorted(fields):
            raise ValueError(f"rows need sorted fields, not {fields}")
        self.fields, self.rows, self.order = fields, rows, order or fields

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        index = [self.fields.index(key) for key in self.order]
        return repr([{key: row[i] for key, i in zip(self.order, index)}
                     for row in self.rows])


# the row shapes of the reports, keys sorted
_GRID = ("margin", "nx", "ny", "p", "pass")
_LEDGER = ("fx", "fy", "k", "kfact_fx", "kfact_fy", "pass")
_F_TABLE = ("k", "kfact_value", "value")
_MEANS = ("mean", "p")
_PSI = ("holds", "lambda", "lhs", "rhs")
_COMPARISON = ("cx", "cy", "k", "pass")

_CONTAINERS = (dict, list, tuple, _Rows)


@functools.lru_cache(maxsize=None)
def _row_template(fields: tuple[str, ...], depth: int) -> str:
    # one row of a _Rows at depth: the keys indented, a %s per value
    inner, deep = "  " * (depth + 1), "  " * (depth + 2)
    keys = [deep + json.dumps(key).replace("%", "%%") + ": %s" for key in fields]
    return inner + "{\n" + ",\n".join(keys) + "\n" + inner + "}"


# a list of scalars as their JSON texts, one a line
_values_text = json.JSONEncoder(separators=("\n", ": ")).encode


def _skeleton(obj: Any, depth: int, values: list) -> str:
    # obj's indented JSON with a %s for each key and scalar; the keys and
    # scalars go onto values in the order of their slots
    if not isinstance(obj, _CONTAINERS):
        values.append(obj)
        return "%s"
    inner = "  " * (depth + 1)
    if isinstance(obj, _Rows):
        values.extend(itertools.chain.from_iterable(obj.rows))
        items = [_row_template(obj.fields, depth)] * len(obj)
    elif isinstance(obj, dict):
        pairs = sorted(obj.items())
        if any(map(isinstance, obj.values(), itertools.repeat(_CONTAINERS))):
            items = []
            for key, value in pairs:
                values.append(key)
                items.append(inner + "%s: " + _skeleton(value, depth + 1, values))
        else:
            values.extend(itertools.chain.from_iterable(pairs))
            items = [inner + "%s: %s"] * len(pairs)
    elif any(map(isinstance, obj, itertools.repeat(_CONTAINERS))):
        items = [inner + _skeleton(value, depth + 1, values) for value in obj]
    else:
        values.extend(obj)
        items = [inner + "%s"] * len(obj)
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return opening + closing
    return opening + "\n" + ",\n".join(items) + "\n" + "  " * depth + closing


def _json_text(obj: Any) -> str:
    values: list = []
    skeleton = _skeleton(obj, 0, values)
    if not values:  # every container is empty
        return skeleton
    return skeleton % tuple(_values_text(values)[1:-1].split("\n"))


def _print_text(report: dict[str, Any], indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif value and (isinstance(value, _Rows) or (
                isinstance(value, list) and isinstance(value[0], dict))):
            print(f"{pad}{key}:")
            rows = (map(zip, itertools.repeat(value.fields), value.rows)
                    if isinstance(value, _Rows)
                    else (sorted(row.items()) for row in value))
            for cells in rows:
                print(f"{pad}  - " + ", ".join(f"{k}={v}" for k, v in cells))
        else:
            print(f"{pad}{key}: {value}")


def _times_text(q: Fraction, f: int) -> str:
    # str(q * f) for a reduced q and an int f: the numerator of q shares no
    # factor with its denominator, so only gcd(f, denominator) cancels
    g = math.gcd(f, q.denominator)
    num, den = q.numerator * (f // g), q.denominator // g
    return str(num) if den == 1 else f"{num}/{den}"


def _hypothesis_json(rep: HypothesisReport) -> dict[str, Any]:
    checks = []
    kfact = math.factorial(rep.r)  # the checks run over k = r, r + 1, ...
    for c in rep.checks:
        checks.append((str(c.fx), str(c.fy), c.k, _times_text(c.fx, kfact),
                       _times_text(c.fy, kfact), c.ok))
        kfact *= c.k + 1
    return {
        "r": rep.r,
        "all_pass": rep.all_pass,
        "sums_equal": rep.sums_equal,
        # text reports print the ledger in the order of its fields' meaning
        "checks": _Rows(_LEDGER, checks,
                        order=("k", "fx", "fy", "kfact_fx", "kfact_fy", "pass")),
    }


# a GridPoint's values in _GRID order
_grid_row = operator.attrgetter("margin", "x_mean", "y_mean", "p", "ok")


def _conclusion_json(rep: ConclusionReport) -> dict[str, Any]:
    return {
        "r": rep.r,
        "tol": rep.tol,
        "sums_equal": rep.sums_equal,
        "low_grid": _Rows(_GRID, list(map(_grid_row, rep.low_grid))),
        "high_grid": _Rows(_GRID, list(map(_grid_row, rep.high_grid))),
        "low_all_pass": rep.low_all_pass,
        "high_all_pass": rep.high_all_pass,
    }


def _f_rows(table: Sequence[Fraction], ks: Iterable[int]) -> _Rows:
    # the rows of an F table: k, k! F_k and F_k
    return _Rows(_F_TABLE, [(k, _times_text(table[k], math.factorial(k)),
                             str(table[k])) for k in ks])


def cmd_norms(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x = load_vector(args.x)
    exponents = ([parse_exponent(p) for p in args.p]
                 if args.p else [-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf])
    rows = _Rows(_MEANS, [(lp_mean(x, p), p) for p in exponents])
    report = {
        "n": len(x),
        "entries": list(map(str, x.entries)),
        "partial_sums_desc": list(map(str, partial_sums_desc(x))),
        "means": rows,
    }
    return 0, report


def cmd_fkr(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x = load_vector(args.x)
    table = f_kr_all(x, args.r)
    if args.k is not None and not 0 <= args.k < len(table):
        raise ValueError(f"k={args.k} outside 0..{len(table) - 1}")
    ks = [args.k] if args.k is not None else range(len(table))
    report = {
        "n": len(x),
        "r": args.r,
        "values": _f_rows(table, ks),
    }
    return 0, report


def cmd_theorem1(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    vector_mode = args.x is not None
    if vector_mode != (args.y is not None) or vector_mode == (args.qx is not None):
        raise ValueError("provide either --x/--y vectors or --qx/--qy matrices")
    if (args.qx is None) != (args.qy is None):
        raise ValueError("matrix mode needs both --qx and --qy")
    r_values = (list(range(1, args.r_max + 1)) if args.r_max is not None
                else [args.r])
    if min(r_values, default=0) < 1:
        raise ValueError("need --r >= 1 or --r-max >= 1")

    if vector_mode:
        x, y = load_vector(args.x), load_vector(args.y)
        hypotheses = [check_hypotheses(x, y, r) for r in r_values]
    else:
        mx, my = gram(load_matrix(args.qx)), gram(load_matrix(args.qy))
        if len(mx) != len(my):
            raise ValueError("factor matrices must have equal row counts")
        sx = spectral_summary(mx, r_values, assume_psd=True)
        sy = spectral_summary(my, r_values, assume_psd=True)
        hypotheses = [check_hypotheses_coeffs(sx.f_coeffs[r], sy.f_coeffs[r],
                                              r, len(mx))
                      for r in r_values]
        x, y = rational_vector(sx.eigenvalues()), rational_vector(sy.eigenvalues())

    # an option left out takes full_report's own default
    options = {"grid_points": args.grid_points, "tol": args.tol}
    rep = full_report(hypotheses, x, y,
                      **{k: v for k, v in options.items() if v is not None})
    report = {
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
        "holds": verdict.holds,
        "sums_equal": verdict.sum_equal,
        "first_violation": (
            {"k": verdict.first_violation[0],
             "x_partial": str(verdict.first_violation[1]),
             "y_partial": str(verdict.first_violation[2])}
            if verdict.first_violation else None),
        "x_partial_sums": list(map(str, verdict.x_partial_sums)),
        "y_partial_sums": list(map(str, verdict.y_partial_sums)),
    }
    if args.psi_grid:
        rows = psi_compare(x, y, [parse_exponent(v) for v in args.psi_grid])
        report["psi"] = _Rows(_PSI, [(r.holds, r.lam, r.lhs, r.rhs)
                                     for r in rows])
    return (0 if verdict.holds else 1), report


def cmd_theorem2(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x, y = load_vector(args.x), load_vector(args.y)
    rep = theorem2_scan(x, y, args.k_max)

    def cell(v):
        return ({"r": v.r, "k": v.k, "lhs": str(v.lhs),
                 "rhs": str(v.rhs)} if v else None)

    report = {
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
        raise ValueError("provide exactly one of --q (factor) or --matrix (square)")
    if args.q is not None:
        matrix = gram(load_matrix(args.q))
        assume_psd = True
    else:
        matrix = load_matrix(args.matrix)
        assume_psd = False
    summary = spectral_summary(matrix, rs=args.r or [1], assume_psd=assume_psd)
    report = {
        "n": len(matrix),
        "matrix": [list(row) for row in matrix],
        "e_coeffs": list(map(str, summary.e_coeffs)),
        "f_tables": {str(r): _f_rows(table, range(len(table)))
                     for r, table in summary.f_coeffs.items()},
    }
    return 0, report


def cmd_mellin_validate(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise ValueError("tolerance must be positive and finite")
    lhs = identity_lhs(args.which, args.a, args.p, args.r)
    error = identity_check(args.which, args.a, args.p, args.r)
    base = (integral_I(args.r, args.p) if args.which == "id1"
            else integral_J(args.r, args.p))
    # an unconverged quadrature's error bar is no bound, so it never passes
    ok = error <= args.tol and lhs.converged
    report = {
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
        "converged": lhs.converged,
        "pass": ok,
    }
    return (0 if ok else 1), report


def cmd_catalyst(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    x, c = load_vector(args.x), load_vector(args.c)
    tx = tensor(x, c)
    cx = product_over_vector(tx, args.r, args.degree)
    x_text = list(map(str, cx.coeffs))
    report: dict[str, Any] = {
        "r": args.r,
        "degree_bound": cx.degree_bound,
        "tensor_x": list(map(str, tx.entries)),
        "x_coeffs": x_text,
    }
    code = 0
    if args.y:
        y = load_vector(args.y)
        if len(y) != len(x):
            raise ValueError("vectors must have equal length")
        cy = product_over_vector(tensor(y, c), args.r, cx.degree_bound)
        passes = [a.numerator * b.denominator <= b.numerator * a.denominator
                  for a, b in zip(cx.coeffs, cy.coeffs)]
        report["y_coeffs"] = y_text = list(map(str, cy.coeffs))
        report["comparison"] = _Rows(_COMPARISON, list(zip(
            x_text, y_text, itertools.count(), passes)))
        report["pass"] = all(passes)
        code = 0 if report["pass"] else 1
    return code, report


class _Parser(argparse.ArgumentParser):
    # reads -inf and -1e-3 as option values, where argparse's own test for
    # a negative number would take them for options
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)  # the subparsers are _Parsers too
        self._negative_number_matcher = re.compile(
            r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--grid-points", type=int)
    p.add_argument("--tol", type=float)
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
        except ValueError as exc:
            # every input error, the CLI's own or the library's, is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report["command"] = args.command
        emit(report, args.format)
        return code
    finally:
        if lift:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
