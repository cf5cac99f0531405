"""Report pins for the matrix route and the vector commands: a fixed list of
CLI requests, each served in process through ``cli.main``, and the sha256 of
its exit code, stdout and stderr.

The matrix requests come from one seeded ``random.Random``: ``spectral --q``
on integer factors, ``spectral --matrix`` on non-symmetric, indefinite,
singular and zero square matrices, and ``theorem1 --qx/--qy --r-max 3``, for
n = 1..12, with the orders asked varied from request to request.  The vector
requests come from a second one, appended after them: ``majorize`` with a
psi grid and ``theorem2`` for n = 1..8 in both orientations, with equal and
unequal sums; ``norms``, ``fkr``, ``catalyst`` with and without ``--y``, and
``theorem1 --x/--y``, some of them as ``--format text``.  A third one
draws the rest: every row shape of the reports as ``--format text``, and the
JSON of the two request shapes that cost most to write.
``tests/test_report_pins.py`` replays the list under pytest; this script
serves it without pytest:

    PYTHONPATH=src python3 tests/report_pins.py           # print the pin table
    PYTHONPATH=src python3 tests/report_pins.py --check   # compare with the pins

A change that moves report bytes on purpose regenerates the table with the
first command, into ``tests/golden/report_pins.txt``, and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from sympineq.cli import main

PINS_PATH = Path(__file__).resolve().parent / "golden" / "report_pins.txt"

# every order set is asked of every kind at some n, order 1 left out included
ORDER_SETS = ((), ("--r", "1"), ("--r", "2", "--r", "3"),
              ("--r", "3", "--r", "1", "--r", "2"), ("--r", "4"),
              ("--r", "2", "--r", "2"))


def _entries(rnd: random.Random, rows: int, cols: int, bound: int) -> list:
    return [[rnd.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def _square(kind: str, n: int, rnd: random.Random) -> list:
    if kind == "indefinite":  # symmetric with a zero diagonal: trace 0
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rnd.randint(-3, 3)
        return a
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    a = _entries(rnd, n, n, 4)
    if kind == "singular":  # the last row repeats the first
        a[-1] = list(a[0]) if n > 1 else [0]
    return a


def requests() -> list[tuple[str, dict[str, list], list[str]]]:
    """(name, input files by name, argv) for every pinned request."""
    return matrix_requests() + vector_requests() + shape_requests()


def matrix_requests() -> list[tuple[str, dict[str, list], list[str]]]:
    rnd = random.Random(20261020)
    out = []
    for n in range(1, 13):
        q = _entries(rnd, n, rnd.randint(max(1, n - 2), n + 2), 2)
        out.append((f"spectral-q-n{n}", {"q.json": q},
                    ["spectral", "--q", "q.json",
                     *ORDER_SETS[n % len(ORDER_SETS)]]))
        for i, kind in enumerate(("non-symmetric", "indefinite", "singular",
                                  "zero"), 1):
            out.append((f"spectral-{kind}-n{n}",
                        {"a.json": _square(kind, n, rnd)},
                        ["spectral", "--matrix", "a.json",
                         *ORDER_SETS[(n + i) % len(ORDER_SETS)]]))
        qx = _entries(rnd, n, rnd.randint(max(1, n - 1), n + 1), 2)
        if n % 2:  # the same Gram diagonal, so equal sums: both grids asserted
            qy = [list(row) for row in qx]
            i, j = rnd.randrange(n), rnd.randrange(len(qx[0]))
            qy[i][j] = -qy[i][j]
        else:
            qy = _entries(rnd, n, len(qx[0]), 2)
        out.append((f"theorem1-n{n}", {"qx.json": qx, "qy.json": qy},
                    ["theorem1", "--qx", "qx.json", "--qy", "qy.json",
                     "--r-max", "3"]))
    # the paper's 4x4 pair: orders 1 and 2 certified, order 3 fails
    q = [[1, 1, 1, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
    r = [row[:3] + [-row[3]] if i == 3 else row for i, row in enumerate(q)]
    out.append(("theorem1-paper-pair", {"qx.json": q, "qy.json": r},
                ["theorem1", "--qx", "qx.json", "--qy", "qy.json",
                 "--r-max", "3"]))
    out.append(("spectral-non-square", {"a.json": [[1, 2, 3], [4, 5, 6]]},
                ["spectral", "--matrix", "a.json"]))
    return out


PSI_GRID = ("--psi-grid", "0.5", "--psi-grid", "2", "--psi-grid", "inf")


def _vector(rnd: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rnd.randint(0, 40), rnd.randint(1, 6)) for _ in range(n)]


def _robin_hood(rnd: random.Random, x: list[Fraction]) -> list[Fraction]:
    """x after one to three transfers, each of part of the gap between two
    entries, from the larger to the smaller: a vector that x majorizes."""
    y = list(x)
    for _ in range(rnd.randint(1, 3) if len(y) > 1 else 0):
        i, j = rnd.sample(range(len(y)), 2)
        if y[i] < y[j]:
            i, j = j, i
        delta = (y[i] - y[j]) * Fraction(rnd.randint(1, 7), 16)
        y[i] -= delta
        y[j] += delta
    return y


def _text(v: list[Fraction]) -> list:
    # integers as JSON numbers, the rest as exact quotient strings
    return [int(e) if e.denominator == 1 else str(e) for e in v]


def vector_requests() -> list[tuple[str, dict[str, list], list[str]]]:
    rnd = random.Random(20261021)
    out = []

    def pair(name, x, y, command, *options):
        out.append((name, {"x.json": _text(x), "y.json": _text(y)},
                    [*command, "--x", "x.json", "--y", "y.json", *options]))

    for n in (1, 2, 3, 5, 8):
        x = _vector(rnd, n)
        y = _robin_hood(rnd, x)
        z = list(y)
        z[rnd.randrange(n)] += Fraction(1, rnd.randint(1, 6))  # unequal sums
        for tag, a, b in (("forward", x, y), ("reverse", y, x),
                          ("unequal", x, z), ("unequal-reverse", z, x)):
            pair(f"majorize-{tag}-n{n}", a, b, ["majorize"], *PSI_GRID)
    for n in range(1, 9):
        x = _vector(rnd, n)
        y = _robin_hood(rnd, x)
        pair(f"theorem2-forward-n{n}", x, y,
             ["theorem2"], "--k-max", str(n))
        pair(f"theorem2-reverse-n{n}", y, x,
             ["theorem2"], "--k-max", str(9 - n))
    x = _vector(rnd, 4)
    y = _robin_hood(rnd, x)
    y[0] += 1
    pair("theorem2-unequal-n4", x, y, ["theorem2"], "--k-max", "8")
    x = [Fraction(rnd.randint(1, 23), 4) for _ in range(21)]
    pair("theorem2-n21", x, _robin_hood(rnd, x),
         ["theorem2"], "--k-max", "8")
    x = _vector(rnd, 6)
    out.append(("norms-default", {"x.json": _text(x)},
                ["norms", "--x", "x.json"]))
    out.append(("norms-p", {"x.json": _text(x)},
                ["norms", "--x", "x.json", "--p", "-inf", "--p", "-1.5",
                 "--p", "0", "--p", "3", "--p", "inf"]))
    for r in (1, 2, 3):
        x = _vector(rnd, 2 + r)
        out.append((f"fkr-r{r}", {"x.json": _text(x)},
                    ["fkr", "--x", "x.json", "--r", str(r)]))
        out.append((f"fkr-r{r}-k", {"x.json": _text(x)},
                    ["fkr", "--x", "x.json", "--r", str(r),
                     "--k", str(rnd.randint(0, (2 + r) * r))]))
    for r in (1, 2):
        x, c = _vector(rnd, 3), [1, *_vector(rnd, 2)]
        y = _robin_hood(rnd, x)
        files = {"x.json": _text(x), "y.json": _text(y), "c.json": _text(c)}
        out.append((f"catalyst-r{r}", files,
                    ["catalyst", "--x", "x.json", "--c", "c.json",
                     "--r", str(r)]))
        out.append((f"catalyst-y-r{r}", files,
                    ["catalyst", "--x", "x.json", "--c", "c.json",
                     "--y", "y.json", "--r", str(r)]))
        out.append((f"catalyst-y-reverse-r{r}", files,
                    ["catalyst", "--x", "y.json", "--c", "c.json",
                     "--y", "x.json", "--r", str(r), "--degree", "4"]))
    for n in (3, 5):
        x = _vector(rnd, n)
        y = _robin_hood(rnd, x)
        pair(f"theorem1-r2-n{n}", x, y, ["theorem1"], "--r", "2")
        pair(f"theorem1-r-max-n{n}", x, y, ["theorem1"], "--r-max", "3")
        pair(f"theorem1-reverse-n{n}", y, x, ["theorem1"], "--r", "1")
    x = _vector(rnd, 4)
    y = _robin_hood(rnd, x)
    pair("text-theorem1-r-max", x, y,
         ["--format", "text", "theorem1"], "--r-max", "3")
    pair("text-theorem1-reverse", y, x,
         ["--format", "text", "theorem1"], "--r", "1")
    pair("text-theorem2", x, y, ["--format", "text", "theorem2"], "--k-max", "5")
    pair("text-theorem2-reverse", y, x,
         ["--format", "text", "theorem2"], "--k-max", "5")
    return out


def _sixths_pair(rnd: random.Random, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """x over 1/6 and y, x after three transfers of whole sixths, each less
    than the gap, from a larger entry to a smaller one."""
    x = [rnd.randint(1, 60) for _ in range(n)]
    y = list(x)
    done = 0
    while done < 3:
        i, j = rnd.sample(range(n), 2)
        if y[i] < y[j]:
            i, j = j, i
        if y[i] - y[j] >= 2:
            delta = rnd.randint(1, y[i] - y[j] - 1)
            y[i] -= delta
            y[j] += delta
            done += 1
    return [Fraction(v, 6) for v in x], [Fraction(v, 6) for v in y]


def shape_requests() -> list[tuple[str, dict[str, list], list[str]]]:
    """Every row shape of the reports as ``--format text``, and the two
    largest report shapes as JSON: a ``theorem1 --r-max 3`` scan of a pair
    over 1/6 at n = 20 and ``fkr --r 3`` at n = 24."""
    rnd = random.Random(20261022)
    out = []
    x = _vector(rnd, 5)
    y = _robin_hood(rnd, x)
    c = [1, *_vector(rnd, 2)]
    files = {"x.json": _text(x), "y.json": _text(y), "c.json": _text(c)}
    text = ["--format", "text"]
    out.append(("text-norms", files, [*text, "norms", "--x", "x.json"]))
    out.append(("text-fkr", files, [*text, "fkr", "--x", "x.json", "--r", "2"]))
    out.append(("text-catalyst-y", files,
                [*text, "catalyst", "--x", "x.json", "--c", "c.json",
                 "--y", "y.json", "--r", "2"]))
    out.append(("text-majorize-psi", files,
                [*text, "majorize", "--x", "x.json", "--y", "y.json",
                 *PSI_GRID]))
    q = _entries(rnd, 4, 5, 2)
    out.append(("text-spectral", {"q.json": q},
                [*text, "spectral", "--q", "q.json", "--r", "1", "--r", "2"]))
    qy = [list(row) for row in q]
    qy[3][2] = -qy[3][2]
    out.append(("text-theorem1-matrices", {"qx.json": q, "qy.json": qy},
                [*text, "theorem1", "--qx", "qx.json", "--qy", "qy.json",
                 "--r-max", "3"]))
    x, y = _sixths_pair(rnd, 20)
    out.append(("theorem1-r-max-n20", {"x.json": _text(x), "y.json": _text(y)},
                ["theorem1", "--x", "x.json", "--y", "y.json", "--r-max", "3"]))
    x = [Fraction(rnd.randint(1, 60), 6) for _ in range(24)]
    out.append(("fkr-r3-n24", {"x.json": _text(x)},
                ["fkr", "--x", "x.json", "--r", "3"]))
    return out


def serve(files: dict[str, list], argv: list[str]) -> str:
    """The sha256 of the exit code, stdout and stderr of ``main(argv)``, with
    ``files`` written as JSON into the working directory first."""
    for name, content in files.items():
        Path(name).write_text(json.dumps(content), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def read_pins() -> dict[str, str]:
    """The pinned table: request name -> sha256."""
    pins = {}
    for line in PINS_PATH.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        pins[name] = digest
    return pins


def table() -> dict[str, str]:
    """Every request served in a scratch directory: name -> sha256."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            return {name: serve(files, argv) for name, files, argv in requests()}
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    served = table()
    if sys.argv[1:] == ["--check"]:
        pins = read_pins()
        moved = [name for name in {**pins, **served}
                 if pins.get(name) != served.get(name)]
        print(f"{len(pins) - len(moved)} of {len(pins)} pins hold", *moved,
              sep="\n")
        sys.exit(1 if moved else 0)
    for name, digest in served.items():
        print(f"{digest}  {name}")
