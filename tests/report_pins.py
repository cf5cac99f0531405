"""Report pins for the matrix route: a fixed list of CLI requests, each
served in process through ``cli.main``, and the sha256 of its exit code,
stdout and stderr.

The inputs come from a seeded ``random.Random``: ``spectral --q`` on integer
factors, ``spectral --matrix`` on non-symmetric, indefinite, singular and
zero square matrices, and ``theorem1 --qx/--qy --r-max 3``, for n = 1..12,
with the orders asked varied from request to request.
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
