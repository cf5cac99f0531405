"""The demos, each run as a script in a fresh interpreter.

Demos 01-03 are exact up to their float grids and print the same bytes on
every supported Python, with or without numpy: their stdout must be the
committed transcript in ``demos/expected``.  Demo 04 prints numpy
quadrature bits, so only its exit code counts.
"""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).resolve().parent.parent / "demos"
RUN = "import runpy, sys\nrunpy.run_path(sys.argv[1], run_name='__main__')\n"


@pytest.mark.parametrize("number", ["01", "02", "03"])
def test_prints_its_transcript(number):
    [demo] = DEMOS.glob(f"{number}_*.py")
    done = run_python(RUN, str(demo))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (DEMOS / "expected" / f"{number}.txt").read_text()


def test_mellin_identities_run():
    done = run_python(RUN, str(DEMOS / "04_mellin_identities.py"))
    assert done.returncode == 0, done.stderr
