import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import sympineq
from sympineq.families import gbar_kr
from sympineq.spectral import gram
from sympineq.vectors import RationalVector

# 4x4 integer interval matrix and its variant with one flipped sign; the Gram
# products share a trace but differ in their spectral coefficients, which makes
# the pair a good workout for every verifier in the package.
SAMPLE_Q = ((1, 1, 1, 1),
            (0, 1, 1, 0),
            (0, 0, 1, 0),
            (0, 0, 1, 1))
SAMPLE_R = ((1, 1, 1, 1),
            (0, 1, 1, 0),
            (0, 0, 1, 0),
            (0, 0, 1, -1))


@pytest.fixture(scope="session")
def matrix_x():
    return gram(SAMPLE_Q)


@pytest.fixture(scope="session")
def matrix_y():
    return gram(SAMPLE_R)


def vec(*entries) -> RationalVector:
    return RationalVector(entries)


def random_rational_vector(rng: random.Random, n: int, max_numerator: int = 40,
                           denominator_bound: int = 8) -> RationalVector:
    return RationalVector(
        Fraction(rng.randint(0, max_numerator), rng.randint(1, denominator_bound))
        for _ in range(n))


@pytest.fixture
def rng():
    return random.Random(20260809)


def binom_ext(a: int, b: int) -> int:
    """Binomial coefficient with the conventions the subset-power identity
    needs: C(a, 0) = 1 for every integer a; 0 when b < 0 or b > a >= 0."""
    if b == 0:
        return 1
    if b < 0:
        return 0
    assert a >= 0, "negative upper index with positive lower never arises here"
    return comb(a, b) if b <= a else 0


def m_kr_from_gbar(x: RationalVector, k: int, r: int) -> Fraction:
    """M_{k,r} reassembled from the Gbar family:
    ``M/k! = sum_m C(n-r-1+m, m) * Gbar_{k, r+1-m}`` for m = 0..r-1."""
    n = len(x)
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    total = Fraction(0)
    for m in range(r):
        total += binom_ext(n - r - 1 + m, m) * gbar_kr(x, k, r + 1 - m)
    return factorial(k) * total


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c script args`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(sympineq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
