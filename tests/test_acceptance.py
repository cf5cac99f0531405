"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to watch them
stream) and enforces its runtime bound.  All randomized sweeps are seeded, so
the suite is fully reproducible.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from sympineq.families import f_kr_all, g_kr, gbar_kr, m_kr
from sympineq.majorize import majorizes, t_transform_pair
from sympineq.mellin import identity_check, integral_I
from sympineq.oracles import f_from_matrix_oracle, oracle_value
from sympineq.spectral import gram, spectral_summary
from sympineq.theorem1 import check_hypotheses, verify_conclusions
from sympineq.vectors import RationalVector

from conftest import SAMPLE_Q, SAMPLE_R, m_kr_from_gbar, random_rational_vector

X_TABLE = (81, 405, 1524, 4050, 7290, 5670, 2520)
Y_TABLE = (81, 513, 2388, 5130, 7290, 5670, 2520)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed < budget_seconds else "FAIL"
        print(f"[{status}] criterion {number:2d}: {label} "
              f"({elapsed:.2f}s / budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over budget"


def test_criterion_01_spectral_reproduction():
    with criterion(1, "exact determinant coefficients for both Gram matrices", 1.0):
        assert list(spectral_summary(gram(SAMPLE_Q)).e_coeffs) == [1, 9, 16, 9, 1]
        assert list(spectral_summary(gram(SAMPLE_R)).e_coeffs) == [1, 9, 20, 9, 1]


def test_criterion_02_f_table_reproduction():
    with criterion(2, "exact order-2 family tables via the matrix route", 5.0):
        fx = list(spectral_summary(gram(SAMPLE_Q), (2,)).f_coeffs[2])
        fy = list(spectral_summary(gram(SAMPLE_R), (2,)).f_coeffs[2])
        assert tuple(math.factorial(k) * fx[k] for k in range(2, 9)) == X_TABLE
        assert tuple(math.factorial(k) * fy[k] for k in range(2, 9)) == Y_TABLE
        # route agreement with the independent node-evaluation and
        # interpolation route, and with the vector route where the spectrum
        # is rational
        assert fx == f_from_matrix_oracle(gram(SAMPLE_Q), 2)
        assert fy == f_from_matrix_oracle(gram(SAMPLE_R), 2)
        diag = ((4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))
        vector = RationalVector([4, 2, 1, 2])
        assert list(spectral_summary(diag, (2,)).f_coeffs[2]) == \
            f_from_matrix_oracle(diag, 2) == f_kr_all(vector, 2)
        two_by_two = ((2, 1), (1, 2))  # spectrum {1, 3}
        assert list(spectral_summary(two_by_two, (2,)).f_coeffs[2]) == \
            f_from_matrix_oracle(two_by_two, 2) == \
            f_kr_all(RationalVector([1, 3]), 2)


def test_criterion_03_order_three_failure_witness():
    with criterion(3, "order-3 hypotheses fail exactly at k = 10", 5.0):
        from sympineq.theorem1 import check_hypotheses_coeffs

        fx = spectral_summary(gram(SAMPLE_Q), (3,)).f_coeffs[3]
        fy = spectral_summary(gram(SAMPLE_R), (3,)).f_coeffs[3]
        report = check_hypotheses_coeffs(fx, fy, 3, 4)
        assert not report.all_pass
        failures = [c for c in report.checks if not c.ok]
        assert len(failures) == 1
        witness = failures[0]
        assert witness.k == 10
        assert math.factorial(10) * witness.fx == 1226400
        assert math.factorial(10) * witness.fy == 1192800


def test_criterion_04_conclusion_grids():
    with criterion(4, "conclusion grids pass over [0,1] and [1,3] at 1e-9", 1.0):
        from sympineq.theorem1 import check_hypotheses_coeffs

        mx, my = gram(SAMPLE_Q), gram(SAMPLE_R)
        sx, sy = spectral_summary(mx, (2,)), spectral_summary(my, (2,))
        hyp = check_hypotheses_coeffs(sx.f_coeffs[2], sy.f_coeffs[2], 2, 4)
        assert hyp.all_pass and hyp.sums_equal
        x, y = RationalVector(sx.eigenvalues()), RationalVector(sy.eigenvalues())
        con = verify_conclusions(x, y, 2, grid_points=101, tol=1e-9,
                                 sums_equal=hyp.sums_equal)
        assert con.low_all_pass
        assert con.high_all_pass
        assert con.low_grid[0].p == 0.0 and con.high_grid[-1].p == 3.0


def test_criterion_05_oracle_equivalence():
    with criterion(5, "fast families equal brute-force oracles on 500 vectors", 60.0):
        rng = random.Random(501)
        for _ in range(500):
            n = rng.randint(1, 4)
            x = random_rational_vector(rng, n, max_numerator=24,
                                       denominator_bound=6)
            for _ in range(2):
                k = rng.randint(0, 8)
                r = rng.randint(1, 3)
                fk = f_kr_all(x, r)
                value = fk[k] if k < len(fk) else Fraction(0)
                assert value == oracle_value("F", x, k, r)
                assert g_kr(x, k, r) == oracle_value("G", x, k, r)
                assert gbar_kr(x, k, r) == oracle_value("Gbar", x, k, r)
                if k >= 1:
                    assert m_kr(x, k, r) == oracle_value("M", x, k, r)


def test_criterion_06_pascal_identity_suite():
    with criterion(6, "subset-power reassembly from Gbar on 100 vectors", 60.0):
        rng = random.Random(602)
        for _ in range(100):
            n = rng.randint(1, 5)
            x = random_rational_vector(rng, n, max_numerator=20,
                                       denominator_bound=5)
            for r in range(1, n + 1):
                for k in range(1, 7):
                    assert m_kr(x, k, r) == m_kr_from_gbar(x, k, r)


def test_criterion_07_schur_direction_suite():
    with criterion(7, "family directions on 200 transfer-generated pairs", 120.0):
        rng = random.Random(703)
        for _ in range(200):
            n = rng.randint(2, 5)
            x, y = t_transform_pair(rng, n)
            assert majorizes(x, y).holds
            for r in range(1, n + 1):
                fx, fy = f_kr_all(x, r), f_kr_all(y, r)
                for k in range(1, min(7, len(fx))):
                    assert fx[k] <= fy[k]
                for k in range(1, 7):
                    assert g_kr(x, k, r) <= g_kr(y, k, r)
                    assert m_kr(x, k, r) >= m_kr(y, k, r)


def test_criterion_08_theorem_as_test_oracle():
    with criterion(8, "zero grid violations on 200 hypothesis-passing pairs", 120.0):
        rng = random.Random(804)
        produced = 0
        while produced < 200:
            n = rng.randint(2, 5)
            x, y = t_transform_pair(rng, n)
            r = rng.randint(1, 3)
            rep = check_hypotheses(x, y, r)
            assert rep.sums_equal
            assert rep.all_pass  # guaranteed for transfer-generated pairs
            con = verify_conclusions(x, y, r, grid_points=101, tol=1e-9)
            assert con.low_all_pass
            assert con.high_all_pass
            produced += 1


def test_criterion_09_mellin_identities():
    with criterion(9, "scaled-transform identities below 1e-6 everywhere", 10.0):
        for a in (0.5, 2.0):
            for r in (1, 2, 3):
                for p in (0.25, 0.5, 0.75):
                    assert identity_check("id1", a, p, r) < 1e-6
                for p in {1.5, (r + 2) / 2}:
                    assert identity_check("id2", a, p, r) < 1e-6
        got = integral_I(1, 0.5).value
        assert abs(got - 2 * math.pi) / (2 * math.pi) < 1e-6


def test_criterion_10_non_majorization_probe():
    with criterion(10, "hypotheses hold for a pair that does not majorize", 5.0):
        x = RationalVector([4, "19/10", "11/10"])
        y = RationalVector([3, 3, 1])
        assert not majorizes(x, y).holds
        for r in (1, 2, 3):
            fx, fy = f_kr_all(x, r), f_kr_all(y, r)
            for k in range(r, 3 * r + 1):
                assert fx[k] <= fy[k]
