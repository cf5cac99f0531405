import math
import random
from fractions import Fraction

import pytest

from sympineq.families import f_kr_all
from sympineq.oracles import f_from_matrix_oracle
from sympineq.series import product_over_vector
from sympineq import spectral
from sympineq.spectral import as_int_matrix, gram, spectral_summary
from sympineq.vectors import RationalVector

from conftest import SAMPLE_Q, SAMPLE_R


class TestGram:
    def test_interval_matrix_diagonal(self):
        x = gram(SAMPLE_Q)
        assert tuple(x[i][i] for i in range(4)) == (4, 2, 1, 2)

    def test_identity(self):
        eye = ((1, 0), (0, 1))
        assert gram(eye) == eye

    def test_sign_flips_preserve_the_diagonal(self):
        x, y = gram(SAMPLE_Q), gram(SAMPLE_R)
        assert all(x[i][i] == y[i][i] for i in range(4))

    def test_symmetry(self):
        x = gram(SAMPLE_Q)
        assert all(x[i][j] == x[j][i] for i in range(4) for j in range(4))


class TestDetIPlusT:
    def test_interval_gram(self, matrix_x):
        assert list(spectral_summary(matrix_x).e_coeffs) == [1, 9, 16, 9, 1]

    def test_flipped_gram(self, matrix_y):
        assert list(spectral_summary(matrix_y).e_coeffs) == [1, 9, 20, 9, 1]

    def test_diagonal(self):
        assert list(spectral_summary(((3, 0), (0, 5))).e_coeffs) == [1, 8, 15]

    def test_integer_spectrum_cross_check(self):
        # [[2,1],[1,2]] has spectrum {1, 3}
        coeffs = list(spectral_summary(((2, 1), (1, 2))).e_coeffs)
        assert coeffs == f_kr_all(RationalVector([1, 3]), 1)

    def test_psd_gram_coefficients_are_nonnegative(self):
        rnd = random.Random(7)
        for _ in range(15):
            rows = rnd.randint(1, 4)
            cols = rnd.randint(1, 4)
            q = [[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for c in spectral_summary(gram(q)).e_coeffs:
                assert c >= 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_summary(((1, 2, 3), (4, 5, 6)))


def faddeev_leverrier(a):
    """The coefficients e_0..e_n of det(I + tA) by the Faddeev-LeVerrier
    recurrence, the reference for spectral_summary's e_coeffs: w carries A M_k,
    where M_1 = I and M_{k+1} = A M_k + c_k I; c_k = -tr(A M_k) / k is the
    integer coefficient of the characteristic polynomial, so the division is
    exact, and e_k = (-1)^k c_k."""
    n = len(a)
    coeffs = [1]
    w = [list(row) for row in a]
    for k in range(1, n + 1):
        ck = -sum(w[i][i] for i in range(n)) // k
        coeffs.append(ck if k % 2 == 0 else -ck)
        if k < n:
            for i in range(n):
                w[i][i] += ck
            w = [[sum(x * y for x, y in zip(row, col)) for col in zip(*w)]
                 for row in a]
    return coeffs


def reference_matrix(kind, n, rnd):
    """An n x n integer matrix of the given kind."""
    if kind in ("gram", "singular"):  # from n = 2 a singular one has rank < n
        width = rnd.randint(n, n + 2) if kind == "gram" else max(1, n - 1)
        return gram([[rnd.randint(-3, 3) for _ in range(width)] for _ in range(n)])
    if kind == "indefinite":  # symmetric with a zero diagonal: trace 0
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rnd.randint(-3, 3)
        return a
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    return [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(n)]


class TestCharacteristicPolynomial:
    """spectral_summary's e_coeffs, from the traces of half the matrix powers
    through the order-1 exp step, against the Faddeev-LeVerrier recurrence,
    exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 23, 30])
    @pytest.mark.parametrize("kind", ["gram", "non-symmetric", "indefinite",
                                      "singular", "zero"])
    def test_agrees_with_faddeev_leverrier(self, kind, n):
        rnd = random.Random(n * 31 + len(kind))
        a = reference_matrix(kind, n, rnd)
        assert list(spectral_summary(a).e_coeffs) == faddeev_leverrier(a)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_half_the_matrix_powers(self, monkeypatch, n):
        # A^2..A^ceil(n/2): ceil(n/2) - 1 products per characteristic
        # polynomial, however many orders are asked
        calls = []
        mat_mul = spectral._mat_mul

        def counting(a, b):
            calls.append(len(a))
            return mat_mul(a, b)

        monkeypatch.setattr(spectral, "_mat_mul", counting)
        rnd = random.Random(n)
        spectral_summary(reference_matrix("non-symmetric", n, rnd), (1, 2, 3))
        assert calls == [n] * ((n + 1) // 2 - 1)

    @pytest.mark.parametrize("rs, orders", [((1,), [1]), ((1, 2, 3), [1, 2, 3]),
                                            ((2, 3), [1, 2, 3]),
                                            ((3, 1, 3, 2), [1, 3, 2]), ((), [1])])
    def test_one_exp_step_per_distinct_order(self, monkeypatch, rs, orders):
        # order 1 is det(I + tA) itself, run once for e_coeffs and shared
        calls = []
        f_table = spectral._f_table

        def counting(p, r, deg):
            calls.append(r)
            return f_table(p, r, deg)

        monkeypatch.setattr(spectral, "_f_table", counting)
        a = reference_matrix("non-symmetric", 5, random.Random(3))
        summary = spectral_summary(a, rs)
        assert calls == orders
        assert list(summary.f_coeffs) == list(dict.fromkeys(rs))
        if 1 in rs:
            assert summary.f_coeffs[1] is summary.e_coeffs


class TestFFromMatrix:
    def test_interval_gram_order_two_table(self, matrix_x):
        table = spectral_summary(matrix_x, (2,)).f_coeffs[2]
        assert [math.factorial(k) * table[k] for k in range(2, 9)] == \
            [81, 405, 1524, 4050, 7290, 5670, 2520]

    def test_flipped_gram_order_two_table(self, matrix_y):
        table = spectral_summary(matrix_y, (2,)).f_coeffs[2]
        assert [math.factorial(k) * table[k] for k in range(2, 9)] == \
            [81, 513, 2388, 5130, 7290, 5670, 2520]

    def test_order_three_crossover(self, matrix_x, matrix_y):
        fx = spectral_summary(matrix_x, (3,)).f_coeffs[3]
        fy = spectral_summary(matrix_y, (3,)).f_coeffs[3]
        assert math.factorial(10) * fx[10] == 1226400
        assert math.factorial(10) * fy[10] == 1192800
        assert fx[10] > fy[10]

    def test_order_one_matches_determinant_coefficients(self, matrix_x):
        summary = spectral_summary(matrix_x, (1,))
        assert summary.f_coeffs[1] == summary.e_coeffs

    def test_diagonal_matches_vector_route(self):
        d = ((4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))
        v = RationalVector([4, 2, 1, 2])
        for r in (1, 2, 3):
            assert list(spectral_summary(d, (r,)).f_coeffs[r]) == f_kr_all(v, r)

    def test_leading_coefficients(self, matrix_y):
        table = spectral_summary(matrix_y, (2,)).f_coeffs[2]
        assert table[0] == 1
        assert table[1] == 9  # the trace

    def test_similarity_under_simultaneous_permutation(self):
        rnd = random.Random(3)
        base = [[rnd.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        sym = [[base[i][j] + base[j][i] for j in range(4)] for i in range(4)]
        perm = [2, 0, 3, 1]
        permuted = [[sym[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
        assert (spectral_summary(sym, (2,)).f_coeffs[2]
                == spectral_summary(permuted, (2,)).f_coeffs[2])

    def test_float_eigenvalue_cross_check(self, matrix_x):
        # the rounded spectrum, pushed back through the exact vector route,
        # reproduces the determinant coefficients to float accuracy
        v = RationalVector(spectral_summary(matrix_x).eigenvalues())
        got = product_over_vector(v, 1)
        exact_coeffs = spectral_summary(matrix_x).e_coeffs
        for approx, exact in zip(got.coeffs, exact_coeffs):
            assert float(approx) == pytest.approx(float(exact), abs=1e-9)


def _exact_rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestOracleAgreement:
    """The power-sum route against determinant evaluation at nodes plus
    interpolation (oracles.f_from_matrix_oracle), on integer matrices."""

    def _agree(self, a):
        for r in (1, 2, 3):
            table = list(spectral_summary(a, (r,)).f_coeffs[r])
            assert table == f_from_matrix_oracle(a, r)
            assert len(table) == len(a) * r + 1

    def test_random_gram(self):
        rnd = random.Random(4101)
        for n in range(1, 7):
            width = rnd.randint(n, n + 2)
            q = [[rnd.randint(-3, 3) for _ in range(width)] for _ in range(n)]
            self._agree(gram(q))

    def test_random_non_symmetric(self):
        rnd = random.Random(4102)
        for n in range(1, 7):
            a = [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            self._agree(a)

    def test_indefinite(self):
        # symmetric with a zero diagonal and some nonzero entry: trace 0, so
        # the spectrum has both signs
        rnd = random.Random(4103)
        for n in range(2, 7):
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    a[i][j] = a[j][i] = rnd.randint(-3, 3)
            a[0][1] = a[1][0] = rnd.choice((-2, -1, 1, 2))
            self._agree(a)

    def test_singular_gram_vanishes_above_r_times_rank(self):
        rnd = random.Random(4104)
        for n in range(2, 7):
            width = rnd.randint(1, n - 1)  # rank at most width < n
            q = [[rnd.randint(-3, 3) for _ in range(width)] for _ in range(n)]
            q[0] = [v or 1 for v in q[0]]  # keep the rank positive
            a = gram(q)
            rank = _exact_rank(a)
            assert 1 <= rank < n
            for r in (1, 2, 3):
                table = list(spectral_summary(a, (r,)).f_coeffs[r])
                assert table == f_from_matrix_oracle(a, r)
                assert table[r * rank] != 0
                assert all(c == 0 for c in table[r * rank + 1:])


class TestSummary:
    def test_bundle(self, matrix_x):
        summary = spectral_summary(matrix_x, rs=(1, 2), assume_psd=True)
        assert summary.e_coeffs == (1, 9, 16, 9, 1)
        assert summary.f_coeffs[2][2] == Fraction(81, 2)

    def test_psd_check_rejects_indefinite_input(self):
        indefinite = ((0, 1), (1, 0))  # spectrum {1, -1}
        with pytest.raises(ValueError):
            spectral_summary(indefinite, rs=(1,), assume_psd=True)


class TestValidation:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            as_int_matrix([[1, 2], [3]])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            as_int_matrix([[1.5]])

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            as_int_matrix([[True]])
