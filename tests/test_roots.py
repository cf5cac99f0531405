import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from sympineq import roots
from sympineq.roots import count_above, rounded_roots
from sympineq.spectral import gram, spectral_summary


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def from_factors(*factors):
    """The product of polynomials given lowest degree first."""
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


def char_poly(matrix):
    return [(-1) ** (len(e) - 1 - j) * e[len(e) - 1 - j].numerator
            for e in [spectral_summary(matrix).e_coeffs]
            for j in range(len(e))]


def reference_roots(q):
    """The roots of q to 80 digits by mpmath, each then rounded to the
    nearest float (mpmath rounds half to even); the zeros are counted off
    the trailing coefficients."""
    zeros = next(i for i, c in enumerate(q) if c)
    rest = q[zeros:]
    with mpmath.workdps(80):
        found = mpmath.polyroots(rest[::-1], maxsteps=500, extraprec=500)
        assert all(abs(mpmath.im(z)) < mpmath.mpf(10) ** -60 for z in found)
        return tuple(sorted([0.0] * zeros + [float(mpmath.re(z)) for z in found]))


def seeded_grams():
    rng = random.Random(2603)
    for n in range(2, 13):
        for _ in range(6):
            q = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            yield n, gram(q)


GRAMS = list(seeded_grams())


class TestCorrectRounding:
    @pytest.mark.parametrize("n, matrix", GRAMS,
                             ids=[f"n{n}-{i % 6}" for i, (n, _) in enumerate(GRAMS)])
    def test_gram_spectra_against_80_digits(self, n, matrix):
        q = char_poly(matrix)
        got = rounded_roots(q)
        assert len(got) == n
        assert got == reference_roots(q)

    @pytest.mark.parametrize("n, matrix", GRAMS[::5])
    def test_the_bisection_alone_gives_the_same_floats(self, monkeypatch, n,
                                                       matrix):
        # the walk's floats against those of the count-only bisection that
        # takes over when the walk stalls
        q = char_poly(matrix)
        walked = rounded_roots(q)
        monkeypatch.setattr(roots, "_walk", lambda q, high: None)
        assert rounded_roots(q) == walked

    def test_the_remaining_spectra_without_the_walk(self, monkeypatch,
                                                    matrix_x, matrix_y):
        # the stall path on the characteristic polynomials that the test
        # above, which takes every fifth Gram product, leaves out
        rest = [m for i, (_, m) in enumerate(GRAMS) if i % 5]
        polys = [char_poly(a) for a in rest + [matrix_x, matrix_y]]
        walked = [rounded_roots(q) for q in polys]
        monkeypatch.setattr(roots, "_walk", lambda q, high: None)
        assert [rounded_roots(q) for q in polys] == walked

    def test_spectral_summary_eigenvalues(self, matrix_x, matrix_y):
        for a in (matrix_x, matrix_y):
            assert (spectral_summary(a).eigenvalues()
                    == reference_roots(char_poly(a)))


class TestHandBuilt:
    def test_a_double_root(self):
        # (x - 1)(x - 3)^2
        assert rounded_roots(from_factors([-1, 1], [-3, 1], [-3, 1])) == (1.0, 3.0, 3.0)

    def test_irrational_double_and_triple_roots(self):
        r2, r3 = math.sqrt(2), math.sqrt(3)  # sqrt is correctly rounded
        assert rounded_roots(from_factors([-2, 0, 1], [-2, 0, 1])) == (-r2, -r2, r2, r2)
        q = from_factors([-3, 0, 1], [-3, 0, 1], [-3, 0, 1], [-1, 1])
        assert rounded_roots(q) == (-r3, -r3, -r3, 1.0, r3, r3, r3)

    def test_a_triple_root_among_simple_ones(self):
        q = from_factors([-2, 1], [-2, 1], [-2, 1], [5, 1], [-7, 1], [-1, 3])
        assert rounded_roots(q) == (-5.0, 1 / 3, 2.0, 2.0, 2.0, 7.0)

    @pytest.mark.parametrize("num, den, want", [
        # 1 + 2^-53 lies halfway between 1 and 1 + 2^-52: even is 1
        (2 ** 53 + 1, 2 ** 53, 1.0),
        # 1 + 3 * 2^-53, halfway between 1 + 2^-52 and 1 + 2^-51
        (2 ** 53 + 3, 2 ** 53, 1 + 2 ** -51),
        # 2 - 2^-53, halfway between 2 - 2^-52 and 2 (a power of two)
        (2 ** 54 - 1, 2 ** 53, 2.0),
        (-(2 ** 53 + 1), 2 ** 53, -1.0),
        # 2^53 + 1, an integer halfway between 2^53 and 2^53 + 2
        (2 ** 53 + 1, 1, 2.0 ** 53),
        (2 ** 53 + 3, 1, 2.0 ** 53 + 4)])
    def test_a_root_on_a_midpoint_rounds_half_to_even(self, num, den, want):
        assert Fraction(num, den) in {
            (Fraction(want) + Fraction(math.nextafter(want, to))) / 2
            for to in (-math.inf, math.inf)}
        q = from_factors([-num, den], [-5, 1], [3, 1])
        assert rounded_roots(q) == tuple(sorted((want, 5.0, -3.0)))

    def test_two_roots_inside_one_ulp_give_the_same_float_twice(self):
        # 1 + 2^-60 and 1 + 2^-59 both round to 1; 3 + 2^-60 rounds to 3
        q = from_factors([-(2 ** 60 + 1), 2 ** 60], [-(2 ** 60 + 2), 2 ** 60],
                         [-(3 * 2 ** 60 + 1), 2 ** 60], [4, 1])
        assert rounded_roots(q) == (-4.0, 1.0, 1.0, 3.0)

    def test_zeros_of_multiplicity_n_minus_rank(self):
        assert rounded_roots([0, 0, 0, 14, -9, 1]) == (0.0, 0.0, 0.0, 2.0, 7.0)
        # a rank-2 Gram product of order 5: three exact zeros
        a = gram([[1, 2, 0], [2, 4, 0], [0, 1, 1], [0, 2, 2], [1, 3, 1]])
        e = spectral_summary(a).e_coeffs
        rank = max(k for k, c in enumerate(e) if c)
        values = spectral_summary(a).eigenvalues()
        assert values[:5 - rank] == (0.0,) * (5 - rank)
        assert min(values[5 - rank:]) > 0
        assert values == reference_roots(char_poly(a))

    def test_a_stalled_walk_hands_over_to_the_counts(self):
        # two roots 1e-12 relative apart: the walk gives up on them, and the
        # count-only bisection finds every root; -q takes the sign flip in
        # the Laguerre-Samuelson bound
        t = 10 ** 12
        q = from_factors([-t, 1], [-t - 1, 1], [-3, 1])
        for poly in (q, [-c for c in q]):
            assert roots._walk(poly, roots._bounds(poly)[1]) is None
            assert rounded_roots(poly) == (3.0, 1e12, 1e12 + 1)
            assert rounded_roots(poly) == reference_roots(poly)

    def test_roots_far_from_1(self):
        # the walk's float sums overflow here; the counts take over
        q = from_factors([-(10 ** 160), 1], [-1, 10 ** 160], [-3, 1])
        assert rounded_roots(q) == (float(Fraction(1, 10 ** 160)), 3.0,
                                    float(10 ** 160))
        with pytest.raises(ValueError):
            rounded_roots([-(10 ** 400), 1])

    def test_linear_and_constant_polynomials(self):
        assert rounded_roots([-1, 3]) == (1 / 3,)
        assert rounded_roots([7]) == ()
        assert rounded_roots([0, 0, 2]) == (0.0, 0.0)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            rounded_roots([1, 0])  # zero leading coefficient
        with pytest.raises(ValueError):
            rounded_roots([1.0, 2])
        with pytest.raises(ValueError):
            rounded_roots([1, 0, 1])  # x^2 + 1: no real root
        with pytest.raises(ValueError):
            count_above([-1, 1], Fraction(1, 3))


# products of linear factors with small dyadic roots, so the roots are
# known exactly and counting them is plain comparison
ROOTS = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=4)
                 .map(lambda f: Fraction(f.numerator, 1 << (f.denominator.bit_length() - 1))),
                 min_size=1, max_size=7)
POINTS = st.fractions(min_value=-9, max_value=9, max_denominator=8).map(
    lambda f: Fraction(f.numerator, 1 << (f.denominator.bit_length() - 1)))


class TestCount:
    @given(ROOTS, st.lists(POINTS, min_size=1, max_size=5))
    def test_count_equals_brute_force(self, known, points):
        q = from_factors(*([-r.numerator, r.denominator] for r in known))
        for x in points + known:
            assert count_above(q, x) == sum(r > x for r in known)
            assert count_above(q, float(x)) == sum(r > x for r in known)

    @given(ROOTS)
    def test_rounded_roots_of_dyadic_roots_are_exact(self, known):
        q = from_factors(*([-r.numerator, r.denominator] for r in known))
        assert rounded_roots(q) == tuple(sorted(map(float, known)))

    def test_count_on_a_gram_spectrum(self, matrix_x):
        q = char_poly(matrix_x)
        values = rounded_roots(q)
        for v in values:
            below, above = math.nextafter(v, -math.inf), math.nextafter(v, math.inf)
            assert count_above(q, below) - count_above(q, above) == values.count(v)
        assert count_above(q, -1) == len(values)
        assert count_above(q, int(sum(values)) + 1) == 0
