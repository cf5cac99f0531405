import json
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, strategies as st

from sympineq.vectors import (RationalVector, log_of_fraction, lp_mean,
                              partial_sums_desc, to_fraction)

from conftest import random_rational_vector, vec


class TestParsing:
    def test_decimal_strings_are_exact(self):
        assert to_fraction("1.9") == Fraction(19, 10)
        assert to_fraction("3/7") == Fraction(3, 7)
        assert to_fraction(4) == Fraction(4)

    def test_float_converts_to_its_exact_value(self):
        assert to_fraction(0.5) == Fraction(1, 2)

    def test_from_json_parses_numbers_exactly(self):
        v = RationalVector.from_json('["3/7", 1.9, 4]')
        assert v.entries == (Fraction(3, 7), Fraction(19, 10), Fraction(4))

    def test_from_json_rejects_non_arrays(self):
        with pytest.raises(ValueError):
            RationalVector.from_json('{"a": 1}')

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            vec(1, -1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RationalVector([])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_rejected(self, value):
        with pytest.raises(ValueError):
            to_fraction(value)
        with pytest.raises(ValueError):
            RationalVector([1, value])
        with pytest.raises(ValueError):
            RationalVector.from_json(f"[1, {json.dumps(value)}]")


class TestLpMean:
    def test_arithmetic_mean(self):
        assert lp_mean(vec(1, 2, 3), 1) == pytest.approx(2.0, abs=1e-15)

    def test_negative_p_with_zero_entry_is_zero(self):
        assert lp_mean(vec(0, 2), -1) == 0.0

    def test_harmonic_mean(self):
        assert lp_mean(vec(2, 8), -1) == pytest.approx(3.2, rel=1e-14)

    def test_geometric_mean(self):
        assert lp_mean(vec(4, 9), 0) == pytest.approx(6.0, rel=1e-14)

    def test_geometric_mean_with_zero_is_exact_zero(self):
        assert lp_mean(vec(0, 5), 0) == 0.0

    def test_infinite_exponents(self):
        x = vec("1/3", 7, 2)
        assert lp_mean(x, math.inf) == 7.0
        assert lp_mean(x, -math.inf) == pytest.approx(1 / 3, rel=1e-15)

    def test_monotone_in_p(self, rng):
        grid = [i / 2 for i in range(-8, 9)]
        for _ in range(20):
            x = random_rational_vector(rng, rng.randint(1, 5))
            values = [lp_mean(x, p) for p in grid]
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-12

    def test_positive_homogeneity(self, rng):
        exponents = [-math.inf, -2, -1, 0, 0.5, 1, 3, math.inf]
        for _ in range(20):
            x = random_rational_vector(rng, rng.randint(1, 5))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for p in exponents:
                lhs = lp_mean(RationalVector(e * c for e in x.entries), p)
                rhs = float(c) * lp_mean(x, p)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_continuity_at_zero_small_spread(self):
        # entries close together keep the first-order term below the tolerance
        x = vec("1.01", 1, "0.99")
        for p in (1e-4, -1e-4):
            assert abs(lp_mean(x, p) - lp_mean(x, 0)) <= 1e-6

    def test_continuity_at_zero_decays_linearly(self):
        # for spread-out entries the gap at p is first order in p
        x = vec(1, 2, 3)
        gaps = [abs(lp_mean(x, p) - lp_mean(x, 0)) for p in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-4


# entries whose powers leave the normal float range at the default norms
# exponents, and the theorem1 pair whose high grid overflows
EXTREME_VECTORS = [["1e160", "1"], ["1e-160", "1"], ["1e-400", "1"],
                   ["1e-170", "3e-170"], ["1e200", "3e199", "1"],
                   ["9e199", "4e199", "1"]]
NORMS_EXPONENTS = (-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf)


def mp_lp_mean(entries, p):
    """The lp mean in 50-digit arithmetic, rounded to a float."""
    with mp.workdps(50):
        xs = [mp.mpf(e.numerator) / e.denominator for e in entries]
        if math.isinf(p):
            return float(max(xs) if p > 0 else min(xs))
        if p == 0:
            return float(mp.exp(mp.fsum(mp.log(v) for v in xs) / len(xs)))
        return float((mp.fsum(v ** p for v in xs) / len(xs)) ** (1 / mp.mpf(p)))


class TestExtremeEntries:
    @pytest.mark.parametrize("values", EXTREME_VECTORS, ids=str)
    @pytest.mark.parametrize("p", NORMS_EXPONENTS)
    def test_against_a_50_digit_reference(self, values, p):
        x = RationalVector(values)
        want = mp_lp_mean(x.entries, p)
        assert lp_mean(x, p) == pytest.approx(want, rel=1e-12, abs=0)

    # an entry beyond the float range: the mean may lie inside it (1e309 with
    # nine ones at p = 0.5 is about 1e307) or beyond it (p = 1, or 2e400 x 2)
    @pytest.mark.parametrize("values", [["1e309"] + ["1"] * 9, ["1e400", "1"],
                                        ["1e400", "2e400"]], ids=str)
    @pytest.mark.parametrize("p", NORMS_EXPONENTS + (0.01,))
    def test_entries_beyond_the_float_range(self, values, p):
        x = RationalVector(values)
        want = mp_lp_mean(x.entries, p)
        if math.isinf(want):
            with pytest.raises(ValueError, match=f"^the lp mean at p={p} is "
                                                 "beyond the float range$"):
                lp_mean(x, p)
        else:
            assert lp_mean(x, p) == pytest.approx(want, rel=1e-12, abs=0)


def mp_log_space_mean(entries, p):
    """The lp mean in 50-digit arithmetic, rounded to a float, from the
    ratios to the dominant entry m: ``m exp(log1p(mean) / p)`` with the mean
    of ``expm1(p log(e / m))``.  The plain power formula rounds to 1 at tiny
    p even in 50 digits."""
    with mp.workdps(50):
        xs = [mp.mpf(e.numerator) / e.denominator for e in entries]
        if math.isinf(p):
            return float(max(xs) if p > 0 else min(xs))
        if p <= 0 and min(xs) == 0:
            return 0.0
        if p == 0:
            return float(mp.exp(mp.fsum(mp.log(v) for v in xs) / len(xs)))
        m = max(xs) if p > 0 else min(xs)
        mean = mp.fsum(mp.expm1(p * mp.log(v / m)) if v else -1 for v in xs) / len(xs)
        return float(m * mp.exp(mp.log1p(mean) / p))


# the vectors above, spreads of 600 and 800 orders of magnitude, zero
# entries, and an entry whose float is subnormal
LOG_SPACE_VECTORS = EXTREME_VECTORS + [
    ["1e309"] + ["1"] * 9, ["1e400", "1"], ["1e400", "2e400"],
    ["1e300", "1e-300"], ["1/3", "1/6", "5", "7/2"], ["0", "2", "3"], [2, 8],
    ["1e-400", "1e400"], ["0", "1e400"], ["1e-323", "1"]]
# 2^-511 is just above the exponents whose mean is the geometric mean
SMALL_AND_LARGE_EXPONENTS = [sign * p for p in (2, 1, 0.5, 0.01, 0.002, 0.001,
                                                1e-6, 1e-12, 2.0 ** -511, 1e-300,
                                                5e-324)
                             for sign in (1, -1)]


class TestLogSpaceReference:
    @pytest.mark.parametrize("values", LOG_SPACE_VECTORS, ids=str)
    @pytest.mark.parametrize("p", SMALL_AND_LARGE_EXPONENTS)
    def test_within_1e_12(self, values, p):
        x = RationalVector(values)
        want = mp_log_space_mean(x.entries, p)
        if math.isinf(want):
            with pytest.raises(ValueError, match=f"^the lp mean at p={p} is "
                                                 "beyond the float range$"):
                lp_mean(x, p)
        else:
            assert lp_mean(x, p) == pytest.approx(want, rel=1e-12, abs=0)


# one entry's power dominates the rest, so 1 + mean is near 1/n: log1p of
# the rounded mean would lose about n 2^-53 / |p| relative
DOMINATED_VECTORS = [["1e400"] + ["1e-498"] * 99,
                     ["1e400"] + [f"{100 + k}e-500" for k in range(99)]]


@pytest.mark.parametrize("values", DOMINATED_VECTORS, ids=["equal", "spread"])
@pytest.mark.parametrize("p", [0.005, 0.004])
def test_a_dominant_power_keeps_the_log_space_reference(values, p):
    x = RationalVector(values)
    want = mp_log_space_mean(x.entries, p)
    assert lp_mean(x, p) == pytest.approx(want, rel=1e-12, abs=0)


def uncached_lp_mean(x, p):
    """lp_mean with every entry converted to float at every call."""
    entries = x.entries
    n = len(entries)
    if math.isinf(p):
        return float(max(entries) if p > 0 else min(entries))
    if p == 0:
        if 0 in entries:
            return 0.0
        return math.exp(math.fsum(log_of_fraction(e) for e in entries) / n)
    if p < 0 and 0 in entries:
        return 0.0
    return (math.fsum(float(e) ** p for e in entries) / n) ** (1.0 / p)


def bits(values):
    return [v.hex() for v in values]


float_cache_vectors = st.lists(
    st.one_of(st.just(Fraction(0)),
              st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4)),
    min_size=1, max_size=8)
EXPONENTS = (-2.0, -0.5, 0.0, 0.37, 1.0, 2.5, math.inf, -math.inf)


class TestFloatCache:
    @given(float_cache_vectors)
    def test_same_bits_as_uncached(self, values):
        x = RationalVector(values)
        want = bits(uncached_lp_mean(RationalVector(values), p) for p in EXPONENTS)
        assert bits(lp_mean(x, p) for p in EXPONENTS) == want
        assert bits(lp_mean(x, p) for p in EXPONENTS) == want  # from the cache

    @given(float_cache_vectors)
    def test_filled_cache_keeps_equality_and_hash(self, values):
        x = RationalVector(values)
        floats = x.to_floats()
        assert floats == tuple(float(e) for e in values)
        assert x.to_floats() is floats
        fresh = RationalVector(values)
        assert x == fresh and fresh == x
        assert hash(x) == hash(fresh)
        assert {fresh: "kept"}[x] == "kept"

    @pytest.mark.parametrize("values", [["1e400", "1"], ["1e-400", "1"],
                                        ["1e-310", "1"], ["5e-324", "0"]],
                             ids=str)
    def test_an_entry_without_a_normal_float_raises(self, values):
        with pytest.raises(OverflowError):
            RationalVector(values).to_floats()

    def test_zeros_and_the_smallest_normal_float_convert(self):
        x = RationalVector([0, sys.float_info.min, "1e308"])
        assert x.to_floats() == (0.0, sys.float_info.min, 1e308)


# the positive exponents of the theorem1 grids at the default 101 points,
# r = 1..3, computed as verify_conclusions computes them
GRID_EXPONENTS = sorted({start + i * width / 100
                         for start, widths in ((0.0, (1,)), (1.0, (1, 2, 3)))
                         for width in widths for i in range(101)} - {0.0})
# zero entries, mixed denominators, and at times one entry 1e300, whose
# powers above p = 1.03 leave the float range
lp_vectors = st.tuples(float_cache_vectors, st.booleans()).map(
    lambda t: t[0] + [Fraction(10 ** 300)] if t[1] else t[0])


def inline_mean_pow(values, p):
    """The mean of the powers as every lp mean at p > 0 once took it inline."""
    floats = [float(e) for e in values]
    try:
        return math.fsum([f ** p for f in floats]) / len(floats)
    except OverflowError:
        return math.inf


class TestPositiveExponentBits:
    @given(lp_vectors, st.one_of(st.sampled_from(GRID_EXPONENTS),
                                 st.floats(min_value=1e-3, max_value=100)))
    @example([Fraction(0), Fraction(1, 3), Fraction(10 ** 300)], 2.0)
    @example([Fraction(0), Fraction(1, 10 ** 4)], 100.0)
    @example([Fraction(0)], 0.5)
    def test_the_inline_formula_while_its_mean_is_normal(self, values, p):
        x = RationalVector(values)
        mean_pow = inline_mean_pow(values, p)
        if sys.float_info.min <= mean_pow < math.inf:
            assert lp_mean(x, p).hex() == (mean_pow ** (1 / p)).hex()
        else:  # the rescaling by the largest entry
            want = mp_lp_mean(x.entries, p)
            assert lp_mean(x, p) == pytest.approx(want, rel=1e-12, abs=0)


class TestPartialSums:
    def test_sorted_input(self):
        assert partial_sums_desc(vec(3, 1)) == (Fraction(3), Fraction(4))

    def test_order_free(self):
        assert partial_sums_desc(vec(1, 3)) == (Fraction(3), Fraction(4))

    def test_four_entries(self):
        assert partial_sums_desc(vec(4, 2, 1, 2)) == (
            Fraction(4), Fraction(6), Fraction(8), Fraction(9))

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_permutation_invariant_and_monotone(self, values, rnd):
        x = RationalVector(values)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        sums = partial_sums_desc(x)
        assert sums == partial_sums_desc(RationalVector(shuffled))
        assert all(a <= b for a, b in zip(sums, sums[1:]))
        assert sums[-1] == x.total()


def test_log_of_a_nonpositive_rational_raises():
    with pytest.raises(ValueError, match="log of a nonpositive rational"):
        log_of_fraction(Fraction(0))
