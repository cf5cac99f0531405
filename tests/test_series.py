import random
from fractions import Fraction
from math import factorial, lcm, prod
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from sympineq import series as series_module
from sympineq.families import f_kr_all
from sympineq.oracles import oracle_value
from sympineq.series import (TruncatedSeries, product_over_vector,
                             subset_power_table, tensor)
from sympineq.vectors import RationalVector


def series(*coeffs):
    return TruncatedSeries(coeffs)


small_vectors = st.lists(
    st.fractions(min_value=0, max_value=6, max_denominator=6),
    min_size=1, max_size=4).map(RationalVector)
entries = st.fractions(min_value=0, max_value=3, max_denominator=4)
# zero entries drawn on purpose: their factor is 1, so they add no degree
entries_with_zeros = st.one_of(st.just(Fraction(0)), entries)


def cauchy_reference(values, r, d):
    """``prod_i sum_{j<=r} (values[i] t)^j / j!`` modulo ``t^(d+1)``, one
    Fraction Cauchy product per value."""
    acc = [Fraction(1)] + [Fraction(0)] * d
    for v in values:
        factor = [Fraction(v ** j, factorial(j)) if j <= r else Fraction(0)
                  for j in range(d + 1)]
        acc = [sum((acc[i] * factor[k - i] for i in range(k + 1)), Fraction(0))
               for k in range(d + 1)]
    return tuple(acc)


class TestProductOverVector:
    def test_pair_of_ones(self):
        got = product_over_vector(RationalVector([1, 1]), 2, 4)
        assert got == series(1, 2, 2, 1, Fraction(1, 4))

    def test_single_factor(self):
        a = Fraction(5, 3)
        got = product_over_vector(RationalVector([a]), 3, 3)
        assert got == series(1, a, a ** 2 / 2, a ** 3 / 6)

    def test_default_degree_bound(self):
        got = product_over_vector(RationalVector([1, 2]), 2)
        assert got.degree_bound == 4

    @pytest.mark.parametrize("r, d", [(0, None), (0, 3), (-1, None), (-1, -1)])
    def test_order_below_one_raises(self, r, d):
        # before the degree bound is checked
        with pytest.raises(ValueError, match="need r >= 1"):
            product_over_vector(RationalVector([1, 2]), r, d)

    @given(small_vectors, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, x, rnd):
        shuffled = list(x.entries)
        rnd.shuffle(shuffled)
        assert (product_over_vector(x, 2)
                == product_over_vector(RationalVector(shuffled), 2))

    @given(small_vectors)
    def test_leading_coefficients(self, x):
        got = product_over_vector(x, 2)
        assert got.coeffs[:2] == (1, x.total())


class TestKernelEdgeCases:
    # each case runs every degree bound from 0 (below the template degree)
    # to one past the top degree n * deg, where the kernel pads with zeros;
    # a product cut at t^d is the first d + 1 coefficients of the full one

    @given(st.lists(entries_with_zeros, min_size=1, max_size=4), st.integers(1, 3))
    @example([Fraction(5, 3)], 3)
    @example([Fraction(0), Fraction(2), Fraction(0)], 2)
    def test_taylor_against_oracle(self, values, r):
        x = RationalVector(values)
        top = len(x) * r + 1
        want = tuple(oracle_value("F", x, k, r) for k in range(top + 1))
        for d in range(top + 1):
            assert product_over_vector(x, r, d).coeffs == want[:d + 1]

    @given(st.lists(entries_with_zeros, min_size=1, max_size=3),
           entries_with_zeros, st.integers(1, 2))
    def test_two_entry_catalyst_against_cauchy_product(self, values, c1, r):
        c = RationalVector([1, c1])
        top = 2 * len(values) * r + 1
        products = [v * cj for v in values for cj in (1, c1)]
        want = cauchy_reference(products, r, top)
        x = RationalVector(values)
        for d in range(top + 1):
            assert product_over_vector(tensor(x, c), r, d).coeffs == want[:d + 1]


def takes_common_scale(values, r, d):
    """Whether the rule puts ``product_over_vector(values, r, d)`` on the
    common scale rather than on per-entry denominators."""
    return series_module._common_scale(
        [v.denominator for v in values if v],
        series_module._template_integers(r, d), d) is not None


FORCED_SCALINGS = {
    "common": lambda dens, ai, d: lcm(*dens),
    "per-entry": lambda dens, ai, d: None,
}


def under_each_scaling(values, r, d):
    """The coefficients of ``product_over_vector(values, r, d)`` as the rule
    chooses, and with each of the two scalings forced."""
    x = RationalVector(values)
    got = {"rule": product_over_vector(x, r, d).coeffs}
    for name, rule in FORCED_SCALINGS.items():
        with mock.patch.object(series_module, "_common_scale", rule):
            got[name] = product_over_vector(x, r, d).coeffs
    return got


def template_value(r, s):
    """``T_r(s) = sum_{j<=r} s^j / j!``."""
    return sum(Fraction(s ** j, factorial(j)) for j in range(r + 1))


# distinct denominators up to 10^6, one shared denominator, and floats, whose
# lcm is a power of two; the rule sends some of each kind either way
distinct_denominators = st.builds(Fraction, st.integers(0, 10 ** 6),
                                  st.integers(1, 10 ** 6))
shared_denominator = st.integers(1, 10 ** 6).flatmap(
    lambda d: st.lists(st.integers(0, 5 * d).map(lambda k: Fraction(k, d)),
                       min_size=1, max_size=4))
float_entries = st.floats(0, 8, allow_nan=False).map(Fraction)
scaling_vectors = st.one_of(
    st.lists(st.one_of(st.just(Fraction(0)), distinct_denominators),
             min_size=1, max_size=4),
    shared_denominator,
    st.lists(st.one_of(st.just(Fraction(0)), float_entries), min_size=1,
             max_size=4))


class TestScalings:
    # both scalings of product_over_vector, forced and as the rule chooses,
    # against the plain Fraction Cauchy product at every degree bound from 0
    # to one past the top degree

    @settings(max_examples=40, deadline=None)
    @given(scaling_vectors, st.integers(1, 8))
    @example([Fraction(1, 999983), Fraction(2, 999979), Fraction(0)], 3)
    @example([Fraction(5, 6), Fraction(7, 6), Fraction(1, 6)], 8)
    @example([Fraction(0.1), Fraction(2.5)], 2)
    def test_against_cauchy_product(self, values, r):
        values = values[:max(2, 12 // r)]  # the reference is cubic in n r
        top = len(values) * r + 1
        want = cauchy_reference(values, r, top)
        for d in range(top + 1):
            event("common scale" if takes_common_scale(values, r, d)
                  else "per-entry denominators")
            for got in under_each_scaling(values, r, d).values():
                assert got == want[:d + 1]

    @pytest.mark.parametrize("values, r", [
        ([Fraction(k, 6) for k in range(1, 21)], 10),
        ([Fraction(k, 6) for k in range(7, 19)], 20),
    ])
    def test_high_orders_take_per_entry_denominators(self, values, r):
        # over one denominator the common scale's (c L)^k outgrows the
        # per-entry S^n at these orders, so the rule must not take it
        d = len(values) * r
        assert not takes_common_scale(values, r, d)
        got = under_each_scaling(values, r, d)
        assert got["rule"] == got["per-entry"] == got["common"]
        # the coefficients sum to the product of the factors at t = 1
        assert sum(got["rule"]) == prod(template_value(r, v) for v in values)

    def test_the_rule_on_realistic_vectors(self):
        rng = random.Random(7)
        common = {
            "n = 400 over 6": ([Fraction(rng.randint(1, 60), 6)
                                for _ in range(400)], 3),
            "floats": ([Fraction(rng.random() * 10) for _ in range(100)], 3),
            "decimals over 100": ([Fraction(rng.randint(1, 1000), 100)
                                   for _ in range(100)], 3),
            "n = 20 over 6": ([Fraction(rng.randint(1, 60), 6)
                               for _ in range(20)], 3),
        }
        per_entry = {
            "denominators 1..12": ([Fraction(rng.randint(1, 100),
                                             rng.randint(1, 12))
                                    for _ in range(100)], 2),
            "4-digit denominators": ([Fraction(rng.randint(1, 10 ** 4),
                                               rng.randint(1000, 9999))
                                      for _ in range(60)], 3),
            "30-digit denominators": ([Fraction(rng.randint(1, 10 ** 30),
                                                rng.randint(10 ** 29, 10 ** 30))
                                       for _ in range(100)], 3),
        }
        for want, rows in ((True, common), (False, per_entry)):
            for name, (values, r) in rows.items():
                assert takes_common_scale(values, r, len(values) * r) is want, name

    def test_zero_entries_are_left_out(self):
        x = RationalVector([0, Fraction(1, 3), 0])
        assert product_over_vector(x, 2).coeffs == (
            1, Fraction(1, 3), Fraction(1, 18), 0, 0, 0, 0)
        assert product_over_vector(RationalVector([0, 0]), 3, 2).coeffs == (1, 0, 0)

    @pytest.mark.parametrize("r, c", [(1, 1), (2, 2), (3, 6), (4, 6), (5, 30),
                                      (10, 210), (20, 9699690)])
    def test_t_scale_of_the_exponential_template(self, r, c):
        # c^j / j! is an integer for every j <= r, and c / p is not such a
        # scale for any prime p dividing c
        ai = series_module._template_integers(r, r)
        assert series_module._t_scale(ai) == c
        assert all(c ** j % factorial(j) == 0 for j in range(r + 1))
        primes = [p for p in range(2, r + 1) if all(p % q for q in range(2, p))]
        assert prod(primes) == c
        for p in primes:
            assert any((c // p) ** j % factorial(j) for j in range(r + 1))

    @given(st.integers(1, 20), st.integers(0, 24))
    def test_t_scale_makes_the_template_integral(self, r, d):
        # at every degree bound d, the template cut at min(r, d) over deg!
        # and its t-scale c, with every c^j / j! an integer
        ai = series_module._template_integers(r, d)
        deg = min(r, d)
        assert ai == [factorial(deg) // factorial(j) for j in range(deg + 1)]
        c = series_module._t_scale(ai)
        assert all(c ** j % factorial(j) == 0 for j in range(deg + 1))


class TestCatalyst:
    def test_requires_unit_head(self):
        for c in ([2, 1], [0, 1], ["1/2"]):
            with pytest.raises(ValueError, match="a catalyst must start with entry 1"):
                tensor(RationalVector([1, 2]), RationalVector(c))

    def test_trivial_catalyst_matches_plain_product(self):
        x = RationalVector([1, 2, 3])
        assert (product_over_vector(tensor(x, RationalVector([1])), 2, 6)
                == product_over_vector(x, 2, 6))

    def test_two_entry_catalyst(self):
        x = RationalVector([2])
        c = RationalVector([1, Fraction(1, 2)])
        got = product_over_vector(tensor(x, c), 1, 2)
        assert got == series(1, 3, 2)  # (1 + 2t)(1 + t)

    def test_doubled_vector(self):
        x = RationalVector([1, 2])
        got = product_over_vector(tensor(x, RationalVector([1, 1])), 1, 4)
        assert got == series(1, 6, 13, 12, 4)

    def test_tensor_examples(self):
        x = RationalVector([1, 2])
        assert tensor(x, RationalVector([1])) == x
        assert tensor(x, RationalVector([1, "1/2"])) == \
            RationalVector(["1", "1/2", "2", "1"])
        zero = RationalVector([0])
        assert tensor(zero, RationalVector([1, 3])) == RationalVector([0, 0])

    @given(st.data(), st.integers(1, 2))
    def test_catalyst_equals_product_over_tensor(self, data, r):
        # against the brute-force composition sum over the tensor vector,
        # which shares no code with the kernel; tensor length <= 6 and k <= 8
        # keep it inside the oracle's budget
        x = data.draw(st.lists(entries, min_size=1, max_size=3))
        tail = data.draw(st.lists(entries, max_size=6 // len(x) - 1))
        x, c = RationalVector(x), RationalVector([1] + tail)
        assert (product_over_vector(tensor(x, c), r).degree_bound
                == len(x) * len(c) * r)
        d = min(8, len(x) * len(c) * r)
        got = product_over_vector(tensor(x, c), r, d)
        assert got.coeffs == tuple(oracle_value("F", tensor(x, c), k, r)
                                   for k in range(d + 1))

    @given(small_vectors, st.lists(entries, min_size=0, max_size=2))
    def test_convolution_identity(self, x, tail):
        # with the linear template, the per-entry factor for c_j is the series
        # of elementary values scaled by powers of c_j; the catalyst product is
        # their iterated Cauchy product, done here in plain Fraction lists
        c = RationalVector([1] + tail)
        d = len(x) * len(c)
        es = f_kr_all(x, 1)
        acc = [Fraction(1)] + [Fraction(0)] * d
        for cj in c.entries:
            factor = [es[m] * cj ** m if m < len(es) else Fraction(0)
                      for m in range(d + 1)]
            acc = [sum((acc[i] * factor[k - i] for i in range(k + 1)),
                       Fraction(0)) for k in range(d + 1)]
        assert tuple(acc) == product_over_vector(tensor(x, c), 1, d).coeffs


class TestProductTable:
    # over x = (1, 2), row r of prod_i (1 + u e^{x_i t}) in EGF form holds the
    # k-th powers of the r-subset sums: row 1 is 1^k + 2^k, row 2 is 3^k
    def table(self, r_max, k_max=2):
        return subset_power_table(RationalVector([1, 2]), k_max, r_max)

    def test_entries(self):
        tab = self.table(2)
        assert tab.rows == ((1, 0, 0), (2, 3, 5), (1, 3, 9))
        assert (tab.n, tab.denominator, tab.total) == (2, 1, 3)
        # a zero entry contributes 0^0 = 1 at k = 0 only
        zero = subset_power_table(RationalVector([0, 2]), 2, 2)
        assert zero.rows == ((1, 0, 0), (2, 2, 4), (1, 2, 4))

    def test_rows_above_n_are_zero(self):
        tab = self.table(5)
        assert len(tab.rows) == 3
        assert tab.entry(3, 1) == 0 and tab.entry(4, 2) == 0

    def test_cut_rows_are_not_read_as_zero(self):
        tab = self.table(1)
        assert tab.entry(1, 2) == 5
        with pytest.raises(IndexError):
            tab.entry(2, 1)
        with pytest.raises(IndexError):
            tab.entry(-1, 1)

    def test_t_degree_past_the_table_raises(self):
        tab = self.table(5)
        with pytest.raises(IndexError):
            tab.entry(0, 3)
        with pytest.raises(IndexError):
            tab.entry(4, 3)  # a zero row, but past k_max
        plain = product_over_vector(RationalVector([1, 2]), 1, 2)
        assert plain.coeffs == (1, 3, 2)

    def test_shared_denominator(self):
        x = RationalVector([Fraction(1, 2), Fraction(1, 3)])
        own, shared = subset_power_table(x, 3, 2), subset_power_table(x, 3, 2, 12)
        assert own.denominator == 6 and shared.total == 10
        for r in range(3):
            for k in range(4):
                assert shared.entry(r, k) == 2 ** k * own.entry(r, k)
        with pytest.raises(ValueError):
            subset_power_table(x, 3, 2, 4)

    def test_entry_off_the_denominator_raises(self):
        # 1/3 is not a multiple of 1/2, so there is no integer v with x = v/2
        x = RationalVector([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ValueError, match="multiples of 1/2"):
            subset_power_table(x, 2, 1, 2)
        assert subset_power_table(x, 2, 1, 6).rows[1] == (2, 5, 13)

    @pytest.mark.parametrize("k_max, r_max", [(-1, 1), (1, -1)])
    def test_negative_degree_bounds_raise(self, k_max, r_max):
        with pytest.raises(ValueError, match="degree bounds must be nonnegative"):
            subset_power_table(RationalVector([1, 2]), k_max, r_max)

