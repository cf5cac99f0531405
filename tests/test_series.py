from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sympineq.families import elementary_all
from sympineq.series import (Catalyst, TruncatedSeries, catalyst_product,
                             padded_taylor_template, product_over_vector,
                             product_table, series_mul, subset_power_table,
                             substitute_scale, taylor_template, tensor)
from sympineq.vectors import RationalVector


def series(*coeffs):
    return TruncatedSeries(coeffs)


small_vectors = st.lists(
    st.fractions(min_value=0, max_value=6, max_denominator=6),
    min_size=1, max_size=4).map(RationalVector)


class TestSeriesMul:
    def test_square_of_one_plus_t(self):
        assert series_mul(series(1, 1, 0), series(1, 1, 0)) == series(1, 2, 1)

    def test_truncation(self):
        assert series_mul(series(1, 1), series(1, 1)) == series(1, 2)

    def test_hand_expansion(self):
        a = series(1, 1, Fraction(1, 2), 0, 0)
        assert series_mul(a, a) == series(1, 2, 2, 1, Fraction(1, 4))

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            series_mul(series(1, 1), series(1, 1, 0))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    def test_commutative(self, a, b):
        d = max(len(a), len(b))
        a += [0] * (d - len(a))
        b += [0] * (d - len(b))
        sa, sb = TruncatedSeries(a), TruncatedSeries(b)
        assert series_mul(sa, sb) == series_mul(sb, sa)


class TestSubstituteScale:
    def test_taylor_order_two(self):
        got = substitute_scale(taylor_template(2), 2, 3)
        assert got == series(1, 2, 2, 0)

    def test_zero_scale_is_identity(self):
        got = substitute_scale(taylor_template(3), 0, 4)
        assert got == TruncatedSeries.one(4)

    def test_taylor_order_one(self):
        assert substitute_scale(taylor_template(1), 3, 2) == series(1, 3, 0)


class TestProductOverVector:
    def test_pair_of_ones(self):
        got = product_over_vector(RationalVector([1, 1]), taylor_template(2), 4)
        assert got == series(1, 2, 2, 1, Fraction(1, 4))

    def test_single_factor(self):
        a = Fraction(5, 3)
        got = product_over_vector(RationalVector([a]), taylor_template(3), 3)
        assert got == series(1, a, a ** 2 / 2, a ** 3 / 6)

    def test_default_degree_bound(self):
        got = product_over_vector(RationalVector([1, 2]), taylor_template(2))
        assert got.degree_bound == 4

    @given(small_vectors, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, x, rnd):
        shuffled = list(x.entries)
        rnd.shuffle(shuffled)
        tpl = taylor_template(2)
        assert (product_over_vector(x, tpl)
                == product_over_vector(RationalVector(shuffled), tpl))

    @given(small_vectors)
    def test_leading_coefficients(self, x):
        got = product_over_vector(x, taylor_template(2))
        assert got.coefficient(0) == 1
        assert got.coefficient(1) == x.total()


class TestCatalyst:
    def test_requires_unit_head(self):
        with pytest.raises(ValueError):
            Catalyst((Fraction(2), Fraction(1)))

    def test_trivial_catalyst_matches_plain_product(self):
        x = RationalVector([1, 2, 3])
        tpl = taylor_template(2)
        assert (catalyst_product(x, Catalyst((Fraction(1),)), tpl, 6)
                == product_over_vector(x, tpl, 6))

    def test_two_entry_catalyst(self):
        x = RationalVector([2])
        c = Catalyst((Fraction(1), Fraction(1, 2)))
        got = catalyst_product(x, c, taylor_template(1), 2)
        assert got == series(1, 3, 2)  # (1 + 2t)(1 + t)

    def test_doubled_vector(self):
        x = RationalVector([1, 2])
        c = Catalyst((Fraction(1), Fraction(1)))
        got = catalyst_product(x, c, taylor_template(1), 4)
        assert got == series(1, 6, 13, 12, 4)

    def test_tensor_examples(self):
        x = RationalVector([1, 2])
        assert tensor(x, Catalyst((Fraction(1),))) == x
        assert tensor(x, Catalyst((Fraction(1), Fraction(1, 2)))) == \
            RationalVector(["1", "1/2", "2", "1"])
        zero = RationalVector([0])
        assert tensor(zero, Catalyst((Fraction(1), Fraction(3)))) == \
            RationalVector([0, 0])

    @given(small_vectors,
           st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4),
                    min_size=0, max_size=2))
    def test_catalyst_equals_product_over_tensor(self, x, tail):
        c = Catalyst(tuple([Fraction(1)] + tail))
        tpl = taylor_template(2)
        d = len(x) * len(c) * 2
        got = catalyst_product(x, c, tpl, d)
        assert got == product_over_vector(tensor(x, c), tpl, d)
        # the same product in Fraction arithmetic, without the integer kernel
        flat = TruncatedSeries.one(d)
        for e in tensor(x, c).entries:
            flat = series_mul(flat, substitute_scale(tpl, e, d))
        assert got == flat

    @given(small_vectors,
           st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4),
                    min_size=0, max_size=2))
    def test_convolution_identity(self, x, tail):
        # with the linear template, the per-entry factor for c_j is the series
        # of elementary values scaled by powers of c_j; the catalyst product is
        # their iterated Cauchy product
        c = Catalyst(tuple([Fraction(1)] + tail))
        d = len(x) * len(c)
        es = elementary_all(x)
        acc = TruncatedSeries.one(d)
        for cj in c.entries:
            coeffs = [(es[m] * cj ** m if m < len(es) else Fraction(0))
                      for m in range(d + 1)]
            acc = series_mul(acc, TruncatedSeries(coeffs))
        assert acc == catalyst_product(x, c, taylor_template(1), d)


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
        plain = product_table(RationalVector([1, 2]), (1, 1), 2)
        assert plain.coeffs == (1, 3, 2)
        with pytest.raises(IndexError):
            plain.coefficient(3)

    def test_shared_denominator(self):
        x = RationalVector([Fraction(1, 2), Fraction(1, 3)])
        own, shared = subset_power_table(x, 3, 2), subset_power_table(x, 3, 2, 12)
        assert own.denominator == 6 and shared.total == 10
        for r in range(3):
            for k in range(4):
                assert shared.entry(r, k) == 2 ** k * own.entry(r, k)
        with pytest.raises(ValueError):
            subset_power_table(x, 3, 2, 4)


class TestPaddedTemplate:
    def test_padding_extends_the_template(self):
        tpl = padded_taylor_template(2, {3: Fraction(1, 2)})
        assert tpl.degree == 3
        assert tpl.base_coeffs[3] == Fraction(1, 12)  # (1/2) / 3!

    def test_padding_must_stay_below_one(self):
        with pytest.raises(ValueError):
            padded_taylor_template(2, {3: 1})

    def test_padding_below_order_rejected(self):
        with pytest.raises(ValueError):
            padded_taylor_template(2, {2: Fraction(1, 2)})
