from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sympineq.families import f_kr_all
from sympineq.oracles import oracle_value
from sympineq.series import (Catalyst, SeriesTemplate, TruncatedSeries,
                             padded_taylor_template, product_over_vector,
                             subset_power_table, taylor_template, tensor)
from sympineq.vectors import RationalVector


def series(*coeffs):
    return TruncatedSeries(coeffs)


small_vectors = st.lists(
    st.fractions(min_value=0, max_value=6, max_denominator=6),
    min_size=1, max_size=4).map(RationalVector)
entries = st.fractions(min_value=0, max_value=3, max_denominator=4)
# zero entries drawn on purpose: their factor is 1, so they add no degree
entries_with_zeros = st.one_of(st.just(Fraction(0)), entries)


def cauchy_reference(values, coeffs, d):
    """``prod_i sum_j coeffs[j] (values[i] t)^j`` modulo ``t^(d+1)``, one
    Fraction Cauchy product per value."""
    acc = [Fraction(1)] + [Fraction(0)] * d
    for v in values:
        factor = [coeffs[j] * v ** j if j < len(coeffs) else Fraction(0)
                  for j in range(d + 1)]
        acc = [sum((acc[i] * factor[k - i] for i in range(k + 1)), Fraction(0))
               for k in range(d + 1)]
    return tuple(acc)


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
        tpl = taylor_template(r)
        for d in range(top + 1):
            assert product_over_vector(x, tpl, d).coeffs == want[:d + 1]

    @given(st.lists(entries_with_zeros, min_size=1, max_size=3), st.integers(1, 2),
           st.lists(st.one_of(st.just(Fraction(0)),
                              st.fractions(0, Fraction(4, 5), max_denominator=5)),
                    min_size=1, max_size=3))
    @example([Fraction(1, 2), Fraction(3)], 1, [Fraction(0), Fraction(1, 2)])
    def test_padded_against_cauchy_product(self, values, r, extras):
        tpl = padded_taylor_template(r, {r + 1 + j: a for j, a in enumerate(extras)})
        top = len(values) * tpl.degree + 1
        want = cauchy_reference(values, tpl.base_coeffs, top)
        x = RationalVector(values)
        for d in range(top + 1):
            assert product_over_vector(x, tpl, d).coeffs == want[:d + 1]

    @given(st.lists(entries_with_zeros, min_size=1, max_size=3),
           entries_with_zeros, st.integers(1, 2))
    def test_two_entry_catalyst_against_cauchy_product(self, values, c1, r):
        c = Catalyst((Fraction(1), c1))
        tpl = taylor_template(r)
        top = 2 * len(values) * r + 1
        products = [v * cj for v in values for cj in (1, c1)]
        want = cauchy_reference(products, tpl.base_coeffs, top)
        x = RationalVector(values)
        for d in range(top + 1):
            assert product_over_vector(tensor(x, c), tpl, d).coeffs == want[:d + 1]


class TestCatalyst:
    def test_requires_unit_head(self):
        with pytest.raises(ValueError):
            Catalyst((Fraction(2), Fraction(1)))

    def test_trivial_catalyst_matches_plain_product(self):
        x = RationalVector([1, 2, 3])
        tpl = taylor_template(2)
        assert (product_over_vector(tensor(x, Catalyst((Fraction(1),))), tpl, 6)
                == product_over_vector(x, tpl, 6))

    def test_two_entry_catalyst(self):
        x = RationalVector([2])
        c = Catalyst((Fraction(1), Fraction(1, 2)))
        got = product_over_vector(tensor(x, c), taylor_template(1), 2)
        assert got == series(1, 3, 2)  # (1 + 2t)(1 + t)

    def test_doubled_vector(self):
        x = RationalVector([1, 2])
        c = Catalyst((Fraction(1), Fraction(1)))
        got = product_over_vector(tensor(x, c), taylor_template(1), 4)
        assert got == series(1, 6, 13, 12, 4)

    def test_tensor_examples(self):
        x = RationalVector([1, 2])
        assert tensor(x, Catalyst((Fraction(1),))) == x
        assert tensor(x, Catalyst((Fraction(1), Fraction(1, 2)))) == \
            RationalVector(["1", "1/2", "2", "1"])
        zero = RationalVector([0])
        assert tensor(zero, Catalyst((Fraction(1), Fraction(3)))) == \
            RationalVector([0, 0])

    @given(st.data(), st.integers(1, 2))
    def test_catalyst_equals_product_over_tensor(self, data, r):
        # against the brute-force composition sum over the tensor vector,
        # which shares no code with the kernel; tensor length <= 6 and k <= 8
        # keep it inside the oracle's budget
        x = data.draw(st.lists(entries, min_size=1, max_size=3))
        tail = data.draw(st.lists(entries, max_size=6 // len(x) - 1))
        x, c = RationalVector(x), Catalyst(tuple([Fraction(1)] + tail))
        tpl = taylor_template(r)
        assert (product_over_vector(tensor(x, c), tpl).degree_bound
                == len(x) * len(c) * r)
        d = min(8, len(x) * len(c) * r)
        got = product_over_vector(tensor(x, c), tpl, d)
        assert got.coeffs == tuple(oracle_value("F", tensor(x, c), k, r)
                                   for k in range(d + 1))

    @given(small_vectors, st.lists(entries, min_size=0, max_size=2))
    def test_convolution_identity(self, x, tail):
        # with the linear template, the per-entry factor for c_j is the series
        # of elementary values scaled by powers of c_j; the catalyst product is
        # their iterated Cauchy product, done here in plain Fraction lists
        c = Catalyst(tuple([Fraction(1)] + tail))
        d = len(x) * len(c)
        es = f_kr_all(x, 1)
        acc = [Fraction(1)] + [Fraction(0)] * d
        for cj in c.entries:
            factor = [es[m] * cj ** m if m < len(es) else Fraction(0)
                      for m in range(d + 1)]
            acc = [sum((acc[i] * factor[k - i] for i in range(k + 1)),
                       Fraction(0)) for k in range(d + 1)]
        assert tuple(acc) == product_over_vector(tensor(x, c), taylor_template(1),
                                                 d).coeffs


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
        plain = product_over_vector(RationalVector([1, 2]),
                                    SeriesTemplate((1, 1)), 2)
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
