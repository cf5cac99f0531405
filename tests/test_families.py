import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sympineq import families, series
from sympineq.families import (f_kr_all, g_kr, gbar_kr, gbar_numerators,
                               grad_f_kr, m_kr)
from sympineq.majorize import t_transform_pair
from sympineq.oracles import (IndexSet, h_s,
                              is_schur_concave_index_set, max_part_index_set,
                              min_support_index_set, oracle_value)
from sympineq.series import subset_power_table
from sympineq.vectors import RationalVector

from conftest import binom_ext, m_kr_from_gbar, random_rational_vector


def vec(*entries):
    return RationalVector(entries)


small_vectors = st.lists(
    st.fractions(min_value=0, max_value=8, max_denominator=6),
    min_size=1, max_size=4).map(RationalVector)


class TestElementary:
    def test_one_two_three(self):
        assert f_kr_all(vec(1, 2, 3), 1) == [1, 6, 11, 6]

    def test_all_ones_gives_binomials(self):
        assert f_kr_all(vec(1, 1, 1, 1), 1) == [1, 4, 6, 4, 1]


class TestFFamily:
    def test_pair_of_ones(self):
        assert f_kr_all(vec(1, 1), 2) == [1, 2, 2, 1, Fraction(1, 4)]

    def test_oracle_agreement_small_grid(self, rng):
        for _ in range(25):
            x = random_rational_vector(rng, rng.randint(1, 3), max_numerator=12)
            r = rng.randint(1, 3)
            table = f_kr_all(x, r)
            for k in range(min(len(table), 7)):
                assert table[k] == oracle_value("F", x, k, r)

    def test_low_degree_closed_form(self, rng):
        for _ in range(10):
            x = random_rational_vector(rng, rng.randint(1, 4))
            r = rng.randint(1, 4)
            table = f_kr_all(x, r)
            for k in range(min(r, len(x) * r) + 1):
                assert table[k] == x.total() ** k / math.factorial(k)


def assert_closed_forms(x, r):
    """The lowest and highest degrees of the F product in closed form:
    F_{k,r} = E_1^k / k! for k <= r, F_{r+1,r} = (E_1^{r+1} - sum_i
    x_i^{r+1}) / (r+1)!, and F_{nr,r} = E_n^r / (r!)^n."""
    n = len(x)
    table = f_kr_all(x, r)
    e1 = x.total()
    for k in range(r + 1):
        assert table[k] == e1 ** k / math.factorial(k)
    power_sum = sum((e ** (r + 1) for e in x.entries), Fraction(0))
    value_rp1 = table[r + 1] if n > 1 else 0  # past the top degree when n = 1
    assert value_rp1 == (e1 ** (r + 1) - power_sum) / math.factorial(r + 1)
    en = math.prod(x.entries, start=Fraction(1))
    assert table[n * r] == en ** r / Fraction(math.factorial(r)) ** n


class TestSpecialIdentities:
    def test_pair_of_ones(self):
        assert_closed_forms(vec(1, 1), 2)

    def test_always_hold(self, rng):
        for _ in range(30):
            x = random_rational_vector(rng, rng.randint(1, 4))
            assert_closed_forms(x, rng.randint(1, 3))


class TestGFamily:
    def test_pair_of_ones(self):
        assert g_kr(vec(1, 1), 2, 2) == 1
        assert gbar_kr(vec(1, 1), 2, 2) == 1

    def test_degree_below_order_is_zero(self):
        assert g_kr(vec(1, 1), 1, 2) == 0

    def test_order_one_complement_is_zero(self, rng):
        for _ in range(10):
            x = random_rational_vector(rng, rng.randint(1, 4))
            assert gbar_kr(x, rng.randint(1, 5), 1) == 0

    def test_complement_identity(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            x = random_rational_vector(rng, n)
            k, r = rng.randint(0, 6), rng.randint(1, n + 1)
            total = x.total() ** k / math.factorial(k)
            assert g_kr(x, k, r) + gbar_kr(x, k, r) == total

    def test_oracle_agreement(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            x = random_rational_vector(rng, n, max_numerator=12)
            k, r = rng.randint(0, 5), rng.randint(1, n + 1)
            assert g_kr(x, k, r) == oracle_value("G", x, k, r)
            assert gbar_kr(x, k, r) == oracle_value("Gbar", x, k, r)

    def test_exactly_supported_slice(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            x = random_rational_vector(rng, n)
            k, r = rng.randint(0, 6), rng.randint(1, n)
            delta = gbar_kr(x, k, r + 1) - gbar_kr(x, k, r)
            assert delta == (oracle_value("Gbar", x, k, r + 1)
                             - oracle_value("Gbar", x, k, r))
            assert delta >= 0

    def test_binomial_transform_needs_the_rows_below_r(self):
        x = vec(1, 2, 3, 4)
        table = subset_power_table(x, 4, 1)
        assert gbar_numerators(table, 2)[3] == math.factorial(3) * gbar_kr(x, 3, 2)
        with pytest.raises(IndexError):
            gbar_numerators(table, 3)
        # r > n: every term counts, whatever rows the table holds
        assert gbar_numerators(table, 5) == [10 ** k for k in range(5)]


class TestMFamily:
    def test_pairs_of_three(self):
        assert m_kr(vec(1, 2, 3), 2, 2) == 50

    def test_empty_sum(self):
        assert m_kr(vec(1, 2, 3), 4, 5) == 0

    def test_oracle_agreement(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            x = random_rational_vector(rng, n)
            k, r = rng.randint(1, 6), rng.randint(1, n + 1)
            assert m_kr(x, k, r) == oracle_value("M", x, k, r)

    def test_gbar_reassembly(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            x = random_rational_vector(rng, n)
            k, r = rng.randint(1, 6), rng.randint(1, n)
            assert m_kr(x, k, r) == m_kr_from_gbar(x, k, r)


class TestBinomialConventions:
    def test_zero_lower_index(self):
        assert binom_ext(-1, 0) == 1
        assert binom_ext(5, 0) == 1

    def test_out_of_range(self):
        assert binom_ext(3, 5) == 0
        assert binom_ext(3, -1) == 0

    def test_negative_upper_with_positive_lower_asserts(self):
        with pytest.raises(AssertionError):
            binom_ext(-2, 1)


class TestGenericFamily:
    def test_max_part_set_reproduces_f(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            x = random_rational_vector(rng, n, max_numerator=10)
            k, r = rng.randint(0, 5), rng.randint(1, 3)
            table = f_kr_all(x, r)
            expected = table[k] if k < len(table) else 0  # zero above n r
            assert h_s(x, max_part_index_set(n, k, r)) == expected

    def test_min_support_set_reproduces_g(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            x = random_rational_vector(rng, n, max_numerator=10)
            k, r = rng.randint(0, 5), rng.randint(1, n + 1)
            assert h_s(x, min_support_index_set(n, k, r)) == g_kr(x, k, r)

    def test_full_set_gives_multinomial_total(self, rng):
        x = random_rational_vector(rng, 3)
        k = 4
        idx = IndexSet(3, k, lambda p: True)
        assert h_s(x, idx) == x.total() ** k / math.factorial(k)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            h_s(vec(1, 2), max_part_index_set(3, 2, 1))


class TestSchurConcaveIndexSets:
    def test_max_part_sets(self):
        for n, k, r in [(2, 2, 1), (3, 4, 2), (4, 5, 3)]:
            ok, witness = is_schur_concave_index_set(max_part_index_set(n, k, r))
            assert ok and witness is None

    def test_min_support_sets(self):
        for n, k, r in [(2, 2, 2), (3, 4, 2), (4, 5, 3)]:
            ok, witness = is_schur_concave_index_set(min_support_index_set(n, k, r))
            assert ok and witness is None

    def test_top_heavy_set_fails_with_witness(self):
        idx = IndexSet(2, 2, lambda p: max(p) == 2)
        ok, witness = is_schur_concave_index_set(idx)
        assert not ok
        p, q = witness
        assert sorted(p, reverse=True) == [2, 0]
        assert sorted(q, reverse=True) == [1, 1]

    def test_asymmetric_membership_rejected(self):
        idx = IndexSet(2, 2, lambda p: p[0] == 2)
        with pytest.raises(ValueError):
            is_schur_concave_index_set(idx)


class TestGradients:
    def test_order_two_values_at_ones(self):
        x = vec(1, 1)
        assert grad_f_kr(x, 2, 2) == (2, 2)
        assert grad_f_kr(x, 2, 3) == (Fraction(3, 2), Fraction(3, 2))

    def test_elementary_gradient(self):
        assert grad_f_kr(vec(1, 2, 3), 1, 2) == (5, 4, 3)

    def test_degree_zero_and_one(self):
        x = vec(2, 3, 5)
        assert grad_f_kr(x, 2, 0) == (0, 0, 0)
        assert grad_f_kr(x, 2, 1) == (1, 1, 1)

    def test_against_central_differences(self, rng):
        h = 1e-4

        def value(xs, i, v, k, r):
            moved = list(xs)
            moved[i] = v
            return float(f_kr_all(RationalVector(moved), r)[k])

        for _ in range(15):
            n = rng.randint(1, 4)
            x = random_rational_vector(rng, n, max_numerator=9,
                                       denominator_bound=3)
            r = rng.randint(1, 3)
            k = rng.randint(1, n * r)
            grad = grad_f_kr(x, r, k)
            xs = x.to_floats()
            for i in range(n):
                step = h * max(1.0, abs(xs[i]))
                if xs[i] - step < 0:
                    # second-order one-sided stencil at the orthant boundary
                    f0 = value(xs, i, xs[i], k, r)
                    f1 = value(xs, i, xs[i] + step, k, r)
                    f2 = value(xs, i, xs[i] + 2 * step, k, r)
                    fd = (-3 * f0 + 4 * f1 - f2) / (2 * step)
                else:
                    fd = (value(xs, i, xs[i] + step, k, r)
                          - value(xs, i, xs[i] - step, k, r)) / (2 * step)
                assert float(grad[i]) == pytest.approx(
                    fd, rel=1e-6, abs=1e-6 * max(1.0, abs(fd)))

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            grad_f_kr(vec(1, 1), 2, 5)

    def test_matches_oracle_identity(self, rng):
        # T_r'(s) = T_r(s) - s^r / r!, so
        # dF_{k,r}/dx_i = F_{k-1,r}(x) - x_i^r / r! * F_{k-1-r,r}(x without i),
        # with every F from the brute-force composition sum
        def f(entries, k, r):
            if k < 0:
                return 0
            if not entries:  # the empty product is 1
                return Fraction(int(k == 0))
            return oracle_value("F", RationalVector(entries), k, r)

        for _ in range(40):
            n = rng.randint(1, 4)
            x = random_rational_vector(rng, n, max_numerator=9,
                                       denominator_bound=4)
            r = rng.randint(1, 3)
            for k in range(1, min(n * r, 8) + 1):
                expected = tuple(
                    f(x.entries, k - 1, r) - xi ** r / math.factorial(r)
                    * f(x.entries[:i] + x.entries[i + 1:], k - 1 - r, r)
                    for i, xi in enumerate(x.entries))
                assert grad_f_kr(x, r, k) == expected

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_euler_identity_at_forty(self, rng, r):
        # F_{k,r} is homogeneous of degree k: sum_i x_i dF/dx_i = k F
        x = random_rational_vector(rng, 40, max_numerator=20,
                                   denominator_bound=6)
        for k in (1, 7, 40):
            grad = grad_f_kr(x, r, k)
            assert sum(xi * g for xi, g in zip(x.entries, grad)) == \
                k * f_kr_all(x, r)[k]

    def test_one_product_per_call(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return series.product_over_vector(*args, **kwargs)

        monkeypatch.setattr(families, "product_over_vector", counting)
        distinct, repeated = vec(*range(1, 7)), vec(1, 1, 2, 2, 2, 5)
        for x in (distinct, repeated):
            for k in (1, 3, 4, 9, 18):  # k <= r shares one value; k > r divides
                built.clear()
                grad_f_kr(x, 3, k)
                assert len(built) == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_division_against_products_without_the_entry(self, rng, r):
        # F_{k-1-r,r}(x without i), here from a product over the other n - 1
        # entries, against the gradient that divides it out of the one product
        x = random_rational_vector(rng, 40, max_numerator=20,
                                   denominator_bound=6)
        tpl = series.taylor_template(r)
        for k in sorted({r + 1, 20, 40}):
            shared = f_kr_all(x, r)[k - 1]
            expected = tuple(
                shared - xi ** r / math.factorial(r) * series.product_over_vector(
                    RationalVector(x.entries[:i] + x.entries[i + 1:]), tpl,
                    k - 1 - r).coeffs[-1]
                for i, xi in enumerate(x.entries))
            assert grad_f_kr(x, r, k) == expected


@settings(max_examples=40)
@given(small_vectors, st.randoms(use_true_random=False))
def test_families_are_permutation_invariant(x, rnd):
    shuffled = list(x.entries)
    rnd.shuffle(shuffled)
    y = RationalVector(shuffled)
    n = len(x)
    assert f_kr_all(x, 1) == f_kr_all(y, 1)
    assert f_kr_all(x, 2) == f_kr_all(y, 2)
    for r in range(1, n + 1):
        assert g_kr(x, 3, r) == g_kr(y, 3, r)
        assert m_kr(x, 3, r) == m_kr(y, 3, r)


class TestLargeN:
    """Exact identities past any enumeration budget; no oracle involved."""

    @pytest.mark.parametrize("n", [21, 30])
    def test_closed_forms(self, rng, n):
        x = random_rational_vector(rng, n, max_numerator=12)
        e1 = x.total()
        for k in range(1, 7):
            for r in range(1, k + 2):
                assert g_kr(x, k, r) + gbar_kr(x, k, r) == \
                    e1 ** k / math.factorial(k)
            for m in range(k + 1, k + 3):
                assert gbar_kr(x, k, m + 1) == gbar_kr(x, k, m)
            assert m_kr(x, k, n) == e1 ** k
            assert m_kr(x, k, 1) == sum(e ** k for e in x.entries)

    @pytest.mark.parametrize("n", [21, 30])
    def test_schur_directions(self, rng, n):
        for _ in range(3):
            x, y = t_transform_pair(rng, n, max_numerator=12)
            for k, r in [(2, 1), (3, 2), (5, 3), (6, 6), (4, n - 1)]:
                assert g_kr(x, k, r) <= g_kr(y, k, r)
                assert m_kr(x, k, r) >= m_kr(y, k, r)
