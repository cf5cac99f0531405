import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sympineq.families import f_kr_all, g_kr, gbar_kr, gbar_numerators, m_kr
from sympineq.majorize import t_transform_pair
from sympineq.oracles import (IndexSet, h_s,
                              is_schur_concave_index_set, max_part_index_set,
                              min_support_index_set, oracle_value)
from sympineq.series import subset_power_table
from sympineq.vectors import RationalVector

from conftest import binom_ext, m_kr_from_gbar, random_rational_vector, vec


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


def _oracle_partial(family, x, k, r, i):
    # Newton forward differences at unit steps along coordinate i: exact,
    # since t -> Phi(x + t e_i) is a polynomial of degree at most k
    values = [oracle_value(family, RationalVector(
        x.entries[:i] + (x[i] + t,) + x.entries[i + 1:]), k, r)
        for t in range(k + 1)]
    slope = Fraction(0)
    for m in range(1, k + 1):
        diff = sum((-1) ** (m - j) * math.comb(m, j) * values[j]
                   for j in range(m + 1))
        slope += Fraction((-1) ** (m + 1), m) * diff
    return slope


def _h(m, a, b):
    # sum_{i<=m} a^i b^(m-i), and 0 for m < 0
    return sum((a ** i * b ** (m - i) for i in range(m + 1)), Fraction(0))


def _times(p, q):
    # product of two coefficient lists in t, cut at the length of p
    out = [Fraction(0)] * len(p)
    for i, c in enumerate(p):
        for j, d in enumerate(q[:len(p) - i]):
            out[i + j] += c * d
    return out


def _schur_ostrowski_quotient(family, a, b, rest, k, r):
    """The right-hand side of the family's identity in the ``families``
    docstring, for the entries a and b and the other entries ``rest``:
    ``(d_a - d_b) / (b - a)`` for F and G, ``/ (a - b)`` for M."""
    if family == "M":
        return k * sum(_h(k - 2, a + sum(t), b + sum(t))
                       for t in combinations(rest, r - 1))
    one = [Fraction(1)] + [Fraction(0)] * k
    if family == "F":
        # [t^k] t^(r+1) / r! R(t) sum_{j<r} t^j / j! (ab)^j h_{r-j-1}(a, b)
        product = _times(one, [(a * b) ** j / math.factorial(j)
                               * _h(r - j - 1, a, b) for j in range(r)])
        for x in rest:
            product = _times(product, [x ** j / math.factorial(j)
                                       for j in range(r + 1)])
        return product[k - r - 1] / math.factorial(r) if k > r else Fraction(0)
    if r < 2 or k < 1:  # R_{-1} = 0, and G_{0,r} is a constant
        return Fraction(0)
    # G: [t^(k-1)] of (e^(at) - e^(bt)) / (a - b) R_{r-2}(t), where
    # R_m = [u^m] prod (1 + u (e^(x t) - 1)) over the other entries
    rows = [one] + [[Fraction(0)] * (k + 1) for _ in range(r - 2)]
    for x in rest:
        grown = [Fraction(0)] + [x ** m / math.factorial(m)
                                 for m in range(1, k + 1)]
        for m in range(r - 2, 0, -1):
            rows[m] = [u + v for u, v in zip(rows[m], _times(rows[m - 1], grown))]
    quotient = [_h(m - 1, a, b) / math.factorial(m) for m in range(k + 1)]
    return _times(quotient, rows[r - 2])[k - 1]


@pytest.mark.parametrize("family", ["F", "G", "M"])
def test_schur_ostrowski_identity(rng, family):
    # the factorizations in the families docstring, exactly, against the
    # oracle's partials at every pair of entries; a nonnegative quotient is
    # the proved direction: F and G Schur-concave, M Schur-convex
    points = [vec(0, 2), vec(0, 1, 1, 3)]
    points += [random_rational_vector(rng, n, max_numerator=9,
                                      denominator_bound=4) for n in (3, 4, 5)]
    head = random_rational_vector(rng, 4, max_numerator=9, denominator_bound=4)
    points.append(RationalVector(head.entries + (0, head[0])))
    for x in points:
        for r in range(1, 4):
            for k in range(5):
                partial = [_oracle_partial(family, x, k, r, i)
                           for i in range(len(x))]
                for i, j in combinations(range(len(x)), 2):
                    a, b = x[i], x[j]
                    rest = x.entries[:i] + x.entries[i + 1:j] + x.entries[j + 1:]
                    quotient = _schur_ostrowski_quotient(family, a, b, rest, k, r)
                    divisor = a - b if family == "M" else b - a
                    assert partial[i] - partial[j] == divisor * quotient
                    assert quotient >= 0


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
            x, y = t_transform_pair(rng, n)
            for k, r in [(2, 1), (3, 2), (5, 3), (6, 6), (4, n - 1)]:
                assert f_kr_all(x, r)[k] <= f_kr_all(y, r)[k]
                assert g_kr(x, k, r) <= g_kr(y, k, r)
                assert m_kr(x, k, r) >= m_kr(y, k, r)


@pytest.mark.parametrize("call, message", [
    (lambda: gbar_kr(vec(1, 2), -1, 1), "need k >= 0 and r >= 1"),
    (lambda: gbar_kr(vec(1, 2), 2, 0), "need k >= 0 and r >= 1"),
    (lambda: m_kr(vec(1, 2), 0, 1), "need k, r >= 1"),
    (lambda: m_kr(vec(1, 2), 1, 0), "need k, r >= 1")],
    ids=["gbar-k", "gbar-r", "m-k", "m-r"])
def test_degree_and_order_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
