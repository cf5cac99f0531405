import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sympineq import theorem1
from sympineq.families import f_kr_all
from sympineq.majorize import t_transform_pair
from sympineq.spectral import gram, spectral_summary
from sympineq.theorem1 import (GridPoint, HypothesisCheck, check_hypotheses,
                               check_hypotheses_coeffs, full_report,
                               verify_conclusions)
from sympineq.vectors import RationalVector

from conftest import random_rational_vector, vec


class TestHypotheses:
    def test_equal_vectors_pass_with_equality(self):
        x = vec(1, "7/2", 2)
        rep = check_hypotheses(x, x, 2)
        assert rep.all_pass and rep.sums_equal
        assert all(c.fx == c.fy for c in rep.checks)

    def test_k_range_is_r_through_nr(self):
        rep = check_hypotheses(vec(1, 2), vec(2, 1), 3)
        assert [c.k for c in rep.checks] == [3, 4, 5, 6]

    def test_two_zero_versus_ones(self):
        rep = check_hypotheses(vec(2, 0), vec(1, 1), 1)
        assert rep.all_pass and rep.sums_equal
        assert rep.checks[-1].fx == 0 and rep.checks[-1].fy == 1

    def test_coefficient_route_matches_vector_route(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            x = random_rational_vector(rng, n)
            y = random_rational_vector(rng, n)
            r = rng.randint(1, 3)
            direct = check_hypotheses(x, y, r)
            via_coeffs = check_hypotheses_coeffs(
                f_kr_all(x, r), f_kr_all(y, r), r, n)
            assert direct == via_coeffs

    def test_scaling_up_passes_every_order(self, rng):
        for _ in range(10):
            x = random_rational_vector(rng, rng.randint(1, 4),
                                       max_numerator=12)
            y = RationalVector(e * Fraction(3, 2) for e in x.entries)
            for r in (1, 2, 3):
                assert check_hypotheses(x, y, r).all_pass

    def test_low_degrees_follow_from_the_top(self, rng):
        # below the order, both sides collapse to powers of the entry sum, so
        # a passing report forces the comparisons there as well
        for _ in range(20):
            n = rng.randint(2, 4)
            x, y = t_transform_pair(rng, n)
            r = rng.randint(2, 3)
            rep = check_hypotheses(x, y, r)
            assert rep.all_pass
            fx, fy = f_kr_all(x, r), f_kr_all(y, r)
            for k in range(1, r):
                assert fx[k] <= fy[k]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_hypotheses(vec(1), vec(1, 2), 1)

    def test_bad_table_length(self):
        with pytest.raises(ValueError):
            check_hypotheses_coeffs([Fraction(1)], [Fraction(1)], 1, 2)


# coefficients over 1/6 and over 1/35, with the small integers both share
sixths = st.one_of(st.integers(-12, 12).map(lambda v: Fraction(v, 6)),
                   st.integers(-2, 2).map(Fraction))
thirty_fifths = st.one_of(st.integers(-70, 70).map(lambda v: Fraction(v, 35)),
                          st.integers(-2, 2).map(Fraction))


class TestIntegerLedger:
    def test_mixed_denominators(self):
        # k = 2..6 for n = 3, r = 2: x above y, equal at 7, equal at 0, x
        # below y, zero below 1/35
        fx = [Fraction(v, 6) for v in (6, 1, 8, 42, 0, 1, 0)]
        fy = [Fraction(v, 35) for v in (35, 6, 41, 245, 0, 6, 1)]
        rep = check_hypotheses_coeffs(fx, fy, 2, 3)
        assert [c.ok for c in rep.checks] == [False, True, True, True, True]
        assert [c.ok for c in rep.checks] == [a <= b for a, b in zip(fx[2:], fy[2:])]
        assert rep.first_failure().k == 2
        assert rep.sums_equal is False

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    def test_verdicts_are_the_fraction_comparisons(self, r, n, data):
        size = n * r + 1
        fx = data.draw(st.lists(sixths, min_size=size, max_size=size))
        fy = data.draw(st.lists(thirty_fifths, min_size=size, max_size=size))
        rep = check_hypotheses_coeffs(fx, fy, r, n)
        assert rep.checks == tuple((k, fx[k], fy[k], fx[k] <= fy[k])
                                   for k in range(r, size))
        assert rep.all_pass == all(a <= b for a, b in zip(fx[r:], fy[r:]))
        assert rep.sums_equal == (fx[1] == fy[1])


class TestRecords:
    def test_field_names_and_order(self):
        assert HypothesisCheck._fields == ("k", "fx", "fy", "ok")
        assert GridPoint._fields == ("p", "x_mean", "y_mean", "margin", "ok")

    def test_fields_cannot_be_assigned(self):
        check = check_hypotheses(vec(3, 1), vec(2, 2), 1).checks[0]
        point = verify_conclusions(vec(3, 1), vec(2, 2), 1, grid_points=3).low_grid[0]
        for record, field in ((check, "ok"), (point, "margin")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)


class TestConclusions:
    def test_equal_vectors_have_zero_margins(self):
        x = vec(1, 2, 3)
        rep = verify_conclusions(x, x, 2)
        assert all(pt.margin == 0.0 for pt in rep.low_grid)
        assert all(pt.margin == 0.0 for pt in rep.high_grid)
        assert rep.low_all_pass and rep.high_all_pass

    def test_grid_endpoints(self):
        rep = verify_conclusions(vec(2, 0), vec(1, 1), 3, grid_points=11)
        assert rep.low_grid[0].p == 0.0 and rep.low_grid[-1].p == 1.0
        assert rep.high_grid[0].p == 1.0 and rep.high_grid[-1].p == 4.0

    def test_high_grid_not_asserted_without_equal_sums(self):
        rep = verify_conclusions(vec(2, 1), vec(1, 1), 1)
        assert not rep.sums_equal
        assert rep.high_all_pass is None
        assert all(pt.ok is None for pt in rep.high_grid)

    def test_sums_equal_override(self):
        # callers with an exact side channel can force the high grid on
        rep = verify_conclusions(vec(2, 1), vec(2, 1), 1, sums_equal=True)
        assert rep.high_all_pass is True

    @pytest.mark.parametrize("excess, ok", [(2 ** -20, True), (2 ** -19, False)],
                             ids=["at-tol", "past-tol"])
    def test_a_margin_of_minus_tol_passes(self, monkeypatch, excess, ok):
        # x's mean exceeds y's by exactly tol on the low grid (all three
        # values are exact in binary): the point passes; by 2 tol it fails
        x, y = vec(1), vec(1)
        monkeypatch.setattr(theorem1, "lp_mean",
                            lambda v, p: 1 + excess if v is x else 1.0)
        rep = verify_conclusions(x, y, 1, grid_points=3, tol=2 ** -20)
        assert [pt.margin for pt in rep.low_grid] == [-excess] * 3
        assert [pt.ok for pt in rep.low_grid] == [ok] * 3
        assert rep.high_all_pass

    def test_means_point_by_point_low_grid_first(self, monkeypatch):
        x, y = vec(1), vec(2)
        calls = []
        monkeypatch.setattr(theorem1, "lp_mean",
                            lambda v, p: calls.append((v, p)) or 1.0)
        verify_conclusions(x, y, 2, grid_points=3)
        assert calls == [(v, p) for p in (0.0, 0.5, 1.0, 1.0, 2.0, 3.0)
                         for v in (x, y)]

    def test_the_first_mean_beyond_the_float_range_names_its_p(self):
        # y's geometric mean at p = 0 is 1e400; x's mean leaves the float
        # range only from p = 0.01 on
        with pytest.raises(ValueError, match=r"at p=0\.0 is beyond"):
            verify_conclusions(vec("1e400", "1"), vec("1e400", "1e400"), 1)

    def test_small_soundness_sweep(self, rng):
        # pairs that pass the hypotheses with equal sums may not violate the
        # measured grids beyond tolerance; this is the implication itself
        checked = 0
        while checked < 20:
            n = rng.randint(2, 5)
            x, y = t_transform_pair(rng, n)
            r = rng.randint(1, 3)
            rep = check_hypotheses(x, y, r)
            if not (rep.all_pass and rep.sums_equal):
                continue
            con = verify_conclusions(x, y, r, grid_points=101, tol=1e-9)
            assert con.low_all_pass
            assert con.high_all_pass
            checked += 1


class TestFullReport:
    @staticmethod
    def scan(x, y, r_max):
        hypotheses = [check_hypotheses(x, y, r) for r in range(1, r_max + 1)]
        return full_report(hypotheses, x, y)

    def test_equal_vectors_certify_the_whole_scan(self):
        x = vec(1, 2)
        rep = self.scan(x, x, 3)
        assert rep.certified_r == 3
        assert rep.certified_interval == (0.0, 4.0)
        assert rep.conclusions.r == 3
        assert rep.passed

    def test_two_zero_versus_ones(self):
        rep = self.scan(vec(2, 0), vec(1, 1), 1)
        assert rep.certified_r == 1
        assert rep.certified_interval == (0.0, 2.0)
        assert rep.conclusions.all_asserted_pass
        assert rep.passed

    def test_no_certified_order(self):
        # a single requested order is still measured, but nothing is asserted
        rep = self.scan(vec(1, 1), vec(2, 0), 1)
        assert rep.certified_r is None
        assert rep.certified_interval is None
        assert rep.hypotheses[0].first_failure() is not None
        assert rep.conclusions.r == 1
        assert rep.conclusions.low_grid and rep.conclusions.high_grid
        assert not rep.passed

    def test_scan_without_certified_order_measures_nothing(self):
        rep = self.scan(vec(1, 1), vec(2, 0), 3)
        assert rep.certified_r is None
        assert rep.conclusions is None
        assert not rep.passed


def test_certified_orders_are_downward_closed():
    # ROADMAP item 21, question 1, on a fixed sample until a proof or a
    # witness replaces it: 200 equal-sum pairs (n = 3..5, entries i/d with
    # i <= 12 and d <= 4, y rescaled to x's sum); the orders r = 1..n+2
    # certified for a pair must be 1..R for some R >= 0
    rng = random.Random(21)
    certified = 0
    for _ in range(200):
        n = rng.randint(3, 5)
        x, y = ([Fraction(rng.randint(0, 12), rng.randint(1, 4))
                 for _ in range(n)] for _ in "xy")
        scale = sum(x) / sum(y)  # no y of this sample sums to 0
        x, y = vec(*x), vec(*(e * scale for e in y))
        orders = [r for r in range(1, n + 3)
                  if check_hypotheses(x, y, r).all_pass]
        assert orders == list(range(1, len(orders) + 1)), (x, y, orders)
        certified += bool(orders)
    assert 0 < certified < 200


class TestGridSpectrum:
    """The spectrum that the matrix route's grids compare."""

    def test_eigenvalues_of_a_diagonal_gram(self):
        a = gram([[0, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert spectral_summary(a).eigenvalues() == (0.0, 4.0, 9.0)

    def test_the_null_space_reads_exactly_zero(self):
        # rank 2 of 4: e_3 = e_4 = 0, so x^2 divides the characteristic
        # polynomial and the two smallest eigenvalues are exactly 0
        a = gram([[1, 2, 0], [2, 4, 0], [0, 1, 1], [0, 2, 2]])
        summary = spectral_summary(a)
        e = summary.e_coeffs
        assert [k for k, c in enumerate(e) if c] == [0, 1, 2]
        values = summary.eigenvalues()
        assert values[:2] == (0.0, 0.0) and min(values[2:]) > 0
        # the nonzero pair are the roots of x^2 - e_1 x + e_2
        disc = math.sqrt(e[1] ** 2 - 4 * e[2])
        assert values[2:] == pytest.approx(((e[1] - disc) / 2, (e[1] + disc) / 2),
                                           rel=1e-15)


@pytest.mark.parametrize("call, message", [
    (lambda: check_hypotheses_coeffs([Fraction(1)], [Fraction(1)], 0, 0),
     "need r >= 1"),
    (lambda: verify_conclusions(vec(1), vec(1, 2), 1),
     "vectors must have equal length"),
    (lambda: verify_conclusions(vec(1), vec(1), 0), "need r >= 1"),
    (lambda: full_report([], vec(1), vec(1)),
     "need at least one template order")],
    ids=["coeffs-r", "conclusions-lengths", "conclusions-r", "no-orders"])
def test_library_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
