import math

import mpmath as mp
import numpy as np
import pytest

from sympineq import mellin
from sympineq.mellin import (delta_r, identity_check, identity_lhs, integral_I,
                             integral_J)


def closed_form_I1(p: float) -> float:
    # integrate log(1+s) s^{-p-1} by parts: (1/p) * pi / sin(pi p)
    return math.pi / (p * math.sin(math.pi * p))


def closed_form_J1(p: float) -> float:
    # same computation for s - log(1+s); sin(pi p) < 0 on (1, 2)
    return -math.pi / (p * math.sin(math.pi * p))


def mp_integral(kind: str, r: int, p: float) -> float:
    # independent route: integrate by parts first, which leaves integrands
    # free of the near-zero cancellation of the direct kernels
    mp.mp.dps = 30
    poly = lambda s: sum(s ** j / mp.factorial(j) for j in range(r + 1))
    dpoly = lambda s: sum(s ** j / mp.factorial(j) for j in range(r))
    if kind == "I":
        f = lambda s: dpoly(s) / poly(s) * s ** (-p)
    else:
        f = lambda s: s ** (r - p) / (mp.factorial(r) * poly(s))
    return float(mp.quad(f, [0, 1, 10, 100, mp.inf]) / p)


class TestDelta:
    def test_zero(self):
        assert delta_r(0.0, 1) == 0.0
        assert delta_r(0.0, 4) == 0.0

    def test_order_one_at_one(self):
        assert delta_r(1.0, 1) == pytest.approx(1 - math.log(2), rel=1e-14)

    def test_leading_order_ratio_is_stable(self):
        # the gap behaves like s^3/3! for order 2; the ratio must be stable to
        # three digits across a decade near zero
        r1 = delta_r(1e-3, 2) / 1e-9
        r2 = delta_r(1e-4, 2) / 1e-12
        assert r1 == pytest.approx(1 / 6, rel=1e-3)
        assert r2 == pytest.approx(1 / 6, rel=1e-4)
        assert r1 == pytest.approx(r2, rel=1e-2)

    def test_nonnegative_and_below_s(self):
        for r in (1, 2, 5):
            for s in (0.0, 1e-8, 1e-3, 0.5, 1.0, 3.9, 4.1, 10.0, 1e3, 1e8):
                d = delta_r(s, r)
                assert 0.0 <= d <= s + 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            delta_r(-1.0, 1)
        with pytest.raises(ValueError):
            delta_r(1.0, 0)
        for s in (math.nan, math.inf):
            with pytest.raises(ValueError, match="need a finite s >= 0"):
                delta_r(s, 1)
        with pytest.raises(ValueError):
            delta_r(1.0, True)


def whole_array_delta_small(s: np.ndarray, r: int) -> np.ndarray:
    # the gap series stopped for all nodes at once, when the largest term
    # falls below 1e-22 of the largest sum: the reference for the per-node
    # stop, which must give the same bits
    term = s ** (r + 1) / math.factorial(r + 1)
    rem = term.copy()
    for j in range(r + 2, r + 64):
        term = term * s / j
        rem += term
        if term.max(initial=0.0) < 1e-22 * rem.max(initial=1e-300):
            break
    q = np.exp(-s) * rem
    return -np.log1p(-q)


class TestPerNodeStop:
    ascending = np.logspace(-300, math.log10(4.0), 4001)
    with_tiny = np.sort(np.concatenate(
        [ascending, [0.0, 0.0, 5e-324, 1e-315, 2.2250738585072014e-308]]))
    arrays = {
        "ascending": ascending,
        "zeros and subnormals": with_tiny,
        "shuffled": np.random.default_rng(17).permutation(with_tiny),
        "single": np.array([0.37]),
        "four": np.array([4.0]),
    }

    @pytest.mark.parametrize("name", sorted(arrays))
    @pytest.mark.parametrize("r", range(1, 7))
    def test_same_bits_as_the_whole_array_stop(self, name, r):
        s = self.arrays[name]
        got = mellin._delta_small(s.copy(), r)
        assert got.tobytes() == whole_array_delta_small(s, r).tobytes()

    def test_underflowed_nodes_stop_at_once(self):
        # a term of 0 passes 0 <= 1e-22 * 0 at the first test, so those
        # nodes take one step of the series while s = 4 takes them all
        class Counted(np.ndarray):
            steps = 0

            def __itruediv__(self, other):
                Counted.steps += self.size
                return super().__itruediv__(other)

        s = np.concatenate([np.zeros(500), np.full(500, 5e-324), [1e-200, 4.0]])
        got = mellin._delta_small(s.view(Counted), 2)
        assert not got[:-1].any() and got[-1] > 0
        assert s.size <= Counted.steps <= s.size + 64

    @pytest.mark.parametrize("integrand", [mellin._i_integrand,
                                           mellin._j_integrand])
    def test_blocks_give_the_same_bytes(self, integrand):
        # one window's ascending nodes, whole and in uneven blocks
        p = 0.5 if integrand is mellin._i_integrand else 1.98
        lo, hi = mellin._window("I" if p < 1 else "J", 1, p, 2.5, 1e-13)
        u = np.linspace(lo, hi, 50001)
        log_a = math.log(2.5)
        whole = integrand(u, log_a, p, 1)
        parts = [integrand(u[a:a + 7919], log_a, p, 1)
                 for a in range(0, u.size, 7919)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()


class TestIntegralI:
    def test_half_exponent_closed_form(self):
        got = integral_I(1, 0.5)
        assert got.value == pytest.approx(2 * math.pi, rel=1e-6)
        assert got.estimated_error < 1e-6 * got.value
        assert got.node_count > 0

    def test_quarter_exponent_closed_form(self):
        got = integral_I(1, 0.25)
        assert got.value == pytest.approx(closed_form_I1(0.25), rel=1e-6)

    def test_against_high_precision_quadrature(self):
        got = integral_I(2, 0.6)
        assert got.value == pytest.approx(mp_integral("I", 2, 0.6), rel=1e-6)

    def test_positive_across_orders(self):
        for r in (1, 2, 3):
            for p in (0.1, 0.5, 0.9):
                assert integral_I(r, p).value > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            integral_I(1, 1.0)
        with pytest.raises(ValueError):
            integral_I(1, 0.0)


class TestIntegralJ:
    def test_order_one_closed_form(self):
        got = integral_J(1, 1.5)
        assert got.value == pytest.approx(closed_form_J1(1.5), rel=1e-6)
        assert got.value > 0

    def test_against_high_precision_quadrature(self):
        got = integral_J(2, 2.0)
        assert got.value == pytest.approx(mp_integral("J", 2, 2.0), rel=1e-6)

    def test_blow_up_towards_the_upper_endpoint(self):
        for r in (1, 2, 3):
            assert integral_J(r, r + 0.99).value > integral_J(r, r + 0.5).value

    def test_domain(self):
        with pytest.raises(ValueError):
            integral_J(2, 1.0)
        with pytest.raises(ValueError):
            integral_J(2, 3.0)


class TestIdentities:
    def test_unit_scale_is_exactly_normalized(self):
        for which, p in (("id1", 0.3), ("id2", 1.7)):
            assert identity_check(which, 1.0, p, 2) < 1e-8

    def test_zero_scale(self):
        assert identity_check("id1", 0.0, 0.5, 1) == 0.0
        assert identity_lhs("id2", 0.0, 1.5, 1).value == 0.0

    def test_scaled_identities(self):
        assert identity_check("id1", 2.0, 0.5, 2) < 1e-6
        assert identity_check("id2", 2.0, 1.5, 2) < 1e-6

    def test_monotone_in_scale(self):
        values = [identity_lhs("id1", a, 0.4, 2).value
                  for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        values = [identity_lhs("id2", a, 1.5, 2).value
                  for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_error_is_uniform_across_scales(self):
        errors = [identity_check("id1", a, 0.5, 2)
                  for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert max(errors) - min(errors) < 1e-5

    def test_which_validation(self):
        with pytest.raises(ValueError):
            identity_check("id3", 1.0, 0.5, 1)
        with pytest.raises(ValueError):
            identity_check("id1", -1.0, 0.5, 1)
