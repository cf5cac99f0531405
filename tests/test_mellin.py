import math
from itertools import islice

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympineq import mellin
from sympineq.cli import main as cli_main
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
        log_a = np.full(u.size, math.log(2.5))
        whole = integrand(u, log_a, p, 1)
        parts = [integrand(u[a:a + 7919], log_a[a:a + 7919], p, 1)
                 for a in range(0, u.size, 7919)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("integrand", [mellin._i_integrand,
                                           mellin._j_integrand])
    def test_two_scales_interleaved_give_the_same_bytes(self, integrand):
        # the nodes of scales 1 and 2.5 merged in ascending s_log, in one
        # call, against each scale's nodes alone
        p = 0.5 if integrand is mellin._i_integrand else 1.98
        kind = "I" if p < 1 else "J"
        alone, merged_u, merged_log = [], [], []
        for a in (1.0, 2.5):
            lo, hi = mellin._window(kind, 1, p, a, 1e-13)
            u = np.linspace(lo, hi, 20001)
            log_a = np.full(u.size, math.log(a))
            alone.append(integrand(u, log_a, p, 1))
            merged_u.append(u)
            merged_log.append(log_a)
        u, log_a = np.concatenate(merged_u), np.concatenate(merged_log)
        order = np.argsort(u + log_a, kind="stable")
        assert (np.diff(order) < 0).sum() > 1000  # the scales interleave
        merged = np.empty_like(u)
        merged[order] = integrand(u[order], log_a[order], p, 1)
        assert merged.tobytes() == np.concatenate(alone).tobytes()


# (which, r, p, a) -> identity_lhs (value, estimated_error, node_count) and
# the normalizer's, as float.hex, from the one-quadrature-at-a-time driver
# that the lockstep driver replaced: the four fixed end-of-interval requests
# of the mellin-validate benchmark workload, a = 0, a = 1 and interior points
GOLDEN = [
    ("id1", 1, 0.02, 2.5, "0x1.04bc12a189b9cp+0", "0x1.bff078a1e6f95p-32", 62784,
     "0x1.38b4a981cea0fp+11", "0x1.0c9cd690e36b8p-21", 31392),
    ("id2", 1, 1.02, 2.5, "0x1.45eb1749ec285p+1", "0x1.17f6324d8c618p-30", 50880,
     "0x1.886a3e2063fc9p+5", "0x1.5114f8c7c0ea6p-27", 25152),
    ("id1", 1, 0.98, 2.5, "0x1.3a306be38d9a3p+1", "0x1.0f8de3511a527p-30", 619248,
     "0x1.986e8b76e3ec5p+5", "0x1.61020b28ad800p-27", 309360),
    ("id2", 1, 1.98, 2.5, "0x1.88bc86de9b94fp+2", "0x1.824fb86656340p-24", 5092624,
     "0x1.941263db9b728p+4", "0x1.73fdf348bac62p-23", 2537568),
    ("id1", 2, 0.5, 0.0, "0x0.0p+0", "0x0.0p+0", 2256,
     "0x1.3867a08fe2416p+3", "0x1.0c5aaa18f86a9p-29", 2256),
    ("id2", 3, 2.2, 0.0, "0x0.0p+0", "0x0.0p+0", 912,
     "0x1.fe5c6238d581ep-4", "0x1.b7261a6df138dp-36", 912),
    ("id1", 2, 0.3, 1.0, "0x1.0000000000000p+0", "0x1.b7ce2a69d849dp-32", 5472,
     "0x1.6afe25ccf2234p+4", "0x1.37cf13bc52a2cp-28", 2736),
    ("id2", 2, 1.7, 1.0, "0x1.0000000000000p+0", "0x1.b7cdfc1eab4fbp-32", 2592,
     "0x1.2eefff3dc093cp-1", "0x1.0438a79d69e4fp-33", 1296),
    ("id1", 3, 0.45, 0.27, "0x1.1c0aef5b48a0bp-1", "0x1.e7fb72bf4578dp-33", 4512,
     "0x1.d746d3078ee0cp+3", "0x1.94d2f4ebceb92p-29", 2256),
    ("id1", 2, 0.81, 7.9, "0x1.556545f5d1d88p+2", "0x1.2541b6b8f26f4p-29", 6768,
     "0x1.0c474ac34b4acp+3", "0x1.cce61e9c09be9p-30", 3312),
    ("id2", 2, 2.4, 3.1, "0x1.e386257490fc9p+3", "0x1.9f59c5aa172dcp-28", 2784,
     "0x1.7b25db2e3a4e8p-2", "0x1.45b0dee2dd608p-34", 1344),
    ("id2", 3, 3.3, 0.52, "0x1.d9566b599b5e2p-4", "0x1.96a57928102b9p-35", 2160,
     "0x1.222b97a461cb3p-4", "0x1.f292b8c55c81cp-37", 1104),
    ("id2", 1, 1.5, 8.4, "0x1.85873891e2648p+4", "0x1.4e9a2fa36bd97p-27", 4368,
     "0x1.0c152382ca9c4p+1", "0x1.cc8ff4d4d4240p-32", 2112),
]


def bits(result):
    return (result.value.hex(), result.estimated_error.hex(), result.node_count)


def counted_integrands(monkeypatch):
    """Wrap both integrands; the list gets the node count of each call."""
    sizes = []
    for name in ("_i_integrand", "_j_integrand"):
        def counted(u, *args, _inner=getattr(mellin, name)):
            sizes.append(u.size)
            return _inner(u, *args)
        monkeypatch.setattr(mellin, name, counted)
    return sizes


class TestLockstep:
    @pytest.mark.parametrize("row", GOLDEN, ids=lambda row: "-".join(map(str, row[:4])))
    def test_reproduces_the_golden_bits(self, row):
        which, r, p, a = row[:4]
        mellin._memo.cache_clear()
        lhs = identity_lhs(which, a, p, r)
        norm = (integral_I if which == "id1" else integral_J)(r, p)
        assert bits(lhs) + bits(norm) == row[4:]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["I", "J"]), st.integers(1, 3),
           st.floats(0.05, 0.95), st.floats(0.05, 20.0))
    def test_lockstep_gives_the_bits_of_each_scale_alone(self, kind, r, t, a):
        p = t if kind == "I" else 1.0 + t * r
        both = mellin._lockstep(kind, r, p, [1.0, a])
        alone = [mellin._lockstep(kind, r, p, [s])[0] for s in (1.0, a)]
        assert both == alone
        assert [bits(x) for x in both] == [bits(x) for x in alone]

    @pytest.mark.parametrize("which, p", [("id1", "0.37"), ("id2", "2.3")])
    def test_an_interior_request_makes_two_integrand_calls(self, monkeypatch,
                                                          capsys, which, p):
        sizes = counted_integrands(monkeypatch)
        mellin._memo.cache_clear()
        code = cli_main(["mellin-validate", "--which", which, "--r", "2",
                         "--p", p, "--a", "3.1"])
        assert code == 0 and len(sizes) == 2
        capsys.readouterr()

    def test_no_call_exceeds_one_block(self, monkeypatch):
        # the far end of id2 runs rounds of 79104 panels per quadrature
        sizes = counted_integrands(monkeypatch)
        mellin._memo.cache_clear()
        identity_lhs("id2", 2.5, 1.98, 1)
        assert max(sizes) == mellin._BLOCK_PANELS * 16

    def test_each_quadrature_runs_once_per_request(self, monkeypatch, capsys):
        runs = []
        inner = mellin._mellin_value

        def counted(*key):
            runs.append(key)
            return inner(*key)

        monkeypatch.setattr(mellin, "_mellin_value", counted)
        mellin._memo.cache_clear()
        cli_main(["mellin-validate", "--which", "id1", "--r", "3",
                  "--p", "0.61", "--a", "0.4"])
        assert sorted(runs) == [("I", 3, 0.61, 0.4), ("I", 3, 0.61, 1.0)]
        capsys.readouterr()


def drive_panels(sums, **kwargs):
    """Run one panel-doubling pass on [0, 40] on the given rule sums: the
    number of rounds per stage, the panels of each stage's first round, and
    what the pass returns."""
    run = mellin._integrate_panels(0.0, 40.0, **kwargs)
    stages, feed = [next(run)], iter(sums)
    try:
        while True:
            stages.append(run.send(tuple(islice(feed, len(stages[-1])))))
    except StopIteration as done:
        return ([len(stage) for stage in stages],
                [stage[0][0].size for stage in stages], done.value)


class TestConverged:
    def test_a_pass_that_settles_at_round_one(self):
        # 10 panels, then 20: rounds 0 and 1 come as one stage
        assert drive_panels([3.0, 3.0]) == ([2], [10], (3.0, 0.0, 480, True))

    def test_a_pass_that_runs_out_of_rounds(self):
        assert drive_panels([1.0, 2.0, 3.0, 4.0], max_rounds=4) == (
            [2, 1, 1], [10, 40, 80], (4.0, 1.0, (10 + 20 + 40 + 80) * 16, False))

    @pytest.mark.parametrize("r, p", [(1, 1.98), (3, 3.98)])
    def test_normalizers_that_run_out_of_rounds(self, r, p):
        assert not integral_J(r, p).converged

    def test_converged_kernels(self):
        assert integral_I(1, 0.98).converged
        assert integral_J(2, 1.5).converged
        assert identity_lhs("id1", 2.0, 0.5, 2).converged
        assert identity_lhs("id2", 0.3, 2.7, 3).converged
        assert identity_lhs("id2", 0.0, 1.5, 1).converged

    def test_identity_ands_its_two_quadratures(self):
        # scale 1 runs out of rounds at p = 1.98, so the ratio cannot pass
        assert not identity_lhs("id2", 2.5, 1.98, 1).converged
        assert not identity_lhs("id2", 0.0, 1.98, 1).converged


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
