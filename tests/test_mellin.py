import contextlib
import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympineq import mellin
from sympineq.cli import main as cli_main
from sympineq.mellin import (delta_r, identity_check, identity_lhs, integral_I,
                             integral_J)

from conftest import run_python


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts and ends with an empty memo of finished quadratures,
    so no result crosses from one test to the next."""
    mellin._memo.cache_clear()
    yield
    mellin._memo.cache_clear()


def closed_form_I1(p: float) -> float:
    # integrate log(1+s) s^{-p-1} by parts: (1/p) * pi / sin(pi p)
    return math.pi / (p * math.sin(math.pi * p))


def closed_form_J1(p: float) -> float:
    # same computation for s - log(1+s); sin(pi p) < 0 on (1, 2)
    return -math.pi / (p * math.sin(math.pi * p))


def mp_integral(kind: str, r: int, p: float) -> float:
    # independent route: integrate by parts first, which leaves integrands
    # free of the near-zero cancellation of the direct kernels
    poly = lambda s: sum(s ** j / mp.factorial(j) for j in range(r + 1))
    dpoly = lambda s: sum(s ** j / mp.factorial(j) for j in range(r))
    if kind == "I":
        f = lambda s: dpoly(s) / poly(s) * s ** (-p)
    else:
        f = lambda s: s ** (r - p) / (mp.factorial(r) * poly(s))
    with mp.workdps(30):
        return float(mp.quad(f, [0, 1, 10, 100, mp.inf]) / p)


def mp_integral_j_dense(r: int, p: float) -> float:
    # the integrated-by-parts J kernel with a breakpoint every 4 up to 2r:
    # at large r it peaks near s = r - p, and sparse breakpoints let
    # mp.quad miss part of the peak
    with mp.workdps(20):
        coeffs = [mp.factorial(r) / mp.factorial(j) for j in range(r, -1, -1)]
        f = lambda s: s ** (r - p) / mp.polyval(coeffs, s)
        return float(mp.quad(f, list(range(0, 2 * r + 1, 4)) + [mp.inf]) / p)


def mp_gap_80(s, r: int):
    # s - log P_r(s) = -log Q(r+1, s), Q the upper regularized incomplete
    # gamma function: from the lower tail while it is small, and from the
    # upper tail past 1/2, where 1 minus the lower tail would lose every digit
    with mp.workdps(80):
        lower = mp.gammainc(r + 1, 0, s, regularized=True)
        if lower <= 0.5:
            return -mp.log1p(-lower)
        return -mp.log(mp.gammainc(r + 1, s, mp.inf, regularized=True))


def mp_gap(s: float, r: int) -> float:
    return float(mp_gap_80(s, r))


def root_sum_closed_form(kind: str, r: int, p: float) -> float:
    # P_r(s) = prod_j (1 + s/c_j) over c_j = -root_j, none of them on the
    # cut, so each factor's transform is pi/(p sin pi p) c_j^(-p), with the
    # opposite sign for J; independent of the quadrature in mellin.py
    with mp.workdps(30):
        roots = mp.polyroots([1 / mp.factorial(j) for j in range(r, -1, -1)])
        total = mp.re(mp.fsum((-root) ** (-p) for root in roots))
        value = mp.pi / (p * mp.sin(mp.pi * p)) * total
        return float(value if kind == "I" else -value)


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

    @pytest.mark.parametrize("r, s", [(10, 5.0), (20, 5.0), (20, 8.0),
                                      (40, 10.0), (60, 20.0), (169, 50.0)])
    def test_small_gaps_at_large_orders(self, r, s):
        # the gap is about e^-s s^(r+1) / (r+1)!, far below s: a direct
        # difference s - log P_r(s) returned -8.5e-14 at (169, 50)
        assert delta_r(s, r) == pytest.approx(mp_gap(s, r), rel=1e-12, abs=0.0)

    def test_against_the_incomplete_gamma_reference(self):
        # values below the smallest normal float carry fewer than 52 bits,
        # so there the check is absolute at that float
        for r in (1, 2, 3, 5, 8, 20, 40, 60, 100, 169):
            for s in np.geomspace(1e-3, 3 * r + 30, 120):
                got = delta_r(float(s), r)
                assert got >= 0.0
                assert got == pytest.approx(mp_gap(float(s), r), rel=1e-12,
                                            abs=sys.float_info.min)

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


class TestOrderBound:
    """(r+1)! must be a float, in delta_r and in the J window; 170! is one
    and 171! is not, so r = 169 is the largest order."""

    def test_largest_order(self):
        # 200 - log P_169(200), by mpmath at 40 digits
        assert delta_r(200.0, 169) == pytest.approx(4.283749356168701, rel=1e-12)
        for got in (integral_I(169, 0.5), integral_J(169, 1.5)):
            assert got.converged and got.value > 0

    @pytest.mark.parametrize("call", [lambda r: delta_r(1.0, r),
                                      lambda r: integral_I(r, 0.5),
                                      lambda r: integral_J(r, 1.5)],
                             ids=["delta_r", "integral_I", "integral_J"])
    def test_orders_past_169_are_rejected(self, call):
        for r in (170, 200):
            with pytest.raises(ValueError, match=r"1 <= r <= 169"):
                call(r)


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
# the normalizer's, as float.hex, from the one-pass driver, whose windows are
# sized from _lower_bound: the four fixed end-of-interval requests of the
# mellin-validate benchmark workload, a = 0, a = 1 and interior points.  The
# windows of the rows at p = 0.98 and 1.98 reach below the normal floats, so
# their bits come from the log-space prefixes of the integrands.  The lhs bar
# is the quotient bar (e_N + |q| e_D) / (D - e_D).  Every row's normalizer is
# within its error bar of the root-sum closed form.  The end rows sum grids of
# more than _DOT_BLOCK nodes, in dots below OpenBLAS's threading threshold, so
# their bits hold at any OPENBLAS_NUM_THREADS.
GOLDEN = [
    ("id1", 1, 0.02, 2.5, "0x1.04bc12a189b9ep+0", "0x1.bff085b7d9c19p-32", 32256,
     "0x1.38b4a981cea0fp+11", "0x1.0c9cd68e07d80p-21", 16128),
    ("id2", 1, 1.02, 2.5, "0x1.45eb1749ec286p+1", "0x1.142150e801d09p-30", 28416,
     "0x1.886a3e2066146p+5", "0x1.4c77e3f2e2accp-27", 14208),
    ("id1", 1, 0.98, 2.5, "0x1.3a306be38d9b9p+1", "0x1.0de2f8d20ab98p-30", 28416,
     "0x1.986e94410e26ap+5", "0x1.5ed742af0f77cp-27", 14208),
    ("id2", 1, 1.98, 2.5, "0x1.88bc86dc71026p+2", "0x1.4d600f1db2b19p-29", 29760,
     "0x1.944e6e8e62ee1p+4", "0x1.57323cfe91c03p-28", 14880),
    ("id1", 2, 0.5, 0.0, "0x0.0p+0", "0x0.0p+0", 1296,
     "0x1.3867a08fe44f9p+3", "0x1.e880297ac527fp-30", 1296),
    ("id2", 3, 2.2, 0.0, "0x0.0p+0", "0x0.0p+0", 576,
     "0x1.fe5c6238d5bf5p-4", "0x1.f08599041ec92p-37", 576),
    ("id1", 2, 0.3, 1.0, "0x1.0000000000000p+0", "0x1.97a31f15748b0p-32", 3072,
     "0x1.6afe25ccf5250p+4", "0x1.2100acfe28dd7p-28", 1536),
    ("id2", 2, 1.7, 1.0, "0x1.0000000000000p+0", "0x1.d7cd4fde3c2dcp-33", 1536,
     "0x1.2eefff3dc26dep-1", "0x1.172741a607851p-34", 768),
    ("id1", 3, 0.45, 0.27, "0x1.1c0aef5b4894ep-1", "0x1.ac8f8d57d0938p-33", 2592,
     "0x1.d746d30793397p+3", "0x1.638762e4e6f19p-29", 1296),
    ("id1", 2, 0.81, 7.9, "0x1.556545f5d1d89p+2", "0x1.1357760c1f8adp-29", 3936,
     "0x1.0c474ac34e271p+3", "0x1.b0be1a72811a2p-30", 1968),
    ("id2", 2, 2.4, 3.1, "0x1.e386257490fcap+3", "0x1.5c081a8fc9890p-28", 1632,
     "0x1.7b25db2e3ac4dp-2", "0x1.10e759bbd266fp-34", 816),
    ("id2", 3, 3.3, 0.52, "0x1.d9566b599b5e2p-4", "0x1.7853201266079p-35", 1344,
     "0x1.222b97a461e34p-4", "0x1.cd65aca3da3a0p-37", 672),
    ("id2", 1, 1.5, 8.4, "0x1.85873891e2647p+4", "0x1.798ef8ec53425p-28", 2592,
     "0x1.0c152382d01a4p+1", "0x1.03d84ffcfd3c4p-32", 1296),
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


class TestIntervalEnds:
    """Where the kernels blow up, their windows reach far below the normal
    floats; the quadratures there against the root-sum closed form."""

    @pytest.mark.parametrize("kind, r, p", [
        (kind, r, round(p, 3)) for r in (1, 2, 3)
        for kind, p in (("I", 0.98), ("I", 0.99), ("I", 0.999),
                        ("J", 1.001), ("J", r + 0.98), ("J", r + 0.999))])
    def test_against_the_root_sum(self, kind, r, p):
        got = (integral_I if kind == "I" else integral_J)(r, p)
        assert abs(got.value - root_sum_closed_form(kind, r, p)) \
            <= got.estimated_error <= 1e-9 * got.value

    def test_j_log_tail_at_the_largest_order(self):
        # at r = 169 the first term of the gap series is subnormal below
        # s = 0.99, so s = 0.5 takes the log route; the scale e^700 keeps
        # the integrand, gap * e^(-p u), in the float range
        u, log_a, p = math.log(0.5) - 700.0, 700.0, 2.0
        got = mellin._j_integrand(np.array([u]), np.array([log_a]), p, 169)
        s = mp.exp(mp.mpf(u) + mp.mpf(log_a))
        with mp.workdps(80):
            want = float(mp_gap_80(s, 169) * mp.exp(-p * mp.mpf(u)))
        assert 0.49 < s < 0.51 and want > 1e200
        assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def validate(*args):
    """cli.main on a mellin-validate request with an empty memo, which it
    leaves empty: the exit code."""
    mellin._memo.cache_clear()
    try:
        return cli_main(["mellin-validate", *args])
    finally:
        mellin._memo.cache_clear()


class TestNearTheEnds:
    """p within 1e-15 of an interval end, or so close to 0 that the kernel
    leaves the float range: no traceback, and no window past the budget."""

    @pytest.mark.parametrize("a", ["2", "0"])
    @pytest.mark.parametrize("p", ["1e-300", "1e-154"])
    def test_a_kernel_beyond_the_float_range_is_an_input_error(self, capsys, a, p):
        # I(1, 1e-300) is about 1e600: p sin(pi p) underflows to 0.  I(1,
        # 1e-154) is about 1e308, and the upper end of its window overflows
        # at either scale the normalizer, the kernel at scale 1, fails first
        assert validate("--which", "id1", "--r", "1", "--p", p, "--a", a) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: the transform at scale 1 or its "
                                     f"window is beyond the float range at "
                                     f"p={p}\n")

    def test_a_window_beyond_the_float_range_says_so(self):
        # the kernels raise the ValueError that identity_lhs raises
        for p in (1e-300, 1e-154):
            mellin._memo.cache_clear()
            with pytest.raises(ValueError, match=f"^the transform at scale 1 or "
                               f"its window is beyond the float range at p={p!r}$"):
                integral_I(1, p)

    @pytest.mark.parametrize("which, p", [("id1", "1e-20"),
                                          ("id2", "1.000000000000001")])
    def test_a_window_past_the_budget_is_unconverged(self, monkeypatch, capsys,
                                                     which, p):
        # windows of about 3e21 and 2e16 in u; a budget of 256 panels keeps
        # this fast, and the full one gives the same exit
        monkeypatch.setattr(mellin, "_MAX_PANELS", 256)
        assert validate("--which", which, "--r", "1", "--p", p, "--a", "2") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False and report["pass"] is False
        assert report["normalizer"]["node_count"] == (128 + 256) * 16

    def test_a_j_node_whose_gap_underflows(self):
        # s = e^-2000: the gap s^2/2 and the value, about e^-1960, are far
        # below the subnormals; the other two nodes take the gap series and
        # the log form
        got = mellin._j_integrand(np.array([-2000.0, 0.0, 10.0]), np.zeros(3),
                                  1.02, 1)
        assert got[0] == 0.0 and (got[1:] > 0).all()

    def test_a_gap_of_zero_gives_zero(self, monkeypatch):
        # its log is -inf, so exp(L - p u) is 0 for either sign of zero
        monkeypatch.setattr(mellin, "_delta_small", lambda s, r: np.array([0.0, -0.0]))
        got = mellin._j_integrand(np.array([-1.0, 0.0]), np.zeros(2), 1.5, 1)
        assert got.tobytes() == np.zeros(2).tobytes()


def lower_bound_points(r):
    """p inside 1e-3 of each end of both intervals, and four interior p."""
    inner = (0.13, 0.37, 0.61, 0.89)
    return ([("I", p) for p in (5e-4, 1e-3, *inner, 1 - 1e-3, 1 - 5e-4)]
            + [("J", p) for p in (1 + 5e-4, 1 + 1e-3, *(1 + r * t for t in inner),
                                  r + 1 - 1e-3, r + 1 - 5e-4)])


class TestLowerBound:
    @pytest.mark.parametrize("r", range(1, 11))
    def test_below_the_root_sum_and_within_r_plus_one(self, r):
        # below the kernel, so the windows sized from it are wide enough;
        # within a factor r + 1, so they cannot balloon
        for kind, p in lower_bound_points(r):
            bound, closed = mellin._lower_bound(kind, r, p), root_sum_closed_form(kind, r, p)
            assert 0 < bound <= closed <= (r + 1) * bound, (kind, p)

    def test_order_one_i_is_the_closed_form_rounded_down(self):
        for p in (1e-3, 0.25, 0.5, 0.999):
            bound = mellin._lower_bound("I", 1, p)
            assert bound < closed_form_I1(p)
            assert bound == pytest.approx(closed_form_I1(p), rel=2e-9)


def sweep_points():
    """15 points per order r = 1..4: both ends of both intervals and three
    interior p each, none of them an integer, where the root sum is
    singular; the scale a cycles through 0.25..8."""
    points = []
    for r in range(1, 5):
        points += [("I", r, p) for p in (0.001, 0.005, 0.02, 0.25, 0.5, 0.75,
                                         0.98, 0.999)]
        points += [("J", r, round(p, 3)) for p in (1.001, 1.02, 1 + 0.3 * r,
                                                   1 + 0.55 * r, 1 + 0.8 * r,
                                                   r + 0.98, r + 0.999)]
    scales = (0.25, 0.5, 2.0, 3.0, 8.0)
    return [(*point, scales[k % len(scales)]) for k, point in enumerate(points)]


class TestErrorBars:
    @pytest.mark.parametrize("kind, r, p, a", sweep_points())
    def test_every_bar_holds(self, kind, r, p, a):
        # the kernel at scales 1 and a against the root sum times 1 and a^p
        closed = root_sum_closed_form(kind, r, p)
        one, scaled = mellin._lockstep(kind, r, p, [1.0, a])
        assert one.converged and scaled.converged
        assert abs(one.value - closed) <= one.estimated_error
        assert abs(scaled.value - a ** p * closed) <= scaled.estimated_error


class TestLockstep:
    @pytest.mark.parametrize("row", GOLDEN, ids=lambda row: "-".join(map(str, row[:4])))
    def test_reproduces_the_golden_bits(self, row):
        which, r, p, a = row[:4]
        lhs = identity_lhs(which, a, p, r)
        norm = (integral_I if which == "id1" else integral_J)(r, p)
        # the bits pinned are within their error bar
        closed = root_sum_closed_form("I" if which == "id1" else "J", r, p)
        assert abs(norm.value - closed) <= norm.estimated_error
        assert bits(lhs) + bits(norm) == row[4:]

    def test_the_golden_bits_on_one_blas_thread(self):
        # as bench/run.py serves them: a dot that OpenBLAS splits across
        # threads can change the bits
        script = ("import json, os, sys\n"
                  "os.environ['OPENBLAS_NUM_THREADS'] = '1'  # before numpy\n"
                  "from sympineq.mellin import identity_lhs, integral_I, "
                  "integral_J\n"
                  "def bits(q):\n"
                  "    return [q.value.hex(), q.estimated_error.hex(), "
                  "q.node_count]\n"
                  "rows = []\n"
                  "for which, r, p, a in json.loads(sys.argv[1]):\n"
                  "    norm = (integral_I if which == 'id1' else integral_J)(r, p)\n"
                  "    rows.append(bits(identity_lhs(which, a, p, r)) + bits(norm))\n"
                  "print(json.dumps(rows))\n")
        done = run_python(script, json.dumps([row[:4] for row in GOLDEN]))
        assert (done.returncode, done.stderr) == (0, "")
        assert [tuple(b) for b in json.loads(done.stdout)] == [
            row[4:] for row in GOLDEN]

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
    def test_an_interior_request_makes_one_integrand_call(self, monkeypatch,
                                                         capsys, which, p):
        # one pass, settled at round 1: rounds 0 and 1 of both scales in
        # one call
        sizes = counted_integrands(monkeypatch)
        code = cli_main(["mellin-validate", "--which", which, "--r", "2",
                         "--p", p, "--a", "3.1"])
        assert code == 0 and len(sizes) == 1
        capsys.readouterr()

    def test_no_call_exceeds_one_block(self, monkeypatch):
        # this far end of J runs rounds of up to 12076 panels
        sizes = counted_integrands(monkeypatch)
        integral_J(1, 1.999)
        assert max(sizes) == mellin._BLOCK_PANELS * 16

    def test_each_quadrature_runs_once_per_request(self, monkeypatch, capsys):
        passes = []
        inner = mellin._doubling

        def counted(integrand, p, r, windows, *args):
            passes.append((integrand, r, p, [log_a for _, _, log_a in windows]))
            return inner(integrand, p, r, windows, *args)

        monkeypatch.setattr(mellin, "_doubling", counted)
        cli_main(["mellin-validate", "--which", "id1", "--r", "3",
                  "--p", "0.61", "--a", "0.4"])
        # one pass over scales 1 and 0.4
        assert passes == [(mellin._i_integrand, 3, 0.61, [0.0, math.log(0.4)])]
        capsys.readouterr()

    def test_the_memo_keeps_the_newest_results(self, monkeypatch):
        calls = []
        inner = mellin._lockstep

        def counted(kind, r, p, scales):
            calls.append(p)
            return inner(kind, r, p, scales)

        monkeypatch.setattr(mellin, "_lockstep", counted)
        monkeypatch.setattr(mellin, "_MEMO_SIZE", 2)
        for p in (0.3, 0.4, 0.5):
            integral_I(1, p)
        assert list(mellin._memo()) == [("I", 1, 0.4, 1.0), ("I", 1, 0.5, 1.0)]
        integral_I(1, 0.5)  # the newest: held
        assert calls == [0.3, 0.4, 0.5]
        integral_I(1, 0.3)  # evicted: run again, once
        assert calls == [0.3, 0.4, 0.5, 0.3]
        assert list(mellin._memo()) == [("I", 1, 0.5, 1.0), ("I", 1, 0.3, 1.0)]


def test_a_negative_error_estimate_raises():
    with pytest.raises(ValueError, match="error estimate cannot be negative"):
        mellin.QuadratureResult(1.0, -1.0, 16, True)


def drive_doubling(monkeypatch, sums, hi=40.0):
    """Run one panel-doubling pass on [0, hi] on the given rule sums: the
    panel counts of the grids of each rule-sum call, and what the pass
    returns."""
    feed, asked = iter(sums), []

    def fixed(integrand, p, r, grids):
        asked.append([mid.size for mid, _, _ in grids])
        return [next(feed) for _ in grids]

    monkeypatch.setattr(mellin, "_rule_sums", fixed)
    (result,) = mellin._doubling(mellin._i_integrand, 0.5, 1, [(0.0, hi, 0.0)])
    return asked, result


@contextlib.contextmanager
def failing_window(monkeypatch, log_a):
    """Inside the block every panel-doubling pass reports the window of scale
    e^log_a unconverged, its numbers unchanged; the memo is emptied on entry
    and on exit, so no result of the block outlives it."""
    inner = mellin._doubling

    def doubling(integrand, p, r, windows, *args):
        return [(value, err, nodes, ok and window[2] != log_a)
                for (value, err, nodes, ok), window
                in zip(inner(integrand, p, r, windows, *args), windows)]

    with monkeypatch.context() as patch:
        patch.setattr(mellin, "_doubling", doubling)
        mellin._memo.cache_clear()
        try:
            yield
        finally:
            mellin._memo.cache_clear()


class TestConverged:
    def test_a_pass_that_settles_at_round_one(self, monkeypatch):
        # 10 panels, then 20: rounds 0 and 1 come in one call
        assert drive_doubling(monkeypatch, [3.0, 3.0]) == (
            [[10, 20]], (3.0, 0.0, 480, True))

    def test_a_pass_that_runs_out_of_rounds(self, monkeypatch):
        monkeypatch.setattr(mellin, "_MAX_ROUNDS", 4)
        assert drive_doubling(monkeypatch, [1.0, 2.0, 3.0, 4.0]) == (
            [[10, 20], [40], [80]], (4.0, 1.0, (10 + 20 + 40 + 80) * 16, False))

    def test_a_pass_that_runs_out_of_panels(self, monkeypatch):
        # 80 panels would pass the budget of 64, so the pass stops at 40
        monkeypatch.setattr(mellin, "_MAX_PANELS", 64)
        assert drive_doubling(monkeypatch, [1.0, 2.0, 3.0]) == (
            [[10, 20], [40]], (3.0, 1.0, (10 + 20 + 40) * 16, False))

    def test_round_zero_takes_half_the_budget(self, monkeypatch):
        # a window of 1e6 asks for 250000 panels at round 0; rounds that
        # agree at the budget leave panels wider than 4, so no convergence
        monkeypatch.setattr(mellin, "_MAX_PANELS", 64)
        assert drive_doubling(monkeypatch, [2.0, 2.0], hi=1e6) == (
            [[32, 64]], (2.0, 0.0, (32 + 64) * 16, False))

    def test_the_budget_is_a_power_of_two_past_the_longest_rounds(self):
        # this suite's rounds of up to 75776 panels fit, with a round to spare
        assert mellin._MAX_PANELS & (mellin._MAX_PANELS - 1) == 0
        assert mellin._MAX_PANELS >= 2 * 75776

    @pytest.mark.parametrize("r, p", [(1, 1.98), (3, 3.98)])
    def test_normalizers_at_the_upper_end(self, r, p):
        # their windows reach far below the normal floats
        got = integral_J(r, p)
        assert got.converged
        assert abs(got.value - root_sum_closed_form("J", r, p)) <= got.estimated_error

    def test_the_cli_passes_at_the_upper_end_of_order_one(self, capsys):
        # the request of the mellin-validate workload nearest p = 2 at r = 1:
        # the identity converges and passes, and the normalizer lies within
        # its error bar of J(1, p) = -pi / (p sin(pi p))
        assert validate("--which", "id2", "--r", "1", "--p", "1.98",
                        "--a", "2.5") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True and report["pass"] is True
        norm = report["normalizer"]
        assert abs(norm["value"] - closed_form_J1(1.98)) <= norm["estimated_error"]

    def test_converged_kernels(self):
        assert integral_I(1, 0.98).converged
        assert integral_J(2, 1.5).converged
        assert identity_lhs("id1", 2.0, 0.5, 2).converged
        assert identity_lhs("id2", 0.3, 2.7, 3).converged
        assert identity_lhs("id2", 0.0, 1.5, 1).converged

    def test_identity_ands_its_two_quadratures(self, monkeypatch):
        # one window reported unconverged, at scale 1 or at scale a, is
        # enough to leave the ratio unconverged; at a = 0 only scale 1 runs
        assert identity_lhs("id2", 2.5, 1.98, 1).converged
        for failing, a in ((1.0, 2.5), (2.5, 2.5), (1.0, 0.0)):
            with failing_window(monkeypatch, math.log(failing)):
                assert not identity_lhs("id2", a, 1.98, 1).converged

    def test_the_cli_never_passes_an_unconverged_identity(self, monkeypatch,
                                                          capsys):
        argv = ["mellin-validate", "--which", "id1", "--r", "2", "--p", "0.5",
                "--a", "2"]
        assert cli_main(argv) == 0
        passed = json.loads(capsys.readouterr().out)
        with failing_window(monkeypatch, math.log(2.0)):
            assert cli_main(argv) == 1
        failed = json.loads(capsys.readouterr().out)
        # the same numbers, so only `converged` can have failed it, and the
        # report says so
        assert passed["converged"] is True
        assert failed == {**passed, "converged": False, "pass": False}


def window_after_32_passes(r, p, a, eps):
    """The I window's upper end as ``_window`` computed it before it stopped
    at the fixed point: all 32 passes of the iteration, then the margin."""
    log_a = math.log(a)
    alpha, beta = float(r), r * log_a + math.log(r + 1)
    hi = max(40.0, -log_a + 1.0)
    for _ in range(32):
        bound = alpha * hi / p + alpha / p ** 2 + abs(beta) / p
        hi = max(math.log(max(bound, 1.0) / eps) / p, -log_a + 1.0)
    return hi + 5.0


class TestWindow:
    @given(st.integers(1, 3), st.floats(0.02, 0.98), st.floats(0.2, 9.0),
           st.sampled_from([1e-6, 1e-13, 1e-16]))
    def test_i_window_stops_at_its_fixed_point(self, r, p, a, eps):
        # every pass after the fixed point repeats the same arithmetic, so
        # stopping there gives the same bits
        _, hi = mellin._window("I", r, p, a, eps)
        assert hi == window_after_32_passes(r, p, a, eps)


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

    @pytest.mark.parametrize("r, p", [(20, 10.0), (60, 30.0), (100, 50.0),
                                      (169, 100.0)])
    def test_tiny_kernels_at_large_orders(self, r, p):
        # values from 1.6e-13 down to 4e-209: the error bar is relative to
        # the value, and it bounds the true error
        got = integral_J(r, p)
        assert got.converged
        assert abs(got.value - mp_integral_j_dense(r, p)) <= got.estimated_error
        assert got.estimated_error <= 1e-9 * got.value

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

    @pytest.mark.parametrize("which, a, p", [("id2", 1e110, 2.9),
                                             ("id2", 1e206, 1.5),
                                             ("id2", 1e300, 1.5)])
    def test_targets_beyond_the_float_range(self, which, a, p):
        with pytest.raises(ValueError, match="beyond the float range"):
            identity_lhs(which, a, p, 2)

    def test_the_largest_target_in_range(self):
        # a^p = 3.2e307, near the top of the float range
        assert identity_check("id2", 1e205, 1.5, 2) < 1e-6

    @pytest.mark.parametrize("a", [3.6e300, 3.7e300])
    def test_transforms_beyond_the_float_range(self, a):
        # a^p is 3.7e306 and 3.8e306, in range, and J(1, 1.02) = 49.05:
        # at 3.6e300 only the quadrature leaves the float range, and at
        # 3.7e300 the least value, a^p times _lower_bound = 48.38, does too
        with pytest.raises(ValueError, match="beyond the float range"):
            identity_lhs("id2", a, 1.02, 1)

    def test_the_largest_transform_in_range(self):
        # a^p J(1, 1.02) = 1.76e308, below the largest float 1.80e308
        got = identity_lhs("id2", 3.5e300, 1.02, 1)
        assert got.converged and identity_check("id2", 3.5e300, 1.02, 1) < 1e-12

    def test_a_tiny_scale(self):
        # a^p = 1e-150: the window tolerance 1e-10 a^p _lower_bound is a
        # normal float, and the identity holds within its bar
        got = identity_lhs("id1", 1e-300, 0.5, 2)
        assert got.converged and abs(got.value - 1e-150) <= got.estimated_error

    def test_a_tiny_scale_below_the_least_tolerance(self):
        # a^p = 1e-306 and the kernel at scale a, 4.9e-305, are below the
        # 1e-300 floor of the window tolerance, so the scaled quadrature
        # resolves nothing; the quotient bar still covers the miss
        got = identity_lhs("id2", 1e-300, 1.02, 1)
        assert abs(got.value - 1e-300 ** 1.02) <= got.estimated_error

    def test_a_normalizer_inside_its_bar_leaves_no_bound(self, monkeypatch):
        # the bar of D reaches D, so the ratio has no bound
        real = mellin._lockstep

        def swallowed(kind, r, p, scales):
            return [mellin.QuadratureResult(x.value, x.value if a == 1.0 else
                                            x.estimated_error, x.node_count, True)
                    for x, a in zip(real(kind, r, p, scales), scales)]

        monkeypatch.setattr(mellin, "_lockstep", swallowed)
        got = identity_lhs("id1", 2.0, 0.5, 2)
        assert not got.converged and got.estimated_error == math.inf

    def test_a_tiny_transform_keeps_the_least_tolerance(self):
        # a^p = 1e-450 underflows to 0, so the window tolerance is 1e-300,
        # and the bar carries both tails of that size
        (got,) = mellin._lockstep("J", 2, 1.5, [1e-300])
        assert got.converged and got.value == 0.0
        assert got.estimated_error >= 2e-300

    def test_which_validation(self):
        with pytest.raises(ValueError):
            identity_check("id3", 1.0, 0.5, 1)
        with pytest.raises(ValueError):
            identity_check("id1", -1.0, 0.5, 1)
