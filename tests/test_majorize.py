import math
import random
from fractions import Fraction

import pytest

from sympineq import majorize
from sympineq.families import m_cell
from sympineq.majorize import (majorizes, psi_compare, psi_sum, psi_value,
                               t_transform_pair, theorem2_scan)
from sympineq.oracles import OracleSizeError, oracle_value
from sympineq.series import subset_power_table
from sympineq.spectral import spectral_summary
from sympineq.vectors import RationalVector, partial_sums_desc

from conftest import random_rational_vector, vec


# the interval matrix pair's non-majorizing cousin: equal sums, equal product,
# larger maximum, but the second partial sum dips below
PROBE_X = vec(4, "19/10", "11/10")
PROBE_Y = vec(3, 3, 1)


class TestMajorizes:
    def test_basic(self):
        assert majorizes(vec(3, 1), vec(2, 2)).holds

    def test_reflexive(self):
        x = vec(5, "1/3", 2)
        assert majorizes(x, x).holds

    def test_probe_pair_fails_at_second_partial_sum(self):
        verdict = majorizes(PROBE_X, PROBE_Y)
        assert not verdict.holds
        assert verdict.sum_equal
        assert verdict.first_violation == (2, Fraction(59, 10), Fraction(6))

    def test_verdict_carries_both_partial_sums(self, rng):
        for _ in range(20):
            x, y = t_transform_pair(rng, rng.randint(1, 6))
            for a, b in ((x, y), (y, x)):
                verdict = majorizes(a, b)
                assert verdict.x_partial_sums == partial_sums_desc(a)
                assert verdict.y_partial_sums == partial_sums_desc(b)

    def test_unequal_sums(self):
        verdict = majorizes(vec(2, 1), vec(1, 1))
        assert not verdict.holds
        assert not verdict.sum_equal

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorizes(vec(1), vec(1, 2))

    def test_partial_order_properties(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            x, y = t_transform_pair(rng, n)
            _, z = t_transform_pair(rng, n)
            assert majorizes(x, y).holds
            # antisymmetry up to permutation
            if majorizes(y, x).holds:
                assert x.sorted_desc() == y.sorted_desc()
            # transitivity along a second transform chain started at y
            y2 = t_transform_pair_from(rng, y)
            assert majorizes(y, y2).holds
            assert majorizes(x, y2).holds


def t_transform_pair_from(rng, start):
    # one extra Robin Hood step applied to an existing vector
    ys = list(start.entries)
    if len(ys) >= 2:
        i, j = rng.sample(range(len(ys)), 2)
        if ys[i] != ys[j]:
            if ys[i] < ys[j]:
                i, j = j, i
            delta = (ys[i] - ys[j]) * Fraction(rng.randint(0, 8), 16)
            ys[i] -= delta
            ys[j] += delta
    return RationalVector(ys)


class TestTheorem2Scan:
    def test_majorizing_pair_has_no_violations(self):
        rep = theorem2_scan(vec(3, 1), vec(2, 2), 6)
        assert rep.majorization_holds
        assert rep.distinct_var_violation is None
        assert rep.subset_power_violation is None

    def test_equal_vectors(self):
        x = vec(1, 2, 3)
        rep = theorem2_scan(x, x, 5)
        assert rep.majorization_holds
        assert rep.distinct_var_violation is None
        assert rep.subset_power_violation is None

    def test_probe_pair_violations_appear_beyond_k_eight(self):
        # no family violation is visible at k_max = 8 ...
        rep8 = theorem2_scan(PROBE_X, PROBE_Y, 8)
        assert not rep8.majorization_holds
        assert rep8.subset_power_violation is None
        assert rep8.distinct_var_violation is None
        # ... the first subset-power violation sits at (r=2, k=11)
        rep = theorem2_scan(PROBE_X, PROBE_Y, 16)
        assert not rep.majorization_holds
        v = rep.subset_power_violation
        assert (v.r, v.k) == (2, 11)
        assert v.lhs < v.rhs
        g = rep.distinct_var_violation
        assert (g.r, g.k) == (3, 10)
        assert g.lhs > g.rhs

    def test_unequal_sums_not_applicable(self):
        rep = theorem2_scan(vec(2, 1), vec(1, 1), 5)
        assert not rep.sums_equal
        assert rep.majorization is None
        assert rep.cells_checked == 0

    @pytest.mark.parametrize("y", [vec(2, 2), vec(2, 1)],
                             ids=["equal-sums", "unequal-sums"])
    def test_one_pass_of_partial_sums_per_vector(self, monkeypatch, y):
        # the totals are read off the verdict's partial sums
        calls = []

        def counting(v):
            calls.append(v)
            return partial_sums_desc(v)

        def total(self):
            raise AssertionError("theorem2_scan summed a vector again")

        monkeypatch.setattr(majorize, "partial_sums_desc", counting)
        monkeypatch.setattr(RationalVector, "total", total)
        x = vec(3, 1)
        theorem2_scan(x, y, 4)
        assert calls == [x, y]

    def test_majorization_implies_family_directions(self, rng):
        for _ in range(50):
            n = rng.randint(2, 5)
            x, y = t_transform_pair(rng, n)
            rep = theorem2_scan(x, y, 8)
            assert rep.majorization_holds
            assert rep.distinct_var_violation is None
            assert rep.subset_power_violation is None


def naive_scan(x, y, k_max):
    # the (r, k) walk of theorem2_scan with every cell summed by the oracles
    firsts = {"G": None, "M": None}
    cells = 0
    for r in range(1, len(x) + 1):
        for k in range(r, k_max + 1):
            cells += 1
            for family, worse in (("G", lambda a, b: a > b),
                                  ("M", lambda a, b: a < b)):
                if firsts[family] is None:
                    lhs, rhs = (oracle_value(family, v, k, r) for v in (x, y))
                    if worse(lhs, rhs):
                        firsts[family] = (r, k, lhs, rhs)
    return firsts["G"], firsts["M"], cells


class TestTheorem2AgainstOracles:
    def pairs(self):
        rng = random.Random(7702)
        for i in range(16):
            n = rng.randint(2, 5)
            k_max = rng.choice([2, 3, 4, 5, 6, 7])
            if i % 2:
                # a Robin Hood pair: its reverse breaks the family inequalities
                x, y = t_transform_pair(rng, n)
            else:
                # an equal-sum pair over different denominators
                x = random_rational_vector(rng, n, 12, 4)
                y = random_rational_vector(rng, n, 12, 9)
                if not y.total():
                    continue
                c = x.total() / y.total()
                y = RationalVector(e * c for e in y.entries)
            if i % 4 < 2 and n < 5:  # zero entries keep the totals equal
                x = RationalVector((0,) + x.entries)
                y = RationalVector(y.entries + (0,))
            yield x, y, k_max

    def test_cells_match_naive_scan(self):
        seen = set()
        for x, y, k_max in self.pairs():
            for a, b in ((x, y), (y, x)):
                rep = theorem2_scan(a, b, k_max)
                g, m, cells = naive_scan(a, b, k_max)
                got_g, got_m = rep.distinct_var_violation, rep.subset_power_violation
                assert (got_g and (got_g.r, got_g.k, got_g.lhs, got_g.rhs)) == g
                assert (got_m and (got_m.r, got_m.k, got_m.lhs, got_m.rhs)) == m
                assert rep.cells_checked == cells
                own_dens = {math.lcm(*(e.denominator for e in v.entries))
                            for v in (a, b)}
                seen.update(case for case, hit in (
                    ("n > k_max", len(a) > k_max), ("n < k_max", len(a) < k_max),
                    ("G violation", g is not None), ("M violation", m is not None),
                    ("zero entry", 0 in a.entries),
                    ("denominators differ", len(own_dens) == 2)) if hit)
        # the seeded pairs reach every case the shared denominator must cover
        assert len(seen) == 6


def assert_subset_power_sandwich(x, r, k_max):
    """``S_r^k <= M_{k,r} <= C(n, r) S_r^k`` for k = 1..k_max, exactly, with
    S_r the sum of the r largest entries: the largest subset sum is S_r, and
    there are C(n, r) of them.  So ``M_{k,r}^(1/k)`` converges to S_r from
    above, and ``M_{k,1} = sum_i x_i^k`` and ``M_{1,r} = C(n-1, r-1) sum x``
    hold too.  Returns the M values."""
    n, s_r = len(x), partial_sums_desc(x)[r - 1]
    table = subset_power_table(x, k_max, r)
    ms = [m_cell(table, k, r) for k in range(1, k_max + 1)]
    for k, m in enumerate(ms, 1):
        assert s_r ** k <= m <= math.comb(n, r) * s_r ** k, (k, m)
        if r == 1:
            assert m == sum(e ** k for e in x.entries)
    assert ms[0] == math.comb(n - 1, r - 1) * x.total()
    return ms


class TestSubsetPowerLimit:
    # the bounds that make a failed partial sum S_r(x) < S_r(y) show up as
    # a subset-power violation at a computable k
    def test_converges_from_above(self, rng):
        for _ in range(60):
            n = rng.randint(1, 7)
            x = random_rational_vector(rng, n)
            r = rng.randint(1, n)
            ms = assert_subset_power_sandwich(x, r, 8)
            if n <= 6:  # the brute-force subset sum agrees
                assert ms == [oracle_value("M", x, k, r) for k in range(1, 9)]

    def test_full_subset_is_exactly_the_total(self, rng):
        for x in [vec(4, 2, 1, 2)] + [random_rational_vector(rng, n)
                                      for n in range(1, 9)]:
            n = len(x)
            assert assert_subset_power_sandwich(x, n, 10) == [
                x.total() ** k for k in range(1, 11)]

    def test_half_size_subsets_of_twenty_four(self):
        # C(24, 12) = 2704156 subsets, past the oracle's budget
        x = RationalVector(range(1, 25))
        with pytest.raises(OracleSizeError):
            oracle_value("M", x, 1, 12)
        ms = assert_subset_power_sandwich(x, 12, 8)
        assert partial_sums_desc(x)[11] == 222  # 13 + 14 + ... + 24
        assert all(a < b for a, b in zip(ms, ms[1:]))

    def test_largest_entry_limit(self):
        x = vec(4, 2, 1, 2)
        ms = assert_subset_power_sandwich(x, 1, 40)
        assert ms[-1] == 4 ** 40 + 2 * 2 ** 40 + 1  # 4^40 <= M <= 4 * 4^40


class TestPsi:
    def test_below_threshold(self):
        assert psi_sum(vec(1, 1), 2) == pytest.approx(2.0, abs=1e-15)

    def test_log_branch(self):
        x = RationalVector([2 * math.e])
        assert psi_sum(x, 2) == pytest.approx(4.0, rel=1e-12)

    def test_zero_entry(self):
        assert psi_sum(vec(0), 5) == 0.0

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            psi_sum(vec(1), 0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError):
            psi_value(1.0, math.nan)

    def test_entries_are_the_cached_floats(self, monkeypatch):
        x = vec("1/3", 7, "22/7")
        reads, seen = [], []
        cached = RationalVector.to_floats
        monkeypatch.setattr(RationalVector, "to_floats",
                            lambda v: reads.append(v) or cached(v))
        monkeypatch.setattr(majorize, "psi_value",
                            lambda s, lam: seen.append(s) or s)
        psi_compare(x, x, [0.5, 2])
        assert reads == [x] * 4
        assert seen == 4 * [1 / 3, 7.0, 22 / 7]

    def test_an_entry_beyond_the_float_range(self):
        # past lambda, psi(1e400) = 1 + log(1e400) = 922.03...
        assert psi_value(Fraction(10 ** 400), 1.0) == pytest.approx(
            1 + 400 * math.log(10), rel=1e-15)
        x, y = vec("1e400", 1), vec("1e399", 2)
        rows = psi_compare(x, y, [1])
        assert rows[0].lhs == pytest.approx(923.034037197618273, rel=1e-14)
        assert rows[0].rhs == pytest.approx(921.424599285184173, rel=1e-14)
        assert not rows[0].holds

    def test_an_entry_below_the_normal_range(self):
        # the exact entries: 1e-400 adds nothing, and log(3/2) is
        # log 3 - log 2, so the sum may differ from the floats' in its last bit
        assert psi_sum(vec("1e-400", 1, 3), 2) == pytest.approx(
            psi_sum(vec(0, 1, 3), 2), rel=1e-15)

    def test_concave_nondecreasing(self):
        lam = 1.5
        grid = [0.05 * i for i in range(1, 200)]
        values = [psi_value(s, lam) for s in grid]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d >= -1e-12 for d in diffs)
        assert all(b <= a + 1e-9 for a, b in zip(diffs, diffs[1:]))

    def test_compare_equal_vectors(self):
        x = vec(1, "5/2", 4)
        rows = psi_compare(x, x, [0.5, 1, 2])
        assert all(r.holds and r.lhs == r.rhs for r in rows)

    def test_large_lambda_reduces_to_sums(self):
        rows = psi_compare(vec(2, 0), vec(1, 1), [100])
        assert rows[0].lhs == pytest.approx(rows[0].rhs, rel=1e-12)
        assert rows[0].holds

    def test_spectral_pair_probe(self, matrix_x, matrix_y):
        # the example spectra satisfy the polynomial hypotheses only up to
        # order 2, and indeed the concave probe genuinely fails for small
        # lambda while holding from lambda = 1 up
        x = RationalVector(spectral_summary(matrix_x).eigenvalues())
        y = RationalVector(spectral_summary(matrix_y).eigenvalues())
        rows = psi_compare(x, y, [Fraction(1, 4), Fraction(1, 2), 1, 2, 4])
        outcome = {r.lam: r.holds for r in rows}
        assert outcome == {0.25: False, 0.5: False, 1.0: True, 2.0: True,
                           4.0: True}


class TestTTransformPairs:
    def test_always_majorize(self, rng):
        for _ in range(100):
            x, y = t_transform_pair(rng, rng.randint(1, 5))
            assert majorizes(x, y).holds


@pytest.mark.parametrize("call, message", [
    (lambda: psi_value(-1.0, 1.0), r"psi is defined on \[0, inf\)"),
    (lambda: psi_compare(vec(1), vec(1, 2), [1.0]),
     "vectors must have equal length"),
    (lambda: t_transform_pair(random.Random(0), 0), "need n >= 1"),
    (lambda: psi_sum(vec("1e400", 1), math.inf),
     "^the psi sum at lambda=inf is beyond the float range$"),
    (lambda: psi_sum(vec("1e308", "1e308"), math.inf),
     "^the psi sum at lambda=inf is beyond the float range$"),
    (lambda: psi_sum(vec("1e400", 1), 0), "^lambda must be positive$")],
    ids=["psi-negative", "psi-lengths", "t-transform-n", "psi-sum-inf",
         "psi-sum-overflow", "psi-sum-lambda"])
def test_library_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
