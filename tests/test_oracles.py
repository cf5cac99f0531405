from fractions import Fraction

import pytest

from sympineq.oracles import (OracleSizeError, composition_count,
                              enumerate_compositions, f_from_matrix_oracle,
                              majorizes_int, max_part_index_set,
                              min_support_index_set, oracle_value)
from sympineq.vectors import RationalVector


def comps(n, k, idx=None):
    # the members of an index set, in the enumerator's lexicographic order
    return [p for p in enumerate_compositions(n, k)
            if idx is None or idx.membership(p)]


class TestEnumeration:
    def test_unconstrained_pairs(self):
        assert comps(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_max_part_constraint(self):
        assert comps(2, 2, max_part_index_set(2, 2, 1)) == [(1, 1)]

    def test_support_constraint(self):
        assert comps(3, 3, min_support_index_set(3, 3, 3)) == [(1, 1, 1)]

    def test_counts_match_closed_form(self):
        for n in range(1, 7):
            for k in range(7):
                got = comps(n, k)
                assert len(got) == composition_count(n, k)
                assert len(set(got)) == len(got)

    def test_bounded_part_counts_match_generating_function(self):
        # coefficient of t^k in (1 + t + ... + t^r)^n, plain integer arithmetic
        def gf_count(n, k, r):
            poly = [1]
            block = [1] * (r + 1)
            for _ in range(n):
                out = [0] * (len(poly) + r)
                for i, a in enumerate(poly):
                    if a:
                        for j, b in enumerate(block):
                            out[i + j] += a * b
                poly = out
            return poly[k] if k < len(poly) else 0

        for n in range(1, 6):
            for k in range(7):
                for r in range(1, 4):
                    assert len(comps(n, k, max_part_index_set(n, k, r))) == \
                        gf_count(n, k, r)

    def test_budget_guard(self):
        with pytest.raises(OracleSizeError):
            comps(6, 30)

    def test_rejects_empty_and_negative(self):
        for n, k in ((0, 1), (2, -1)):
            with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
                enumerate_compositions(n, k)


class TestOracleValues:
    def test_bounded_exponent_family(self):
        assert oracle_value("F", RationalVector([1, 1]), 3, 2) == 1

    def test_min_support_family(self):
        assert oracle_value("G", RationalVector([1, 1]), 2, 2) == 1

    def test_family_sums_share_the_budget_guard(self):
        # C(35, 30) compositions, whatever the cap on the parts
        for family in ("F", "G", "Gbar"):
            with pytest.raises(OracleSizeError):
                oracle_value(family, RationalVector([1] * 6), 30, 2)

    def test_subset_power_family(self):
        assert oracle_value("M", RationalVector([1, 2, 3]), 2, 2) == 50

    def test_subset_power_empty(self):
        assert oracle_value("M", RationalVector([1, 2]), 3, 5) == 0

    def test_complement_families_sum_to_full_power(self):
        x = RationalVector(["1/2", 3, 2])
        for k in range(5):
            for r in range(1, 4):
                total = oracle_value("G", x, k, r) + oracle_value("Gbar", x, k, r)
                assert total == x.total() ** k / Fraction(
                    __import__("math").factorial(k))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            oracle_value("Z", RationalVector([1]), 1, 1)


class TestIntegerMajorization:
    def test_basic(self):
        assert majorizes_int((2, 0), (1, 1))
        assert not majorizes_int((1, 1), (2, 0))
        assert majorizes_int((3, 1), (2, 2))

    def test_unequal_sums_never_majorize(self):
        assert not majorizes_int((2, 0), (1, 0))

    def test_reflexive(self):
        assert majorizes_int((2, 1, 0), (0, 1, 2))


class TestMatrixInterpolation:
    def test_diagonal_gives_the_product_of_templates(self):
        # det(I + tA + t^2 A^2 / 2) of diag(1, 2) is (1 + t + t^2/2)(1 + 2t + 2t^2)
        assert f_from_matrix_oracle(((1, 0), (0, 2)), 2) == \
            [1, 3, Fraction(9, 2), 3, 1]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            f_from_matrix_oracle(((1, 2),), 1)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="^need r >= 1$"):
            f_from_matrix_oracle(((1, 0), (0, 2)), 0)

    def test_budget_guard(self):
        with pytest.raises(OracleSizeError):
            f_from_matrix_oracle([[1] * 13 for _ in range(13)], 4)
