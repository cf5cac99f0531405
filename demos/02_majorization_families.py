"""Majorization versus the polynomial families that characterize it.

The pair below has equal sums, equal products, and a larger maximum on the
left, yet the left vector does not majorize the right one.  The polynomial
hypotheses still hold for every order up to 3 -- the conditions are strictly
weaker than majorization.
"""

import random
from itertools import count
from math import comb

from sympineq import (f_kr_all, m_kr, majorizes, psi_compare, t_transform_pair,
                      theorem2_scan)
from sympineq.vectors import RationalVector, partial_sums_desc

x = RationalVector([4, "19/10", "11/10"])
y = RationalVector([3, 3, 1])

verdict = majorizes(x, y)
print("partial sums x:", [str(s) for s in partial_sums_desc(x)])
print("partial sums y:", [str(s) for s in partial_sums_desc(y)])
print("x majorizes y:", verdict.holds, "- first violation:",
      verdict.first_violation)

for r in (1, 2, 3):
    fx, fy = f_kr_all(x, r), f_kr_all(y, r)
    holds = all(fx[k] <= fy[k] for k in range(r, 3 * r + 1))
    print(f"order-{r} hypotheses F_k(x) <= F_k(y):", holds)

# The equivalence scan: since x does not majorize y, a subset-power violation
# must eventually appear.  Nothing shows up through k = 8; the first one sits
# at (r=2, k=11), far beyond where the partial sums already told the story.
for k_max in (8, 16):
    report = theorem2_scan(x, y, k_max)
    print(f"\nscan up to k={k_max}: majorizes={report.majorization_holds}, "
          f"G-violation={report.distinct_var_violation and (report.distinct_var_violation.r, report.distinct_var_violation.k)}, "
          f"M-violation={report.subset_power_violation and (report.subset_power_violation.r, report.subset_power_violation.k)}")

# Why the violation must appear: the largest r-subset sum is S_r, the sum
# of the r largest entries, and there are C(n, r) subsets, so exactly
#   S_r^k <= M_{k,r} <= C(n, r) S_r^k.
# As S_2(x) = 59/10 < 6 = S_2(y), M_{k,2}(x) <= 3 S_2(x)^k < S_2(y)^k <=
# M_{k,2}(y) from the first k with (S_2(y) / S_2(x))^k > 3 on.
sx, sy = partial_sums_desc(x)[1], partial_sums_desc(y)[1]
k_star = next(k for k in count(1) if sy ** k > comb(3, 2) * sx ** k)
for k in (1, 11, k_star):
    mx, my = m_kr(x, k, 2), m_kr(y, k, 2)
    assert sx ** k <= mx <= comb(3, 2) * sx ** k and sy ** k <= my
    print(f"k={k}: S_2(x)^k <= M_{{k,2}}(x) <= 3 S_2(x)^k, and "
          f"M_{{k,2}}(x) < M_{{k,2}}(y) is {mx < my}")
print("the sandwich guarantees the violation from k =", k_star)

# The Schur directions are proved, not sampled: F_{k,r} and G_{k,r} are
# Schur-concave and M_{k,r} is Schur-convex for every n, k and r.  The
# sympineq.families docstring writes each family's Schur-Ostrowski quotient
# as a polynomial in the entries with nonnegative coefficients.
print("\nproved directions: F and G Schur-concave, M Schur-convex "
      "(see the sympineq.families docstring)")

# Transfer-generated pairs majorize by construction, and the family
# directions follow.
x2, y2 = t_transform_pair(random.Random(1), 4)
m_direction = m_kr(x2, 3, 2) >= m_kr(y2, 3, 2)
print("\ntransfer pair majorizes:", majorizes(x2, y2).holds,
      "- M_{3,2} direction:", m_direction)
assert m_direction, (x2, y2)

# The concave test functions: an empirical probe, not a proof.
rows = psi_compare(x, y, [0.5, 1, 2, 4])
print("psi probe on the non-majorizing pair:",
      [(row.lam, row.holds) for row in rows])
