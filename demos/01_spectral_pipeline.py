"""Walk a pair of integer matrices through the whole exact pipeline.

Two 4x4 factor matrices that differ in a single sign produce Gram products
with the same trace but different spectral coefficients.  Everything below is
exact rational arithmetic until the final lp-mean grids.
"""

import math

from sympineq import (RationalVector, check_hypotheses_coeffs, gram,
                      spectral_summary, verify_conclusions)

Q = [[1, 1, 1, 1],
     [0, 1, 1, 0],
     [0, 0, 1, 0],
     [0, 0, 1, 1]]
R = [[1, 1, 1, 1],
     [0, 1, 1, 0],
     [0, 0, 1, 0],
     [0, 0, 1, -1]]  # one flipped sign in the last row

X, Y = gram(Q), gram(R)
print("X = Q Q^T rows:", *X, sep="\n  ")
print("Y = R R^T rows:", *Y, sep="\n  ")

# The coefficients of det(I + tA) are the elementary symmetric values of the
# spectrum, so no eigenvalue ever needs to be extracted numerically.  The
# higher-order family tables come from det(sum_j A^j t^j / j!), every order
# from the same traces tr A^k.
SX = spectral_summary(X, (1, 2, 3), assume_psd=True)
SY = spectral_summary(Y, (1, 2, 3), assume_psd=True)
print("\ndet(I + tX) coefficients:", list(SX.e_coeffs))
print("det(I + tY) coefficients:", list(SY.e_coeffs))

certified = []
for r in (1, 2, 3):
    fx, fy = SX.f_coeffs[r], SY.f_coeffs[r]
    report = check_hypotheses_coeffs(fx, fy, r, len(X))
    print(f"\norder r={r}: hypotheses all pass = {report.all_pass}")
    if report.all_pass:
        certified.append(r)
    if r == 2:
        scaled = [math.factorial(k) * fx[k] for k in range(2, 9)]
        print("  k! * F_{k,2}(X) for k=2..8:", scaled)
    failure = report.first_failure()
    if failure is not None:
        print(f"  first failure at k={failure.k}: "
              f"{math.factorial(failure.k) * failure.fx} > "
              f"{math.factorial(failure.k) * failure.fy} (after k! scaling)")
        assert (r, failure.k) == (3, 10), (r, failure)
assert certified == [1, 2], certified

# Orders 1 and 2 pass, so the mean inequalities are certified on [0, 3].
# The grids themselves are float-side.  They compare the eigenvalues, each
# the float nearest to a root of the integer characteristic polynomial.
x, y = RationalVector(SX.eigenvalues()), RationalVector(SY.eigenvalues())
print("\neigenvalues of X:", x.to_floats())
print("eigenvalues of Y:", y.to_floats())
conclusion = verify_conclusions(x, y, r=2, sums_equal=True)
print("\nmeasured grids at the certified order r=2:")
print("  low grid  [0,1]  all pass:", conclusion.low_all_pass)
print("  high grid [1,3]  all pass:", conclusion.high_all_pass)
assert conclusion.all_asserted_pass
worst_low = min(pt.margin for pt in conclusion.low_grid)
worst_high = min(pt.margin for pt in conclusion.high_grid)
print(f"  smallest margins: low {worst_low:.3e}, high {worst_high:.3e}")
