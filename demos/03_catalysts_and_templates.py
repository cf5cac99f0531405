"""Catalyst products.

A catalyst is an auxiliary vector c with c_0 = 1; instead of comparing two
vectors directly, one compares the coefficient sequences of the order-r
products prod T_r(v t) taken over x (x) c and y (x) c, where T_r(s) is the
exponential series cut at s^r.  That is the ordinary product over the
tensor vector, so one integer kernel computes both.
"""

from fractions import Fraction

from sympineq import check_hypotheses, product_over_vector, tensor
from sympineq.vectors import RationalVector

x = RationalVector([1, 2])
c = RationalVector([1, "1/2"])

print("x =", x)
print("catalyst entries:", [str(e) for e in c.entries])
print("x tensor c =", tensor(x, c))

# At order 1, T_1(s) = 1 + s, and the product over x (x) c is
#   (1 + t)(1 + t/2)(1 + 2t)(1 + t)
#   = (1 + 2t + t^2)(1 + 5t/2 + t^2)
#   = 1 + 9/2 t + 7 t^2 + 9/2 t^3 + t^4,
# expanded by hand; the kernel gives the same coefficients exactly.
d = len(x) * len(c)
by_hand = [Fraction(1), Fraction(9, 2), Fraction(7), Fraction(9, 2), Fraction(1)]
cx = product_over_vector(tensor(x, c), 1, d)
print("\ncoefficients:", [str(v) for v in cx.coeffs])
print("match the hand expansion:", list(cx.coeffs) == by_hand)

# Tensoring with a catalyst can only help a comparison; the trivial catalyst
# reduces to the plain hypotheses.
y = RationalVector([Fraction(3, 2), Fraction(3, 2)])
plain = check_hypotheses(x, y, 1)
cy = product_over_vector(tensor(y, c), 1, d)
print("\nplain order-1 hypotheses pass:", plain.all_pass)
print("catalyst-extended comparisons pass:",
      all(a <= b for a, b in zip(cx.coeffs, cy.coeffs)))
