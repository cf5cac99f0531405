"""Catalyst products and template variants.

A catalyst is an auxiliary vector c with c_0 = 1; instead of comparing two
vectors directly, one compares the coefficient sequences of the template
products taken over x (x) c and y (x) c.  That is the ordinary template
product over the tensor vector, so one integer kernel computes both.
"""

from fractions import Fraction

from sympineq import (Catalyst, check_hypotheses, padded_taylor_template,
                      product_over_vector, taylor_template, tensor)
from sympineq.vectors import RationalVector

x = RationalVector([1, 2])
c = Catalyst((Fraction(1), Fraction(1, 2)))

print("x =", x)
print("catalyst entries:", [str(e) for e in c.entries])
print("x tensor c =", tensor(x, c))

# With the linear template T(s) = 1 + s the product over x (x) c is
#   (1 + t)(1 + t/2)(1 + 2t)(1 + t)
#   = (1 + 2t + t^2)(1 + 5t/2 + t^2)
#   = 1 + 9/2 t + 7 t^2 + 9/2 t^3 + t^4,
# expanded by hand; the kernel gives the same coefficients exactly.
tpl = taylor_template(1)
d = len(x) * len(c)
by_hand = [Fraction(1), Fraction(9, 2), Fraction(7), Fraction(9, 2), Fraction(1)]
cx = product_over_vector(tensor(x, c), tpl, d)
print("\ncoefficients:", [str(v) for v in cx.coeffs])
print("match the hand expansion:", list(cx.coeffs) == by_hand)

# Tensoring with a catalyst can only help a comparison; the trivial catalyst
# reduces to the plain hypotheses.
y = RationalVector([Fraction(3, 2), Fraction(3, 2)])
plain = check_hypotheses(x, y, 1)
cy = product_over_vector(tensor(y, c), tpl, d)
print("\nplain order-1 hypotheses pass:", plain.all_pass)
print("catalyst-extended comparisons pass:",
      all(a <= b for a, b in zip(cx.coeffs, cy.coeffs)))

# Templates may also be padded above their order with coefficients a_j/j!,
# 0 <= a_j < 1, giving order-zero style variants of the exponential template.
padded = padded_taylor_template(2, {3: Fraction(1, 2), 4: Fraction(1, 4)})
print("\npadded template degree:", padded.degree)
print("padded product coefficients:",
      [str(v) for v in product_over_vector(x, padded, 4).coeffs])
