"""The integral identities behind the mean-inequality verifier.

Two Mellin-type kernels synthesize the power function a^p: one from the log
of the truncated exponential (valid for 0 < p < 1), one from the gap between
s and that log (valid for 1 < p < r+1).  The quadrature below validates both
numerically and shows the divergence at the interval edges.
"""

import math

from sympineq.mellin import (delta_r, identity_check, identity_lhs, integral_I,
                             integral_J)

# The order-1 kernel has a closed form: pi / (p sin(pi p)).
for p in (0.25, 0.5, 0.75):
    got = integral_I(1, p)
    exact = math.pi / (p * math.sin(math.pi * p))
    print(f"I_1({p}) = {got.value:.10f}   closed form {exact:.10f}   "
          f"nodes {got.node_count}")

# The normalized scaled transforms reproduce a^p across orders and scales.
print("\nrelative errors of the two identities:")
for which, ps in (("id1", (0.25, 0.75)), ("id2", (1.5,))):
    for r in (1, 2, 3):
        for p in ps:
            for a in (0.5, 2.0):
                err = identity_check(which, a, p, r)
                print(f"  {which}: r={r} p={p} a={a}  ->  {err:.2e}")

# LHS values grow monotonically in the scale, like a^p itself.
values = [identity_lhs("id1", a, 0.5, 2).value for a in (0.25, 1.0, 4.0)]
print("\nid1 LHS at a = 1/4, 1, 4 (p = 0.5):",
      [round(v, 6) for v in values], " -- compare sqrt(a)")

# The second kernel blows up as p approaches r + 1 from below.
for r in (1, 2):
    near = integral_J(r, r + 0.99).value
    mid = integral_J(r, r + 0.5).value
    print(f"J_{r} blow-up: value at p={r + 0.5} is {mid:.4f}, "
          f"at p={r + 0.99} is {near:.4f}")

# The gap function itself: O(s^{r+1}) at zero, computed cancellation-safe.
print("\ndelta_2(s)/s^3 for s = 1e-2, 1e-3, 1e-4 (limit 1/6):")
for s in (1e-2, 1e-3, 1e-4):
    print(f"  s={s:g}: {delta_r(s, 2) / s ** 3:.6f}")
