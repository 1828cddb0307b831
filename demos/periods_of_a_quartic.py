"""Period matrix of y^2 = x^4 - 1 and checks against closed forms.

The lemniscatic curve has normalized period tau = i.  The Abel map is
based at a branch point, so the images of all four branch points are half
periods.  The bilinear relations give an internal consistency check with
no reference value needed.
"""

import numpy as np

from rsurf.periods import (
    abel_map,
    bilinear_check,
    build_curve,
    elliptic_K,
    period_matrix,
)
from rsurf.theta import reduce_lattice

curve = build_curve([-1, 0, 0, 0, 1])
print("branch points:", np.round(curve.branch_points, 6))

tau, ma, mb = period_matrix(curve)
print("tau =", tau[0, 0], "(expected 1j)")

res, pos = bilinear_check(ma, mb)
print("bilinear residual %.2e, positivity %.4f" % (res, pos))

print()
print("Abel images of branch points (base point %s; all are half periods):"
      % np.round(curve.branch_points[0], 3))
for bp in curve.branch_points:
    u = abel_map(curve, (bp, 0.0))
    d = reduce_lattice(2 * u, tau)
    print("  b = %8s  u = %s  2u mod lattice: %.2e" % (np.round(bp, 3), np.round(u, 6), abs(d[0])))

# a genus 2 example with full symmetry
curve2 = build_curve([-1, 0, 0, 0, 0, 0, 1])
tau2, ma2, mb2 = period_matrix(curve2)
print()
print("y^2 = x^6 - 1:")
print(np.round(tau2, 6))
print("asymmetry %.2e" % np.max(np.abs(tau2 - tau2.T)))
print("smallest eigenvalue of Im tau: %.4f" % np.linalg.eigvalsh(tau2.imag)[0])

print()
print("AGM oracle: K(1/sqrt 2) = %.12f" % elliptic_K(1 / np.sqrt(2)))
