"""
Linear elliptic solves and the logarithmic Newtonian potential
==============================================================

Two workhorses: a direct solver for a11 u_11 + 2 a12 u_12 +
a22 u_22 = f with Dirichlet data on both circles, and the plane's
log-kernel potential, summed mode by mode in theta from the kernel's exact
split in log r.  The gradient of a solution is itself a quasiconformal map
whose dilatation is bounded by the coefficient ellipticity - measured
here, not assumed.
"""

import numpy as np

from annulab import (
    LinearCoefficients,
    ScalarField,
    build_grid,
    dilatation_field,
    hessian,
    newtonian_potential,
    solve_linear_dirichlet,
)

# solve the trace equation (Laplace) with boundary data from log|x|: the
# discrete solution reproduces the fundamental solution to stencil accuracy
g = build_grid(1.0, 16.0, 129, 64)
x1, x2 = g.nodes()
exact = 0.5 * np.log(x1**2 + x2**2)
coeffs = LinearCoefficients.trace_operator(g)
zero = ScalarField(g, np.zeros(g.shape))
u = solve_linear_dirichlet(coeffs, zero, exact[0], exact[-1])
print(f"Laplace with log|x| data: sup error "
      f"{np.abs(u.values - exact).max():.2e}")

# anisotropic coefficients diag(1, gamma): the saddle (x1^2 - x2^2/gamma)/2
# is an exact solution, and its gradient map, measured from the Hessian as
# (u_2, u_1) because det D^2 u < 0, has dilatation (gamma + 1/gamma)/2
for gamma in (2.0, 3.0):
    co = LinearCoefficients(g, 1.0, 0.0, gamma)
    saddle = 0.5 * (x1**2 - x2**2 / gamma)
    u = solve_linear_dirichlet(co, zero, saddle[0], saddle[-1])
    rep = dilatation_field(hessian(u))
    print(f"gamma = {gamma:.0f}: measured K_min {rep.K_min:.4f}"
          f"{' (components swapped)' if rep.components_swapped else ''}, "
          f"exact (gamma + 1/gamma)/2 = {(gamma + 1/gamma)/2:.4f}, "
          f"ellipticity bound (1 + gamma)/2 = {(1 + gamma)/2:.2f}")

# the potential of a radial density f = |y|^-4 supported on the annulus:
# values at interior points satisfy the Poisson equation, and log_mass
# reports the coefficient of the far-field log
g2 = build_grid(1.0, 16.0, 129, 64)
f = ScalarField.from_function(g2, lambda a, b: (a * a + b * b) ** -2.0)
pts = np.array([[2.0, 0.0], [0.0, 4.0], [-8.0, 0.0]])
vals, log_mass = newtonian_potential(f, pts)
print(f"\npotential of |y|^-4 at {pts.tolist()}: "
      f"{[f'{v:.6f}' for v in vals]}")
print(f"total mass / 2 pi (log coefficient at infinity): {log_mass:.6f}")

# slowly decaying density f = |y|^-3/2: the potential grows like sqrt(r),
# i.e. with exponent 1/2 < 1, matching u(r) = 4(sqrt(r) - 1) - 2 log r
g3 = build_grid(1.0, 2.0 ** 20, 321, 32)
f3 = ScalarField.from_function(g3, lambda a, b: (a * a + b * b) ** -0.75)
radii = 2.0 ** np.arange(10, 18)
vals, _ = newtonian_potential(f3, np.column_stack([radii, np.zeros_like(radii)]))
slope = np.polyfit(np.log(radii), np.log(np.abs(vals)), 1)[0]
print(f"growth exponent of the |y|^-3/2 potential over r = 2^10..2^17: "
      f"{slope:.4f} (expected 0.5)")
