"""
Quasiconformal dilatation, inversion identities, and decay rates
================================================================

A planar map w is K-quasiconformal when its directional stretching is
bounded: |Dw|^2 <= 2K det Dw.  The smallest such K controls how fast w
settles to its limit at infinity, through the exponent
alpha(K) = K - sqrt(K^2 - 1).  This script measures K for a few maps,
checks the algebra connecting K and alpha, verifies that inversion
x -> x/|x|^2 preserves the conformal quantities, and estimates decay
rates from ring data alone.
"""

import numpy as np

from annulab import (
    PlanarMapping,
    build_grid,
    dilatation_field,
    holder_exponent,
    kelvin_conjugate,
    limit_and_decay,
    verify_kelvin_identities,
)

# a linear shear has constant dilatation; for w(x) = (x1 + s x2, x2) the
# energy-to-Jacobian ratio gives K = 1 + s^2/2, so s = 0.5 means K = 1.125
g = build_grid(1.0, 8.0, 65, 64)
shear = PlanarMapping.from_function(g, lambda a, b: (a + 0.5 * b, b))
rep = dilatation_field(shear)
print(f"shear s=0.5:  K_min {rep.K_min:.6f}, Jacobian min "
      f"{rep.jacobian_min:.6f}, orientation ok: {rep.orientation_ok}")

# alpha and K are tied by alpha + 1/alpha = 2K; the implementation keeps
# that at rounding level even for large K
for K in (1.0, 1.25, 10.0, 1e6):
    a = holder_exponent(K)
    print(f"K = {K:>9}: alpha = {a:.12e}, |alpha + 1/alpha - 2K| = "
          f"{abs(a + 1.0 / a - 2.0 * K):.1e}")

# the inversion identities: energy density and Jacobian of the transported
# map match |x|^-4 times the originals, with opposite Jacobian sign; the
# originals come from the exact derivatives, the transported map is
# differenced by the grid's second-order stencils
w = PlanarMapping.from_function(g, lambda a, b: (a * a - b * b, 2 * a * b))


def d_zsquared(a, b):
    return 2 * a, -2 * b, 2 * b, 2 * a


# for z^2, |Dw|^2 = 8 |y|^2 at the pre-image y = x/|x|^2, so the right-hand
# side |x|^-4 |Dw|^2 = 8 |y|^6 peaks at 8 r_outer^6; the residuals fall by
# about 4 each time the grid doubles
print()
for n in (32, 64, 128):
    gk = build_grid(1.0, 2.0, n, n)
    res_energy, res_jac, _ = verify_kelvin_identities(
        PlanarMapping.from_function(gk, lambda a, b: (a * a - b * b, 2 * a * b)), d_zsquared)
    print(f"inversion identities for z^2 on {n}x{n}, second-order stencil residuals: "
          f"energy {res_energy:.2e}, Jacobian {res_jac:.2e}, "
          f"{max(res_energy, res_jac) / (8.0 * gk.r_outer ** 6):.1e} of max |x|^-4 |Dw|^2")

# the conjugate map lives on the inverted annulus and applying it twice
# returns the original samples exactly
wc = kelvin_conjugate(kelvin_conjugate(w))
print(f"double conjugation max error: "
      f"{max(np.abs(wc.p - w.p).max(), np.abs(wc.q - w.q).max()):.1e}")

# decay estimation: w = x/|x|^{1+p} has |w| = r^-p, so its deviation from
# the zero limit on the ring of radius R falls like R^-p
g_far = build_grid(1.0, 256.0, 257, 32)
for p in (0.5, 1.0, 2.0):
    w_far = PlanarMapping.from_function(
        g_far,
        lambda a, b, p=p: (a / np.hypot(a, b) ** (1 + p),
                           b / np.hypot(a, b) ** (1 + p)))
    fit = limit_and_decay(w_far, [2.0 ** k for k in range(1, 8)])
    print(f"p = {p}: fitted exponent {fit.exponent:.4f}, "
          f"limit |w(inf)| = {np.hypot(*fit.limit):.1e}, "
          f"r^2 = {fit.r_squared:.6f}")
