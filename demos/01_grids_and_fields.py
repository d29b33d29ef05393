"""
Annular grids, sampled fields, and discrete calculus
====================================================

Everything in the package lives on a tensor grid over an annulus
1 <= |x| <= R: rings of radii (log or uniformly spaced) times equally
spaced angles.  This script builds both spacings, samples scalar fields
and planar mappings, differentiates them, integrates over rings and
annuli, and round-trips a field through the snapshot format.
"""

import tempfile
from pathlib import Path

import numpy as np

from annulab import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    ScalarField,
    annulus_integral,
    build_grid,
    gradient,
    hessian,
    laplacian,
    read_snapshot,
    write_snapshot,
)
from annulab.grid import ring_index

# a log-radial grid concentrates rings near the inner boundary, which is
# where exterior solutions vary fastest; uniform spacing is the right
# choice when polynomials must be differenced exactly
g_log = build_grid(1.0, 16.0, 65, 48, spacing=LOG_RADIAL)
g_uni = build_grid(1.0, 16.0, 65, 48, spacing=UNIFORM_RADIAL)
print(f"log grid:     {g_log.n_r} rings x {g_log.n_theta} sectors, "
      f"radii {g_log.radii[0]:.0f}..{g_log.radii[-1]:.0f}")
print(f"uniform grid: first ring gap {g_uni.radii[1] - g_uni.radii[0]:.4f} "
      f"vs log {g_log.radii[1] - g_log.radii[0]:.4f}")

# sample u = log|x|, the fundamental solution; its Laplacian vanishes and
# its flux through any circle is exactly 2 pi
u = ScalarField.from_function(g_log, lambda x1, x2: 0.5 * np.log(x1**2 + x2**2))
lap = laplacian(u)
print(f"\nmax |Laplacian of log|x|| on the log grid: "
      f"{np.abs(lap.values[1:-1]).max():.2e}")

# the outward flux through the ring |x| = 4 by the periodic trapezoid in
# theta, which is spectrally accurate for smooth periodic integrands
w = gradient(u)
i = ring_index(g_log, 4.0)
radial = w.p[i] * g_log.cos_theta + w.q[i] * g_log.sin_theta
flux = g_log.radii[i] * g_log.dtheta * np.sum(radial)
print(f"flux of grad log|x| through |x| = 4: {flux:.12f} (2 pi = {2*np.pi:.12f})")

# hessian components come back as a symmetric matrix field
h = hessian(u)
trace = h.m11 + h.m22
print(f"max |trace of Hessian| (harmonic, so ~0): "
      f"{np.abs(trace[1:-1]).max():.2e}")

# integrals against the area element r dr dtheta
one = ScalarField.from_function(g_log, lambda x1, x2: np.ones_like(x1))
area = annulus_integral(one, 2.0, 8.0)
print(f"\narea of 2 <= |x| <= 8: {area:.6f} (exact {np.pi * (64 - 4):.6f})")

# snapshots: an ASCII header line, then the n_r * n_theta values as
# little-endian float64, radial then angular, so the file is byte-stable
# and reads back exactly
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.field"
    write_snapshot(path, u)
    back = read_snapshot(path)
print(f"\nsnapshot round trip max error: "
      f"{np.abs(back.values - u.values).max():.1e}")
