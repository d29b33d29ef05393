"""Linear uniformly elliptic solves on annuli and the log-kernel potential.

Two workhorses live here.  ``solve_linear_dirichlet`` solves the second-order
nine-point stencil system for a_ij u_ij = f on an annular grid to a
normwise backward error of 1e-10.  ``newtonian_potential``
integrates the normalized kernel log|x - y| - log|y| against a compactly
supported density: node-centered product quadrature in the bulk, 8x8
subdivision of cells near each target, and local polar integration (exact
cell geometry, closed-form ray exits) of the cell containing the target.

The rule depends only on the grid, and ``_rule`` builds it once per call:
cell edges and areas, and the sub-cell midpoints, areas and interpolation
stencils, per ring and per column.  Two target paths, described in
``newtonian_potential``, then only apply it: grid nodes a ring at a time by
FFT correlation, all other targets as one batch.  Both take a target's near
cells from ``_near_cells`` and the integral over its own cell from ``_own_cell``.

The linear solve applies its operator from the nine stencil weight
arrays, with no matrix.  Its preconditioner solves with the ring means of
the polar stencil coefficients: a DFT in theta splits that system into one
radial tridiagonal system per angular mode, all solved by one banded call,
the exact inverse for coefficients constant along rings (the Laplacian,
radial Monge-Ampere linearizations).  Coefficients that vary along rings
take GMRES iterations with that preconditioner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse.linalg import LinearOperator, gmres

from .grid import (
    AnnularGrid,
    ScalarField,
    _check_values,
    sym2_eig,
)

__all__ = [
    "LinearCoefficients",
    "ellipticity_constants",
    "newtonian_potential",
    "solve_linear_dirichlet",
]


def ellipticity_constants(a11, a12, a22):
    """Global eigenvalue extremes and their ratio for a symmetric field.

    The nodal eigenvalues of [[a11, a12], [a12, a22]] come from
    ``sym2_eig``.  Returns ``(lam, Lam, gamma)`` with
    gamma = Lam / lam; raises when the minimum eigenvalue is not strictly
    positive.
    """
    a11, a12, a22 = (np.asarray(a, dtype=float) for a in (a11, a12, a22))
    if not all(np.all(np.isfinite(a)) for a in (a11, a12, a22)):
        raise ValueError("singular-input: non-finite coefficient entries")
    lo, hi = sym2_eig(a11, a12, a22)
    lam = float(np.min(lo))
    big = float(np.max(hi))
    if lam <= 0.0:
        raise ValueError(
            f"not-elliptic: minimum coefficient eigenvalue {lam:.6e} is not positive"
        )
    return lam, big, big / lam


@dataclass(frozen=True, eq=False)
class LinearCoefficients:
    """Symmetric, uniformly elliptic coefficient field a(x).

    Scalar entries broadcast across the grid, so constant operators read
    ``LinearCoefficients(grid, 1.0, 0.0, 1.0)``.  Construction validates
    uniform ellipticity with ``ellipticity_constants``; the entries are
    private read-only copies, so they stay the ones validated.
    """

    grid: AnnularGrid
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        for name in ("a11", "a12", "a22"):
            arr = np.array(
                np.broadcast_to(np.asarray(getattr(self, name), dtype=float), self.grid.shape)
            )
            arr.setflags(write=False)
            object.__setattr__(self, name, _check_values(self.grid, arr, name))
        ellipticity_constants(self.a11, self.a12, self.a22)

    @classmethod
    def trace_operator(cls, grid):
        """Coefficients of the plain Laplacian, a = identity."""
        return cls(grid, 1.0, 0.0, 1.0)


def _boundary_values(grid, data, name):
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid.n_theta, float(arr))
    if arr.shape != (grid.n_theta,):
        raise ValueError(
            f"invalid-dimension: {name} must be a scalar or length-{grid.n_theta} array"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"singular-input: non-finite entries in {name}")
    return arr


def _stencil_coefficients(coeffs):
    """Per-node coefficients of u_tt, u_ttheta, u_thth, u_t, u_theta.

    The Cartesian operator a_ij u_ij is rotated to the polar frame
    (A_rr, A_rt, A_tt) and expressed in the differenced parameters
    (t, theta) through the grid's dr/dt and d2r/dt2 / (dr/dt).
    """
    g = coeffs.grid
    r = g.radii[:, None]
    c, s = g.cos_theta, g.sin_theta
    a11, a12, a22 = coeffs.a11, coeffs.a12, coeffs.a22
    a_rr = a11 * c * c + 2.0 * a12 * c * s + a22 * s * s
    a_tt = a11 * s * s - 2.0 * a12 * c * s + a22 * c * c
    a_rt = 2.0 * ((a22 - a11) * c * s + a12 * (c * c - s * s))
    h = g.dr_dt[:, None]
    stretch = r / h  # 1 on log-radial grids
    inv_h2 = 1.0 / (h * h)
    inv_r2 = 1.0 / (r * r)
    return (
        a_rr * inv_h2,
        a_rt * inv_h2 / stretch,
        a_tt * inv_r2,
        (a_tt / stretch - g.d2r_ratio * a_rr) * inv_h2,
        -a_rt * inv_r2,
    )


_BACKWARD_TOL = 1e-10  # normwise backward error a linear solve must meet
_GMRES_RESTART = 20  # Krylov basis size between GMRES restarts
_GMRES_CYCLES = 50  # restart cycles before GMRES gives up


def solve_linear_dirichlet(coeffs, f, g_inner, g_outer):
    """Solve a_ij u_ij = f with Dirichlet data on the boundary rings.

    Interior nodes carry the centered nine-point stencil, applied from its
    weight arrays; boundary rings move to the right-hand side.  The
    preconditioner M is an FFT in theta with one tridiagonal radial solve
    per angular mode, built from the ring means of the polar stencil
    coefficients.  It is exact for coefficients constant along rings, which
    includes the Laplacian and the linearizations of radial Newton
    iterates; otherwise GMRES preconditioned by M continues from M b.
    x is accepted when |b - A x| <= 1e-10 (|A| |x| + |b|) in max norms, a
    normwise backward error (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 7.1); ``singular-system`` is raised otherwise.
    """
    g = coeffs.grid
    if f.grid is not g and not g.same_geometry(f.grid):
        raise ValueError("invalid-dimension: source field grid does not match coefficients")
    gin = _boundary_values(g, g_inner, "g_inner")
    gout = _boundary_values(g, g_outer, "g_outer")

    polar = [a[1:-1] for a in _stencil_coefficients(coeffs)]
    stencil = _nine_point(g, *polar)

    b = f.values[1:-1].astype(float).copy()
    # boundary rings move to the right-hand side, in stencil order
    for di, dj, wgt in stencil:
        if di:
            ring, data = (0, gin) if di < 0 else (-1, gout)
            b[ring] -= wgt[ring] * np.roll(data, -dj)
    b_flat = b.reshape(-1)
    norm_a, norm_b = _stencil_norm(stencil), float(np.max(np.abs(b_flat)))

    def gate(x):
        return _BACKWARD_TOL * (norm_a * float(np.max(np.abs(x))) + norm_b)

    x = _krylov_solve(lambda v: _stencil_product(stencil, v), b_flat,
                      _polar_mode_solver(g, *polar), gate)

    return ScalarField(g, np.vstack([gin, x.reshape(b.shape), gout]))


def _nine_point(grid, ctt, ctq, cqq, ct, cq):
    """Nine-point weights from interior-ring ``_stencil_coefficients``.

    Row (i, j) reads sum of weight[i, j] * u[i + di, (j + dj) mod n_theta].
    """
    dt, dq = grid.dt, grid.dtheta
    inv_dt2, inv_dq2 = 1.0 / (dt * dt), 1.0 / (dq * dq)
    inv_2dt, inv_2dq = 0.5 / dt, 0.5 / dq
    inv_cross = 0.25 / (dt * dq)
    return (
        (0, 0, -2.0 * ctt * inv_dt2 - 2.0 * cqq * inv_dq2),
        (1, 0, ctt * inv_dt2 + ct * inv_2dt),
        (-1, 0, ctt * inv_dt2 - ct * inv_2dt),
        (0, 1, cqq * inv_dq2 + cq * inv_2dq),
        (0, -1, cqq * inv_dq2 - cq * inv_2dq),
        (1, 1, ctq * inv_cross),
        (1, -1, -ctq * inv_cross),
        (-1, 1, -ctq * inv_cross),
        (-1, -1, ctq * inv_cross),
    )


def _stencil_product(stencil, x):
    """A x for flattened interior values x, boundary rings taken as zero."""
    ni, n_t = stencil[0][2].shape
    pad = np.zeros((ni + 2, n_t + 2))
    pad[1:-1] = np.pad(x.reshape(ni, n_t), ((0, 0), (1, 1)), mode="wrap")
    out = np.zeros((ni, n_t))
    # each row sums its neighbours in the order of their unknown index, the
    # rounding the built-in reports are pinned to
    for di, dj, wgt in sorted(stencil, key=lambda entry: entry[:2]):
        out += wgt * pad[1 + di:1 + di + ni, 1 + dj:1 + dj + n_t]
    return out.ravel()


def _stencil_norm(stencil):
    """||A||inf: the largest absolute row sum over the interior neighbours."""
    sums = np.zeros(stencil[0][2].shape)
    for di, _, wgt in sorted(stencil, key=lambda entry: entry[:2]):
        keep = slice(max(-di, 0), len(sums) - max(di, 0))  # neighbour is interior
        sums[keep] += np.abs(wgt[keep])
    return float(sums.max())


def _polar_mode_solver(grid, ctt, ctq, cqq, ct, cq):
    """Direct solver of the stencil system with ring-mean coefficients.

    With coefficients that do not vary along a ring, the nine-point system
    is circulant in theta: a DFT over theta splits it into one radial
    tridiagonal system per angular mode k.  With kappa = k dtheta, row i of
    mode k reads

        sub   ctt/dt^2 - ct/(2 dt) - i ctq sin(kappa) / (2 dt dtheta)
        diag  -2 ctt/dt^2 - 2 cqq (1 - cos(kappa)) / dtheta^2
              + i cq sin(kappa) / dtheta
        super ctt/dt^2 + ct/(2 dt) + i ctq sin(kappa) / (2 dt dtheta)

    All n_theta // 2 + 1 modes of the rfft are stacked into one block
    diagonal band, uncoupled between blocks, and solved by one banded
    LAPACK call.  Takes the interior-ring stencil coefficients and returns
    ``solve(rhs)`` for flattened right-hand sides.  The result is exact
    when the coefficients are constant on each ring and an approximate
    inverse otherwise.
    """
    n_t = grid.n_theta
    dt, dq = grid.dt, grid.dtheta
    ctt, ctq, cqq, ct, cq = (np.mean(a, axis=1) for a in (ctt, ctq, cqq, ct, cq))
    ni = ctt.size
    kappa = np.arange(n_t // 2 + 1)[:, None] * dq
    sin_k = np.sin(kappa)
    radial = ctt / (dt * dt)
    drift = ct * (0.5 / dt)
    cross = 1j * ctq * sin_k * (0.5 / (dt * dq))
    upper = radial + drift + cross
    lower = radial - drift - cross
    # the boundary rings are eliminated, so blocks of different modes do not couple
    upper[:, -1] = 0.0
    lower[:, 0] = 0.0
    band = np.zeros((3, upper.size), dtype=complex)
    band[0, 1:] = upper.ravel()[:-1]
    band[1] = (-2.0 * radial - 2.0 * cqq * (1.0 - np.cos(kappa)) / (dq * dq)
               + 1j * cq * sin_k / dq).ravel()
    band[2, :-1] = lower.ravel()[1:]

    def solve(rhs):
        rhs_hat = np.fft.rfft(rhs.reshape(ni, n_t), axis=1)
        x_hat = solve_banded((1, 1), band, rhs_hat.T.ravel(), check_finite=False)
        return np.fft.irfft(x_hat.reshape(-1, ni).T, n=n_t, axis=1).ravel()

    return solve


def _krylov_solve(apply, b, precondition, gate):
    """Solve A x = b, A x = apply(x), by GMRES left-preconditioned with M.

    Starts from x0 = M b.  Restarted GMRES (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7 (1986) 856) then runs one restart cycle at a time, for
    at most _GMRES_CYCLES cycles, until the residual max-norm is within
    gate(x) / 4; x0 is kept when it already is, as when M is the exact
    inverse.  Raises ``singular-system`` when M fails or the result
    misses gate(x).
    """
    shape = (b.size, b.size)
    operator = LinearOperator(shape, matvec=apply, dtype=float)
    inverse = LinearOperator(shape, matvec=precondition, dtype=float)
    try:
        x = precondition(b)
        final = float(np.max(np.abs(b - apply(x))))
        for _ in range(_GMRES_CYCLES):
            if final <= 0.25 * gate(x):
                break
            # atol 0: a fresh call would stop the cycle on a preconditioned
            # residual scaled by atol, which can stall; the gate decides here
            x, _ = gmres(operator, b, x0=x, rtol=0.0, atol=0.0,
                         restart=_GMRES_RESTART, maxiter=1, M=inverse)
            final = float(np.max(np.abs(b - apply(x))))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular-system: ring-mean mode solver failed ({exc})") from None
    bound = gate(x)
    if not np.isfinite(final) or final > bound:
        raise ValueError(
            f"singular-system: discrete residual {final:.3e} exceeds the "
            f"backward-error bound {bound:.3e}"
        )
    return x


# -- Newtonian potential ----------------------------------------------------

_N_SUB = 8  # subdivision factor for cells near a target
_REACH = 2.5 + 1e-9  # cells within this index distance of a target are refined
_NODE_TOL = 1e-12  # index-coordinate tolerance for a target to count as a node
_RATIO = 0.8  # rings within this radius ratio of a target are summed by series
_TERMS = 192  # series terms: _RATIO**_TERMS / (_TERMS (1 - _RATIO)) < 2**-53
_NEAR_ELEMENTS = 250_000  # size of the largest temporary of the near-cell pass


def _t_weights(grid, tq):
    """Ring it and weight wt of linear interpolation in t at tq.

    The value at tq is (1 - wt) * v[it] + wt * v[it + 1].
    """
    tq = np.asarray(tq, dtype=float)
    it = np.clip(np.searchsorted(grid.t, tq, side="right") - 1, 0, grid.n_r - 2)
    return it, np.clip((tq - grid.t[it]) / grid.dt, 0.0, 1.0)


def _theta_weights(grid, thq):
    """Columns j0, j1 and weight wj of periodic linear interpolation in theta.

    The value at thq is (1 - wj) * v[j0] + wj * v[j1].
    """
    jf = np.asarray(thq, dtype=float) / grid.dtheta
    j0f = np.floor(jf)
    j0 = j0f.astype(int) % grid.n_theta
    return j0, (j0 + 1) % grid.n_theta, jf - j0f


def _bilinear(grid, vals, tq, thq):
    """Bilinear interpolation of nodal values at parameters (tq, thq)."""
    it, wt = _t_weights(grid, tq)
    j0, j1, wj = _theta_weights(grid, thq)
    low = (1.0 - wj) * vals[it, j0] + wj * vals[it, j1]
    high = (1.0 - wj) * vals[it + 1, j0] + wj * vals[it + 1, j1]
    return (1.0 - wt) * low + wt * high


def _rule(grid):
    """The potential's quadrature rule on ``grid``: every part no target changes.

    Node-centered cells span t +- dt/2, clipped to the grid, and one dtheta;
    ``r_lo``, ``r_hi`` are their edge radii, ``area`` their areas (n_r, 1),
    ``log_r`` the log of the node radii and ``n_rays`` the ray count of the
    polar integral over a target's own cell.  A cell near a target is split
    into _N_SUB x _N_SUB sub-cells, the product of one radial split per
    ring and one angular split per column.  Per ring, shaped (n_r, _N_SUB):
    the midpoints ``sub_r``, ``sub_log_r``, ``sub_t``, the sub-cell areas
    ``sub_area`` and the t-interpolation stencil ``it``, ``wt`` at
    ``sub_t``.  Per column, shaped (n_theta, _N_SUB): the midpoint angles
    ``sub_theta`` in [0, 2 pi), ``cos`` and ``sin`` of the midpoint angles,
    and the theta-interpolation stencil ``j0``, ``j1``, ``wj`` at ``sub_theta``.
    """
    t, dq = grid.t, grid.dtheta
    t_lo = np.maximum(t - 0.5 * grid.dt, t[0])
    t_hi = np.minimum(t + 0.5 * grid.dt, t[-1])
    r_lo, r_hi = grid.r_of_t(t_lo), grid.r_of_t(t_hi)
    edges = t_lo[:, None] + (t_hi - t_lo)[:, None] * (np.arange(_N_SUB + 1) / _N_SUB)
    r_edges = grid.r_of_t(edges)
    sub_t = 0.5 * (edges[:, 1:] + edges[:, :-1])
    sub_r = grid.r_of_t(sub_t)
    # the angles stay unreduced for the midpoints and are reduced for the stencil
    angles = grid.theta[:, None] + ((np.arange(_N_SUB) + 0.5) / _N_SUB - 0.5) * dq
    sub_theta = angles % (2.0 * math.pi)
    it, wt = _t_weights(grid, sub_t)
    j0, j1, wj = _theta_weights(grid, sub_theta)
    return SimpleNamespace(
        grid=grid, r_lo=r_lo, r_hi=r_hi, area=0.5 * (r_hi * r_hi - r_lo * r_lo)[:, None] * dq,
        log_r=np.log(grid.radii), n_rays=max(64, 4 * grid.n_theta),
        sub_r=sub_r, sub_log_r=np.log(sub_r), sub_t=sub_t,
        sub_area=0.5 * (r_edges[:, 1:] ** 2 - r_edges[:, :-1] ** 2) * (dq / _N_SUB),
        it=it, wt=wt, sub_theta=sub_theta, cos=np.cos(angles), sin=np.sin(angles),
        j0=j0, j1=j1, wj=wj,
    )


def _libm(fn, *args):
    """Elementwise ``fn`` from the math module over arrays of floats.

    numpy's vectorized sin, log, hypot and atan2 may round differently
    from the C library in the last bit, and differently on different CPUs.
    Which cell a target on a cell edge falls in turns on that bit, so the
    per-target geometry is computed here, one C library call per entry.
    """
    return np.asarray(np.frompyfunc(fn, len(args), 1)(*args), dtype=float)


def _polar_cell_integral(r_x, r_lo, r_hi, beta_lo, beta_hi, n_phi):
    """Integrals of log|x - y| and of 1 over one polar cell, by rays from x.

    The target sits at local coordinates (r_x, 0) inside the cell
    {r_lo <= |y| <= r_hi, beta_lo <= arg y <= beta_hi} with
    beta_lo <= 0 <= beta_hi.  Each ray's exit distance is the nearest
    positive crossing of the four cell boundaries (all closed forms);
    midpoint rule over the ray angle.  Every argument but n_phi may be an
    array, one entry per target.  Returns (S_log, area) with the arguments'
    broadcast shape.
    """
    r_x, r_lo, r_hi, beta_lo, beta_hi = (np.asarray(a, dtype=float)[..., None]
                                         for a in (r_x, r_lo, r_hi, beta_lo, beta_hi))
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    cphi = np.cos(phi)
    disc_out = r_x * r_x * cphi * cphi + (r_hi * r_hi - r_x * r_x)
    rho = -r_x * cphi + np.sqrt(np.maximum(disc_out, 0.0))
    gap = r_x * r_x - r_lo * r_lo
    disc_in = r_x * r_x * cphi * cphi - gap
    inward = (disc_in >= 0.0) & (cphi < 0.0)
    rho_in = np.where(
        inward, -r_x * cphi - np.sqrt(np.maximum(disc_in, 0.0)), np.inf
    )
    rho = np.minimum(rho, np.maximum(rho_in, 0.0))
    for beta, side in ((beta_lo, -1.0), (beta_hi, 1.0)):
        sb = _libm(math.sin, beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = r_x * sb / np.sin(phi - beta)
        cand = np.where(np.isfinite(cand) & (cand > 0.0), cand, np.inf)
        # target on this angular edge: rays heading across exit at once
        edge = np.where(side * np.sin(phi) > 0.0, 0.0, np.inf)
        rho = np.minimum(rho, np.where(sb == 0.0, edge, cand))
    rho = np.maximum(rho, 0.0)
    dphi = 2.0 * math.pi / n_phi
    with np.errstate(divide="ignore", invalid="ignore"):
        glog = np.where(rho > 0.0, rho * rho * (2.0 * np.log(rho) - 1.0) * 0.25, 0.0)
    s_log = np.sum(glog, axis=-1) * dphi
    area = np.sum(rho * rho, axis=-1) * 0.5 * dphi
    return s_log, area


def _sub_cells(rule, rows, cols, x1, x2):
    """Kernel log|x - y| - log|y| at the sub-cell midpoints of the listed cells.

    Cell k is (rows[k], cols[k]); its sub-cells are the rule's.  The target
    coordinates are scalars, or arrays of shape (cells, 1, 1) with one
    target per cell.  Returns shape (cells, _N_SUB, _N_SUB): radial
    sub-cells along axis 1, angular along axis 2.
    """
    r3 = rule.sub_r[rows][:, :, None]
    d2 = ((x1 - r3 * rule.cos[cols][:, None, :]) ** 2
          + (x2 - r3 * rule.sin[cols][:, None, :]) ** 2)
    if np.min(d2) <= 0.0:
        bad = np.unravel_index(np.argmin(d2), d2.shape)
        x1b, x2b = (float(np.broadcast_to(x, d2.shape)[bad]) for x in (x1, x2))
        raise ValueError(
            "target-inside-singular-cell: target coincides with a quadrature node "
            f"near ({x1b!r}, {x2b!r})"
        )
    return 0.5 * np.log(d2) - rule.sub_log_r[rows][:, :, None]


def _density(f, rule):
    """Validated density values and log_mass."""
    fvals = f.values
    if not np.all(np.isfinite(fvals)):
        raise ValueError("singular-input: non-finite density values")
    return fvals, float(np.sum(fvals * rule.area)) / (2.0 * math.pi)


def _target_array(targets):
    pts = np.asarray(targets, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("invalid-dimension: targets must have shape (m, 2)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("singular-input: non-finite target coordinates")
    return pts


def _checked(acc, pts):
    if not np.all(np.isfinite(acc)):
        bad = int(np.argmax(~np.isfinite(acc)))
        raise ValueError(
            "target-inside-singular-cell: quadrature failed to resolve target "
            f"({pts[bad, 0]!r}, {pts[bad, 1]!r})"
        )
    return acc / (2.0 * math.pi)


def _node_indices(grid, pts):
    """Ring and column index of each target on a grid node, -1 elsewhere.

    A target is on a node when r > 0 and its index coordinates
    (t(r) - t_0) / dt and theta / dtheta are within _NODE_TOL of integers,
    the ring index lying in [0, n_r - 1].
    """
    r = np.hypot(pts[:, 0], pts[:, 1])
    on = r > 0.0
    t = np.full_like(r, grid.t[0])
    t[on] = grid.t_of_r(r[on])
    tf = (t - grid.t[0]) / grid.dt
    jf = (np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)) / grid.dtheta
    i, j = np.rint(tf), np.rint(jf)
    on &= (np.abs(tf - i) <= _NODE_TOL) & (np.abs(jf - j) <= _NODE_TOL)
    on &= (i >= 0) & (i <= grid.n_r - 1)
    ring = np.where(on, i, -1).astype(int)
    col = np.where(on, j, 0).astype(int) % grid.n_theta
    return ring, col


def _near_cells(grid, tf, jf):
    """Own and near cells of targets at index coordinates (tf, jf).

    A target's own cell is its nearest node's, ties to even, the ring
    clipped to the grid; its near cells lie within _REACH index units of it
    in each index direction.  Returns the own ring ``i_c`` and column ``j_c``
    of each target, and for each (target, near cell) pair, in target, ring,
    column order, the target's index ``k`` and the cell's ``ii`` and ``jj``.
    """
    n_r, n_q = grid.shape
    i_c = np.clip(np.rint(tf), 0, n_r - 1).astype(int)
    j_c = np.rint(jf).astype(int) % n_q
    span = int(_REACH + 0.5)  # near cells lie within _REACH + 1/2 of the own cell
    offsets = np.arange(-span, span + 1)
    rows = i_c[:, None] + offsets
    ok_r = (rows >= 0) & (rows < n_r) & (np.abs(rows - tf[:, None]) <= _REACH)
    cols = (j_c[:, None] + offsets) % n_q
    ok_q = np.abs((cols - jf[:, None] + n_q / 2.0) % n_q - n_q / 2.0) <= _REACH
    k, di, dj = np.nonzero(ok_r[:, :, None] & ok_q[:, None, :])
    return i_c, j_c, k, rows[k, di], cols[k, dj]


def _own_cell(rule, i, r_x, delta):
    """S_log - log(r_x) area of the own cells, on rings ``i``, of targets at
    radii ``r_x``: the cell's angular edges lie delta -+ dtheta / 2 from the target."""
    half = 0.5 * rule.grid.dtheta
    s_log, area = _polar_cell_integral(r_x, rule.r_lo[i], rule.r_hi[i],
                                       np.minimum(delta - half, 0.0),
                                       np.maximum(delta + half, 0.0), rule.n_rays)
    return s_log - _libm(math.log, r_x) * area


def _near_stencil(rule, i):
    """Node weights of the refined near cells for a target at node (i, 0).

    The near cells are the target's ``_near_cells`` but its own.  Their
    sub-cell terms are scattered through the rule's bilinear stencil, so
    ``sum(weights * f)`` is the sub-cell sum of those cells for the same target.
    Returns the weights and the index of all its near cells, its own included.
    """
    grid = rule.grid
    _, _, _, ii, jj = _near_cells(grid, np.array([float(i)]), np.zeros(1))
    far = (ii != i) | (jj != 0)
    ir, jr = ii[far], jj[far]
    coef = _sub_cells(rule, ir, jr, grid.radii[i], 0.0) * rule.sub_area[ir][:, :, None]
    it, wt = (a[ir][:, :, None] for a in (rule.it, rule.wt))
    j0, j1, wj = (a[jr][:, None, :] for a in (rule.j0, rule.j1, rule.wj))
    weights = np.zeros(grid.shape)
    for rows, w_r in ((it, 1.0 - wt), (it + 1, wt)):
        for columns, w_q in ((j0, 1.0 - wj), (j1, wj)):
            np.add.at(weights, (rows, columns), coef * w_r * w_q)
    return weights, (ii, jj)


def _node_sums(rule, fvals, ring, col):
    """Quadrature sums for targets on grid nodes, one whole ring at a time.

    For the target at node (i, 0) the whole quadrature is a weight array
    on the nodal density: the midpoint kernel times the cell area away
    from the target, the near-cell stencil, and the polar integral of the
    target's own cell.  Rotating the target by j columns rotates the
    weights, so every node of ring i follows from one circular correlation
    over theta, done by rfft.
    """
    grid = rule.grid
    y1, y2 = grid.nodes()
    log_r = rule.log_r[:, None]
    f_hat = np.fft.rfft(fvals, axis=1)
    rings = np.unique(ring)
    acc = np.empty(ring.size)
    for i, own in zip(rings, _own_cell(rule, rings, grid.radii[rings], 0.0)):
        dx = float(grid.radii[i]) - y1
        kern = 0.5 * np.log(np.maximum(dx * dx + y2 * y2, 1e-300)) - log_r
        weights, near = _near_stencil(rule, i)
        kern[near] = 0.0
        weights += kern * rule.area
        weights[i, 0] += own
        spectrum = np.sum(np.conj(np.fft.rfft(weights, axis=1)) * f_hat, axis=0)
        sel = ring == i
        acc[sel] = np.fft.irfft(spectrum, n=grid.n_theta)[col[sel]]
    return acc


def _distance_factors(r, theta, rho, phi):
    """Factors of |x - y|^2 = a + b s for y = (r, theta) and x = (rho, phi).

    a = (r - rho)^2 and b = 4 r rho depend on the ring, s = sin^2((theta -
    phi) / 2) on the column; the sum of two non-negative terms does not
    cancel.  a carries 1e-300, so that a + b s stays positive, and its
    logarithm finite, where x and y coincide.
    """
    s = np.sin(0.5 * (theta - phi))
    return (r - rho) ** 2 + 1e-300, 4.0 * r * rho, s * s


def _ring_sums(rule, fw, rho, phi):
    """Midpoint sums of (log|x - y| - log|y|) fw(y) over all nodes, ring by ring.

    Rings far from the target enter by the Fourier-Laurent series of the
    kernel (Greengard & Rokhlin, J. Comput. Phys. 73 (1987) 325), with
    F_i(k) = sum_j fw_ij e^{ik theta_j} from one DFT.  The rings i <= c,
    r_c <= _RATIO rho, add S log rho - sum S_i log r_i - Re sum_k (r_c /
    rho)^k e^{-ik phi} A[c, k], A[c, k] = sum_{i <= c} (r_i / r_c)^k F_i(k) / k
    and S_i the ring masses; the rings i >= d, r_d >= rho / _RATIO, add
    -Re sum_k (rho / r_d)^k e^{-ik phi} B[d, k], B[d, k] = sum_{i >= d} (r_d /
    r_i)^k F_i(k) / k.  Only the rings between are summed node by node.
    """
    grid = rule.grid
    radii = grid.radii
    n_r, n_q = grid.shape
    k = np.arange(1, _TERMS + 1)
    inner = (n_q * np.fft.ifft(fw, axis=1))[:, k % n_q] / k
    outer = inner.copy()
    step = (radii[:-1] / radii[1:])[:, None] ** k
    for i in range(1, n_r):
        inner[i] += step[i - 1] * inner[i - 1]
        outer[-1 - i] += step[-i] * outer[-i]
    mass = np.sum(fw, axis=1)
    c = np.searchsorted(radii, _RATIO * rho, side="right") - 1
    d = np.searchsorted(radii, rho / _RATIO, side="left")
    acc = np.zeros(rho.size)
    low = np.flatnonzero(c >= 0)
    acc[low] = (np.log(rho[low]) * np.cumsum(mass)[c[low]]
                - np.cumsum(mass * rule.log_r)[c[low]]
                - _series(radii[c[low]] / rho[low], phi[low], inner, c[low]))
    width = d - c - 1  # rings summed node by node, narrowest bands first
    band = np.flatnonzero(width)[np.argsort(width[width > 0], kind="stable")]
    per = max(1, _NEAR_ELEMENTS // (n_q * int(width.max(initial=1))))
    for lo in range(0, band.size, per):
        tgt = band[lo:lo + per]
        rows = c[tgt, None] + 1 + np.arange(width[tgt[-1]])
        keep = rows < d[tgt, None]
        rows = np.minimum(rows, n_r - 1)
        a, b, s = _distance_factors(radii[rows], grid.theta, rho[tgt, None], phi[tgt, None])
        d2 = b[:, :, None] * s[:, None, :]
        d2 += a[:, :, None]
        part = (0.5 * np.einsum("bwn,bwn->bw", np.log(d2, out=d2), fw[rows])
                - mass[rows] * rule.log_r[rows])
        # a sequential sum, so that masked rings change no rounding
        acc[tgt] += np.cumsum(np.where(keep, part, 0.0), axis=1)[:, -1]
    high = np.flatnonzero(d < n_r)
    acc[high] -= _series(rho[high] / radii[d[high]], phi[high], outer, d[high])
    return acc


def _series(ratio, phi, table, rows):
    """Re sum_k z^k table[rows, k - 1] with z = ratio e^{-i phi}, per target.

    The powers of z come from one cumulative product, in blocks of targets.
    """
    out = np.empty(ratio.size)
    per = max(1, _NEAR_ELEMENTS // (2 * _TERMS))
    for lo in range(0, ratio.size, per):
        sl = slice(lo, lo + per)
        z = np.repeat((ratio[sl] * np.exp(-1j * phi[sl]))[:, None], _TERMS, axis=1)
        out[sl] = np.einsum("mk,mk->m", np.cumprod(z, axis=1, out=z), table[rows[sl]]).real
    return out


def _target_sums(rule, fvals, pts):
    """Quadrature sums of a batch of targets: midpoint sum plus local fixes.

    After the midpoint sum of ``_ring_sums``, every target within _REACH
    index units of the grid has the plain midpoint terms of the near cells
    ``_near_cells`` lists for it replaced: by the 8x8 sub-cell rule for
    each near cell but its own, and by the polar integral of ``_own_cell``
    for its own cell when the target lies inside the grid.  All (target,
    near cell) pairs of a block of targets are evaluated at once.
    """
    grid = rule.grid
    fw = fvals * rule.area
    x1, x2 = pts[:, 0], pts[:, 1]
    r = _libm(math.hypot, x1, x2)
    phi = _libm(math.atan2, x2, x1)
    acc = _ring_sums(rule, fw, r, phi)

    two_pi = 2.0 * math.pi
    t = np.full(r.shape, -np.inf)  # the origin is beyond reach
    t[r > 0.0] = grid.t_of_r(r[r > 0.0], log=lambda v: _libm(math.log, v))
    tf = (t - grid.t[0]) / grid.dt
    # the kernel vanishes identically at the origin
    near = np.flatnonzero((r > 0.0) & (tf >= -_REACH) & (tf <= (grid.n_r - 1) + _REACH))
    # the bilinear density at sub-cell midpoints is a tensor product: the
    # interpolation in theta is done once on every ring, the one in t per cell
    f_theta = (1.0 - rule.wj) * fvals[:, rule.j0] + rule.wj * fvals[:, rule.j1]
    # a target has up to width**2 pairs of _N_SUB**2 sub-cells, and n_rays rays
    width = 2 * int(_REACH + 0.5) + 1
    block = max(1, _NEAR_ELEMENTS // max(width * width * _N_SUB * _N_SUB, rule.n_rays))
    for lo in range(0, near.size, block):
        tgt = near[lo:lo + block]
        tfb = tf[tgt]
        th = phi[tgt] % two_pi
        inside = (tfb >= -1e-9) & (tfb <= (grid.n_r - 1) + 1e-9)
        i_c, j_c, k, ii, jj = _near_cells(grid, tfb, th / grid.dtheta)
        kk = tgt[k]

        # remove the plain midpoint contribution of every near cell
        a, b, s = _distance_factors(grid.radii[ii], grid.theta[jj], r[kk], phi[kk])
        base = (0.5 * np.log(a + b * s) - rule.log_r[ii]) * fw[ii, jj]
        acc[tgt] -= np.bincount(k, base, minlength=tgt.size)

        rest = ~(inside[k] & (ii == i_c[k]) & (jj == j_c[k]))
        if np.any(rest):
            ir, jr, kr = ii[rest], jj[rest], kk[rest]
            kern = _sub_cells(rule, ir, jr, x1[kr, None, None], x2[kr, None, None])
            cells = rule.it[ir], jr[:, None]
            wt = rule.wt[ir][:, :, None]
            f_sub = (1.0 - wt) * f_theta[cells] + wt * f_theta[cells[0] + 1, cells[1]]
            sub = kern * f_sub * rule.sub_area[ir][:, :, None]
            acc[tgt] += np.bincount(k[rest], np.sum(sub.reshape(sub.shape[0], -1), axis=1),
                                    minlength=tgt.size)

        if np.any(inside):
            own = tgt[inside]
            i_o, j_o, th_o = i_c[inside], j_c[inside], th[inside]
            delta = (grid.theta[j_o] - th_o + math.pi) % two_pi - math.pi
            f_at_x = _bilinear(grid, fvals, np.clip(t[own], grid.t[0], grid.t[-1]), th_o)
            acc[own] += f_at_x * _own_cell(rule, i_o, r[own], delta)
    return acc


def newtonian_potential(f, targets):
    """Potential of a compactly supported density against the log kernel.

    Computes u(x) = (1/2pi) * integral of (log|x - y| - log|y|) f(y) dy
    over the grid annulus for each target x, together with
    log_mass = (1/2pi) * integral of f.  The normalization makes rings
    outside a target's radius drop out exactly, so Delta u = f holds on
    the support with no truncation term, while u grows like
    log_mass * log|x| beyond it.

    Quadrature: midpoint rule on node-centered cells with exact radial
    weights; cells within 2.5 index units of a target are re-done with an
    8x8 subdivision of bilinearly interpolated density; the cell
    containing the target is integrated in local polar coordinates about
    the target with max(64, 4 n_theta) rays.  Returns ``(values, log_mass)``.

    Two paths apply the same rule, built once per call.  A target on a
    grid node (r > 0 and both index coordinates within 1e-12 of integers,
    the ring inside the grid) is computed with its whole ring: the rule is
    circulant in theta, so one weight array per ring and an FFT correlation
    give every node of the ring at about the cost of one target.  Every
    other target (off the nodes, the origin, or beyond the grid) is part
    of one batch: a midpoint sum that takes the rings beyond a radius
    ratio of 0.8 from each target from the kernel's Fourier-Laurent series,
    then one vectorized pass over all (target, near cell) pairs and own
    cells.  The two paths agree to rounding.
    """
    rule = _rule(f.grid)
    fvals, log_mass = _density(f, rule)
    pts = _target_array(targets)
    ring, col = _node_indices(f.grid, pts)
    on = ring >= 0
    acc = np.empty(pts.shape[0])
    if np.any(on):
        acc[on] = _node_sums(rule, fvals, ring[on], col[on])
    if not np.all(on):
        acc[~on] = _target_sums(rule, fvals, pts[~on])
    return _checked(acc, pts), log_mass
