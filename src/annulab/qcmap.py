"""Quasiconformal measurements for planar maps on exterior annuli.

A map w = (p, q) is K-quasiconformal (with the convention used throughout
this package) when

    |Dw|^2 = p_1^2 + p_2^2 + q_1^2 + q_2^2 <= 2 K (p_1 q_2 - p_2 q_1),

i.e. the energy of the differential is controlled by K times the Jacobian.
``dilatation_field`` measures the pointwise ratio, ``holder_exponent``
converts the resulting K into the decay exponent alpha = K - sqrt(K^2 - 1),
and ``kelvin_conjugate`` / ``verify_kelvin_identities`` implement the
inversion x -> x/|x|^2 that carries exterior maps to punctured-disk maps.
``limit_and_decay`` estimates the limit value at infinity and the power-law
rate at which it is approached.

Derivatives are taken by the grid stencils unless the caller supplies an
exact-derivative provider ``derivatives(x1, x2) -> (p1, p2, q1, q2)``.  The
gradient map of a field u is measured from its Hessian D^2u, the map's
Jacobian matrix, with no further differentiation.  When det D^2u < 0 on
every interior node, the map measured is (u_2, u_1): it has the same |Dw|
and the Jacobian -det D^2u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    PlanarMapping,
    ScalarField,
    SymMatrixField,
    gradient,
    ring_index,
)

__all__ = [
    "DilatationReport",
    "DecayFit",
    "dilatation_field",
    "holder_exponent",
    "kelvin_conjugate",
    "verify_kelvin_identities",
    "limit_and_decay",
    "fit_power_law",
]


@dataclass(frozen=True)
class DilatationReport:
    """Pointwise dilatation measurements of a planar map.

    K_min is the smallest admissible quasiconformality constant on the grid,
    i.e. the supremum of the pointwise ratio over interior nodes with
    positive Jacobian.  alpha is the matching decay exponent.  K_field holds
    the pointwise ratio (NaN where the Jacobian is not positive) and
    orientation_ok records whether the Jacobian was positive at every
    interior node.  components_swapped records that a gradient map was
    measured as (u_2, u_1).
    """

    K_min: float
    K_field: ScalarField
    jacobian_min: float
    alpha: float
    orientation_ok: bool
    components_swapped: bool = False


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit  deviation(R) ~ exp(log_constant) * R^(-exponent).

    ``windows`` records the fitted data as (radius, deviation) pairs;
    ``limit`` is the estimated value at infinity (2-vector for mappings).
    An exponent of +inf flags a degenerate fit: deviations at rounding
    level, i.e. the limit is attained exactly.
    """

    exponent: float
    log_constant: float
    limit: object
    windows: tuple
    r_squared: float


def holder_exponent(K):
    """Decay exponent alpha = K - sqrt(K^2 - 1), for K >= 1.

    Evaluated as 1/(K + sqrt(K^2 - 1)), which is exact at K = 1, avoids the
    catastrophic cancellation of the literal form for large K, and keeps the
    identity alpha + 1/alpha = 2K at rounding level.
    """
    K = np.asarray(K, dtype=float)
    if not np.all(K >= 1.0):  # NaN fails this test too
        raise ValueError(f"invalid dilatation constant: K must be >= 1, got {K[~(K >= 1.0)][:3]}")
    alpha = 1.0 / (K + np.sqrt(K * K - 1.0))
    return float(alpha) if alpha.ndim == 0 else alpha


def _map_derivatives(w: PlanarMapping, derivatives=None):
    if derivatives is None:
        gp = gradient(ScalarField(w.grid, w.p))
        gq = gradient(ScalarField(w.grid, w.q))
        return gp.p, gp.q, gq.p, gq.q
    return tuple(np.broadcast_to(np.asarray(d, float), w.grid.shape)
                 for d in derivatives(*w.grid.nodes()))


def dilatation_field(w, derivatives=None) -> DilatationReport:
    """Pointwise quasiconformal dilatation of w, and its grid supremum.

    ``w`` is a ``PlanarMapping``, or the Hessian D^2u (a ``SymMatrixField``)
    as the Jacobian matrix of the gradient map of u.  That map is measured
    as (u_2, u_1) when det D^2u < 0 on every interior node, which
    ``components_swapped`` records.  ``derivatives`` stays for exact
    Jacobians: ``tests/test_qcmap.py`` checks the formula free of stencil error.

    The supremum (K_min) and the Jacobian minimum are taken over interior
    rings only: boundary rings use one-sided stencils and would otherwise
    contaminate the constant.  Orientation failure (Jacobian <= 0 at an
    interior node) is reported through ``orientation_ok`` rather than an
    exception, with K_field set to NaN on the failed nodes.
    """
    interior = slice(1, -1)
    if isinstance(w, SymMatrixField):
        p1, p2, q1, q2 = w.m11, w.m12, w.m12, w.m22
    else:
        p1, p2, q1, q2 = _map_derivatives(w, derivatives)
    jac = p1 * q2 - p2 * q1
    swapped = isinstance(w, SymMatrixField) and bool(np.all(jac[interior] < 0.0))
    if swapped:
        jac = -jac
    energy = p1 * p1 + p2 * p2 + q1 * q1 + q2 * q2
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(jac > 0.0, energy / (2.0 * jac), np.nan)
    jac_int = jac[interior]
    K_int = K[interior]
    orientation_ok = bool(np.all(jac_int > 0.0))
    valid = np.isfinite(K_int)
    K_min = float(np.max(K_int[valid])) if np.any(valid) else math.nan
    alpha = holder_exponent(K_min) if np.isfinite(K_min) else math.nan
    return DilatationReport(
        K_min=K_min,
        K_field=ScalarField(w.grid, K, allow_nonfinite=True),
        jacobian_min=float(np.min(jac_int)),
        alpha=alpha,
        orientation_ok=orientation_ok,
        components_swapped=swapped,
    )


def kelvin_conjugate(w: PlanarMapping) -> PlanarMapping:
    """Kelvin conjugate (q~, p~) of w on the inverted annulus.

    The component swap keeps the conjugate orientation-preserving: the raw
    transform flips the sign of the Jacobian.  Applying the conjugate twice
    returns the original map exactly (pure permutation of samples): the
    inversion maps ring i to ring n_r - 1 - i of the inverted grid.
    """
    return PlanarMapping(w.grid.inverted(), w.q[::-1].copy(), w.p[::-1].copy())


def verify_kelvin_identities(w: PlanarMapping, derivatives=None, image_side=None):
    """Max-norm residuals of the two inversion identities.

    For p~(x) = p(x/|x|^2), q~(x) = q(x/|x|^2) on the inverted grid:

      (i)   |grad p~|^2 + |grad q~|^2  =  |x|^-4 (|grad p|^2 + |grad q|^2)
      (ii)  p~_1 q~_2 - p~_2 q~_1      =  -|x|^-4 (p_1 q_2 - p_2 q_1)

    both right-hand sides evaluated at the pre-image x/|x|^2.  Returns
    (residual_energy, residual_jacobian).

    ``image_side`` selects how the transformed map is differentiated:
    "chain-rule" pushes the exact derivatives through the inversion (needs a
    provider; residuals sit at rounding level), "stencil" differences the
    transported samples on the inverted grid.  Note that "stencil" against a
    stencil-differenced original is an algebraic identity on these mirrored
    grids (centered stencils commute with the radial reversal), so the
    combination that actually measures discretization error is a stencil
    image side against an exact original side.
    """
    if image_side is None:
        image_side = "stencil" if derivatives is None else "chain-rule"
    if image_side == "chain-rule" and derivatives is None:
        raise ValueError("singular-input: chain-rule image side needs a derivative provider")

    p1, p2, q1, q2 = _map_derivatives(w, derivatives)
    energy = p1 * p1 + p2 * p2 + q1 * q1 + q2 * q2
    jac = p1 * q2 - p2 * q1

    # the raw transforms p~, q~ on the inverted grid, not swapped
    gi, pt, qt = w.grid.inverted(), w.p[::-1], w.q[::-1]
    if image_side == "stencil":
        tp1, tp2, tq1, tq2 = _map_derivatives(PlanarMapping(gi, pt, qt))
    elif image_side == "chain-rule":
        # grad p~(x) = Dk(x)^T grad p(k(x)), Dk = (I |x|^2 - 2 x x^T)/|x|^4
        y1, y2 = gi.nodes()
        n2 = y1 * y1 + y2 * y2
        k1, k2 = y1 / n2, y2 / n2
        d11 = (n2 - 2.0 * y1 * y1) / n2 ** 2
        d12 = -2.0 * y1 * y2 / n2 ** 2
        d22 = (n2 - 2.0 * y2 * y2) / n2 ** 2
        P1, P2, Q1, Q2 = derivatives(k1, k2)
        tp1 = d11 * P1 + d12 * P2
        tp2 = d12 * P1 + d22 * P2
        tq1 = d11 * Q1 + d12 * Q2
        tq2 = d12 * Q1 + d22 * Q2
    else:
        raise ValueError(f"invalid-dimension: unknown image_side {image_side!r}")

    energy_t = tp1 * tp1 + tp2 * tp2 + tq1 * tq1 + tq2 * tq2
    jac_t = tp1 * tq2 - tp2 * tq1

    rr = gi.radii[:, None]
    scale = rr ** -4.0
    res_energy = np.max(np.abs(energy_t - scale * energy[::-1]))
    res_jac = np.max(np.abs(jac_t + scale * jac[::-1]))
    return float(res_energy), float(res_jac)


def fit_power_law(radii, deviations, degenerate_tol=0.0):
    """Least-squares fit of log(deviation) against log(radius).

    Returns (exponent, log_constant, r_squared) for the model
    deviation ~ exp(log_constant) * R^(-exponent).  If every deviation is
    at or below ``degenerate_tol`` the fit is degenerate and
    (+inf, -inf, 1.0) is returned.
    """
    radii = np.asarray(radii, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if radii.size < 2:
        raise ValueError("window-outside-grid: need at least 2 radii to fit a power law")
    if np.all(deviations <= degenerate_tol):
        return math.inf, -math.inf, 1.0
    logr = np.log(radii)
    logd = np.log(np.maximum(deviations, 1e-300))
    slope, intercept = np.polyfit(logr, logd, 1)
    pred = slope * logr + intercept
    ss_res = float(np.sum((logd - pred) ** 2))
    ss_tot = float(np.sum((logd - np.mean(logd)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(intercept), r_squared


def limit_and_decay(w: PlanarMapping, window_radii) -> DecayFit:
    """Limit at infinity and decay rate of a planar map.

    ``window_radii`` must be at least 4 grid radii, ordered increasing and
    roughly geometric.  The limit is the angular mean of w on the outermost
    ring; each ring then contributes the sup deviation from that limit, and
    the deviations are fitted to a power law in the radius.
    """
    radii = [float(r) for r in window_radii]
    if len(radii) < 4:
        raise ValueError(f"window-outside-grid: need >= 4 window radii, got {len(radii)}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("window-outside-grid: window radii must increase")
    idx = [ring_index(w.grid, r) for r in radii]
    limit = np.array([np.mean(w.p[idx[-1]]), np.mean(w.q[idx[-1]])])
    deviations = np.array(
        [np.max(np.hypot(w.p[i] - limit[0], w.q[i] - limit[1])) for i in idx]
    )
    scale = float(np.hypot(*limit)) + 1.0
    exponent, log_constant, r_squared = fit_power_law(
        radii, deviations, degenerate_tol=1e-13 * scale
    )
    windows = tuple(zip(radii, deviations.tolist()))
    return DecayFit(exponent, log_constant, limit, windows, r_squared)
