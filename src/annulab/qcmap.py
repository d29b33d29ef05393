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
exact-derivative provider ``derivatives(x1, x2) -> (p1, p2, q1, q2)``.
``verify_kelvin_identities`` requires one for the original map and
differences the transported map by the stencils, so its residuals measure
the map's samples against the provider.  The gradient map of a field u is
measured from its Hessian D^2u, the map's Jacobian matrix, with no further
differentiation.  When det D^2u < 0 on every interior node, the map measured
is (u_2, u_1): it has the same |Dw| and the Jacobian -det D^2u.
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


def _energy_and_jacobian(p1, p2, q1, q2):
    """|Dw|^2 and det Dw of the Jacobian matrix (p1, p2; q1, q2)."""
    return p1 * p1 + p2 * p2 + q1 * q1 + q2 * q2, p1 * q2 - p2 * q1


def dilatation_field(w, derivatives=None) -> DilatationReport:
    """Pointwise quasiconformal dilatation of w, and its grid supremum.

    ``w`` is a ``PlanarMapping``, or the Hessian D^2u (a ``SymMatrixField``)
    as the Jacobian matrix of the gradient map of u.  That map is measured
    as (u_2, u_1) when det D^2u < 0 on every interior node, which
    ``components_swapped`` records.  ``derivatives``, an exact-derivative
    provider, replaces the stencils of a ``PlanarMapping`` and is refused
    with a Hessian, which is already the Jacobian.

    The supremum (K_min) and the Jacobian minimum are taken over interior
    rings only: boundary rings use one-sided stencils and would otherwise
    contaminate the constant.  Orientation failure (Jacobian <= 0 at an
    interior node) is reported through ``orientation_ok`` rather than an
    exception, with K_field set to NaN on the failed nodes.
    """
    interior = slice(1, -1)
    if isinstance(w, SymMatrixField):
        if derivatives is not None:
            raise ValueError("invalid-dimension: derivatives applies to a PlanarMapping only")
        energy, jac = _energy_and_jacobian(w.m11, w.m12, w.m12, w.m22)
    else:
        energy, jac = _energy_and_jacobian(*_map_derivatives(w, derivatives))
    swapped = isinstance(w, SymMatrixField) and bool(np.all(jac[interior] < 0.0))
    if swapped:
        jac = -jac
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


def verify_kelvin_identities(w: PlanarMapping, derivatives):
    """Max-norm residuals of the two inversion identities.

    For p~(x) = p(x/|x|^2), q~(x) = q(x/|x|^2) on the inverted grid:

      (i)   |grad p~|^2 + |grad q~|^2  =  |x|^-4 (|grad p|^2 + |grad q|^2)
      (ii)  p~_1 q~_2 - p~_2 q~_1      =  -|x|^-4 (p_1 q_2 - p_2 q_1)

    The right-hand sides are evaluated at the pre-image x/|x|^2 from the
    exact provider ``derivatives``, a callable; anything else, None
    included, is refused.  The left-hand sides difference the transported
    samples of w by the grid stencils, so the residuals are second order in
    the grid spacing when the provider is w's derivative and O(1) when it
    is not.  Both identities hold for any provider with w's |Dw|^2 and
    det Dw, (p1, -p2, -q1, q2) too, so the provider is also read against
    the stencil derivatives of w on its own grid: the largest entry-wise
    difference over max |Dw| there, second order likewise.  Returns
    (residual_energy, residual_jacobian, residual_provider).
    """
    if not callable(derivatives):
        raise ValueError("invalid-dimension: derivatives must be a callable provider, "
                         f"got {derivatives!r}")
    given, stencil = _map_derivatives(w, derivatives), _map_derivatives(w)
    res_provider = (max(np.max(np.abs(d - s)) for d, s in zip(given, stencil))
                    / np.sqrt(np.max(_energy_and_jacobian(*stencil)[0])))
    energy, jac = _energy_and_jacobian(*given)
    # the raw transforms p~, q~ on the inverted grid, not swapped
    image = PlanarMapping(w.grid.inverted(), w.p[::-1], w.q[::-1])
    energy_t, jac_t = _energy_and_jacobian(*_map_derivatives(image))
    scale = image.grid.radii[:, None] ** -4.0
    res_energy = np.max(np.abs(energy_t - scale * energy[::-1]))
    res_jac = np.max(np.abs(jac_t + scale * jac[::-1]))
    return float(res_energy), float(res_jac), float(res_provider)


def fit_power_law(radii, deviations, limit, degenerate_tol) -> DecayFit:
    """Least-squares fit of log(deviation) against log(radius), as a DecayFit.

    The model is deviation ~ exp(log_constant) * R^(-exponent); ``limit`` is
    the value at infinity the deviations were measured from, stored as is.
    If every deviation is at or below ``degenerate_tol`` the fit is
    degenerate: exponent +inf, log_constant -inf, r_squared 1.
    """
    radii = np.asarray(radii, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if radii.size < 2:
        raise ValueError("window-outside-grid: need at least 2 radii to fit a power law")
    windows = tuple(zip(radii.tolist(), deviations.tolist()))
    if np.all(deviations <= degenerate_tol):
        return DecayFit(math.inf, -math.inf, limit, windows, 1.0)
    logr = np.log(radii)
    logd = np.log(np.maximum(deviations, 1e-300))
    slope, intercept = np.polyfit(logr, logd, 1)
    pred = slope * logr + intercept
    ss_res = float(np.sum((logd - pred) ** 2))
    ss_tot = float(np.sum((logd - np.mean(logd)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(float(-slope), float(intercept), limit, windows, r_squared)


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
    deviations = [np.max(np.hypot(w.p[i] - limit[0], w.q[i] - limit[1])) for i in idx]
    return fit_power_law(radii, deviations, limit, 1e-13 * (float(np.hypot(*limit)) + 1.0))
