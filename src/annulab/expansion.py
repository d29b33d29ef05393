"""Far-field expansion extraction and cross-validation.

Solutions that behave like a quadratic plus lower-order terms at infinity
are summarized by the coefficients of

    u(x) = x'Ax/2 + b.x + d log|x| + c + e.x/|x|^2 + remainder.

This module recovers the coefficients three independent ways and measures the
remainder: windowed least squares on each ring's theta-modes 0, 1 and 2, where
the 9-function basis, radial profiles times theta-rows, lies by construction,
annular averaging of the Hessian with a decay fit on the deviations, contour
integrals of the complexified gradient on a circle, and a divergence-theorem
identity on ring means for d alone.  The bootstrap scheduler turns a Holder
exponent into the doubling count and auxiliary exponents used by the
improvement argument that upgrades decay estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    ScalarField,
    SymMatrixField,
    _cartesian,
    _laplacian_rows,
    _measure_weights,
    _polar_laplacian,
    _radial_slope,
    _theta_derivative,
    annulus_integral,
    ring_index,
    window_slice,
)
from .qcmap import DecayFit, fit_power_law

__all__ = [
    "BootstrapSchedule",
    "ExpansionCoefficients",
    "LaurentCoefficients",
    "bootstrap_schedule",
    "d_from_divergence",
    "far_field",
    "fit_expansion",
    "formula_schedule",
    "hessian_limit",
    "laurent_coefficients",
    "window_slices",
]

_CONDITION_LIMIT = 1e10
_MIN_WINDOWS = 3
_MIN_RINGS = 8


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Recovered far-field coefficients plus the remainder decay fit.

    ``A`` is the quadratic part (symmetric 2x2), ``b`` the linear part,
    ``d`` the log coefficient, ``c`` the constant, ``e`` the dipole vector.
    ``residual_fit`` records how the sup-norm of the post-fit residual
    decays across the fitting windows; a degenerate (+inf exponent) fit
    means the field was an exact basis combination.
    """

    A: np.ndarray
    b: np.ndarray
    d: float
    c: float
    e: np.ndarray
    residual_fit: DecayFit

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        e = np.asarray(self.e, dtype=float)
        if A.shape != (2, 2) or b.shape != (2,) or e.shape != (2,):
            raise ValueError("invalid-dimension: A must be 2x2 and b, e 2-vectors")
        if not (
            np.all(np.isfinite(A))
            and np.all(np.isfinite(b))
            and np.all(np.isfinite(e))
            and math.isfinite(self.d)
            and math.isfinite(self.c)
        ):
            raise ValueError("singular-input: expansion coefficients must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "e", e)


@dataclass(frozen=True)
class LaurentCoefficients:
    """Contour coefficients of the complexified gradient.

    ``coefficients[j]`` holds a_{-j}, the coefficient of z^{-j} in the
    expansion of u_x - i u_y on the contour; ``radius_used`` is the ring the
    contour actually ran on.  For gradients of real data, a_0 encodes the
    linear part via b = (Re a_0, -Im a_0) and Re a_{-1} is the log
    coefficient d.
    """

    coefficients: np.ndarray
    radius_used: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("invalid-dimension: coefficients must be a 1-d sequence")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def b(self) -> np.ndarray:
        a0 = self.coefficients[0]
        return np.array([a0.real, -a0.imag])

    @property
    def d(self) -> float:
        if self.coefficients.size < 2:
            raise ValueError("invalid-dimension: need max_order >= 1 for d")
        return float(self.coefficients[1].real)


@dataclass(frozen=True)
class BootstrapSchedule:
    """Doubling count and exponents for the decay-improvement argument.

    The defining constraint is delta = 1 - 2^n alpha + (2^n - 1) epsilon
    with 0 < delta < 1/8 and 0 < epsilon < alpha.
    """

    alpha: float
    epsilon: float
    n: int
    delta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"singular-input: alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.epsilon < self.alpha):
            raise ValueError(
                f"singular-input: epsilon must lie in (0, alpha), got {self.epsilon}"
            )
        if int(self.n) != self.n or self.n < 0:
            raise ValueError(f"singular-input: n must be a non-negative integer, got {self.n}")
        implied = 1.0 - 2.0 ** self.n * self.alpha + (2.0 ** self.n - 1.0) * self.epsilon
        if abs(self.delta - implied) > 1e-12:
            raise ValueError(
                f"singular-input: delta {self.delta} does not match the schedule "
                f"identity value {implied}"
            )
        if not (0.0 < self.delta < 0.125):
            raise ValueError(
                f"singular-input: delta must lie in (0, 1/8), got {self.delta}"
            )


# ---------------------------------------------------------------------------
# Windowed least squares


def window_slices(grid, windows):
    """Ring slices of the fitting windows.

    There must be at least 3 windows, each passing ``window_slice``'s rule
    and spanning at least 8 rings once its edges snap to rings.  Returns the
    windows as float pairs and their slices.
    """
    wins = [(float(lo), float(hi)) for lo, hi in windows]
    if len(wins) < _MIN_WINDOWS:
        raise ValueError(
            f"insufficient-window: need at least {_MIN_WINDOWS} windows, got {len(wins)}"
        )
    slices = []
    for lo, hi in wins:
        sl = window_slice(grid, lo, hi)
        if sl.stop - sl.start < _MIN_RINGS:
            raise ValueError(
                f"insufficient-window: [{lo}, {hi}] spans {sl.stop - sl.start} "
                f"rings, need >= {_MIN_RINGS}"
            )
        slices.append(sl)
    return wins, slices


def _largest_window(wins):
    return max(range(len(wins)), key=lambda k: (wins[k][1], wins[k][0]))


def _theta_rows(grid):
    """The rows 1, cos, sin, cos^2, cos sin, sin^2 of theta, shape (6, n_theta)."""
    c, s = grid.cos_theta, grid.sin_theta
    return np.stack([np.ones_like(c), c, s, c * c, c * s, s * s])


def _radial_profiles(grid, rings):
    """The (9, rings, 6) table of the basis A11, A12, A22, b1, b2, d, c, e1, e2:
    column j's radial profile in its theta-row, zero in the others."""
    r, log_r = grid.radii[rings], grid.log_radii[rings]
    table = np.zeros((9, r.size, 6))
    table[range(9), :, (3, 4, 5, 1, 2, 0, 0, 1, 2)] = np.stack(
        [0.5 * r * r, r * r, 0.5 * r * r, r, r, log_r, np.ones_like(r), 1 / r, 1 / r])
    return table


def far_field(grid, rings, A, b=(0.0, 0.0), d=0.0, c=0.0, e=(0.0, 0.0)):
    """x'Ax/2 + b.x + d log|x| + c + e.x/|x|^2 on ``grid``'s rings ``rings`` (slice or indices)."""
    beta = np.array([A[0][0], A[0][1], A[1][1], *b, d, c, *e], dtype=float)
    return np.tensordot(beta, _radial_profiles(grid, rings), 1) @ _theta_rows(grid)


def fit_expansion(u: ScalarField, windows) -> ExpansionCoefficients:
    """Windowed least-squares recovery of the far-field coefficients.

    Each window is fitted independently against the 9-function basis
    (quadratic, linear, log, constant, dipole) with weights uniform in the
    (log r, theta) measure, per-window column normalization, and SVD-based
    least squares, whose singular values also give the condition number.
    Each column is a radial profile times one theta-row (1, cos, sin, cos^2,
    cos sin, sin^2), so it holds theta-modes 0, 1 and 2 only: the SVD runs
    on those 5 rows of each ring's orthonormal real DFT, the profiles times
    the rows' 6x5 DFT, and a second solve on the residual's modes refines
    it.  A column's scale max|profile| max|row| is its max over the window.
    The reported coefficients come from the largest window; the per-window
    sup residuals, over every window node, are fitted to a power law in the
    window center radius, which measures the remainder decay.
    """
    grid = u.grid
    wins, slices = window_slices(grid, windows)
    rows = _theta_rows(grid)
    # the orthonormal real DFT's rows for mode 0 and cos, sin of modes 1, 2
    dft = np.stack([math.sqrt(0.5) * rows[0], rows[1], rows[2], rows[3] - rows[5],
                    2.0 * rows[4]], 1) * math.sqrt(2.0 / grid.n_theta)
    rows_dft, rows_max = rows @ dft, np.max(np.abs(rows), axis=1)

    mids, sups, betas = [], [], []
    for (lo, hi), sl in zip(wins, slices):
        P = _radial_profiles(grid, sl)
        scale = np.max(np.max(np.abs(P), axis=1) * rows_max, axis=1)
        w = np.sqrt(_measure_weights(grid, sl))[:, None]
        design = (P @ rows_dft * w).reshape(len(P), -1).T / scale
        # a second solve on the residual's modes removes the rounding of u's large part
        beta, resid = np.zeros(len(P)), u.values[sl]
        for _ in range(2):
            step, _, _, sv = np.linalg.lstsq(design, (resid @ dft * w).ravel(), rcond=None)
            beta = beta + step / scale
            resid = u.values[sl] - np.tensordot(beta, P, 1) @ rows
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
        if cond > _CONDITION_LIMIT:
            raise ValueError(
                f"ill-conditioned-window: condition {cond:.3e} exceeds "
                f"{_CONDITION_LIMIT:.0e} in window [{lo}, {hi}]"
            )
        mids.append(math.sqrt(lo * hi))
        sups.append(float(np.max(np.abs(resid))))
        betas.append(beta)

    beta = betas[_largest_window(wins)]
    fit = fit_power_law(mids, sups, 0.0, 1e-11 * (1.0 + float(np.max(np.abs(u.values)))))
    return ExpansionCoefficients(
        A=np.array([[beta[0], beta[1]], [beta[1], beta[2]]]),
        b=np.array([beta[3], beta[4]]),
        d=float(beta[5]),
        c=float(beta[6]),
        e=np.array([beta[7], beta[8]]),
        residual_fit=fit,
    )


def hessian_limit(h: SymMatrixField, windows) -> DecayFit:
    """Hessian limit at infinity and the decay rate of the deviation.

    ``h`` is the Hessian D^2u the caller already holds.  Per window, the
    limit candidate is the (log r, theta)-mean of the Hessian over the
    window's nodes and the deviation is the sup over the window of the
    largest entry of ``h - mean``.  Referencing each window against its own
    mean keeps the deviations free of the O(R^-alpha) bias of the final
    estimate, so the fitted exponent is clean.  Returns the fit, whose
    ``limit`` is A, the 2x2 mean over the largest window.
    """
    grid = h.grid
    wins, slices = window_slices(grid, windows)

    mids, devs, means = [], [], []
    for (lo, hi), sl in zip(wins, slices):
        wgt = _measure_weights(grid, sl)
        wgt = wgt / np.sum(wgt)
        comps = [comp[sl] for comp in (h.m11, h.m12, h.m22)]
        entries = [float(np.sum(comp.mean(axis=1) * wgt)) for comp in comps]
        mids.append(math.sqrt(lo * hi))
        devs.append(max(float(np.max(np.abs(c - m))) for c, m in zip(comps, entries)))
        means.append(entries)

    m11, m12, m22 = means[_largest_window(wins)]
    A = np.array([[m11, m12], [m12, m22]])
    return fit_power_law(mids, devs, A, 1e-11 * (1.0 + float(np.max(np.abs(A)))))


# ---------------------------------------------------------------------------
# Contour coefficients


def laurent_coefficients(
    u: ScalarField, radius: float, max_order: int, harmonic_tol: float = 1e-4
) -> LaurentCoefficients:
    """Contour coefficients a_0 .. a_{-max_order} of u_x - i u_y.

    The gradient on the contour ring comes from a 6th-order radial stencil
    and a spectral angular derivative; the contour integral itself is the
    periodic trapezoid rule (spectrally accurate), evaluated through an
    FFT.  The caller must supply a field harmonic near the contour: the
    values of ``laplacian(u)`` on the contour ring i and its two neighbours,
    formed from rings i-2 .. i+2 only, must stay within ``harmonic_tol``
    times the local field scale.  That leaves room for the O(h^2) stencil
    error on smooth harmonics (about 1e-5 relative on a 128-sector grid)
    while still rejecting genuinely non-harmonic inputs by many orders.
    """
    grid = u.grid
    i = ring_index(grid, radius)
    if i < 3 or i > grid.n_r - 4:
        raise ValueError(
            f"window-outside-grid: contour radius {radius} needs 3 rings "
            "on each side for the radial stencil"
        )
    max_order = int(max_order)
    if max_order < 0 or max_order > grid.n_theta // 2 - 1:
        raise ValueError(
            f"invalid-dimension: max_order must lie in [0, {grid.n_theta // 2 - 1}] "
            f"for n_theta = {grid.n_theta}"
        )
    worst = float(np.max(np.abs(_laplacian_rows(u, slice(i - 2, i + 3))[1:-1])))
    scale = 1.0 + float(np.max(np.abs(u.values[i - 3:i + 4])))
    if worst > harmonic_tol * scale:
        raise ValueError(
            f"not-harmonic: discrete Laplacian {worst:.3e} exceeds "
            f"{harmonic_tol:.1e} x local scale {scale:.3e} near the contour radius"
        )

    u_r = _radial_slope(grid, u.values, 6, slice(i - 3, i + 4))[3]
    ux, uy = _cartesian(grid, u_r, _theta_derivative(u.values[i], 1), i)
    modes = np.fft.ifft(ux - 1j * uy)
    r = float(grid.radii[i])
    orders = np.arange(max_order + 1)
    coeffs = modes[orders] * r ** orders
    return LaurentCoefficients(coefficients=coeffs, radius_used=r)


# ---------------------------------------------------------------------------
# Divergence-theorem log coefficient


def d_from_divergence(u: ScalarField, A, R: float, extrapolate: bool = False,
                      full_output: bool = False):
    """Log coefficient from the divergence-theorem identity.

    Evaluates d = (flux of grad(u - x'Ax/2) through the inner circle +
    integral of its Laplacian over r_inner <= |x| <= R) / 2 pi.  Subtracting
    the quadratic analytically makes the x'Ax/2 flux cancel its area term
    exactly and removes the dominant differencing error.  Both terms need
    only the ring means of u - x'Ax/2, since u_qq / r^2 has zero ring sum.
    The truncation at finite R decays like a power of 1/R; with
    ``extrapolate=True`` the identity is evaluated at R and at the ring
    nearest R/2 and the 1/R^2 model is eliminated between them.
    ``full_output=True`` returns ``(d, info)`` with the raw values and the
    truncation estimate alongside.
    """
    grid = u.grid
    Am = np.asarray(A, dtype=float)
    if Am.shape != (2, 2):
        raise ValueError("invalid-dimension: A must be a 2x2 matrix")
    if not np.all(np.isfinite(Am)):
        raise ValueError("singular-input: A must be finite")
    if abs(Am[0, 1] - Am[1, 0]) > 1e-12 * (1.0 + float(np.max(np.abs(Am)))):
        raise ValueError("invalid-dimension: A must be symmetric")
    i_R = ring_index(grid, R)
    if i_R < 2:
        raise ValueError(
            f"window-outside-grid: R = {R} leaves no annulus above r_inner"
        )

    # u - x'Ax/2, then its ring means: subtracting after the means moves d by
    # up to 2e-9.  Fourth-order radial derivatives; second-order ones leave
    # an O(h^2) constant in the area term
    w = np.mean(u.values - far_field(grid, slice(None), Am), axis=1, keepdims=True)
    flux = 2.0 * math.pi * grid.r_inner * float(_radial_slope(grid, w, 4, slice(0, 5))[0, 0])
    lap = ScalarField(grid, np.broadcast_to(_polar_laplacian(grid, w, 4, 0.0), grid.shape))

    def raw(radius):
        area = annulus_integral(lap, grid.r_inner, radius)
        return (flux + area) / (2.0 * math.pi), area

    R1 = float(grid.radii[i_R])
    d1, area = raw(R1)
    info = {"R": R1, "raw": d1, "flux_term": flux, "area_term": area}

    if extrapolate:
        j = int(np.argmin(np.abs(grid.radii - 0.5 * R1)))
        if j < 1 or j >= i_R:
            raise ValueError(
                "window-outside-grid: extrapolation needs a ring strictly "
                f"between r_inner and R = {R1}"
            )
        R2 = float(grid.radii[j])
        d2, _ = raw(R2)
        d = (d1 * R1 ** 2 - d2 * R2 ** 2) / (R1 ** 2 - R2 ** 2)
        info.update({"pair_radius": R2, "raw_pair": d2, "truncation": d - d1})
    else:
        d = d1

    if full_output:
        return d, info
    return d


# ---------------------------------------------------------------------------
# Bootstrap scheduler


def bootstrap_schedule(alpha: float) -> BootstrapSchedule:
    """Constraint-safe doubling schedule for a Holder exponent.

    For alpha > 7/8 no doubling is needed: delta = 1 - alpha already lies
    in (0, 1/8) and epsilon only has to be positive.  Otherwise the minimal
    n with 2^n alpha > 15/16 is chosen and epsilon set so that delta lands
    exactly on 1/16, the midpoint of the admissible interval.  The
    closed-form n (see ``formula_schedule``) can violate the constraint,
    so the search targets the constraint directly.
    """
    a = float(alpha)
    if not (0.0 < a < 1.0) or not math.isfinite(a):
        raise ValueError(f"singular-input: alpha must lie in (0, 1), got {alpha}")
    if a > 0.875:
        return BootstrapSchedule(alpha=a, epsilon=2.0 ** -20, n=0, delta=1.0 - a)
    n = 1
    while 2.0 ** n * a <= 0.9375:
        n += 1
    eps = (2.0 ** n * a - 0.9375) / (2.0 ** n - 1.0)
    delta = 1.0 - 2.0 ** n * a + (2.0 ** n - 1.0) * eps
    return BootstrapSchedule(alpha=a, epsilon=eps, n=n, delta=delta)


def formula_schedule(alpha: float, epsilon: float) -> tuple:
    """Closed-form doubling count n = floor(log2((7/8 - eps)/(alpha - eps))) + 1.

    Returns ``(n, delta)`` without constraint checking: for some inputs the
    resulting delta falls outside (0, 1/8), which is exactly why
    ``bootstrap_schedule`` searches instead of using this formula.
    """
    a, eps = float(alpha), float(epsilon)
    if not (0.0 < eps < a < 0.875):
        raise ValueError(
            "singular-input: the closed form needs 0 < epsilon < alpha < 7/8"
        )
    n = math.floor(math.log2((0.875 - eps) / (a - eps))) + 1
    delta = 1.0 - 2.0 ** n * a + (2.0 ** n - 1.0) * eps
    return n, delta
