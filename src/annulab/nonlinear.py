"""Fully nonlinear second-order operators and a damped Newton driver.

An operator acts pointwise on the Hessian of a scalar field.  A
``FullyNonlinearSpec`` packages the scalar map ``F`` together with its matrix
derivative; ``spectral_spec`` builds one from a function of the Hessian's
eigenvalues.  Its derivative and Newton's eigenvalue clamp share
``_spectral_matrix``, with a stated slope limit at gaps within ``2 * _COALESCE``.
``newton_solve`` linearizes around the current iterate, reuses the linear
Dirichlet solver for the correction, and backtracks until the interior
residual drops while the linearization stays elliptic, which it checks on
the derivative's nodal eigenvalues.  Each iterate is linearized once, and
that check is the only one its coefficients get: the solver takes their
interior rows as they are, with no copy.

Hessian entries are formed with the same centered stencils as the linear
solver's nine-point operator, so the linearization is consistent with the
discrete residual to rounding; a property test pins the two within 32 eps
of |A||u| (``test_the_linear_operator_is_the_hessian_contracted_with_its_coefficients``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elliptic import LinearCoefficients, _boundary_values, solve_linear_dirichlet
from .grid import AnnularGrid, ScalarField, SymMatrixField, hessian, sym2_eig

__all__ = [
    "FullyNonlinearSpec",
    "NewtonError",
    "NewtonTrace",
    "monge_ampere_spec",
    "newton_solve",
    "radial_ma_reference",
    "special_lagrangian_spec",
]

# smallest damping factor tried before the line search gives up
_STEP_FLOOR = 2.0 ** -16
# _spectral_matrix takes the slope limit at eigenvalue gaps up to twice this
_COALESCE = 1e-8


@dataclass(frozen=True)
class FullyNonlinearSpec:
    """Pointwise operator ``F`` on symmetric 2x2 Hessians.

    ``evaluate(m11, m12, m22)`` returns ``F(M)`` elementwise over arrays of
    matrix entries.  ``derivative(m11, m12, m22)`` returns the entries
    ``(F_11, F_12, F_22)`` of the matrix derivative; the off-diagonal entry
    enters the linearized operator with multiplicity two, which is exactly
    the convention ``LinearCoefficients`` expects.
    """

    name: str
    evaluate: Callable[..., np.ndarray]
    derivative: Callable[..., tuple]


def monge_ampere_spec() -> FullyNonlinearSpec:
    """``det D^2 u = 1`` on the convex branch.

    The matrix derivative is the cofactor matrix.  On the solution branch
    the eigenvalues multiply to one, so with both of them below a bound b
    the linearization's spectrum sits inside ``[1/b, b]``.
    """

    def evaluate(m11, m12, m22):
        return m11 * m22 - m12 * m12 - 1.0

    def derivative(m11, m12, m22):
        return m22, -m12, m11

    return FullyNonlinearSpec("monge-ampere", evaluate, derivative)


def _spectral_matrix(m11, m12, m22, lo, hi, f_lo, f_hi, slope_limit):
    """The field with M's eigenvectors and eigenvalues ``(f_lo, f_hi)`` for M's ``(lo, hi)``.

    It is ``mid I + slope (M - mean I)``, ``mid = (f_hi + f_lo) / 2``, with
    ``slope = (f_hi - f_lo) / (hi - lo)`` where ``hi - lo > 2 * _COALESCE``
    and ``slope_limit(mean)`` at closer eigenvalues.
    """
    mean = 0.5 * (m11 + m22)
    half = 0.5 * (m11 - m22)
    mid = 0.5 * (f_hi + f_lo)
    slope = np.where(
        hi - lo > 2.0 * _COALESCE,
        (f_hi - f_lo) / np.maximum(hi - lo, 2.0 * _COALESCE),
        slope_limit(mean),
    )
    return mid + slope * half, slope * m12, mid - slope * half


def spectral_spec(name, f, grad, slope_limit) -> FullyNonlinearSpec:
    """``F(M) = f(lo, hi)`` for an ``f`` symmetric in M's eigenvalues.

    The derivative is the Daleckii-Krein form ``f_lo P_lo + f_hi P_hi`` of
    the partials ``grad(lo, hi) = (f_lo, f_hi)``, by ``_spectral_matrix``;
    ``slope_limit(mean)`` is ``(f_hi - f_lo) / (hi - lo)``'s limit at a
    double eigenvalue, taken within ``2 * _COALESCE``.
    """

    def derivative(m11, m12, m22):
        lo, hi = sym2_eig(m11, m12, m22)
        return _spectral_matrix(m11, m12, m22, lo, hi, *grad(lo, hi), slope_limit)

    return FullyNonlinearSpec(name, lambda *m: f(*sym2_eig(*m)), derivative)


def special_lagrangian_spec(theta: float) -> FullyNonlinearSpec:
    """``arctan(lambda_1) + arctan(lambda_2) = theta`` with ``|theta| < pi``.

    The derivative is the spectral function ``1/(1 + lambda^2)`` applied to
    the Hessian; its eigenvalues lie in ``[1/(1 + b^2), 1]`` whenever the
    Hessian norm stays below b, so the equation is unconditionally elliptic
    there.  Eigenvalues within ``2 * _COALESCE`` of each other take the
    divided difference's limit, arctan'' at the double eigenvalue.  At
    ``theta = pi/2`` the equation pins ``lambda_1 * lambda_2 = 1`` on the
    positive branch and shares its solutions with the determinant equation.
    """
    th = float(theta)
    if not (math.isfinite(th) and abs(th) < math.pi):
        raise ValueError("singular-input: phase must satisfy |theta| < pi")
    return spectral_spec(
        "special-lagrangian",
        lambda lo, hi: np.arctan(hi) + np.arctan(lo) - th,
        lambda lo, hi: (1.0 / (1.0 + lo ** 2), 1.0 / (1.0 + hi ** 2)),
        lambda mean: -2.0 * mean / (1.0 + mean * mean) ** 2,
    )


def radial_ma_reference(a: float, r):
    """Radial convex solutions of ``det D^2 u = 1`` outside the unit disk.

    The profile with ``u'(r) = sqrt(r^2 + a)`` satisfies ``u'' u' / r = 1``
    identically for every ``a >= 0``.  Its far field is
    ``|x|^2/2 + (a/2) log|x| + a/4 + (a/2) log 2 + O(|x|^-2)``, which makes
    the family the reference for expansion-coefficient recovery.

    Returns ``(u, u', u'')`` evaluated at ``r`` (scalar or array).
    """
    af = float(a)
    if not (math.isfinite(af) and af >= 0.0):
        raise ValueError("singular-input: parameter a must be finite and >= 0")
    rv = np.asarray(r, dtype=float)
    if rv.size == 0 or not np.all(np.isfinite(rv)) or np.any(rv <= 0.0):
        raise ValueError("invalid-radii: radii must be finite and positive")
    s = np.sqrt(rv * rv + af)
    u = 0.5 * (rv * s + af * np.log(rv + s))
    return u, s, rv / s


class NewtonError(ValueError):
    """Newton failure; carries the partial iteration trace for diagnosis."""

    def __init__(self, message: str, trace: "NewtonTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class NewtonTrace:
    """Residuals (initial iterate included), accepted step sizes and the last Hessian."""

    residuals: tuple
    steps: tuple
    hessian: SymMatrixField | None = field(default=None, repr=False, compare=False)

    @property
    def iterations(self) -> int:
        return len(self.steps)


def _hessian_state(spec, h):
    """Interior rows of the Hessian ``h``, operator values, and the sup residual Newton lowers."""
    m = (h.m11[1:-1], h.m12[1:-1], h.m22[1:-1])
    fvals = np.asarray(spec.evaluate(*m), dtype=float)
    return m, fvals, float(np.max(np.abs(fvals)))


def _linearization(spec, m):
    """Derivative entries at Hessian rows ``m`` and their least eigenvalue.

    Returns ``(entries, lam, eig)``: the eigenvalue arrays ``eig`` are kept
    only when lam is not positive, for the clamp in ``_coefficient_rows``.
    """
    entries = tuple(np.asarray(c, dtype=float) for c in spec.derivative(*m))
    lo, hi = sym2_eig(*entries)
    lam = float(np.min(lo))
    return entries, lam, None if lam > 0.0 else (lo, hi)


def _coefficient_rows(grid, entries, lam, eig):
    """Interior-ring coefficients of a ``_linearization``, for a correction.

    A positive least eigenvalue has already shown the entries finite and
    elliptic, so they are taken as they are.  Boundary-data kinks in the
    initial iterate can push the derivative indefinite on a ring or two.
    The step computation then clamps the nodal eigenvalues to
    ``max(lambda, floor)`` with a small positive floor (direction only; the
    residual line search keeps global control) by ``_spectral_matrix``,
    whose slope limit within ``2 * _COALESCE`` is 1 above the floor and 0
    below: a node straddling the floor that closely is off by at most half
    its gap.  The clamped entries, and non-finite ones (a NaN ``lam`` skips
    the clamp), are checked by ``LinearCoefficients``.
    """
    if lam > 0.0:
        return LinearCoefficients._checked(grid, *entries)
    if lam <= 0.0:
        lo, hi = eig
        floor = 1e-3 * max(1.0, float(np.max(hi)))
        entries = _spectral_matrix(*entries, lo, hi, np.maximum(lo, floor), np.maximum(hi, floor),
                                   lambda mean: np.where(mean > floor, 1.0, 0.0))
    return LinearCoefficients(grid, *entries)


def newton_solve(spec, grid, g_inner, g_outer, u0=None, tol=1e-10, max_iters=30):
    """Damped Newton iteration for ``F(D^2 u) = 0`` with Dirichlet data.

    Each correction solves the linearized equation with zero boundary
    values.  A step is accepted once it strictly decreases the interior sup
    residual; once the linearization is positive definite everywhere, steps
    that would leave that branch are rejected and the damping factor halves
    until an admissible one is found.  ``u0`` defaults to ``|x|^2/2``.  Any
    mismatch between ``u0`` and the Dirichlet data is lifted into the
    iterate linearly in the radial coordinate, so the start satisfies the
    data without a kink at the boundary rings; a caller-supplied iterate
    only has to be accurate in the interior.  Should the linearization still
    go indefinite somewhere, the step computation clamps its nodal
    eigenvalues to a positive floor until the iterate is back on the branch.
    Each iterate is linearized once: an accepted trial keeps the
    linearization its branch test formed for the next step and the final
    check.  A correction holds each full-grid array once: the residual is
    negated into one right-hand side in place, and the iterate's Hessian,
    the eigenvalue arrays and the previous correction are dropped before
    the next solve.

    Returns ``(solution, NewtonTrace)``.  Raises ``NewtonError`` carrying
    the partial trace when the iteration converges or stalls off the
    elliptic branch (``ellipticity-lost``) or when no admissible step exists
    within the iteration budget (``max-iters-exceeded``).
    """
    if not isinstance(grid, AnnularGrid):
        raise TypeError("invalid-dimension: grid must be an AnnularGrid")
    gin = _boundary_values(grid, g_inner, "g_inner")
    gout = _boundary_values(grid, g_outer, "g_outer")
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("singular-input: tol must be positive and finite")
    if int(max_iters) < 1:
        raise ValueError("singular-input: max_iters must be >= 1")

    if u0 is not None and u0.grid is not grid and not u0.grid.same_geometry(grid):
        raise ValueError("invalid-dimension: u0 lives on a different grid")
    vals = u0.values if u0 is not None else (
        (0.5 * grid.radii[:, None] ** 2) * np.ones((1, grid.n_theta)))
    # lift any boundary mismatch linearly in the radial coordinate instead
    # of overwriting the boundary rings: a kinked start parks the iterate
    # next to spurious roots of the central discretization
    w = ((grid.t - grid.t[0]) / (grid.t[-1] - grid.t[0]))[:, None]
    vals = vals + (1.0 - w) * (gin - vals[0])[None, :] + w * (gout - vals[-1])[None, :]
    vals[0] = gin
    vals[-1] = gout
    u = ScalarField(grid, vals)

    h = hessian(u)
    m, fvals, resid = _hessian_state(spec, h)
    lin = None  # the linearization at u, once formed
    residuals = [resid]
    steps = []

    def fail(message):
        return NewtonError(message, NewtonTrace(tuple(residuals), tuple(steps)))

    zero = np.zeros(grid.n_theta)
    rhs = np.zeros(grid.shape)
    while residuals[-1] > tol:
        if len(steps) >= int(max_iters):
            raise fail(f"max-iters-exceeded: residual {residuals[-1]:.3e} "
                       f"after {int(max_iters)} iterations")
        lin = lin or _linearization(spec, m)
        lam = lin[1]
        coeffs = _coefficient_rows(grid, *lin)
        np.negative(fvals, out=rhs[1:-1])
        # the solve reads coeffs and rhs alone; the accepted trial's Hessian,
        # residual and linearization replace these
        del h, m, fvals, lin
        delta = solve_linear_dirichlet(coeffs, ScalarField(grid, rhs), zero, zero)
        del coeffs

        s = 1.0
        while True:
            vals = np.multiply(s, delta.values)
            vals += u.values
            trial = ScalarField(grid, vals)
            h = hessian(trial)
            m, fvals, r_t = _hessian_state(spec, h)
            admissible = np.all(np.isfinite(fvals)) and r_t < residuals[-1]
            # never step off the elliptic branch once it is reached
            lin = _linearization(spec, m) if admissible and lam > 0.0 else None
            if admissible and (lin is None or lin[1] > 0.0):
                break
            s *= 0.5
            if s < _STEP_FLOOR:
                where = f"at iteration {len(steps) + 1}"
                if lam > 0.0:
                    raise fail(f"max-iters-exceeded: no admissible step {where}")
                raise fail(f"ellipticity-lost: linearization eigenvalue {lam:.3e} "
                           f"and no recovering step {where}")
        del delta
        u = trial
        residuals.append(r_t)
        steps.append(s)

    lam_final = (lin or _linearization(spec, m))[1]
    if lam_final <= 0.0:
        raise fail(f"ellipticity-lost: converged with linearization eigenvalue "
                   f"{lam_final:.3e} off the elliptic branch")
    return u, NewtonTrace(tuple(residuals), tuple(steps), h)
