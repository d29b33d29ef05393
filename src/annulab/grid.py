"""Annular grids and discrete vector calculus on them.

Fields live on tensor-product (r, theta) grids covering the annulus
{r_inner <= |x| <= r_outer}.  Radial spacing is logarithmic by default, so
a fixed number of rings per dyadic shell resolves power-law behaviour all
the way to the outer edge; uniform radial spacing is available for cases
where polynomial profiles should be differenced exactly.

The grid owns the radial parameter t that the stencils difference: the
maps r(t) and t(r), dr/dt per ring and the ratio d2r/dt2 / (dr/dt).  It
alone applies the chain rule that turns (t, theta) differences into polar
and Cartesian derivatives, and it owns both theta-derivatives, periodic
centered differences and the spectral one.  Other modules take radial
slopes, Cartesian components, Laplacians and stencil coefficients from its
helpers; they never read dr/dt or ask which spacing they are on.

``gradient``, ``hessian`` and ``laplacian`` are second order: centered
stencils in (t, theta) at interior rings, one-sided stencils of the same
order on the two boundary rings.  The far-field checks take radial
stencils of order 4 and 6 with the spectral theta-derivative.

Storage convention: node (i, j) is (radii[i], theta[j]); flattening is
row-major radial-then-angular.  A snapshot file is one ASCII header line,
then the n_r * n_theta values as little-endian float64 in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

LOG_RADIAL = "log-radial"
UNIFORM_RADIAL = "uniform-radial"

_SPACINGS = (LOG_RADIAL, UNIFORM_RADIAL)

SNAPSHOT_MAGIC = "annular-field"
SNAPSHOT_VERSION = "v2"

__all__ = [
    "LOG_RADIAL",
    "UNIFORM_RADIAL",
    "AnnularGrid",
    "ScalarField",
    "PlanarMapping",
    "SymMatrixField",
    "build_grid",
    "gradient",
    "hessian",
    "laplacian",
    "radial_derivative",
    "sym2_eig",
    "annulus_integral",
    "ring_index",
    "window_slice",
    "read_snapshot",
    "write_snapshot",
]


@dataclass(frozen=True, eq=False)
class AnnularGrid:
    """Tensor-product polar grid on {r_inner <= |x| <= r_outer}.

    ``radii`` holds the n_r ring radii (increasing) and ``log_radii`` their
    logarithms, read-only; ``theta`` the n_theta angles in [0, 2pi) and
    ``cos_theta``, ``sin_theta`` their cosines and sines, read-only.  ``t``
    is the radial parameter actually differenced: log(r) for log-radial
    spacing, r itself for uniform spacing.  ``dt`` and
    ``dtheta`` are the constant parameter spacings.  ``dr_dt`` holds dr/dt
    on each ring and ``d2r_ratio`` the constant d2r/dt2 / (dr/dt): 1 on
    log-radial grids, 0 on uniform ones.  ``r_of_t`` and ``t_of_r`` map
    between the parameter and the radius.  ``nodes()`` keeps its arrays
    after its first call, and the first ``newtonian_potential`` call on a
    grid keeps the density-independent part of its rule as
    ``_potential_rule``, read-only, about 24 n_r n_theta bytes (798,840
    on 257x128).
    """

    r_inner: float
    r_outer: float
    n_r: int
    n_theta: int
    spacing: str = LOG_RADIAL

    def __post_init__(self):
        if not 0.0 < self.r_inner < self.r_outer < math.inf:
            raise ValueError(
                "invalid-radii: need 0 < r_inner < r_outer < inf, got "
                f"({self.r_inner}, {self.r_outer})"
            )
        if self.n_r < 8:
            raise ValueError(f"invalid-dimension: n_r must be >= 8, got {self.n_r}")
        if self.n_theta < 16 or self.n_theta % 2 != 0:
            raise ValueError(
                f"invalid-dimension: n_theta must be even and >= 16, got {self.n_theta}"
            )
        if self.spacing not in _SPACINGS:
            raise ValueError(f"invalid-dimension: unknown spacing {self.spacing!r}")
        # the C library's log at the ends: numpy's may round differently
        t_lo, t_hi = (self.t_of_r(r, log=math.log) for r in (self.r_inner, self.r_outer))
        t = np.linspace(t_lo, t_hi, self.n_r)
        radii = self.r_of_t(t).copy()
        # pin the endpoints so snapshot round-trips compare exactly
        radii[0], radii[-1] = self.r_inner, self.r_outer
        if not np.all(radii[1:] > radii[:-1]):
            raise ValueError(f"invalid-radii: {self.n_r} rings on [{self.r_inner}, "
                             f"{self.r_outer}] do not strictly increase in floating point")
        log = self.spacing == LOG_RADIAL
        dr_dt, d2r_ratio = (radii, 1.0) if log else (np.ones(self.n_r), 0.0)
        theta = np.arange(self.n_theta) * (2.0 * math.pi / self.n_theta)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "dr_dt", dr_dt)
        object.__setattr__(self, "d2r_ratio", d2r_ratio)
        object.__setattr__(self, "theta", theta)
        for name, values in (("log_radii", np.log(radii)), ("cos_theta", np.cos(theta)),
                             ("sin_theta", np.sin(theta))):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "dt", float(t[1] - t[0]))
        object.__setattr__(self, "dtheta", 2.0 * math.pi / self.n_theta)

    @property
    def shape(self):
        return (self.n_r, self.n_theta)

    def nodes(self):
        """Read-only (X1, X2) node arrays of shape (n_r, n_theta), formed once, then kept."""
        if "_nodes" not in self.__dict__:
            xy = (self.radii[:, None] * self.cos_theta, self.radii[:, None] * self.sin_theta)
            for x in xy:
                x.setflags(write=False)
            object.__setattr__(self, "_nodes", xy)
        return self._nodes

    def r_of_t(self, t):
        """Radius at radial parameter values ``t``."""
        return np.exp(t) if self.spacing == LOG_RADIAL else np.asarray(t, dtype=float)

    def t_of_r(self, r, log=np.log):
        """Radial parameter at radii ``r`` > 0; ``log`` is the logarithm to use."""
        return log(r) if self.spacing == LOG_RADIAL else np.asarray(r, dtype=float)

    def inverted(self) -> "AnnularGrid":
        """The log-radial grid of the images x/|x|^2, ring i on ring n_r - 1 - i."""
        if self.spacing != LOG_RADIAL:
            raise ValueError("invalid-dimension: kelvin_conjugate needs a log-radial grid")
        return build_grid(1.0 / self.r_outer, 1.0 / self.r_inner, self.n_r, self.n_theta,
                          LOG_RADIAL)

    def same_boundary(self, other) -> bool:
        """Whether ``other``'s boundary rings match: n_theta, radii to 1e-12 relative."""
        return (self.n_theta == other.n_theta
                and math.isclose(self.r_inner, other.r_inner, rel_tol=1e-12)
                and math.isclose(self.r_outer, other.r_outer, rel_tol=1e-12))

    def same_geometry(self, other) -> bool:
        return (self.same_boundary(other) and self.n_r == other.n_r
                and self.spacing == other.spacing)


def build_grid(r_inner, r_outer, n_r, n_theta, spacing=LOG_RADIAL) -> AnnularGrid:
    """Construct an AnnularGrid; validates radii, sizes and spacing."""
    return AnnularGrid(float(r_inner), float(r_outer), int(n_r), int(n_theta), spacing)


def _check_values(grid, values, name, allow_nonfinite=False):
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(
            f"invalid-dimension: {name} has shape {values.shape}, "
            f"grid expects {grid.shape}"
        )
    if not allow_nonfinite and not np.all(np.isfinite(values)):
        raise ValueError(f"singular-input: non-finite entries in {name}")
    return values


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real scalar samples, one per grid node.

    Inputs must be finite; diagnostic fields (e.g. pointwise dilatation with
    NaN at orientation failures) may opt out via ``allow_nonfinite``.
    """

    grid: AnnularGrid
    values: np.ndarray
    allow_nonfinite: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            _check_values(self.grid, self.values, "values", self.allow_nonfinite),
        )

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(x1, x2) at the grid nodes."""
        return cls(grid, np.asarray(fn(*grid.nodes()), dtype=float))

    @classmethod
    def from_radial(cls, grid, fn):
        """Sample a radial profile fn(r) at the grid nodes."""
        vals = np.broadcast_to(fn(grid.radii)[:, None], grid.shape)
        return cls(grid, np.array(vals, dtype=float))


@dataclass(frozen=True, eq=False)
class PlanarMapping:
    """Planar map w = (p, q) sampled per node (Cartesian components)."""

    grid: AnnularGrid
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _check_values(self.grid, self.p, "p"))
        object.__setattr__(self, "q", _check_values(self.grid, self.q, "q"))

    @classmethod
    def from_function(cls, grid, fn):
        p, q = fn(*grid.nodes())
        return cls(grid, np.asarray(p, float), np.asarray(q, float))


@dataclass(frozen=True, eq=False)
class SymMatrixField:
    """Symmetric 2x2 matrix per node, stored as the three entries."""

    grid: AnnularGrid
    m11: np.ndarray
    m12: np.ndarray
    m22: np.ndarray

    def __post_init__(self):
        for name in ("m11", "m12", "m22"):
            object.__setattr__(self, name, _check_values(self.grid, getattr(self, name), name))

    def trace(self):
        return self.m11 + self.m22


def sym2_eig(m11, m12, m22):
    """Closed-form eigenvalues (lo, hi) of [[m11, m12], [m12, m22]], elementwise."""
    mean = 0.5 * (m11 + m22)
    with np.errstate(over="ignore"):
        rad = np.square(0.5 * (m11 - m22)) + m12 * m12
    # np.hypot, at ten times the cost, where a nonzero square may leave the normal floats
    lost = not np.max(rad) < math.inf or np.any((rad < 2.0**-968) & ((m11 != m22) | (m12 != 0)))
    rad = np.hypot(0.5 * (m11 - m22), m12) if lost else np.sqrt(rad)
    return mean - rad, mean + rad


# ---------------------------------------------------------------------------
# Difference stencils (radial parameter axis 0, angular axis 1)


@lru_cache(maxsize=None)
def _radial_stencils(deriv, order):
    """Integer (offset, weight) pairs of the stencils of ``radial_derivative``.

    Weight j is the ``deriv``-th derivative at 0 of the Lagrange polynomial
    of node j, in rationals: Fornberg's weights (Math. Comp. 51 (1988) 699).
    Returns the centered stencil, highest offset first, the one-sided
    stencils of rows 0 .. order // 2 - 1, and the divisor of all weights.
    """
    half = order // 2
    stencils = [range(half, -half - 1, -1)]
    stencils += [range(-k, order + deriv - k) for k in range(half)]
    rows = []
    for offsets in stencils:
        rows.append([])
        for xj in offsets:
            poly = [Fraction(1)]  # coefficients, lowest degree first
            for xm in (x for x in offsets if x != xj):
                poly = [(a - xm * b) / (xj - xm) for a, b in zip([0, *poly], [*poly, 0])]
            rows[-1].append((xj, poly[deriv] * math.factorial(deriv)))
    den = math.lcm(*(w.denominator for row in rows for _, w in row))
    rows = tuple(tuple((off, float(w * den)) for off, w in row if w) for row in rows)
    return rows[0], rows[1:], den


def radial_derivative(vals, h, deriv, order):
    """``deriv``-th derivative (1 or 2) along axis 0 of samples ``h`` apart.

    Error O(h^order), order 2, 4 or 6, on every row: centered stencils of
    order + 1 points inside, one-sided ones of order + deriv points on the
    order // 2 rows at each end (mirrored at the far end).
    """
    vals = np.asarray(vals, dtype=float)
    centered, edges, den = _radial_stencils(deriv, order)
    n, half = vals.shape[0], len(edges)
    out = np.zeros_like(vals)
    for off, w in centered:
        out[half:n - half] += w * vals[half + off:n - half + off]
    for k, row in enumerate(edges):
        out[k] = sum(w * vals[k + off] for off, w in row)
        out[n - 1 - k] = (-1.0) ** deriv * sum(w * vals[n - 1 - k - off] for off, w in row)
    return np.divide(out, den * h ** deriv, out=out)


def _diff_theta(vals, dtheta):
    """(u_{j+1} - u_{j-1}) / (2 dtheta), formed in the first roll's array."""
    out = np.roll(vals, -1, axis=1)
    out -= np.roll(vals, 1, axis=1)
    out /= 2.0 * dtheta
    return out


def _diff2_theta(vals, dtheta):
    """(u_{j+1} - 2 u_j + u_{j-1}) / dtheta^2, formed in the first roll's array."""
    out = np.roll(vals, -1, axis=1)
    out -= 2.0 * vals
    out += np.roll(vals, 1, axis=1)
    out /= dtheta ** 2
    return out


def _theta_derivative(vals, deriv):
    """Spectral ``deriv``-th theta derivative along the last axis.

    On real input the Nyquist mode's odd derivatives are purely imaginary,
    so the real part drops them; even derivatives keep the mode.
    """
    n = vals.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft((1j * k) ** deriv * np.fft.fft(vals, axis=-1), axis=-1).real


# ---------------------------------------------------------------------------
# The polar chain rule: (t, theta) differences to r and Cartesian derivatives


def _radial_slope(grid, values, order, rows=slice(None)):
    """u_r = D_t u / (dr/dt), D_t of order ``order``, on rings ``rows`` of ring-major values."""
    return radial_derivative(values[rows], grid.dt, 1, order) / grid.dr_dt[rows, None]


def _cartesian(grid, u_r, u_q, rows=slice(None)):
    """(u_x, u_y) from u_r and u_theta given on the rings ``rows``."""
    u_q_over_r = u_q / grid.radii[rows, None]
    c, s = grid.cos_theta, grid.sin_theta
    return c * u_r - s * u_q_over_r, s * u_r + c * u_q_over_r


def _polar_laplacian(grid, values, order, u_qq, rows=slice(None)):
    """Laplacian on the rings ``rows`` from D_t of stencil order ``order`` and u_qq.

    (u_tt + lift u_t / r) / (dr/dt)^2 + u_qq / r^2, with
    lift = dr/dt - r d2r/dt2 / (dr/dt); u_t is formed only where lift is
    nonzero, so not on log-radial grids.
    """
    u = values[rows]
    r, h = grid.radii[rows, None], grid.dr_dt[rows, None]
    lap = radial_derivative(u, grid.dt, 2, order)
    lift = h - grid.d2r_ratio * r
    if np.any(lift):
        lap = lap + radial_derivative(u, grid.dt, 1, order) * lift / r
    return lap / h ** 2 + u_qq / r ** 2


def _measure_weights(grid, sl):
    """Node weights uniform in (log r, theta) on the rings ``sl``: d(log r)/dt = (dr/dt) / r."""
    return grid.dr_dt[sl] / grid.radii[sl]


def gradient(field: ScalarField) -> PlanarMapping:
    """Cartesian gradient of a scalar field from first derivatives only, second order."""
    g = field.grid
    u_q = _diff_theta(field.values, g.dtheta)
    return PlanarMapping(g, *_cartesian(g, _radial_slope(g, field.values, 2), u_q))


def hessian(field: ScalarField) -> SymMatrixField:
    """Cartesian Hessian via the polar chain rule, second order.

    With a = u_r / r + u_qq / r^2 and m = u_rq / r - u_q / r^2:
    m11 = c^2 u_rr + s^2 a - 2 s c m, m22 = s^2 u_rr + c^2 a + 2 s c m and
    m12 = s c (u_rr - a) + (c^2 - s^2) m.  Each piece is formed in place, by
    the operations of these formulas in their order, so the entries round
    as the formulas do while few full-grid temporaries are alive.
    """
    g = field.grid
    u = field.values
    h, r = g.dr_dt[:, None], g.radii[:, None]
    c, s = g.cos_theta, g.sin_theta
    u_t = radial_derivative(u, g.dt, 1, 2)
    u_rr = radial_derivative(u, g.dt, 2, 2)  # u_tt until it is scaled
    tmp = np.multiply(g.d2r_ratio, u_t)
    u_rr -= tmp
    u_rr /= h ** 2
    a = _diff2_theta(u, g.dtheta)
    a /= r ** 2
    np.divide(u_t, h, out=tmp)
    tmp /= r
    a += tmp  # tangential second derivative
    m = _diff_theta(u_t, g.dtheta)
    del u_t
    m /= h
    m /= r
    u_q = _diff_theta(u, g.dtheta)
    u_q /= r ** 2
    m -= u_q  # mixed radial/tangential piece
    del u_q
    c2, s2, sc2 = c ** 2, s ** 2, 2.0 * s * c
    m11 = np.multiply(c2, u_rr)
    m11 += np.multiply(s2, a, out=tmp)
    m11 -= np.multiply(sc2, m, out=tmp)
    m22 = np.multiply(s2, u_rr)
    m22 += np.multiply(c2, a, out=tmp)
    m22 += np.multiply(sc2, m, out=tmp)
    u_rr -= a
    u_rr *= s * c
    m *= c2 - s2
    u_rr += m
    return SymMatrixField(g, m11, u_rr, m22)


def _stencil_coefficients(coeffs):
    """Interior-ring coefficients of u_tt, u_ttheta, u_thth, u_t, u_theta.

    The adjoint of ``hessian``'s chain rule: the Cartesian operator a_ij u_ij
    of ``coeffs`` (a grid and the entries a11, a12, a22 on its interior
    rings) is rotated to the polar frame (A_rr, A_rt, A_tt) and expressed in
    the differenced parameters (t, theta) through dr/dt and
    d2r/dt2 / (dr/dt).  Returns five arrays of shape (n_r - 2, n_theta).
    """
    g = coeffs.grid
    r, h = g.radii[1:-1, None], g.dr_dt[1:-1, None]
    c, s = g.cos_theta, g.sin_theta
    cc, ss, cs2 = c * c, s * s, 2.0 * c * s
    diff2 = 2.0 * (cc - ss)
    a11, a12, a22 = coeffs.a11, coeffs.a12, coeffs.a22
    scratch = np.multiply(a12, cs2)
    a_rr = a11 * cc
    a_rr += scratch
    a_tt = a11 * ss
    a_tt -= scratch
    a_rr += np.multiply(a22, ss, out=scratch)
    a_tt += np.multiply(a22, cc, out=scratch)
    a_rt = np.subtract(a22, a11)
    a_rt *= cs2
    a_rt += np.multiply(a12, diff2, out=scratch)
    # h = r on log-radial grids, where all three are 1 / r^2
    inv_h2, inv_rh, inv_r2 = 1.0 / (h * h), 1.0 / (r * h), 1.0 / (r * r)
    ctt = a_rr
    ctt *= inv_h2
    ct = a_tt * inv_rh
    ct -= np.multiply(ctt, g.d2r_ratio, out=scratch)
    ctq = np.multiply(a_rt, inv_rh, out=scratch)
    cqq = a_tt
    cqq *= inv_r2
    cq = a_rt
    cq *= -inv_r2
    return ctt, ctq, cqq, ct, cq


def _laplacian_rows(field: ScalarField, rows=slice(None)):
    """Node values of the discrete Laplacian on the rings ``rows``, as ``laplacian`` forms them."""
    g, u = field.grid, field.values
    return _polar_laplacian(g, u, 2, _diff2_theta(u[rows], g.dtheta), rows)


def laplacian(field: ScalarField) -> ScalarField:
    """Discrete Laplacian u_rr + u_r/r + u_qq/r^2 on the whole grid.

    The same second-order stencils as ``hessian``, so the Hessian trace and
    the Laplacian agree to rounding at every node; on log-radial grids only
    u_tt and u_qq are formed.  ``_laplacian_rows`` on a band of rings gives
    these values to the bit on all but its end rings.
    """
    return ScalarField(field.grid, _laplacian_rows(field))


# ---------------------------------------------------------------------------
# Quadrature


def ring_index(grid: AnnularGrid, radius: float) -> int:
    """Index of the grid ring at ``radius``; the radius must lie on the grid."""
    i = int(np.argmin(np.abs(grid.radii - radius)))
    if abs(grid.radii[i] - radius) > 1e-9 * max(1.0, abs(radius)):
        raise ValueError(
            f"radius-not-on-grid: {radius} is not a ring radius "
            f"(nearest is {grid.radii[i]!r})"
        )
    return i


def window_slice(grid: AnnularGrid, r_lo: float, r_hi: float) -> slice:
    """Radial index slice covering [r_lo, r_hi]; edges snap to the nearest ring.

    This is the one window rule: the window must be non-empty and lie inside
    [r_inner, r_outer], to 1e-12 relative at either end, and its edges must
    snap to at least 2 rings.
    """
    if r_lo >= r_hi:
        raise ValueError(f"window-outside-grid: empty window [{r_lo}, {r_hi}]")
    if r_lo < grid.r_inner * (1.0 - 1e-12) or r_hi > grid.r_outer * (1.0 + 1e-12):
        raise ValueError(
            f"window-outside-grid: [{r_lo}, {r_hi}] not inside the grid "
            f"[{grid.r_inner}, {grid.r_outer}]"
        )
    lo = int(np.argmin(np.abs(grid.radii - r_lo)))
    hi = int(np.argmin(np.abs(grid.radii - r_hi)))
    if hi - lo < 1:
        raise ValueError(f"window-outside-grid: [{r_lo}, {r_hi}] spans fewer than 2 rings")
    return slice(lo, hi + 1)


def annulus_integral(f: ScalarField, r_lo: float, r_hi: float) -> float:
    """Integral of f over the sub-annulus r_lo <= |x| <= r_hi.

    Tensor-product rule: trapezoid in the radial parameter (with the area
    Jacobian r dr dtheta), full periodic trapezoid in theta.  The window
    must lie inside the grid (``window_slice``); its edges snap to rings.
    """
    g = f.grid
    sl = window_slice(g, r_lo, r_hi)
    vals = f.values[sl]
    r = g.radii[sl]
    # weight in the differenced parameter: r dr = r (dr/dt) dt
    jac = r * g.dr_dt[sl]
    w = np.full(r.shape, g.dt)
    w[0] = w[-1] = 0.5 * g.dt
    radial = vals.sum(axis=1) * g.dtheta
    return float(np.sum(radial * jac * w))


# ---------------------------------------------------------------------------
# Snapshot file format
#
# header:  annular-field v2 <r_inner> <r_outer> <n_r> <n_theta> <spacing>
# then the raw bytes of the n_r * n_theta values as little-endian float64,
# row-major radial-then-angular, with nothing after them.


def write_snapshot(path, field: ScalarField) -> None:
    """Write a ScalarField to a snapshot; reading it back is exact to the bit."""
    if not isinstance(field, ScalarField):
        raise ValueError(f"invalid-dimension: cannot snapshot {type(field).__name__}")
    g = field.grid
    header = (
        f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} {float(g.r_inner)!r} {float(g.r_outer)!r} "
        f"{g.n_r} {g.n_theta} {g.spacing}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8"))


def read_snapshot(path) -> ScalarField:
    """Read a snapshot written by ``write_snapshot``.

    The values come back as written, non-finite ones included.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").split()
        payload = fh.read()
    bad_header = ValueError(f"invalid-dimension: bad snapshot header in {path}")
    if len(header) < 2 or header[0] != SNAPSHOT_MAGIC:
        raise bad_header
    if header[1] != SNAPSHOT_VERSION:
        raise ValueError(
            f"invalid-dimension: snapshot {path} has version {header[1]!r}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    if len(header) != 7:
        raise bad_header
    try:
        radii, sizes = (float(header[2]), float(header[3])), (int(header[4]), int(header[5]))
    except ValueError:
        raise bad_header from None
    grid = build_grid(*radii, *sizes, header[6])
    expected = 8 * grid.n_r * grid.n_theta
    if len(payload) != expected:
        raise ValueError(
            f"invalid-dimension: snapshot payload has {len(payload)} bytes, "
            f"expected {expected}"
        )
    values = np.frombuffer(payload, "<f8").astype(float).reshape(grid.shape)
    return ScalarField(grid, values, allow_nonfinite=True)
