"""Linear uniformly elliptic solves on annuli and the log-kernel potential.

Two workhorses live here.  ``solve_linear_dirichlet`` solves the second-order
nine-point stencil system for a_ij u_ij = f on an annular grid to a
normwise backward error of 1e-10.  ``newtonian_potential`` integrates the
normalized kernel log|x - y| - log|y| against a compactly supported
density mode by mode in theta, where the kernel splits exactly in log r:
per-ring tables are read at nodes by one irfft per ring, in a cell from its
two rings and off the grid from the nearer boundary ring, in O(n_theta).
In a cell each mode is two decaying exponentials plus the density's own
term, with coefficients read off the tables' partial-cell integrals, so a
target sums four polynomials in e^{-a + i theta}, e^{-b + i theta} and
e^{i theta} by Horner's rule on a per-cell table, with no exp per mode.

The linear solve applies the nine-point table of ``_nine_point``, the only
code that forms a stencil weight, a block of interior rings at a time, with
no matrix.  Its preconditioner M is that table's ring-mean symbol: with
w(di, dj) a weight's mean over its ring and kappa = k dtheta, a DFT in theta
splits the system into one radial tridiagonal system per angular mode k,
whose entry at ring offset di reads

    w(di, 0) + (w(di, 1) + w(di, -1)) cos kappa + i (w(di, 1) - w(di, -1)) sin kappa.

``_cyclic_reduction`` factors all modes as one band, once per solve.  M is
the exact inverse when the weights are constant along rings (the Laplacian,
radial Monge-Ampere linearizations).  In the ring means of
``_stencil_coefficients`` the band is diagonally dominant when
|ctq| <= 2 sqrt(ctt cqq), which ellipticity gives, and |ct| dt <= 2 ctt at
mode 0, where cyclic reduction without pivoting is stable; otherwise M only
preconditions, and the backward-error gate still decides.  Weights that
vary along rings take restarted GMRES right-preconditioned by M, each
application of M two FFTs and one band solve.  The module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .grid import AnnularGrid, ScalarField, _stencil_coefficients, sym2_eig

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
    """Symmetric, uniformly elliptic coefficient field a(x) on the interior rings.

    The nine-point operator reads a at interior nodes only, so the entries
    are held with shape (n_r - 2, n_theta).  Each is given on the whole grid,
    whose boundary rings are dropped unread, or on the interior rings alone;
    scalars broadcast, so constant operators read
    ``LinearCoefficients(grid, 1.0, 0.0, 1.0)``.  Construction validates
    uniform ellipticity with ``ellipticity_constants``; the entries are
    private read-only copies, so they stay the ones validated.
    """

    grid: AnnularGrid
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        interior = (self.grid.n_r - 2, self.grid.n_theta)
        for name in ("a11", "a12", "a22"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or len(arr) != interior[0]:
                arr = np.broadcast_to(arr, self.grid.shape)[1:-1]
            arr = np.array(np.broadcast_to(arr, interior))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"singular-input: non-finite entries in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ellipticity_constants(self.a11, self.a12, self.a22)

    @classmethod
    def trace_operator(cls, grid):
        """Coefficients of the plain Laplacian, a = identity."""
        return cls(grid, 1.0, 0.0, 1.0)

    @classmethod
    def _checked(cls, grid, a11, a12, a22):
        """Interior-ring entries the caller has found finite and elliptic, taken as they are.

        No copy and no second eigenvalue pass: a Newton linearization is
        elliptic exactly when the least eigenvalue of its entries is
        positive, and that test also fails on any non-finite entry.
        """
        coeffs = object.__new__(cls)
        for name, arr in (("grid", grid), ("a11", a11), ("a12", a12), ("a22", a22)):
            object.__setattr__(coeffs, name, arr)
        return coeffs


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


_BACKWARD_TOL = 1e-10  # normwise backward error a linear solve must meet
_GMRES_RESTART = 20  # Krylov basis size between GMRES restarts
_GMRES_CYCLES = 50  # restart cycles before GMRES gives up
# elements per block of the stencil product (rings x n_theta), so that a
# block's temporaries stay in cache and none is full-size
_BLOCK_ELEMENTS = 8192


def solve_linear_dirichlet(coeffs, f, g_inner, g_outer):
    """Solve a_ij u_ij = f with Dirichlet data on the boundary rings.

    Interior nodes carry the centered nine-point stencil, applied from its
    weight arrays; boundary rings move to the right-hand side.  The solve
    starts from M b, M the ring-mean mode solver of the module docstring,
    factored once, and GMRES continues where M is not exact.  x is accepted
    when |b - A x| <= 1e-10 (|A| |x| + |b|) in max norms, a normwise
    backward error (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 7.1); ``singular-system`` is raised otherwise.
    """
    g = coeffs.grid
    if f.grid is not g and not g.same_geometry(f.grid):
        raise ValueError("invalid-dimension: source field grid does not match coefficients")
    gin = _boundary_values(g, g_inner, "g_inner")
    gout = _boundary_values(g, g_outer, "g_outer")

    stencil = _nine_point(coeffs)
    b = np.array(f.values[1:-1], dtype=float)
    # boundary rings move to the right-hand side, in stencil order
    for di, dj, wgt in stencil:
        if di:
            ring, data = (0, gin) if di < 0 else (-1, gout)
            b[ring] -= wgt[ring] * np.roll(data, -dj)
    norm_a, norm_b = _stencil_norm(stencil), float(np.max(np.abs(b)))

    def gate(x):
        return _BACKWARD_TOL * (norm_a * float(max(x.max(), -x.min())) + norm_b)

    try:
        precondition = _polar_mode_solver(g, stencil)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular-system: ring-mean mode solver failed ({exc})") from None
    x = _krylov_solve(lambda v: _stencil_product(stencil, v), b.ravel(), precondition, gate)

    return ScalarField(g, np.vstack([gin, x.reshape(b.shape), gout]))


def _nine_point(coeffs):
    """Nine-point weights of a_ij u_ij on the interior rings, as ``(di, dj, weight)``.

    Row (i, j) reads sum of weight[i, j] * u[i + di, (j + dj) mod n_theta].
    The entries are sorted by (di, dj), the order of the unknowns, and each
    row sums its neighbours in that order, the rounding the built-in
    reports are pinned to.  The two diagonal pairs of cross weights are
    equal, and each pair shares one array.
    """
    ctt, ctq, cqq, ct, cq = _stencil_coefficients(coeffs)
    dt, dq = coeffs.grid.dt, coeffs.grid.dtheta
    # north and east hold ctt/dt^2 and cqq/dtheta^2 until their drifts are
    # added; ct and cq become ct/(2 dt) and cq/(2 dtheta) in place
    north = np.multiply(ctt, 1.0 / (dt * dt), out=ctt)
    east = np.multiply(cqq, 1.0 / (dq * dq), out=cqq)
    centre = north + east
    centre *= -2.0
    ct *= 0.5 / dt
    south = north - ct
    north += ct
    cq *= 0.5 / dq
    west = east - cq
    east += cq
    cross = np.multiply(ctq, 0.25 / (dt * dq), out=ctq)
    anti = np.negative(cross)  # -ctq/(4 dt dtheta) to the bit: negation commutes with rounding
    return (
        (-1, -1, cross),
        (-1, 0, south),
        (-1, 1, anti),
        (0, -1, west),
        (0, 0, centre),
        (0, 1, east),
        (1, -1, anti),
        (1, 0, north),
        (1, 1, cross),
    )


def _stencil_product(stencil, x):
    """A x for flattened interior values x, boundary rings taken as zero.

    The table is applied _BLOCK_ELEMENTS // n_theta rings at a time (at
    least one).  A block and one halo ring on each side, zero beyond the
    interior, are copied into one small buffer and wrapped one column each
    way in theta; the nine terms then enter in table order through one
    block-sized product buffer.  Each entry rounds as it would over a padded
    copy of the whole grid, and no temporary but the result is full-size.
    """
    ni, n_t = stencil[0][2].shape
    x = x.reshape(ni, n_t)
    per = min(ni, max(1, _BLOCK_ELEMENTS // n_t))
    pad, term = np.empty((per + 2, n_t + 2)), np.empty((per, n_t))
    out = np.zeros((ni, n_t))
    for lo in range(0, ni, per):
        m = min(per, ni - lo)
        rows = pad[:m + 2]
        # rows[k] holds ring lo - 1 + k
        first, last = max(lo - 1, 0), min(lo + m + 1, ni)
        rows[first - lo + 1:last - lo + 1, 1:-1] = x[first:last]
        if lo == 0:
            rows[0] = 0.0
        if lo + m == ni:
            rows[-1] = 0.0
        rows[:, 0], rows[:, -1] = rows[:, -2], rows[:, 1]
        acc, prod = out[lo:lo + m], term[:m]
        for di, dj, wgt in stencil:
            acc += np.multiply(wgt[lo:lo + m], rows[1 + di:1 + di + m, 1 + dj:1 + dj + n_t],
                               out=prod)
    return out.ravel()


def _stencil_norm(stencil):
    """||A||inf: the largest absolute row sum over the interior neighbours."""
    sums = np.zeros(stencil[0][2].shape)
    for di, _, wgt in stencil:
        keep = slice(max(-di, 0), len(sums) - max(di, 0))  # neighbour is interior
        sums[keep] += np.abs(wgt[keep])
    return float(sums.max())


def _polar_mode_solver(grid, stencil):
    """The ring-mean mode solver M of the module docstring for a ``_nine_point`` table.

    The symbols of the ring offsets di = -1, 0, 1 are written in place into
    the lower, diagonal and upper planes of one band in (ring, mode) layout,
    the layout ``np.fft.rfft(..., axis=1)`` returns; ``_cyclic_reduction``
    factors it once.  Returns ``solve(rhs)`` for flattened right-hand sides.
    Raises ``LinAlgError`` on a zero or non-finite pivot.
    """
    ni, n_t = stencil[0][2].shape
    kappa = np.arange(n_t // 2 + 1) * grid.dtheta
    cos_k, sin_k = np.cos(kappa), np.sin(kappa)
    band = np.empty((5, ni, kappa.size), dtype=complex)  # the last two for the multipliers
    # the table holds di = -1, 0, 1 in turn, each as dj = -1, 0, 1
    for p, plane in enumerate(band[:3]):
        west, centre, east = (np.mean(w, axis=1)[:, None] for _, _, w in stencil[3 * p:3 * p + 3])
        plane.real = centre + (east + west) * cos_k
        plane.imag = (east - west) * sin_k
    solve_band = _cyclic_reduction(band)

    def solve(rhs):
        x_hat = solve_band(np.fft.rfft(rhs.reshape(ni, n_t), axis=1))
        return np.fft.irfft(x_hat, n=n_t, axis=1).ravel()

    return solve


def _cyclic_reduction(band):
    """Factor the tridiagonal systems in the columns of a band by cyclic reduction.

    ``band`` stacks five (n, m) arrays: lower, diag and upper, then two
    that the factorization fills.  Row i of column k reads lower[i, k]
    x[i - 1, k] + diag[i, k] x[i, k] + upper[i, k] x[i + 1, k]; lower[0]
    and upper[-1] are not read, and the band is consumed.  Each of the
    log2(n) + 1 levels eliminates the even rows of those left from their
    odd neighbours, without pivoting (Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 7 (1970) 627), which is stable on diagonally dominant
    bands (Heller, SIAM J. Numer. Anal. 13 (1976) 484).  A level first puts
    its rows in level order, eliminated before kept, so that every product
    runs on contiguous rows.  The first three arrays keep each row's
    inverted pivot and its neighbour weights over it, in level order, and
    the last two each level's multipliers that carry the eliminated
    right-hand sides into the kept ones.  One allocation holds all five:
    as separate arrays they cost about 800 fresh pages per factorization
    on 1024x64, more time than its arithmetic.  Returns ``solve(rhs)``,
    which overwrites complex right-hand sides of shape (n, m) with the
    solution.  Raises ``LinAlgError`` when a pivot is zero or not finite,
    or its reciprocal overflows.
    """
    lower, diag, upper, alphas, gammas = band
    n = len(diag)
    lower[0] = upper[-1] = 0.0
    # the off-diagonals enter negated, so that no level negates a product
    np.negative(band[:3:2], out=band[:3:2])
    scratch = np.empty_like(diag)  # every temporary of the factorization
    levels = []
    start = taken = 0
    with np.errstate(all="ignore"):  # a bad pivot raises below
        while start < n:
            # e rows eliminated; kept row j lies between eliminated rows j
            # and j + 1, and the last kept row ends the band when k = e
            k = (n - start) // 2
            e = n - start - k
            for rows in band[:3, start:]:
                _level_order(rows, scratch)
            lo, inv, up = band[:3, start:start + e]
            a, b, c = band[:3, start + e:]
            np.reciprocal(inv, out=inv)
            lo *= inv
            up *= inv
            alpha = np.multiply(a, inv[:k], out=alphas[taken:taken + k])
            gamma = np.multiply(c[:e - 1], inv[1:], out=gammas[taken:taken + e - 1])
            b -= np.multiply(a, up[:k], out=scratch[:k])
            b[:e - 1] -= np.multiply(c[:e - 1], lo[1:], out=scratch[:e - 1])
            a *= lo[:k]
            c[:e - 1] *= up[1:]
            levels.append((start, e, alpha, gamma))
            start += e
            taken += k
        if not (np.all(np.isfinite(diag)) and np.all(diag)):
            raise np.linalg.LinAlgError("zero or non-finite pivot in cyclic reduction")

    def solve(rhs):
        held = np.empty_like(rhs)
        for start, e, alpha, gamma in levels:
            k = len(alpha)
            rows = _level_order(rhs[start:], held)
            kept = rows[e:]
            kept += np.multiply(alpha, rows[:k], out=held[:k])
            kept[:e - 1] += np.multiply(gamma, rows[1:e], out=held[:e - 1])
        for start, e, alpha, _ in reversed(levels):
            k = len(alpha)
            rows = rhs[start:]
            solved, kept = rows[:e], rows[e:]
            solved *= diag[start:start + e]
            solved[1:] += np.multiply(lower[start + 1:start + e], kept[:e - 1], out=held[:e - 1])
            solved[:k] += np.multiply(upper[start:start + k], kept, out=held[:k])
            _level_order(rows, held, inverse=True)
        return rhs

    return solve


def _level_order(rows, scratch, inverse=False):
    """Rows 0, 2, 4, ... then 1, 3, 5, ..., moved in place through ``scratch``.

    With ``inverse`` the rows move back.  Returns ``rows``.
    """
    held = scratch[:len(rows)]
    e = (len(rows) + 1) // 2
    if inverse:
        held[...] = rows
        rows[0::2], rows[1::2] = held[:e], held[e:]
    else:
        held[:e], held[e:] = rows[0::2], rows[1::2]
        rows[...] = held
    return rows


def _krylov_solve(apply, b, precondition, gate):
    """Solve A x = b, A x = apply(x), from x0 = M b by restarted GMRES.

    Cycles, each aiming at gate(x) / 4, run until the residual max-norm is
    within gate(x) / 4 or not finite, at most _GMRES_CYCLES of them.
    Raises ``singular-system`` when x misses gate(x).
    """
    def residual(x):
        r = apply(x)  # b - A x is formed inside the product's own output
        np.subtract(b, r, out=r)
        return r, float(max(r.max(), -r.min()))

    x = precondition(b)
    r, final = residual(x)
    for cycle in range(_GMRES_CYCLES):
        if not 0.25 * gate(x) < final < math.inf:
            break
        basis = np.empty((_GMRES_RESTART + 1, b.size)) if cycle == 0 else basis
        x = _gmres_cycle(apply, precondition, x, r, basis, 0.25 * gate(x))
        r, final = residual(x)
    if not np.isfinite(final) or final > gate(x):
        raise ValueError(f"singular-system: discrete residual {final:.3e} exceeds the "
                         f"backward-error bound {gate(x):.3e}")
    return x


def _gmres_cycle(apply, precondition, x, r, basis, tol):
    """One GMRES cycle right-preconditioned by M, from x with r = b - A x; returns the new x.

    CGS2 Arnoldi (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50 (2005)
    1069) fills ``basis`` with the Krylov space of A M and r; each step
    minimizes |b - A x|_2 over x + M span(basis) (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 7 (1986) 856) until it is within ``tol`` or stalls.
    """
    hess = np.zeros((len(basis), len(basis) - 1))
    rhs = np.linalg.norm(r) * np.eye(len(basis))[0]  # |r| e_1
    np.divide(r, rhs[0], out=basis[0])
    for j in range(len(basis) - 1):
        w, done = basis[j + 1], basis[:j + 1]
        w[...] = apply(precondition(done[j]))
        for _ in range(2):  # classical Gram-Schmidt, twice
            coef = done @ w
            w -= coef @ done
            hess[:j + 1, j] += coef
        hess[j + 1, j] = np.linalg.norm(w)
        h = hess[:j + 2, :j + 1]
        y = np.linalg.lstsq(h, rhs[:j + 2], rcond=None)[0]
        if not (np.linalg.norm(rhs[:j + 2] - h @ y) > tol and hess[j + 1, j] > 0.0):
            break
        w /= hess[j + 1, j]
    return x + precondition(y @ done)


# -- Newtonian potential ----------------------------------------------------

_NODE_TOL = 1e-12  # index-coordinate tolerance for a target to count as a node
_SERIES_X = 2.0**-5  # below this x = k a the partial-cell weights take their series
_SERIES_TERMS = 8  # at _SERIES_X the first term dropped is below rounding
_SCAN_SPAN = 32.0  # k_max times a scan block's width in s at most, so scalings stay finite
# Taylor coefficients of the weights, highest power first
_FAR_SERIES = np.array([(-1.0) ** n / (math.factorial(n) * (n + 2))
                        for n in range(_SERIES_TERMS)])[::-1]
_NEAR_SERIES = _FAR_SERIES / np.arange(_SERIES_TERMS, 0.0, -1.0)


def _hat_weights(x):
    """e^{-x} and the integrals of e^{-x tau} against 1 - tau and tau over [0, 1].

    Returns ``(decay, near, far)``: v0 (1 - tau) + v1 tau integrates against
    e^{-x tau} to near v0 + far v1.  The closed forms lose about eps / x to
    cancellation, so below _SERIES_X both take their Taylor series, at those
    entries only, by Horner's rule in ``np.polyval``'s order of operations.
    """
    den = -x
    decay, mean = np.exp(den), np.expm1(den)
    small = x < _SERIES_X
    den[small] = -1.0  # e / -x rounds exactly as -e / x
    mean /= den
    far = (decay - mean) / den
    near = mean - far
    xs, near_s, far_s = x[small], 0.0, 0.0
    for cn, cf in zip(_NEAR_SERIES, _FAR_SERIES):
        near_s, far_s = near_s * xs + cn, far_s * xs + cf
    near[small], far[small] = near_s, far_s
    return decay, near, far


def _potential_rule(grid):
    """What the potential's rule on ``grid`` takes from no density, built once, then kept.

    The first call keeps it on the grid as ``_potential_rule``, read-only,
    as ``nodes()`` keeps its arrays: the cell widths ``h`` in s = log r, the
    modes ``k`` and their series weights ``coef`` = -1/k, halved for the
    Nyquist mode, which is its own conjugate; ``r2n`` = radii^2 / n_theta;
    and for ``_mode_tables``' scans, up the rings and then down them counted
    from the outer ring, the int block bounds ``bounds`` (a block spans at
    most _SCAN_SPAN / k_max in s, or is one wider cell) and, s_ref the
    block's second ring in the scan's order, by cell the hat weights near
    and far times h e^{k (s_out - s_ref)}, s_out the cell's last ring
    (``weights``), by ring e^{-k (s_i - s_ref)} (``unscale``) and by block
    its first cell's e^{-k h} times the ring below's un-scaling (``carry``).
    All real, about 24 n_r n_theta bytes.
    """
    rule = grid.__dict__.get("_potential_rule")
    if rule is not None:
        return rule
    s, h = grid.log_radii, np.diff(grid.log_radii)
    k = np.arange(1.0, grid.n_theta // 2 + 1)
    bounds = [0]
    while bounds[-1] < h.size:
        end = np.searchsorted(s, s[bounds[-1]] + _SCAN_SPAN / k[-1], side="right") - 1
        bounds.append(max(end, bounds[-1] + 1))
    bounds = np.array([bounds, h.size - np.array(bounds[::-1])])
    decay, near, far = (w.T for w in _hat_weights(h[:, None] * k))
    hats = np.stack([near * h, far * h])
    weights, unscale, carry = map(np.array, zip(
        _scan_rule(k, s, bounds[0], hats, decay),
        _scan_rule(k, -s[::-1], bounds[1], hats[..., ::-1], decay[:, ::-1])))
    rule = SimpleNamespace(h=h, k=k, coef=np.where(k < k.size, -1.0, -0.5) / k,
                           r2n=grid.radii[:, None] ** 2 / grid.n_theta, bounds=bounds,
                           weights=weights, unscale=unscale, carry=carry)
    for values in vars(rule).values():
        values.setflags(write=False)
    object.__setattr__(grid, "_potential_rule", rule)
    return rule


def _scan_rule(k, s, bounds, hats, decay):
    """One scan's ``weights``, ``unscale`` and ``carry``, on rings ``s`` in its direction."""
    ref = s[np.repeat(np.r_[0, bounds[:-1] + 1], np.r_[1, np.diff(bounds)])]  # ring 0: itself
    unscale = np.exp(k[:, None] * (ref - s))
    return hats / unscale[:, 1:], unscale, decay[:, bounds[:-1]] * unscale[:, bounds[:-1]]


def _mode_tables(grid, fvals):
    """Each angular mode's share of the potential at every ring, in s = log r.

    F_k(s) = rfft(f)_k e^{2s} / n_theta is taken linear in s on each cell,
    whatever its width, and every cell enters exactly.  Integrals over s < s_i:
    ``mass[i]`` of F_0 and ``moment[i]`` of (s_i - s) F_0; for k >= 1,
    ``left[i]`` of e^{-k (s_i - s)} F_k and ``right[i]`` of e^{-k (s - s_i)}
    F_k over s > s_i, kept with F_k as rows 0, 1 and 2 of one buffer
    ``table`` of shape (modes, 3, rings) that ``_cell_table`` may convert
    once, after ``_node_values`` has read rows 0 and 1.  Each recurrence
    G_i+1 = e^{-k h} G_i + (cell term) is a scaled prefix sum (Blelloch,
    CMU-CS-90-190, 1990): ``cumsum`` sums the cell terms, scaled by the kept
    ``_potential_rule``, block by block from each block's carry, and one
    product un-scales the row.  Down the rings runs as up them, reversed.
    """
    rule = _potential_rule(grid)
    s, h = grid.log_radii, rule.h
    spec = np.fft.rfft(fvals, axis=1)
    spec *= rule.r2n
    f0 = spec[:, 0].real.copy()
    mass = np.concatenate(([0.0], np.cumsum(0.5 * h * (f0[:-1] + f0[1:]))))
    moment = np.concatenate(([0.0], np.cumsum(h * (mass[:-1] + h * (f0[1:] / 6 + f0[:-1] / 3)))))
    table = np.empty((rule.k.size, 3, s.size), dtype=complex)
    left, right, fk = table[:, 0], table[:, 1], table[:, 2]
    fk[...] = spec[:, 1:].T
    del spec
    left[:, 0] = right[:, -1] = 0.0
    part = np.empty((rule.k.size, h.size), dtype=complex)  # scratch, the freed spectrum's size
    for row, f, bounds, weights, unscale, carry in zip(
            (left, right[:, ::-1]), (fk, fk[:, ::-1]), rule.bounds, rule.weights,
            rule.unscale, rule.carry):
        np.multiply(weights[0], f[:, 1:], out=row[:, 1:])
        row[:, 1:] += np.multiply(weights[1], f[:, :-1], out=part)
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            seg = row[:, lo + 1:hi + 1]
            seg[:, 0] += carry[:, b] * row[:, lo]
            np.cumsum(seg, axis=1, out=seg)
        row *= unscale
    return SimpleNamespace(rule=rule, s=s, f0=f0, mass=mass, moment=moment, table=table)


def _node_values(tab, ring, col):
    """The potential at nodes (ring, col), by one irfft per ring.

    irfft divides by n_theta and doubles modes 1 .. n_theta/2 - 1, so mode 0
    enters as n_theta moment and mode k as -(n_theta / 2) (left + right) / k.
    """
    rings, where = np.unique(ring, return_inverse=True)
    half = tab.rule.k.size  # n_theta / 2
    spectrum = np.column_stack([2 * half * tab.moment[rings],
                                tab.table[:, :2, rings].sum(axis=1).T * (-half / tab.rule.k)])
    return np.fft.irfft(spectrum, axis=1)[where, col]


def _cell_table(tab):
    """Each cell's modes as coef_k times (A, B, P) by ring, from the tables alone.

    With P = (2/k) F_k and Q = (P_i+1 - P_i) / (2 k h) on a cell [s_i, s_i+1]
    of width h, where F_k is linear, the partial-cell integrals give exactly,
    at a = t - s_i and b = s_i+1 - t,

        left + right = A e^{-k a} + B e^{-k b} + (b P_i + a P_i+1) / h,

    A = left_i - P_i / 2 + Q and B = right_i+1 - P_i+1 / 2 - Q, dividing by
    nothing small.  ``tab.table`` becomes, in place, row A at each cell's
    first ring, row B at its second and row P; the rows' free ends keep the
    boundary series coef left[-1] and coef right[0], at flat offsets rings - 1
    and rings.  Cell i reads i, rings + i + 1, 2 rings + i and 2 rings + i + 1.
    """
    rule, table = tab.rule, tab.table
    left, right, p = table[:, 0], table[:, 1], table[:, 2]
    table *= rule.coef[:, None, None]
    p /= rule.k[:, None]  # P / 2 until the last line
    left[:, :-1] -= p[:, :-1]
    right[:, 1:] -= p[:, 1:]
    q = np.subtract(p[:, 1:], p[:, :-1])
    q /= np.multiply.outer(rule.k, rule.h)
    left[:, :-1] += q
    right[:, 1:] -= q
    p *= 2.0


def _target_values(tab, r, theta):
    """The potential at targets (r, theta) off the nodes, each in O(n_theta).

    Reads the table ``_cell_table`` has converted.  A target at t = log r in
    the grid takes its cell [s_i, s_i+1] at a = t - s_i, b = s_i+1 - t: mode
    0 from the partial-cell integral, the modes k >= 1 from the partial-cell
    form as four polynomials, in e^{-a + i theta}, e^{-b + i theta} and
    e^{i theta} (twice, weighted b / h and a / h).  A target a distance d
    off the grid, the origin too, reads the nearer boundary ring's series in
    z = e^{-d + i theta}: the boundary cell's rule at b = 0 (a = 0), which
    the recurrences collapse to left at s_last, mode 0 adding moment + d
    mass, or to right at s_0 alone, the rows' free ends.  One Horner pass
    sums every polynomial of every target, with no exp, division or series
    per mode.
    """
    with np.errstate(divide="ignore"):
        t = np.log(r)  # -inf at the origin, where every term vanishes
    s, h, rings = tab.s, tab.rule.h, tab.s.size
    above, below = t > s[-1], t < s[0]
    vals = np.zeros(t.size)
    vals[above] = tab.moment[-1] + (t[above] - s[-1]) * tab.mass[-1]
    off, cell = np.flatnonzero(above | below), np.flatnonzero(~(above | below))
    n = cell.size
    z = np.empty(4 * n + off.size, dtype=complex)
    np.exp(1j * theta[off] - np.where(above[off], t[off] - s[-1], s[0] - t[off]),
           out=z[4 * n:])
    t, theta = t[cell], theta[cell]
    i = np.clip(np.searchsorted(s, t, side="right") - 1, 0, rings - 2)
    a, b = t - s[i], s[i + 1] - t
    wa, wb = a / h[i], b / h[i]
    f0_t = wb * tab.f0[i] + wa * tab.f0[i + 1]
    vals[cell] = tab.moment[i] + a * tab.mass[i] + a * a * (f0_t / 6.0 + tab.f0[i] / 3.0)
    z_cell = z[:4 * n].reshape(4, n)
    for row, shift in zip(z_cell, (a, b, 0.0)):
        np.exp(1j * theta - shift, out=row)
    z_cell[3] = z_cell[2]
    at = np.concatenate([(i + np.array([0, rings + 1, 2 * rings, 2 * rings + 1])[:, None]).ravel(),
                         rings - 1 + below[off]])
    g = _horner(tab.table.reshape(tab.rule.k.size, -1), at, z).real
    vals[off] += g[4 * n:]
    g = g[:4 * n].reshape(4, n)
    vals[cell] += g[0] + g[1] + wb * g[2] + wa * g[3]
    return vals


def _horner(table, at, z):
    """The sum over k = 1 .. K of table[k - 1].take(at) z^k, by Horner's rule.

    Each of the K steps multiplies the running sum by z and adds one
    gathered coefficient per entry of ``at``, so every entry takes its own
    operations alone.  The products go to a second buffer: numpy rounds an
    in-place complex product of one-element arrays differently.
    """
    acc = table[-1].take(at, mode="clip")
    prod = np.empty_like(acc)
    for row in table[-2::-1]:
        np.multiply(acc, z, out=prod)
        acc = row.take(at, out=acc, mode="clip")
        acc += prod
    return np.multiply(acc, z, out=prod)


def _node_indices(grid, r, theta):
    """Ring and column index of each target (r, theta) on a grid node, -1 elsewhere.

    On a node: r > 0, the index coordinates (t(r) - t_0) / dt and theta /
    dtheta within _NODE_TOL of integers, the ring in [0, n_r - 1].
    """
    on = r > 0.0
    tf = (grid.t_of_r(np.where(on, r, grid.r_inner)) - grid.t[0]) / grid.dt
    jf = (theta % (2.0 * math.pi)) / grid.dtheta
    i, j = np.rint(tf), np.rint(jf)
    on &= (np.abs(tf - i) <= _NODE_TOL) & (np.abs(jf - j) <= _NODE_TOL)
    on &= (i >= 0) & (i <= grid.n_r - 1)
    ring = np.where(on, i, -1).astype(int)
    col = np.where(on, j, 0).astype(int) % grid.n_theta
    return ring, col


def newtonian_potential(f, targets):
    """Potential of a compactly supported density against the log kernel.

    Computes u(x) = (1/2pi) * integral of (log|x - y| - log|y|) f(y) dy
    over the grid annulus for each target x, together with
    log_mass = (1/2pi) * integral of f.  The normalization makes rings
    outside a target's radius drop out exactly, so Delta u = f holds on
    the support with no truncation term, while u grows like
    log_mass * log|x| beyond it.  Returns ``(values, log_mass)``.

    With s = log|y|, t = log|x| the kernel splits by angular mode into
    (t - s)_+ - sum_k>=1 e^{-k |t - s|} cos k(theta - phi) / k (Borges &
    Daripa, J. Comput. Phys. 169 (2001) 151).  ``_mode_tables`` integrates
    each mode exactly against its density, linear in s on each cell, and
    log_mass is its mode-0 mass, so u - log_mass log|x| is one constant
    beyond the support.  Grid nodes (index coordinates within 1e-12 of
    integers) are read ring by ring by irfft, targets in a cell from its two
    rings, the others (the origin too) from the nearer boundary ring's series.
    In a cell each mode k >= 1 is A e^{-k a} + B e^{-k b} plus the density's
    term (2/k) F_k, A and B read off the tables.  A call holds one (modes, 3,
    rings) buffer: left, right and F_k, which the nodes read; then, once and
    only if some target is off the nodes, in place the cell coefficients,
    whose rows end in the boundary series, from which one Horner pass sums
    the modes of every off-node target.  The first call on a grid keeps on
    it, read-only, the part of the rule that no density changes
    (``_potential_rule``, about 24 n_r n_theta bytes).
    """
    if not np.all(np.isfinite(f.values)):
        raise ValueError("singular-input: non-finite density values")
    pts = np.asarray(targets, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("invalid-dimension: targets must have shape (m, 2)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("singular-input: non-finite target coordinates")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        r, theta = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
        tab = _mode_tables(f.grid, f.values)
        ring, col = _node_indices(f.grid, r, theta)
        on = ring >= 0
        vals = np.empty(r.size)
        vals[on] = _node_values(tab, ring[on], col[on])
        if not on.all():
            _cell_table(tab)
            vals[~on] = _target_values(tab, r[~on], theta[~on])
    log_mass = float(tab.mass[-1])
    if not (np.all(np.isfinite(vals)) and math.isfinite(log_mass)):
        x1, x2 = pts[int(np.argmax(~np.isfinite(vals)))].tolist()
        raise ValueError(f"singular-input: the potential at ({x1!r}, {x2!r}) is not finite; "
                         "the density's moments or the target's radius overflow")
    return vals, log_mass
