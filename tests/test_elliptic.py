import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import gmres, splu

from annulab import elliptic
from annulab.grid import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    PlanarMapping,
    ScalarField,
    build_grid,
    gradient,
    hessian,
    laplacian,
    ring_index,
)
from annulab.elliptic import (
    _REACH,
    LinearCoefficients,
    _bilinear,
    _polar_cell_integral,
    _rule,
    _sub_cells,
    ellipticity_constants,
    newtonian_potential,
    solve_linear_dirichlet,
)
from annulab.qcmap import dilatation_field


def observed_orders(errs):
    errs = np.asarray(errs, dtype=float)
    return np.log2(errs[:-1] / errs[1:])


def sample(grid, fn):
    x1, x2 = grid.nodes()
    return np.asarray(fn(x1, x2), dtype=float)


def solve_with_boundary(coeffs, f_fn, u_fn):
    g = coeffs.grid
    ustar = sample(g, u_fn)
    f = ScalarField(g, sample(g, f_fn))
    u = solve_linear_dirichlet(coeffs, f, ustar[0], ustar[-1])
    return u, ustar


# -- ellipticity constants ---------------------------------------------------


def test_constants_identity():
    assert ellipticity_constants(1.0, 0.0, 1.0) == (1.0, 1.0, 1.0)


def test_constants_diagonal():
    assert ellipticity_constants(1.0, 0.0, 3.0) == (1.0, 3.0, 3.0)


def test_constants_cofactor_of_radial_hessian():
    # cofactor of D^2 u for u'(r) = sqrt(r^2 + 1): eigenvalues swap u'' and
    # u'/r, so the extremes over r >= 1 are attained on the inner ring
    g = build_grid(1.0, 4.0, 33, 32)
    rr, th = np.meshgrid(g.radii, g.theta, indexing="ij")
    up = np.sqrt(rr**2 + 1.0)
    upp = rr / np.sqrt(rr**2 + 1.0)
    c, s = np.cos(th), np.sin(th)
    m11 = upp * c * c + (up / rr) * s * s
    m22 = upp * s * s + (up / rr) * c * c
    m12 = (upp - up / rr) * c * s
    lam, big, gamma = ellipticity_constants(m22, -m12, m11)
    assert abs(lam - 1.0 / math.sqrt(2.0)) <= 1e-12
    assert abs(big - math.sqrt(2.0)) <= 1e-12
    assert abs(gamma - 2.0) <= 1e-12


def test_constants_reject_indefinite():
    with pytest.raises(ValueError, match="not-elliptic"):
        ellipticity_constants(1.0, 0.0, -1.0)


def test_constants_reject_nonfinite():
    with pytest.raises(ValueError, match="singular-input"):
        ellipticity_constants(np.nan, 0.0, 1.0)


def test_coefficients_broadcast_and_constants():
    g = build_grid(1.0, 2.0, 16, 16)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    assert co.a11.shape == g.shape
    assert ellipticity_constants(co.a11, co.a12, co.a22) == (1.0, 3.0, 3.0)
    tr = LinearCoefficients.trace_operator(g)
    assert ellipticity_constants(tr.a11, tr.a12, tr.a22) == (1.0, 1.0, 1.0)


def test_coefficients_are_read_only():
    # ellipticity is checked once, at construction, so the entries it was
    # checked on must not change afterwards
    g = build_grid(1.0, 2.0, 16, 16)
    a22 = np.full(g.shape, 3.0)
    co = LinearCoefficients(g, 1.0, 0.0, a22)
    for name in ("a11", "a12", "a22"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(co, name)[0, 0] = -1.0
    a22[0, 0] = -1.0  # the caller's array stays the caller's
    assert co.a22[0, 0] == 3.0


def test_ellipticity_constants_are_not_arguments():
    # the coefficients carry no ellipticity constants: they follow from the
    # entries, so passing one is an error
    g = build_grid(1.0, 2.0, 16, 16)
    for kwargs in ({"lam": 5.0}, {"Lam": -2.0}, {"gamma": 0.5}):
        with pytest.raises(TypeError):
            LinearCoefficients(g, 1.0, 0.0, 1.0, **kwargs)
    with pytest.raises(TypeError):
        LinearCoefficients(g, 1.0, 0.0, 1.0, 5.0, Lam=-2.0)


# -- linear Dirichlet solves -------------------------------------------------


def test_quadratic_exact_on_uniform_grid():
    g = build_grid(1.0, 3.0, 48, 32, UNIFORM_RADIAL)
    co = LinearCoefficients(g, 1.0, 0.0, 1.0)
    u, ustar = solve_with_boundary(co, lambda a, b: 4.0 + 0.0 * a, lambda a, b: a * a + b * b)
    # radial quadratics are stencil-exact on uniform spacing
    assert np.abs(u.values - ustar).max() <= 1e-11


def test_log_exact_on_log_grid():
    g = build_grid(1.0, 16.0, 49, 32)
    co = LinearCoefficients(g, 1.0, 0.0, 1.0)
    u, ustar = solve_with_boundary(
        co, lambda a, b: 0.0 * a, lambda a, b: 0.5 * np.log(a * a + b * b)
    )
    assert np.abs(u.values - ustar).max() <= 1e-11


def test_manufactured_saddle_second_order():
    errs = []
    for n_r, n_q in [(33, 24), (65, 48), (129, 96)]:
        g = build_grid(1.0, 3.0, n_r, n_q)
        co = LinearCoefficients(g, 1.0, 0.0, 3.0)
        u, ustar = solve_with_boundary(
            co, lambda a, b: 0.0 * a, lambda a, b: a * a - b * b / 3.0
        )
        errs.append(np.abs(u.values - ustar).max())
    assert errs[-1] <= 1e-2
    assert np.all(observed_orders(errs) >= 1.8)


def test_harmonic_log_second_order_on_uniform_grid():
    errs = []
    for n_r, n_q in [(33, 24), (65, 48), (129, 96)]:
        g = build_grid(1.0, 4.0, n_r, n_q, UNIFORM_RADIAL)
        co = LinearCoefficients(g, 1.0, 0.0, 1.0)
        u, ustar = solve_with_boundary(
            co, lambda a, b: 0.0 * a, lambda a, b: 0.5 * np.log(a * a + b * b)
        )
        errs.append(np.abs(u.values - ustar).max())
    assert np.all(observed_orders(errs) >= 1.8)


def test_homogeneous_extremes_on_boundary():
    g = build_grid(1.0, 4.0, 49, 32)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    u, _ = solve_with_boundary(co, lambda a, b: 0.0 * a, lambda a, b: a * a - b * b / 3.0)
    inner = u.values[1:-1]
    edge = u.values[[0, -1]]
    slack = 1e-9 * (u.values.max() - u.values.min() + 1.0)
    assert inner.max() <= edge.max() + slack
    assert inner.min() >= edge.min() - slack


def test_gradient_map_dilatation_within_ellipticity_bound():
    # swapped gradient components orient the map; K stays below (1+gamma)/2
    # with gamma = 3, the eigenvalue ratio of diag(1, 3)
    g = build_grid(1.0, 8.0, 97, 64)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    u, _ = solve_with_boundary(co, lambda a, b: 0.0 * a, lambda a, b: a * a - b * b / 3.0)
    grad = gradient(u)
    report = dilatation_field(PlanarMapping(g, grad.q, grad.p))
    assert report.orientation_ok
    assert report.K_min <= 0.5 * (1.0 + 3.0) + 0.05


def test_solve_input_validation():
    g = build_grid(1.0, 2.0, 16, 16)
    other = build_grid(1.0, 2.0, 16, 32)
    co = LinearCoefficients(g, 1.0, 0.0, 1.0)
    zero = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="invalid-dimension"):
        solve_linear_dirichlet(co, ScalarField(other, np.zeros(other.shape)), 0.0, 0.0)
    with pytest.raises(ValueError, match="invalid-dimension"):
        solve_linear_dirichlet(co, zero, np.zeros(5), 0.0)
    with pytest.raises(ValueError, match="singular-input"):
        solve_linear_dirichlet(co, zero, np.full(16, np.nan), 0.0)


# -- Newtonian potential -----------------------------------------------------


def inverse_quartic(x1, x2):
    return (x1 * x1 + x2 * x2) ** -2.0


def node_point(g, i, j, dt_cells=0.0, dq_cells=0.0):
    """Cartesian point at node (i, j), moved by the given index offsets."""
    if g.spacing == LOG_RADIAL:
        r = g.radii[i] * math.exp(dt_cells * g.dt)
    else:
        r = g.radii[i] + dt_cells * g.dt
    th = g.theta[j] + dq_cells * g.dtheta
    return r * math.cos(th), r * math.sin(th)


def test_potential_zero_density():
    g = build_grid(1.0, 4.0, 17, 16)
    vals, log_mass = newtonian_potential(ScalarField(g, np.zeros(g.shape)), [(2.0, 0.0)])
    assert vals[0] == 0.0
    assert log_mass == 0.0


def test_potential_vanishes_at_origin():
    # the -log|y| normalization makes the kernel vanish identically at x = 0;
    # neither the origin nor the boundary-ring nodes beside it may warn
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, inverse_quartic)
    pts = [(0.0, 0.0), node_point(g, 0, 0), node_point(g, 16, 15)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, _ = newtonian_potential(f, pts)
    assert abs(vals[0]) <= 1e-14


def test_potential_radial_profile():
    # u(r) = log(r)/2 - (1 - r^-2)/4 solves (r u')' = r^-3 with u(1) = 0;
    # rings beyond the target cancel exactly, so no truncation correction
    g = build_grid(1.0, 16.0, 97, 48)
    f = ScalarField.from_function(g, inverse_quartic)
    radii = g.radii
    pts = np.column_stack([radii, np.zeros_like(radii)])
    vals, log_mass = newtonian_potential(f, pts)
    exact = 0.5 * np.log(radii) - 0.25 * (1.0 - radii**-2)
    assert np.abs(vals - exact).max() <= 3e-3
    assert abs(log_mass - 0.5 * (1.0 - 16.0**-2)) <= 1e-3


def test_potential_radial_derivative_profile():
    g = build_grid(1.0, 16.0, 97, 48)
    f = ScalarField.from_function(g, inverse_quartic)
    i_lo, i_hi = ring_index(g, 2.0), ring_index(g, 8.0)
    sub = build_grid(2.0, 8.0, i_hi - i_lo + 1, g.n_theta)
    rr, th = np.meshgrid(g.radii[i_lo : i_hi + 1], g.theta, indexing="ij")
    pts = np.column_stack([(rr * np.cos(th)).ravel(), (rr * np.sin(th)).ravel()])
    vals, _ = newtonian_potential(f, pts)
    grad = gradient(ScalarField(sub, vals.reshape(rr.shape)))
    rs, ts = np.meshgrid(sub.radii, sub.theta, indexing="ij")
    u_r = grad.p * np.cos(ts) + grad.q * np.sin(ts)
    profile = (1.0 - rs**-2) / (2.0 * rs)
    assert np.abs(u_r - profile)[1:-1, :].max() <= 5e-4


def test_potential_discrete_laplacian_residual():
    # residual envelope C h^2 (1 + |log h|): the log factor is the kernel's
    resids, hs = [], []
    for n_r, n_q in [(65, 32), (129, 64), (257, 128)]:
        g = build_grid(1.0, 16.0, n_r, n_q)
        f = ScalarField.from_function(g, inverse_quartic)
        i_lo = ring_index(g, 2.0)
        i_hi = ring_index(g, 2.0 * math.sqrt(2.0))
        sub = build_grid(2.0, g.radii[i_hi], i_hi - i_lo + 1, n_q)
        rr, th = np.meshgrid(g.radii[i_lo : i_hi + 1], g.theta, indexing="ij")
        pts = np.column_stack([(rr * np.cos(th)).ravel(), (rr * np.sin(th)).ravel()])
        vals, _ = newtonian_potential(f, pts)
        lap = laplacian(ScalarField(sub, vals.reshape(rr.shape)))
        fsub = ScalarField.from_function(sub, inverse_quartic)
        resids.append(np.abs(lap.values - fsub.values)[2:-2, :].max())
        hs.append(g.dt)
    for resid, h in zip(resids, hs):
        assert resid <= 0.04 * h * h * (1.0 + abs(math.log(h)))
    assert observed_orders(resids)[-1] >= 1.6


def test_potential_growth_bound_for_slow_decay():
    # f = |y|^{-3/2}: u(r) = 4(sqrt(r) - 1) - 2 log r, growth exponent ~ 1/2
    g = build_grid(1.0, 2.0**20, 321, 32)
    f = ScalarField.from_function(g, lambda x1, x2: (x1 * x1 + x2 * x2) ** -0.75)
    radii = 2.0 ** np.arange(10, 18)
    pts = np.column_stack([radii, np.zeros_like(radii)])
    vals, log_mass = newtonian_potential(f, pts)
    exact = 4.0 * (np.sqrt(radii) - 1.0) - 2.0 * np.log(radii)
    assert np.abs(vals / exact - 1.0).max() <= 2e-3
    slope = np.polyfit(np.log(radii), np.log(np.abs(vals)), 1)[0]
    assert slope <= 0.6
    assert abs(log_mass / (2.0 * (2.0**10 - 1.0)) - 1.0) <= 1e-3


def test_potential_input_validation():
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, inverse_quartic)
    with pytest.raises(ValueError, match="invalid-dimension"):
        newtonian_potential(f, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="singular-input"):
        newtonian_potential(f, [(np.nan, 0.0)])
    bad = ScalarField(g, np.full(g.shape, np.nan), allow_nonfinite=True)
    with pytest.raises(ValueError, match="singular-input"):
        newtonian_potential(bad, [(2.0, 0.0)])


def test_potential_of_one_target_as_a_2_vector():
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, inverse_quartic)
    for target in ((2.3, -0.7), (float(g.radii[5]), 0.0)):  # off and on a node
        single, mass = newtonian_potential(f, np.array(target))
        batch, batch_mass = newtonian_potential(f, np.array([target]))
        assert single.shape == (1,)
        assert np.array_equal(single, batch) and mass == batch_mass


# -- the on-node path against the per-target loop --------------------------


def reference_potential(f, targets):
    """``newtonian_potential`` with every target on the batched off-node path."""
    rule = _rule(f.grid)
    fvals, log_mass = elliptic._density(f, rule)
    pts = elliptic._target_array(targets)
    return elliptic._checked(elliptic._target_sums(rule, fvals, pts), pts), log_mass


def potential_and_loop_count(f, pts):
    """Potential plus the number of targets the per-target loop received."""
    with mock.patch.object(elliptic, "_target_sums",
                           wraps=elliptic._target_sums) as loop:
        vals, log_mass = newtonian_potential(f, pts)
    looped = sum(call.args[2].shape[0] for call in loop.call_args_list)
    return vals, log_mass, looped


def assert_matches_reference(f, pts, n_node):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, log_mass, looped = potential_and_loop_count(f, pts)
        ref, ref_mass = reference_potential(f, pts)
    assert looped == len(pts) - n_node
    assert log_mass == ref_mass
    assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 33),
    # grids need an even n_theta of at least 16
    n_q=st.integers(8, 16).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
    mixed=st.booleans(),
)
def test_node_path_matches_reference(spacing, n_r, n_q, seed, mixed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    f = ScalarField(g, rng.uniform(0.5, 1.5, g.shape) / g.radii[:, None] ** 2)
    rings = np.concatenate([[0, n_r - 1], rng.integers(0, n_r, 6)])
    cols = rng.integers(0, n_q, rings.size)
    # offsets below the 1e-12 selection tolerance still select the node
    jitter = rng.uniform(-5e-13, 5e-13, (rings.size, 2))
    pts = [node_point(g, i, j, *d) for i, j, d in zip(rings, cols, jitter)]
    pts += pts[:3]
    n_node = len(pts)
    if mixed:
        radii = rng.uniform(0.5, 5.0, 6)
        angles = rng.uniform(0.0, 2.0 * math.pi, 6)
        pts += list(zip(radii * np.cos(angles), radii * np.sin(angles)))
        pts.append((0.0, 0.0))
    pts = np.array(pts)[rng.permutation(len(pts))]
    assert_matches_reference(f, pts, n_node)


@pytest.mark.parametrize("grid_args, rings", [
    # every ring of the radial-profile grid, boundary rings included
    ((1.0, 16.0, 97, 48), np.arange(97)),
    # the growth grid of acceptance row 10
    ((1.0, 2.0**20, 321, 32), np.arange(160, 289, 16)),
    # a sample of the acceptance row 10 ring band
    ((1.0, 16.0, 257, 128), np.arange(64, 97, 4)),
])
def test_node_path_matches_reference_on_named_grids(grid_args, rings):
    g = build_grid(*grid_args)
    f = ScalarField.from_function(g, inverse_quartic)
    cols = (7 * rings) % g.n_theta
    pts = np.array([node_point(g, i, j) for i, j in zip(rings, cols)])
    assert_matches_reference(f, pts, len(pts))


@pytest.mark.parametrize("grid_args", [
    (1.0, 4.0, 17, 16, LOG_RADIAL),
    (1.0, 4.0, 12, 20, UNIFORM_RADIAL),
    (1.0, 16.0, 97, 48, LOG_RADIAL),
])
def test_node_path_follows_the_reach(monkeypatch, grid_args):
    # both paths take their near cells from _REACH, so a wider reach
    # changes them alike
    monkeypatch.setattr(elliptic, "_REACH", 3.5 + 1e-9)
    g = build_grid(*grid_args)
    f = ScalarField.from_function(g, inverse_quartic)
    rings = np.array([0, 1, 3, g.n_r // 2, g.n_r - 2, g.n_r - 1])
    cols = (5 * rings) % g.n_theta
    pts = np.array([node_point(g, i, j) for i, j in zip(rings, cols)])
    assert_matches_reference(f, pts, len(pts))


@pytest.mark.parametrize("offset", [(1e-6, 0.0), (0.0, 1e-6), (-1e-6, -1e-6)])
def test_target_off_a_node_takes_the_loop(offset):
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, inverse_quartic)
    pts = [node_point(g, 8, 3, *offset)]
    vals, _, looped = potential_and_loop_count(f, pts)
    ref, _ = reference_potential(f, pts)
    assert looped == 1
    assert vals.tobytes() == ref.tobytes()


# -- the batched off-node path against the per-target loop ------------------


def _refined_cells(rule, fvals, idx_r, idx_q, x1k, x2k):
    """Subdivided midpoint contribution of the listed cells for one target.

    Only the sub-cell geometry comes from the rule; the density is
    interpolated here, at the midpoints' own (t, theta).
    """
    kern = _sub_cells(rule, idx_r, idx_q, x1k, x2k)
    tq, thq = rule.sub_t[idx_r][:, :, None], rule.sub_theta[idx_q][:, None, :]
    f_sub = _bilinear(rule.grid, fvals, tq, thq).reshape(kern.shape)
    return float(np.sum(kern * f_sub * rule.sub_area[idx_r][:, :, None]))


def dense_midpoint_sums(grid, fw, pts):
    """Sums of (log|x - y| - log|y|) fw(y) over every node, by the dense kernel."""
    y1, y2 = grid.nodes()
    y1f, y2f = y1.ravel(), y2.ravel()
    fwf = fw.ravel()
    logyf = np.broadcast_to(np.log(grid.radii)[:, None], grid.shape).ravel()
    m = pts.shape[0]
    acc = np.empty(m)
    chunk = max(1, int(2.0e6 // max(y1f.size, 1)))
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        dx = pts[lo:hi, 0:1] - y1f[None, :]
        dy = pts[lo:hi, 1:2] - y2f[None, :]
        d2 = dx * dx + dy * dy
        kern = 0.5 * np.log(np.maximum(d2, 1e-300)) - logyf[None, :]
        acc[lo:hi] = kern @ fwf
    return acc


def _loop_target_sums(rule, fvals, pts):
    """Quadrature sums target by target: dense kernel sum plus local fixes.

    The same rule as ``elliptic._target_sums``, one target at a time: the
    oracle of the batched evaluation.
    """
    grid = rule.grid
    fw = fvals * rule.area
    y1, y2 = grid.nodes()
    logr_nodes = np.log(grid.radii)
    m = pts.shape[0]
    acc = dense_midpoint_sums(grid, fw, pts)

    t0 = grid.t[0]
    n_r, n_q = grid.shape
    two_pi = 2.0 * math.pi
    for k in range(m):
        x1k, x2k = pts[k]
        r_k = math.hypot(x1k, x2k)
        if r_k == 0.0:
            continue  # kernel vanishes identically at the origin
        tf = ((math.log(r_k) if grid.spacing == LOG_RADIAL else r_k) - t0) / grid.dt
        if tf < -_REACH or tf > (n_r - 1) + _REACH:
            continue
        th_k = math.atan2(x2k, x1k) % two_pi
        jf = th_k / grid.dtheta
        inside = -1e-9 <= tf <= (n_r - 1) + 1e-9
        i_c = min(max(int(round(tf)), 0), n_r - 1)
        j_c = int(round(jf)) % n_q

        i_near = [i for i in range(i_c - 3, i_c + 4)
                  if 0 <= i < n_r and abs(i - tf) <= _REACH]
        j_near = []
        for dj in range(-3, 4):
            j = (j_c + dj) % n_q
            dist = abs((j - jf + n_q / 2.0) % n_q - n_q / 2.0)
            if dist <= _REACH:
                j_near.append(j)
        ii = np.repeat(i_near, len(j_near))
        jj = np.tile(j_near, len(i_near))

        # remove the plain midpoint contribution of every special cell
        d2s = (x1k - y1[ii, jj]) ** 2 + (x2k - y2[ii, jj]) ** 2
        base = (0.5 * np.log(np.maximum(d2s, 1e-300)) - logr_nodes[ii]) * fw[ii, jj]
        acc[k] -= float(np.sum(base))

        singular = inside & (ii == i_c) & (jj == j_c)
        if np.any(~singular):
            acc[k] += _refined_cells(rule, fvals, ii[~singular], jj[~singular], x1k, x2k)
        if inside:
            delta = (grid.theta[j_c] - th_k + math.pi) % two_pi - math.pi
            beta_lo = min(delta - 0.5 * grid.dtheta, 0.0)
            beta_hi = max(delta + 0.5 * grid.dtheta, 0.0)
            s_log, cell_area = _polar_cell_integral(
                r_k, rule.r_lo[i_c], rule.r_hi[i_c], beta_lo, beta_hi, rule.n_rays
            )
            t_k = min(max(math.log(r_k) if grid.spacing == LOG_RADIAL else r_k,
                          grid.t[0]), grid.t[-1])
            f_at_x = float(_bilinear(grid, fvals, t_k, th_k))
            acc[k] += f_at_x * (s_log - math.log(r_k) * cell_area)
    return acc


def nudged(x, hits):
    """The float within 64 ulps of x nearest to it for which hits() holds, else x."""
    up = down = x
    for _ in range(64):
        for cand in (up, down):
            if hits(cand):
                return cand
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    return x


def index_t(g, r):
    """The loop's radial index coordinate of a target at radius r."""
    return ((math.log(r) if g.spacing == LOG_RADIAL else r) - g.t[0]) / g.dt


def radius_at(g, tf):
    """Radius whose radial index coordinate is about tf."""
    t = g.t[0] + tf * g.dt
    return math.exp(t) if g.spacing == LOG_RADIAL else t


def edge_case_targets(g, rng):
    """Off-node targets of every kind the near-cell pass distinguishes."""
    n_r, n_q = g.shape
    two_pi = 2.0 * math.pi
    pts = []
    # inside the grid, and just off a node
    for tf, jf in zip(rng.uniform(0.0, n_r - 1, 8), rng.uniform(0.0, n_q, 8)):
        r, th = radius_at(g, tf), jf * g.dtheta
        pts.append((r * math.cos(th), r * math.sin(th)))
    pts += [node_point(g, int(i), int(j), *rng.choice([-1e-6, 1e-6], 2))
            for i, j in zip(rng.integers(0, n_r, 3), rng.integers(0, n_q, 3))]
    # on a cell edge in t: the radial index coordinate is exactly k + 1/2
    for k in rng.integers(0, n_r - 1, 3):
        r = nudged(radius_at(g, k + 0.5), lambda r: index_t(g, r) == k + 0.5)
        pts += [(r, 0.0), (0.0, r), (-r, 0.0)]
        th = rng.uniform(0.0, two_pi)
        x2 = r * math.sin(th)
        x1 = nudged(r * math.cos(th), lambda x1: index_t(g, math.hypot(x1, x2)) == k + 0.5)
        pts.append((x1, x2))
    # on a cell edge in theta: the angular index coordinate is exactly j + 1/2
    for i, j in zip(rng.integers(0, n_r, 3), rng.integers(0, n_q, 3)):
        r, th = g.radii[i], (j + 0.5) * g.dtheta
        x1 = r * math.cos(th)
        x2 = nudged(r * math.sin(th),
                    lambda x2: (math.atan2(x2, x1) % two_pi) / g.dtheta == j + 0.5)
        pts.append((x1, x2))
    # theta just below 2 pi, including a wrap to exactly 2 pi
    r = g.radii[n_r // 2]
    pts += [(r, -1e-12), (r, -1e-300), (r * math.cos(-1e-9), r * math.sin(-1e-9))]
    # within reach below r_inner and beyond r_outer, and either side of the
    # 1e-9 tolerance that decides whether the own cell is integrated
    for tf in (-2.4, -1.2, -0.3, -1e-10, -1e-8, n_r - 1 + 1e-10, n_r - 1 + 1e-8,
               n_r - 0.7, n_r + 1.4):
        r, th = radius_at(g, tf), rng.uniform(0.0, two_pi)
        pts.append((r * math.cos(th), r * math.sin(th)))
    # far from the grid, and the origin
    radii = g.r_outer * rng.uniform(1.5, 100.0, 4)
    angles = rng.uniform(0.0, two_pi, 4)
    pts += list(zip(radii * np.cos(angles), radii * np.sin(angles)))
    pts.append((0.0, 0.0))
    # duplicates, in shuffled order
    pts += pts[:5]
    return np.array(pts)[rng.permutation(len(pts))]


def batched_and_loop_sums(f, pts):
    rule = _rule(f.grid)
    fvals, _ = elliptic._density(f, rule)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        acc = elliptic._target_sums(rule, fvals, pts)
    return acc, _loop_target_sums(rule, fvals, pts)


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 65),
    # grids need an even n_theta of at least 16
    n_q=st.integers(8, 20).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_target_sums_match_the_loop(spacing, n_r, n_q, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    f = ScalarField(g, rng.uniform(0.5, 1.5, g.shape) / g.radii[:, None] ** 2)
    acc, ref = batched_and_loop_sums(f, edge_case_targets(g, rng))
    assert np.abs(acc - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("grid_args", [
    (1.0, 4.0, 17, 16, LOG_RADIAL),
    (1.0, 16.0, 257, 128, LOG_RADIAL),
    (1.0, 4.0, 9, 18, UNIFORM_RADIAL),
    (0.5, 3.0, 64, 40, UNIFORM_RADIAL),
])
def test_rule_is_consistent_with_itself(grid_args):
    # independent of the loop: the sub-cells of a ring tile its node cell,
    # boundary half cells included, and the stencils at the sub-cell
    # midpoints reproduce the midpoints' own t and theta
    g = build_grid(*grid_args)
    rule = _rule(g)
    tiled = np.sum(rule.sub_area, axis=1) * elliptic._N_SUB
    assert np.abs(tiled / rule.area[:, 0] - 1.0).max() <= 1e-14
    t_sub = (1.0 - rule.wt) * g.t[rule.it] + rule.wt * g.t[rule.it + 1]
    assert np.all(np.abs(t_sub - rule.sub_t) <= 1e-14 * np.abs(rule.sub_t))
    assert np.all(rule.j1 == (rule.j0 + 1) % g.n_theta)
    theta_sub = ((1.0 - rule.wj) * rule.j0 + rule.wj * (rule.j0 + 1)) * g.dtheta
    assert np.abs(theta_sub - rule.sub_theta).max() <= 1e-14 * 2.0 * math.pi
    assert np.all((rule.sub_theta >= 0.0) & (rule.sub_theta < 2.0 * math.pi))


def test_polar_cell_integral_of_several_targets():
    # beta_lo = 0 puts the target on the cell's lower angular edge: rays
    # heading below it leave at once, so the area is the cell's own
    r_x = np.array([1.1, 1.1, 1.05, 1.19])
    beta_lo = np.array([0.0, -0.0, -0.1, -0.2])
    beta_hi = np.array([0.3, 0.3, 0.2, 0.0])
    s_log, area = _polar_cell_integral(r_x, 1.0, 1.2, beta_lo, beta_hi, 1024)
    exact = 0.5 * (1.2**2 - 1.0) * (beta_hi - beta_lo)
    assert np.abs(area / exact - 1.0).max() <= 1e-3
    for k in range(r_x.size):
        one = _polar_cell_integral(r_x[k], 1.0, 1.2, beta_lo[k], beta_hi[k], 1024)
        assert (one[0], one[1]) == (s_log[k], area[k])


def test_cell_edge_targets_keep_their_cell():
    # n_theta = 18: theta = pi/2 is the edge between columns 4 and 5, and on
    # the uniform grid r = 1.9375 is the edge between rings 2 and 3; ties go
    # to the even index, as Python's round does
    g = build_grid(1.0, 4.0, 9, 18, UNIFORM_RADIAL)
    f = ScalarField.from_function(g, inverse_quartic)
    assert index_t(g, 1.9375) == 2.5
    assert (math.atan2(1.0, 0.0) % (2.0 * math.pi)) / g.dtheta == 4.5
    pts = np.array([(0.0, 1.9375), (0.0, g.radii[4]), (1.9375, 0.0)])
    acc, ref = batched_and_loop_sums(f, pts)
    assert np.abs(acc - ref).max() <= 1e-13 * np.abs(ref).max()


def test_batches_span_several_blocks():
    # blocks of 7 targets in the near-cell pass
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, inverse_quartic)
    rng = np.random.default_rng(7)
    radii = np.exp(rng.uniform(-0.1, math.log(4.0) + 0.1, 201))
    angles = rng.uniform(0.0, 2.0 * math.pi, radii.size)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    with mock.patch.object(elliptic, "_NEAR_ELEMENTS", 7 * 49 * 64):
        acc, ref = batched_and_loop_sums(f, pts)
        again, _ = batched_and_loop_sums(f, pts)
    assert np.abs(acc - ref).max() <= 1e-13 * np.abs(ref).max()
    assert again.tobytes() == acc.tobytes()


# -- the ring-wise series of the midpoint sum against the dense sum ------------


def ring_sums_and_dense(f, pts):
    rule = _rule(f.grid)
    fw = f.values * rule.area
    pts = np.asarray(pts, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        acc = elliptic._ring_sums(rule, fw, np.hypot(pts[:, 0], pts[:, 1]),
                                  np.arctan2(pts[:, 1], pts[:, 0]))
    return acc, dense_midpoint_sums(f.grid, fw, pts)


def series_edge_targets(g, rng):
    """Targets at and either side of every switch between series and direct sums."""
    q = elliptic._RATIO
    radii = []
    for i in rng.integers(0, g.n_r, 4):
        r_i = float(g.radii[i])
        # ring i is the last ring of the inner series, or the first of the outer
        radii.append(nudged(r_i / q, lambda rho: q * rho == r_i))
        radii.append(nudged(q * r_i, lambda rho: rho / q == r_i))
        radii += [r_i / q * (1.0 + 1e-12), q * r_i * (1.0 - 1e-12)]
    radii += list(rng.uniform(g.r_inner, g.r_outer, 6))
    # every ring outside, or every ring inside, the target
    radii += list(q * g.r_inner * rng.uniform(1e-3, 1.0, 3))
    radii += list(g.r_outer / q * rng.uniform(1.0, 1e3, 3))
    radii = np.array(radii)
    angles = rng.uniform(0.0, 2.0 * math.pi, radii.size)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return np.vstack([pts, [(0.0, 0.0)]])


def test_series_truncation_is_below_rounding():
    q, k = elliptic._RATIO, elliptic._TERMS
    assert q ** k / (k * (1.0 - q)) < 2.0**-53


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 65),
    n_q=st.integers(8, 20).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
def test_ring_sums_match_the_dense_sum(spacing, n_r, n_q, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    f = ScalarField(g, rng.uniform(-0.5, 1.5, g.shape) / g.radii[:, None] ** 2)
    acc, ref = ring_sums_and_dense(f, series_edge_targets(g, rng))
    assert np.abs(acc - ref).max() <= 1e-13 * np.abs(ref).max()
    assert acc[-1] == 0.0  # the origin


@pytest.mark.parametrize("grid_args", [
    (1.0, 2.0**20, 321, 32, LOG_RADIAL),
    (1.0, 16.0, 257, 128, LOG_RADIAL),
    (0.5, 64.0, 513, 64, UNIFORM_RADIAL),
])
def test_ring_sums_match_the_dense_sum_on_named_grids(grid_args):
    g = build_grid(*grid_args)
    f = ScalarField.from_function(g, lambda x1, x2: (x1 * x1 + x2 * x2) ** -0.75 + 0.1 * x1)
    acc, ref = ring_sums_and_dense(f, series_edge_targets(g, np.random.default_rng(11)))
    assert np.abs(acc - ref).max() <= 1e-13 * np.abs(ref).max()


def test_targets_beyond_the_band_sum_no_ring_directly():
    # beyond r_outer / _RATIO every ring enters by the series alone, and the
    # near-cell pass does not reach that far either
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, inverse_quartic)
    rng = np.random.default_rng(3)
    radii = g.r_outer / elliptic._RATIO * rng.uniform(1.0 + 1e-9, 50.0, 40)
    angles = rng.uniform(0.0, 2.0 * math.pi, radii.size)
    far = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    with mock.patch.object(elliptic, "_distance_factors",
                           wraps=elliptic._distance_factors) as direct:
        vals, log_mass = newtonian_potential(f, far)
        assert direct.call_count == 0
        newtonian_potential(f, [(2.0, 0.5)])
        assert direct.call_count > 0
    rule = _rule(g)
    ref = dense_midpoint_sums(g, f.values * rule.area, far) / (2.0 * math.pi)
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()


def test_potential_of_huge_targets_is_finite():
    # |x - y|^2 overflows at |x| = 1e200, so the dense sum raised
    # target-inside-singular-cell there; the series needs only log|x|, and
    # u - log_mass log|x| is the same constant as at any target beyond the
    # support, up to terms in (r_outer / |x|)^k
    g = build_grid(1.0, 16.0, 97, 48)
    f = ScalarField.from_function(g, inverse_quartic)
    pts = np.array([(1e200, 0.0), (-3e199, 4e199), (0.0, -1e300), (1e20, 0.0)])
    vals, log_mass = newtonian_potential(f, pts)
    assert np.all(np.isfinite(vals))
    shifted = vals - log_mass * np.log(np.hypot(pts[:, 0], pts[:, 1]))
    assert np.abs(shifted - shifted[-1]).max() <= 1e-13 * np.abs(vals).max()


# -- the matrix-free solve against a direct sparse solve -------------------------


def stencil_of(coeffs):
    g = coeffs.grid
    return elliptic._nine_point(g, *(a[1:-1] for a in elliptic._stencil_coefficients(coeffs)))


def assembled_matrix(grid, stencil):
    """The interior rows of the stencil operator as a CSR matrix over every node.

    Columns run over all grid nodes, boundary rings included; the columns of
    the interior nodes, ``[:, n_theta:-n_theta]``, are the system matrix.
    """
    ni, n_t = stencil[0][2].shape
    index = np.arange(grid.n_r * n_t).reshape(grid.n_r, n_t)
    rows = np.tile(np.arange(ni * n_t), len(stencil))
    # row (i, j) reads node (i + 1 + di, j + dj) of the full grid
    cols = np.concatenate([np.roll(index[1 + di:1 + di + ni], -dj, axis=1).ravel()
                           for di, dj, _ in stencil])
    data = np.concatenate([wgt.ravel() for _, _, wgt in stencil])
    return sparse.csr_matrix((data, (rows, cols)), shape=(ni * n_t, index.size))


def assembled_system(coeffs, f, g_inner, g_outer):
    """System matrix and right-hand side with the boundary rings folded in."""
    g = coeffs.grid
    full = assembled_matrix(g, stencil_of(coeffs))
    boundary = np.zeros(g.shape)
    boundary[0], boundary[-1] = g_inner, g_outer
    b = f.values[1:-1].ravel() - full @ boundary.ravel()
    return full[:, g.n_theta:-g.n_theta].tocsc(), b


def superlu_reference(coeffs, f, g_inner, g_outer):
    """Direct SuperLU solve of the assembled system, no refinement."""
    mat, b = assembled_system(coeffs, f, g_inner, g_outer)
    u = np.zeros(coeffs.grid.shape)
    u[0], u[-1] = g_inner, g_outer
    u[1:-1] = splu(mat).solve(b).reshape(u[1:-1].shape)
    return ScalarField(coeffs.grid, u)


def backward_error(coeffs, f, g_inner, g_outer, u):
    """|b - A x| / (|A| |x| + |b|) in max norms, from the assembled system."""
    mat, b = assembled_system(coeffs, f, g_inner, g_outer)
    x = u.values[1:-1].ravel()
    norm_a = float(abs(mat).sum(axis=1).max())
    resid = float(np.max(np.abs(b - mat @ x)))
    return resid / (norm_a * float(np.max(np.abs(x))) + float(np.max(np.abs(b))))


def solve_and_gmres_cycles(coeffs, f, g_inner, g_outer):
    """Solution plus the number of GMRES restart cycles it took.

    Each restart cycle is a ``gmres`` call of its own, with ``maxiter=1``.
    """
    with mock.patch.object(elliptic, "gmres", wraps=elliptic.gmres) as krylov:
        u = solve_linear_dirichlet(coeffs, f, g_inner, g_outer)
    assert all(call.kwargs["maxiter"] == 1 for call in krylov.call_args_list)
    return u, krylov.call_count


def polar_frame_coefficients(grid, a_rr, a_tt, a_rt):
    """Cartesian (a11, a12, a22) of a_rr e_r e_r + a_tt e_t e_t + a_rt (e_r e_t + e_t e_r)."""
    c = np.cos(grid.theta)[None, :]
    s = np.sin(grid.theta)[None, :]
    a_rr, a_tt, a_rt = (np.asarray(a, dtype=float)[:, None] for a in (a_rr, a_tt, a_rt))
    a11 = a_rr * c * c + a_tt * s * s - 2.0 * a_rt * c * s
    a22 = a_rr * s * s + a_tt * c * c + 2.0 * a_rt * c * s
    a12 = (a_rr - a_tt) * c * s + a_rt * (c * c - s * s)
    return a11, a12, a22


def random_coefficients(grid, rng, ring_constant):
    """Coefficients constant along rings (no GMRES) or varying along them (GMRES)."""
    if ring_constant:
        a_rr, a_tt = rng.uniform(0.5, 2.0, (2, grid.n_r))
        return LinearCoefficients(grid, *polar_frame_coefficients(grid, a_rr, a_tt, 0.1 * a_rr))
    # constant Cartesian anisotropy varies along every ring in the polar frame
    a11, a22 = rng.uniform(0.5, 2.0, 2)
    return LinearCoefficients(grid, a11, 0.2 * min(a11, a22), a22)


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 65),
    # grids need an even n_theta of at least 16
    n_q=st.integers(8, 32).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_path_matches_superlu_for_ring_constant_coefficients(spacing, n_r, n_q, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    a_rr = rng.uniform(0.5, 2.0, n_r)
    a_tt = rng.uniform(0.5, 2.0, n_r)
    a_rt = rng.uniform(-0.2, 0.2, n_r) * np.sqrt(a_rr * a_tt)
    co = LinearCoefficients(g, *polar_frame_coefficients(g, a_rr, a_tt, a_rt))
    f = ScalarField(g, rng.normal(size=g.shape))
    g_in, g_out = rng.normal(size=(2, n_q))
    u, krylov_cycles = solve_and_gmres_cycles(co, f, g_in, g_out)
    ref = superlu_reference(co, f, g_in, g_out)
    assert krylov_cycles == 0
    assert np.abs(u.values - ref.values).max() <= 1e-10 * np.abs(ref.values).max()


def test_anisotropic_coefficients_match_the_superlu_reference():
    # a22 = 3 a11 varies along every ring in the polar frame, so the
    # ring-mean solve is only a preconditioner and GMRES has to run
    g = build_grid(1.0, 4.0, 49, 32)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    f = ScalarField.from_function(g, lambda a, b: a * b)
    g_in, g_out = np.cos(g.theta), np.sin(2 * g.theta)
    u, krylov_cycles = solve_and_gmres_cycles(co, f, g_in, g_out)
    ref = superlu_reference(co, f, g_in, g_out)
    assert krylov_cycles >= 1
    assert backward_error(co, f, g_in, g_out, u) <= 1e-10
    assert np.abs(u.values - ref.values).max() <= 1e-10 * np.abs(ref.values).max()


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 49),
    n_q=st.integers(8, 24).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
def test_ring_varying_solves_meet_the_gate_and_match_superlu(spacing, n_r, n_q, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    # coefficients that vary along and across rings, with a cross term
    a11, a22 = rng.uniform(0.5, 2.0, (2, *g.shape))
    co = LinearCoefficients(g, a11, rng.uniform(-0.4, 0.4, g.shape) * np.sqrt(a11 * a22), a22)
    f = ScalarField(g, rng.normal(size=g.shape))
    g_in, g_out = rng.normal(size=(2, n_q))
    u = solve_linear_dirichlet(co, f, g_in, g_out)
    assert backward_error(co, f, g_in, g_out, u) <= 1e-10
    # a backward error of 1e-10 moves the solution of these well-conditioned
    # systems by about 1e-9 relative at most
    ref = superlu_reference(co, f, g_in, g_out)
    assert np.abs(u.values - ref.values).max() <= 1e-8 * np.abs(ref.values).max()


def test_mode_solver_failure_is_a_singular_system():
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField(g, np.ones(g.shape))
    failing = mock.Mock(side_effect=np.linalg.LinAlgError("singular matrix"))
    with mock.patch.object(elliptic, "solve_banded", failing):
        with pytest.raises(ValueError, match="singular-system: ring-mean mode solver failed"):
            solve_linear_dirichlet(LinearCoefficients.trace_operator(g), f, 0.0, 1.0)


def test_clamped_hyperbolic_linearization_stops_on_the_max_norm_gate():
    # the first Newton correction of the hyperbolic operator m11 - m22 from
    # the default start |x|^2/2 with zero data: clamping floors the
    # eigenvalue -1 at 1e-3, so a = diag(1, 1e-3) and the ring-mean
    # preconditioner is far from exact.  The residual max-norm meets gate/4
    # after 10 restart cycles; its 2-norm, which bounds it, only after 12
    g = build_grid(1.0, 4.0, 257, 128)
    co = LinearCoefficients(g, 1.0, 0.0, 1e-3)
    w = ((g.t - g.t[0]) / (g.t[-1] - g.t[0]))[:, None]
    r2 = g.radii[:, None] ** 2
    start = ScalarField(g, 0.5 * (r2 - (1.0 - w) * r2[0] - w * r2[-1]) * np.ones(g.n_theta))
    h = hessian(start)
    rhs = np.zeros(g.shape)
    rhs[1:-1] = (h.m22 - h.m11)[1:-1]
    f = ScalarField(g, rhs)
    cycles = []

    def counting_gmres(*args, **kwargs):
        # a callback of type "x" runs once after every restart cycle
        return gmres(*args, callback=lambda x: cycles.append(None), callback_type="x",
                     **kwargs)

    with mock.patch.object(elliptic, "gmres", counting_gmres):
        u = solve_linear_dirichlet(co, f, 0.0, 0.0)
    assert 1 <= len(cycles) <= 10
    assert backward_error(co, f, 0.0, 0.0, u) <= 1e-10


def test_gmres_that_misses_the_gate_is_a_singular_system():
    g = build_grid(1.0, 4.0, 17, 16)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    f = ScalarField(g, np.ones(g.shape))

    def no_progress(op, b, x0, **kwargs):
        return x0, 1

    with mock.patch.object(elliptic, "gmres", no_progress):
        with pytest.raises(ValueError, match=r"singular-system: discrete residual \d\.\d+e[-+]\d+ "
                                             r"exceeds the backward-error bound \d\.\d+e[-+]\d+"):
            solve_linear_dirichlet(co, f, 0.0, 1.0)


# -- the operator applied from its stencil arrays --------------------------------


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(8, 41),
    n_q=st.integers(8, 24).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
def test_stencil_product_and_norm_match_the_assembled_matrix(spacing, n_r, n_q, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    # coefficients that vary along and across rings, with a cross term
    a11, a22 = rng.uniform(0.5, 2.0, (2, *g.shape))
    co = LinearCoefficients(g, a11, rng.uniform(-0.4, 0.4, g.shape) * np.sqrt(a11 * a22), a22)
    stencil = stencil_of(co)
    mat = assembled_matrix(g, stencil)[:, n_q:-n_q]
    x = rng.normal(size=mat.shape[0]) * 10.0 ** rng.uniform(-3.0, 3.0)
    product = elliptic._stencil_product(stencil, x)
    # two sums of at most nine products, each within 9 eps of |A| |x|
    bound = 18.0 * np.finfo(float).eps * (abs(mat) @ np.abs(x))
    assert np.all(np.abs(product - mat @ x) <= bound)
    norm = float(abs(mat).sum(axis=1).max())
    assert abs(elliptic._stencil_norm(stencil) - norm) <= 1e-15 * norm


def test_fine_grid_poisson_solve_assembles_no_matrix():
    # the mode solver is exact here, so the solve ends at its first result
    def no_krylov(*args, **kwargs):
        raise AssertionError("GMRES on ring-constant coefficients")

    g = build_grid(1, 64, 1025, 128)
    f = ScalarField(g, np.ones(g.shape))
    with mock.patch.object(elliptic, "gmres", no_krylov):
        u = solve_linear_dirichlet(LinearCoefficients.trace_operator(g), f, 0.0, 1.0)
    assert np.all(np.isfinite(u.values))


# -- the normwise backward-error gate ------------------------------------------


def test_large_boundary_data_is_accepted():
    # the residual of a correct solve grows with the data folded into the
    # right-hand side: about 3e-10 here, a backward error near 1e-17
    g = build_grid(1, 64, 129, 64)
    f = ScalarField(g, np.zeros(g.shape))
    u = solve_linear_dirichlet(LinearCoefficients.trace_operator(g), f, 0.0, 1e4)
    # linear in log r, which the log-grid stencil differences exactly
    exact = 1e4 * (g.t - g.t[0]) / (g.t[-1] - g.t[0])
    assert np.max(np.abs(u.values - exact[:, None])) <= 1e-12 * 1e4


def test_fine_grid_poisson_solve_is_accepted_without_factorization():
    g = build_grid(1, 64, 1025, 128)
    f = ScalarField(g, np.ones(g.shape))
    u, krylov_cycles = solve_and_gmres_cycles(LinearCoefficients.trace_operator(g), f, 0.0, 1.0)
    assert krylov_cycles == 0
    # Delta u = 1 with u(1) = 0, u(64) = 1: r^2/4 + A log r + B
    r = g.radii
    slope = (1.0 - (64.0 ** 2 - 1.0) / 4.0) / math.log(64.0)
    exact = (r * r - 1.0) / 4.0 + slope * np.log(r)
    assert np.max(np.abs(u.values - exact[:, None])) <= 1e-5 * np.max(np.abs(exact))


@settings(max_examples=30, deadline=None)
@given(
    exponent=st.floats(-6.0, 6.0),
    ring_constant=st.booleans(),
    with_source=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_solution_scales_with_the_data(exponent, ring_constant, with_source, seed):
    s = 10.0 ** exponent
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, 33, 32)
    co = random_coefficients(g, rng, ring_constant)
    f = rng.normal(size=g.shape) if with_source else np.zeros(g.shape)
    g_in, g_out = rng.normal(size=(2, g.n_theta))
    u = solve_linear_dirichlet(co, ScalarField(g, f), g_in, g_out)
    scaled = solve_linear_dirichlet(co, ScalarField(g, s * f), s * g_in, s * g_out)
    assert np.max(np.abs(scaled.values - s * u.values)) <= 1e-10 * s * np.max(np.abs(u.values))


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    ring_constant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_solution_linear_in_data(spacing, ring_constant, seed):
    # superposition: the boundary fold and the mode solver are linear in
    # (f, g), and GMRES solves to the gate
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, 33, 24, spacing)
    co = random_coefficients(g, rng, ring_constant)
    alpha, beta = rng.uniform(-2.0, 2.0, 2)
    f1, f2 = rng.normal(size=(2, *g.shape))
    g1i, g1o, g2i, g2o = 1.0 + rng.normal(size=(4, g.n_theta))
    u1, krylov_cycles = solve_and_gmres_cycles(co, ScalarField(g, f1), g1i, g1o)
    u2 = solve_linear_dirichlet(co, ScalarField(g, f2), g2i, g2o)
    both = solve_linear_dirichlet(co, ScalarField(g, alpha * f1 + beta * f2),
                                  alpha * g1i + beta * g2i, alpha * g1o + beta * g2o)
    assert (krylov_cycles == 0) if ring_constant else (krylov_cycles >= 1)
    expected = alpha * u1.values + beta * u2.values
    scale = abs(alpha) * np.abs(u1.values).max() + abs(beta) * np.abs(u2.values).max()
    assert np.max(np.abs(both.values - expected)) <= 1e-10 * scale
