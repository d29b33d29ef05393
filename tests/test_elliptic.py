import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import solve_banded
from scipy.sparse.linalg import LinearOperator, gmres, onenormest, splu

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
    LinearCoefficients,
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
    # the nine-point operator reads the interior rings only
    assert co.a11.shape == (g.n_r - 2, g.n_theta)
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
    # log_mass is the mode-0 mass of u's own rule, within O(h^2) of the exact one
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


# -- the mode-wise potential: inputs and helpers -----------------------------


def angular_modes(power):
    """The density |y|^-power times angular modes 1 to 4."""
    def density(x1, x2):
        th = np.arctan2(x2, x1)
        return (x1 * x1 + x2 * x2) ** (-0.5 * power) * (
            1.0 + 0.4 * np.cos(th) + 0.3 * np.sin(2.0 * th)
            + 0.2 * np.cos(3.0 * th) + 0.1 * np.sin(4.0 * th))
    return density


angular_density = angular_modes(3.0)


def random_density(g, rng):
    return ScalarField(g, rng.uniform(-0.5, 1.5, g.shape) / g.radii[:, None] ** 2)


def polar(pts):
    pts = np.asarray(pts, dtype=float)
    return np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])


def node_indices(g, pts):
    return elliptic._node_indices(g, *polar(pts))[0]


def table_rows(tab):
    """``left``, ``right`` and F_k of ``tab.table`` before its conversion, (rings, modes) each."""
    return tab.table.transpose(1, 2, 0)


def cell_tables(g, values):
    """``_mode_tables`` with the table converted, as the off-node path reads it."""
    tab = elliptic._mode_tables(g, values)
    elliptic._cell_table(tab)
    return tab


def off_node_path(f, pts):
    """``newtonian_potential``'s values with every target on the off-node path."""
    return elliptic._target_values(cell_tables(f.grid, f.values), *polar(pts))


def polar_points(radii, angles):
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def envelope(h):
    return h * h * (1.0 + abs(math.log(h)))


grid_strategies = dict(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 33),
    # grids need an even n_theta of at least 16
    n_q=st.integers(8, 16).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)


# -- the two target paths agree ---------------------------------------------


def assert_paths_agree(f, pts, nodes):
    """Targets ``pts`` select the ``nodes`` and take their values."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, _ = newtonian_potential(f, pts)
        ref = off_node_path(f, nodes)
    assert np.all(node_indices(f.grid, pts) >= 0)
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=30, deadline=None)
@given(**grid_strategies)
def test_node_path_matches_reference(spacing, n_r, n_q, seed):
    # a node is read from its ring's irfft; the off-node path reaches the
    # same tables through its cell and sums the modes itself
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    rings = np.concatenate([[0, n_r - 1], rng.integers(0, n_r, 6)])
    cols = rng.integers(0, n_q, rings.size)
    # offsets below the 1e-12 selection tolerance still select the node
    jitter = rng.uniform(-5e-13, 5e-13, (rings.size, 2))
    pts = np.array([node_point(g, i, j, *d) for i, j, d in zip(rings, cols, jitter)])
    nodes = np.array([node_point(g, i, j) for i, j in zip(rings, cols)])
    assert_paths_agree(random_density(g, rng), pts, nodes)


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
    cols = (7 * rings) % g.n_theta
    pts = np.array([node_point(g, i, j) for i, j in zip(rings, cols)])
    assert_paths_agree(ScalarField.from_function(g, angular_density), pts, pts)


@pytest.mark.parametrize("offset", [(1e-6, 0.0), (0.0, 1e-6), (-1e-6, -1e-6)])
def test_target_off_a_node_takes_the_loop(offset):
    # a target just off a node takes the off-node path, its node the irfft
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, angular_density)
    pts = np.array([node_point(g, 8, 3, *offset), node_point(g, 8, 3)])
    with mock.patch.object(elliptic, "_target_values", wraps=elliptic._target_values) as off, \
            mock.patch.object(elliptic, "_node_values", wraps=elliptic._node_values) as on:
        vals, _ = newtonian_potential(f, pts)
    assert off.call_args.args[1].size == 1
    assert on.call_args.args[1].tolist() == [8]
    assert vals[:1].tobytes() == off_node_path(f, pts[:1]).tobytes()


# -- the off-node path, target by target ------------------------------------


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
    """The radial index coordinate of a target at radius r."""
    return ((math.log(r) if g.spacing == LOG_RADIAL else r) - g.t[0]) / g.dt


def radius_at(g, tf):
    """Radius whose radial index coordinate is about tf."""
    t = g.t[0] + tf * g.dt
    return math.exp(t) if g.spacing == LOG_RADIAL else t


def edge_case_targets(g, rng):
    """Off-node targets of every kind: in cells, on rings and edges, outside the grid."""
    n_r, n_q = g.shape
    two_pi = 2.0 * math.pi
    pts = []
    # inside the grid, and just off a node
    for tf, jf in zip(rng.uniform(0.0, n_r - 1, 8), rng.uniform(0.0, n_q, 8)):
        r, th = radius_at(g, tf), jf * g.dtheta
        pts.append((r * math.cos(th), r * math.sin(th)))
    pts += [node_point(g, int(i), int(j), *rng.choice([-1e-6, 1e-6], 2))
            for i, j in zip(rng.integers(0, n_r, 3), rng.integers(0, n_q, 3))]
    # half way between rings: the radial index coordinate is exactly k + 1/2
    for k in rng.integers(0, n_r - 1, 3):
        r = nudged(radius_at(g, k + 0.5), lambda r: index_t(g, r) == k + 0.5)
        pts += [(r, 0.0), (0.0, r), (-r, 0.0)]
        th = rng.uniform(0.0, two_pi)
        x2 = r * math.sin(th)
        x1 = nudged(r * math.cos(th), lambda x1: index_t(g, math.hypot(x1, x2)) == k + 0.5)
        pts.append((x1, x2))
    # on a ring between two columns: the angular index coordinate is exactly j + 1/2
    for i, j in zip(rng.integers(0, n_r, 3), rng.integers(0, n_q, 3)):
        r, th = g.radii[i], (j + 0.5) * g.dtheta
        x1 = r * math.cos(th)
        x2 = nudged(r * math.sin(th),
                    lambda x2: (math.atan2(x2, x1) % two_pi) / g.dtheta == j + 0.5)
        pts.append((x1, x2))
    # theta just below 2 pi, including a wrap to exactly 2 pi
    r = g.radii[n_r // 2]
    pts += [(r, -1e-12), (r, -1e-300), (r * math.cos(-1e-9), r * math.sin(-1e-9))]
    # below r_inner and beyond r_outer, some within 1e-10 of a boundary ring
    for tf in (-2.4, -1.2, -0.3, -1e-10, -1e-8, n_r - 1 + 1e-10, n_r - 1 + 1e-8,
               n_r - 0.7, n_r + 1.4):
        r, th = radius_at(g, tf), rng.uniform(0.0, two_pi)
        pts.append((r * math.cos(th), r * math.sin(th)))
    # far from the grid, and the origin
    pts += list(polar_points(g.r_outer * rng.uniform(1.5, 100.0, 4),
                             rng.uniform(0.0, two_pi, 4)))
    pts.append((0.0, 0.0))
    # duplicates, in shuffled order
    pts += pts[:5]
    return np.array(pts)[rng.permutation(len(pts))]


@settings(max_examples=30, deadline=None)
@given(**grid_strategies)
def test_batched_target_sums_match_the_loop(spacing, n_r, n_q, seed):
    # each target of a batch gets the value it gets alone
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    tab = cell_tables(g, random_density(g, rng).values)
    pts = edge_case_targets(g, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = elliptic._target_values(tab, *polar(pts))
        alone = np.array([elliptic._target_values(tab, *polar(p[None]))[0] for p in pts])
    assert np.abs(batch - alone).max() <= 1e-15 * np.abs(alone).max()


def test_batch_targets_take_the_values_they_take_alone():
    # Horner's steps act on each target alone, so a batch and its targets
    # one at a time agree bit for bit, in cells and off the grid
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, angular_density)
    rng = np.random.default_rng(7)
    pts = polar_points(np.exp(rng.uniform(-0.1, math.log(4.0) + 0.1, 201)),
                       rng.uniform(0.0, 2.0 * math.pi, 201))
    batch, _ = newtonian_potential(f, pts)
    alone = np.array([newtonian_potential(f, p)[0][0] for p in pts])
    assert batch.tobytes() == alone.tobytes()


def test_cell_edge_targets_keep_their_cell():
    # a target on a ring, off its nodes, is on the edge of two cells: a
    # hair below or above the ring it takes the other cell, at the same value
    rings = np.array([0, 1, 8, 15, 16])
    for spacing in (LOG_RADIAL, UNIFORM_RADIAL):
        g = build_grid(1.0, 4.0, 17, 16, spacing)
        f = ScalarField.from_function(g, angular_density)
        angles = (rings + 0.37) * g.dtheta
        ref = off_node_path(f, polar_points(g.radii[rings], angles))
        for scale in (1.0 - 1e-14, 1.0 + 1e-14):
            vals = off_node_path(f, polar_points(g.radii[rings] * scale, angles))
            assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


# -- off the grid: the boundary rings' series against the clipped cell -------


def polyval_hat_weights(x):
    """``elliptic._hat_weights`` by masked divisions and ``np.polyval``."""
    decay = np.exp(-x)
    small = x < elliptic._SERIES_X
    mean = np.divide(-np.expm1(-x), x, out=np.zeros_like(x), where=~small)
    far = np.divide(mean - decay, x, out=np.zeros_like(x), where=~small)
    near = mean - far
    near[small], far[small] = (np.polyval(c, x[small])
                               for c in (elliptic._NEAR_SERIES, elliptic._FAR_SERIES))
    return decay, near, far


def clipped_cell_values(tab, r, theta):
    """Every off-node target by its cell's rule, clipped to the nearest cell off the grid.

    The rule the boundary series replaced: a target a distance d off the
    grid takes the boundary cell at a = h, b = 0 (a = 0, b = h), every mode
    decayed by e^{-k d}, and d mass added to mode 0.
    """
    with np.errstate(divide="ignore"):
        t = np.log(r)
    i = np.clip(np.searchsorted(tab.s, t, side="right") - 1, 0, tab.s.size - 2)
    edge = np.clip(t, tab.s[i], tab.s[i + 1])
    a, b = edge - tab.s[i], tab.s[i + 1] - edge
    wa, wb = a / tab.rule.h[i], b / tab.rule.h[i]
    f0_edge = wb * tab.f0[i] + wa * tab.f0[i + 1]
    vals = (tab.moment[i] + a * tab.mass[i] + a * a * (f0_edge / 6.0 + tab.f0[i] / 3.0)
            + np.maximum(t - edge, 0.0) * (tab.mass[i] + 0.5 * a * (tab.f0[i] + f0_edge)))
    k = tab.rule.k
    coef = -1.0 / k
    coef[-1] *= 0.5
    a_k, b_k = a[:, None], b[:, None]
    decay_a, near_a, far_a = polyval_hat_weights(a_k * k)
    decay_b, near_b, far_b = polyval_hat_weights(b_k * k)
    at_edge = a_k * near_a + b_k * near_b
    left, right, fk = table_rows(tab)
    g = (decay_a * left[i] + decay_b * right[i + 1]
         + (wb[:, None] * at_edge + a_k * far_a) * fk[i]
         + (wa[:, None] * at_edge + b_k * far_b) * fk[i + 1])
    powers = np.empty(g.shape, dtype=g.dtype)
    powers[:] = np.exp(1j * theta - np.abs(t - edge))[:, None]
    return vals + np.einsum("mk,mk,k->m", g, np.cumprod(powers, axis=1, out=powers), coef).real


def longdouble_tables(tab):
    """``_mode_tables``' arrays and its rule's cast to long double, array by array."""
    def cast(arrays):
        return {name: np.asarray(v).astype(np.clongdouble if np.iscomplexobj(v) else np.longdouble)
                for name, v in vars(arrays).items() if name != "rule"}

    return SimpleNamespace(**cast(tab), rule=SimpleNamespace(**cast(tab.rule)))


def clipped_cell_potential(f, pts, dtype=float):
    """``newtonian_potential``'s values with the clipped-cell rule off the nodes.

    With ``dtype=np.longdouble`` the rule runs in long double on the same
    tables; nodes keep the double irfft.
    """
    tab = elliptic._mode_tables(f.grid, f.values)
    r, theta = polar(pts)
    ring, col = elliptic._node_indices(f.grid, r, theta)
    on = ring >= 0
    vals = np.empty(r.size, dtype=dtype)
    vals[on] = elliptic._node_values(tab, ring[on], col[on])
    if dtype is not float:
        tab, r, theta = longdouble_tables(tab), r.astype(dtype), theta.astype(dtype)
    vals[~on] = clipped_cell_values(tab, r[~on], theta[~on])
    return vals


@settings(max_examples=30, deadline=None)
@given(spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]), n_r=st.integers(9, 33),
       n_q=st.integers(8, 32).map(lambda k: 2 * k), seed=st.integers(0, 2**32 - 1))
def test_boundary_series_matches_the_clipped_cell(spacing, n_r, n_q, seed):
    # off the grid the series and the clipped cell differ by rounding; in a
    # cell the partial-cell form meets the clipped cell's rule in long double,
    # and nodes take the same operations as before, bit for bit
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    f = random_density(g, rng)
    pts = np.vstack([edge_case_targets(g, rng), nodes_and_targets(g, rng, 12)])
    vals = potential_without_warnings(f, pts)[0]
    ref = clipped_cell_potential(f, pts)
    exact = clipped_cell_potential(f, pts, np.longdouble)
    r, theta = polar(pts)
    with np.errstate(divide="ignore"):
        t = np.log(r)
    off = (t < g.log_radii[0]) | (t > g.log_radii[-1])
    node = elliptic._node_indices(g, r, theta)[0] >= 0
    assert 0 < np.count_nonzero(off) < t.size
    assert vals[node].tobytes() == ref[node].tobytes()
    cell = ~(off | node)
    assert np.abs(vals[cell] - exact[cell]).max() <= 1e-14 * np.abs(exact).max()
    assert np.abs(vals[off] - ref[off]).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("grid_args, smooth_rel, noisy_rel", [
    ((1.0, 16.0, 4097, 64, LOG_RADIAL), 1e-15, 3e-12),
    ((1.0, 2.0, 2049, 16, UNIFORM_RADIAL), 1e-15, 2e-12),
    ((1.0, 2.0**20, 321, 32, UNIFORM_RADIAL), 1e-15, 6e-12),
])
def test_partial_cell_form_on_fine_grids(grid_args, smooth_rel, noisy_rel):
    # against the clipped cell's rule in long double, in max |u|, on 3,000
    # targets spread evenly over the cells.  The loss grows as |F_k| /
    # (k |G_k|): the Horner sum cancels A e^{-k a} against B e^{-k b}, so
    # N(0, 0.1) noise on small cells reads far above rounding.  Measured with
    # the partial-cell form and with the two-point solve from H it replaced
    # (smooth; noisy): 4097x64 1.9e-16 / 1.9e-16; 1.76e-12 / 1.51e-12,
    # 2049x16 uniform [1, 2] 4.8e-16 / 6.5e-16; 0.96e-12 / 0.99e-12, 321x32
    # uniform [1, 2^20] 2.8e-16 / 2.8e-16; 3.90e-12 / 3.90e-12.  Each bound
    # is at least 1.5 times the worse of the two; the direct A = (H_i -
    # e H_i+1) / (1 - e^2) read 2.4e-14 on the first smooth case
    g = build_grid(*grid_args)
    rng = np.random.default_rng(4)
    smooth = angular_density(*g.nodes())
    pts = polar_points(g.r_of_t(rng.uniform(g.t[0], g.t[-1], 3000)),
                       rng.uniform(0.0, 2.0 * math.pi, 3000))
    assert np.all(node_indices(g, pts) == -1)
    for values, rel in ((smooth, smooth_rel),
                        (smooth + rng.normal(0.0, 0.1, g.shape), noisy_rel)):
        f = ScalarField(g, values)
        vals = potential_without_warnings(f, pts)[0]
        exact = clipped_cell_potential(f, pts, np.longdouble)
        assert np.abs(vals - exact).max() <= rel * np.abs(exact).max()


@settings(max_examples=30, deadline=None)
@given(**grid_strategies)
def test_partial_cell_form_meets_left_plus_right_at_the_rings(spacing, n_r, n_q, seed):
    # at a = 0 (b = 0) the cell's A e^{-k a} + B e^{-k b} + P returns its
    # first (second) ring's left + right, within 64 eps of the cell's terms
    # (400 draws measured 20); cell i keeps A at ring i and B at ring i + 1
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    tab = elliptic._mode_tables(g, random_density(g, np.random.default_rng(seed)).values)
    k, coef = tab.rule.k, tab.rule.coef
    assert np.array_equal(coef, np.where(k < k.size, -1.0, -0.5) / k)
    # the conversion overwrites left and right in place, so they are read first
    left, right, _ = table_rows(tab)
    ring = coef[:, None] * (left + right).T
    terms = np.abs(coef)[:, None] * (np.abs(left) + np.abs(right)).T
    elliptic._cell_table(tab)
    big_a, big_b, p = tab.table[:, 0, :-1], tab.table[:, 1, 1:], tab.table[:, 2]
    decay = np.exp(-k[:, None] * tab.rule.h)
    terms += np.abs(p)
    scale = 64 * np.finfo(float).eps * (terms[:, :-1] + terms[:, 1:])
    assert np.all(np.abs(big_a + big_b * decay + p[:, :-1] - ring[:, :-1]) <= scale)
    assert np.all(np.abs(big_a * decay + big_b + p[:, 1:] - ring[:, 1:]) <= scale)


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
def test_potential_is_continuous_across_the_boundary_rings(spacing):
    # just outside a boundary ring the series serves, just inside the cell
    g = build_grid(1.0, 4.0, 17, 16, spacing)
    f = ScalarField.from_function(g, angular_density)
    angles = (np.arange(6) + 0.37) * g.dtheta * 2.5
    for radius in (g.r_inner, g.r_outer):
        below, above = (polar_points(np.full(6, radius * scale), angles)
                        for scale in (1.0 - 1e-13, 1.0 + 1e-13))
        assert np.all(node_indices(g, np.vstack([below, above])) == -1)
        u_below, _ = newtonian_potential(f, below)
        u_above, _ = newtonian_potential(f, above)
        assert np.abs(u_above - u_below).max() <= 1e-12 * np.abs(u_below).max()


def test_off_grid_targets_take_no_partial_cell_weights():
    # the grid's kept rule takes the only hat-weight call, for targets in
    # cells too: one call on a grid for both batches, one more on a new grid
    rng = np.random.default_rng(3)
    angles = rng.uniform(0.0, 2.0 * math.pi, 300)
    with mock.patch.object(elliptic, "_hat_weights", wraps=elliptic._hat_weights) as hat:
        for expected in (1, 2):
            g = build_grid(1.0, 4.0, 17, 16)
            f = ScalarField.from_function(g, angular_density)
            outside = polar_points(np.concatenate([g.r_outer * rng.uniform(1.01, 50.0, 150),
                                                   g.r_inner * rng.uniform(0.0, 0.99, 150)]),
                                   angles)
            inside = polar_points(rng.uniform(g.r_inner, g.r_outer, 300), angles)
            for pts in (outside, inside):
                newtonian_potential(f, pts)
            assert hat.call_count == expected


@settings(max_examples=20, deadline=None)
@given(**grid_strategies)
def test_kept_rule_returns_the_first_call_bytes(spacing, n_r, n_q, seed):
    # the rule a grid keeps after its first call gives a second call on it,
    # and a first call on a fresh equal grid, the same bytes
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    values = random_density(g, rng).values
    pts = property_targets(g, rng)
    assert "_potential_rule" not in vars(g)
    first = newtonian_potential(ScalarField(g, values), pts)
    rule = vars(g)["_potential_rule"]
    second = newtonian_potential(ScalarField(g, values), pts)
    assert vars(g)["_potential_rule"] is rule
    g_fresh = build_grid(1.0, 4.0, n_r, n_q, spacing)
    fresh = newtonian_potential(ScalarField(g_fresh, values), pts)
    for other in (second, fresh):
        assert other[0].tobytes() == first[0].tobytes()
        assert other[1] == first[1]


@settings(max_examples=10, deadline=None)
@given(**grid_strategies)
def test_kept_rule_is_read_only(spacing, n_r, n_q, seed):
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    newtonian_potential(random_density(g, np.random.default_rng(seed)), [(2.0, 0.5)])
    rule = vars(g)["_potential_rule"]
    assert set(vars(rule)) == {"h", "k", "coef", "r2n", "bounds", "weights", "unscale",
                               "carry"}
    assert rule.bounds.dtype.kind == "i"
    for values in vars(rule).values():
        with pytest.raises(ValueError, match="read-only"):
            values.flat[0] = 1.0


# -- the tables and the partial-cell weights ---------------------------------


def two_loop_tables(g, fvals, magnitude=False):
    """``left`` and ``right`` by one loop up the rings and another down.

    With ``magnitude`` the loops run on |F_k|, so on the terms' magnitudes.
    """
    h = np.diff(g.log_radii)
    spec = np.fft.rfft(fvals, axis=1) * (g.radii[:, None] ** 2 / g.n_theta)
    fk = np.abs(spec[:, 1:]) if magnitude else spec[:, 1:]
    decay, near, far = polyval_hat_weights(h[:, None] * np.arange(1, g.n_theta // 2 + 1))
    near, far = near * h[:, None], far * h[:, None]
    up = near * fk[1:] + far * fk[:-1]
    down = near * fk[:-1] + far * fk[1:]
    left, right = np.zeros_like(fk), np.zeros_like(fk)
    for c in range(g.n_r - 1):
        left[c + 1] = decay[c] * left[c] + up[c]
        right[-2 - c] = decay[-1 - c] * right[-1 - c] + down[-1 - c]
    return left, right


def assert_scans_meet_the_loop(g, fvals):
    """``_mode_tables``' block scans against ``two_loop_tables``, entry by entry.

    A scan's scaled weight and un-scaling take arguments k |s - s_ref| of at
    most _SCAN_SPAN, each rounded to within eps of itself, so together they
    stand for the loop's decays to within about 2 _SCAN_SPAN eps; a cumsum
    adds one rounding per entry of its block at most.  So the bound is
    c eps times the loop on |terms|, c = 2 _SCAN_SPAN + the longest block.
    The loop's own rounding fits the same margin: the grids of the tests
    below read at most 13.
    """
    tab = elliptic._mode_tables(g, fvals)
    c = 2 * elliptic._SCAN_SPAN + np.diff(tab.rule.bounds).max()
    bound = c * np.finfo(float).eps
    for scan, loop, size in zip(table_rows(tab)[:2], two_loop_tables(g, fvals),
                                two_loop_tables(g, fvals, magnitude=True)):
        assert np.all(np.abs(scan - loop) <= bound * size)
    return tab


@pytest.mark.parametrize("grid_args", [
    (1.0, 4.0, 17, 16, LOG_RADIAL),
    (1.0, 16.0, 257, 128, LOG_RADIAL),
    (1.0, 4.0, 9, 18, UNIFORM_RADIAL),
    (0.5, 3.0, 64, 40, UNIFORM_RADIAL),
])
def test_rule_is_consistent_with_itself(grid_args):
    # independent of the recurrences and the closed forms: every table is a
    # Gauss-Legendre sum, cell by cell, of the same piecewise-linear F_k
    # against its kernel
    g = build_grid(*grid_args)
    f = random_density(g, np.random.default_rng(5))
    tab = assert_scans_meet_the_loop(g, f.values)
    s, h = g.log_radii, np.diff(g.log_radii)[:, None]
    nodes, weights = np.polynomial.legendre.leggauss(16)
    tau = 0.5 * (nodes + 1.0)
    sq = s[:-1, None] + h * tau  # (cell, point)
    wq = 0.5 * h * weights
    spec = np.fft.rfft(f.values, axis=1) * (g.radii[:, None] ** 2 / g.n_theta)
    fq = spec[:-1, None, :] * (1.0 - tau)[:, None] + spec[1:, None, :] * tau[:, None]
    k = np.arange(1, spec.shape[1])
    tab_left, tab_right, _ = table_rows(tab)
    scale = np.abs(tab_left).max() + np.abs(tab_right).max()
    for i in sorted({0, 1, g.n_r // 3, g.n_r // 2, g.n_r - 2, g.n_r - 1}):
        below = slice(0, i)
        kern = np.exp(-np.abs(s[i] - sq)[:, :, None] * k)
        left = np.einsum("cq,cqk->k", wq[below], kern[below] * fq[below, :, 1:])
        right = np.einsum("cq,cqk->k", wq[i:], kern[i:] * fq[i:, :, 1:])
        mass = np.sum(wq[below] * fq[below, :, 0].real)
        moment = np.sum(wq[below] * (s[i] - sq[below]) * fq[below, :, 0].real)
        assert np.abs(tab_left[i] - left).max() <= 1e-13 * scale
        assert np.abs(tab_right[i] - right).max() <= 1e-13 * scale
        assert abs(tab.mass[i] - mass) <= 1e-13 * abs(tab.mass[-1])
        assert abs(tab.moment[i] - moment) <= 1e-13 * abs(tab.moment[-1])


def test_a_cell_wider_than_the_span_is_a_block_of_its_own():
    # on the growth grid of acceptance row 10 the first cell alone spans more
    # than _SCAN_SPAN / k_max: its scan block holds it alone, and the tables
    # meet the loop within the same bound
    g = build_grid(1.0, 2.0**20, 321, 32, UNIFORM_RADIAL)
    rule = elliptic._potential_rule(g)
    assert rule.k[-1] * rule.h[0] > elliptic._SCAN_SPAN
    assert rule.bounds[0, 1] == 1 and rule.bounds[1, -2] == rule.h.size - 1
    assert_scans_meet_the_loop(g, random_density(g, np.random.default_rng(6)).values)


def test_cell_table_leaves_the_boundary_series_at_the_rows_free_ends():
    # no cell reads row A at the last ring or row B at the first, so they
    # hold the boundary series coef (left[-1], right[0]), read before the
    # conversion
    g = build_grid(1.0, 4.0, 17, 16)
    tab = elliptic._mode_tables(g, random_density(g, np.random.default_rng(8)).values)
    left, right, _ = table_rows(tab)
    series = np.column_stack([left[-1], right[0]]) * tab.rule.coef[:, None]
    table = tab.table
    elliptic._cell_table(tab)
    assert tab.table is table and table.shape == (8, 3, 17)
    assert np.column_stack([table[:, 0, -1], table[:, 1, 0]]).tobytes() == series.tobytes()


def test_a_call_converts_its_table_once_and_only_off_the_nodes():
    # an all-node batch reads rows 0 and 1 alone; a batch with nodes, targets
    # in cells, off the grid and at the origin converts the table once
    g = build_grid(1.0, 4.0, 17, 16)
    f = random_density(g, np.random.default_rng(9))
    nodes = np.array([node_point(g, i, j) for i, j in ((0, 0), (8, 3), (16, 15))])
    mixed = np.vstack([nodes, polar_points(np.array([1.5, 2.5, 0.5, 9.0, 0.0]),
                                           np.array([0.3, 1.1, 2.0, 4.0, 0.0]))])
    for pts, calls in ((nodes, 0), (mixed, 1)):
        with mock.patch.object(elliptic, "_cell_table", wraps=elliptic._cell_table) as convert:
            newtonian_potential(f, pts)
        assert convert.call_count == calls
    # radii 1.5 and 2.5 lie in cells, 0.5 and 9 off the grid [1, 4]
    assert np.all(node_indices(g, mixed[3:]) == -1)


def test_repeat_off_grid_call_peaks_below_one_buffer_and_the_targets():
    # on the benchmark's 257x128 grid, with half of 2,048 targets in cells
    # and half far off the grid, a repeat call's tracemalloc peak stays below
    # the (modes, 3, rings) buffer, the spectrum it is filled from and the
    # target arrays: per target Horner's z and two running sums (four
    # complex polynomials each), its offsets and the sums' real parts
    # (4 x 8 bytes each) and 12 arrays of 8 bytes.  A table of left and right
    # held beside the cell table, as two separate tables, reads 2.43 MiB
    g = build_grid(1.0, 16.0, 257, 128)
    f = ScalarField.from_function(g, angular_density)
    rng = np.random.default_rng(9)
    radii = np.exp(np.concatenate([rng.uniform(0.0, math.log(16.0), 1024),
                                   rng.uniform(math.log(20.0), math.log(100.0), 1024)]))
    pts = polar_points(radii, rng.uniform(0.0, 2.0 * math.pi, radii.size))
    newtonian_potential(f, pts)
    modes = g.n_theta // 2
    buffer, spectrum = modes * 3 * g.n_r * 16, g.n_r * (modes + 1) * 16
    targets = len(pts) * (3 * 4 * 16 + 2 * 4 * 8 + 12 * 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        newtonian_potential(f, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < buffer + spectrum + targets


def test_polar_cell_integral_of_several_targets():
    # the partial-cell weights against 30-digit quadrature, for many x = k a
    # at once and one at a time, either side of the series threshold
    mpmath = pytest.importorskip("mpmath")
    edge = elliptic._SERIES_X
    x = np.array([1e-300, 1e-14, 5e-12, 1e-6, math.nextafter(edge, 0.0), edge,
                  0.04, 0.1, 1.0, 7.5, 64.0, 700.0])
    _, near, far = elliptic._hat_weights(x)
    for k, xk in enumerate(x):
        with mpmath.workdps(30):
            far_ref = mpmath.quad(lambda tau: tau * mpmath.exp(-xk * tau), [0, 1])
            near_ref = mpmath.quad(lambda tau: (1 - tau) * mpmath.exp(-xk * tau), [0, 1])
        assert abs(near[k] / float(near_ref) - 1.0) <= 1e-14
        assert abs(far[k] / float(far_ref) - 1.0) <= 1e-14
        _, one_near, one_far = elliptic._hat_weights(x[k:k + 1])
        assert (one_near[0], one_far[0]) == (near[k], far[k])
    assert [w[0] for w in elliptic._hat_weights(np.zeros(1))] == [1.0, 0.5, 0.5]


def test_series_truncation_is_below_rounding():
    # the first term each series drops, at the largest x it serves, is below
    # half an ulp of its weight
    x, n = elliptic._SERIES_X, elliptic._SERIES_TERMS
    _, near, far = elliptic._hat_weights(np.array([x]))
    assert x**n / (math.factorial(n) * (n + 2)) < 2.0**-53 * far[0]
    assert x**n / (math.factorial(n) * (n + 1) * (n + 2)) < 2.0**-53 * near[0]


# -- against independent references ------------------------------------------


def dense_midpoint_sums(y1, y2, fw, pts):
    """Sums of (log|x - y| - log|y|) fw(y) over the points y, by the dense kernel."""
    y1f, y2f, fwf = (np.ravel(a) for a in (y1, y2, fw))
    logyf = 0.5 * np.log(y1f * y1f + y2f * y2f)
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


def refined_potential(g, fn, pts, m=4):
    """(1/2pi) times the dense sum over the midpoints of g's cells split m x m,
    fn sampled there; no target lies on a midpoint of a node or of a cell."""
    edges = np.linspace(g.t[0], g.t[-1], m * (g.n_r - 1) + 1)
    r_edges = g.r_of_t(edges)
    r_mid = g.r_of_t(0.5 * (edges[1:] + edges[:-1]))[:, None]
    dq = g.dtheta / m
    theta = (np.arange(m * g.n_theta) + 0.5) * dq
    area = 0.5 * (r_edges[1:] ** 2 - r_edges[:-1] ** 2)[:, None] * dq
    y1, y2 = r_mid * np.cos(theta), r_mid * np.sin(theta)
    return dense_midpoint_sums(y1, y2, fn(y1, y2) * area, pts) / (2.0 * math.pi)


def nodes_and_targets(g, rng, count):
    """``count`` random nodes and ``count`` random targets out to twice r_outer."""
    rings, cols = rng.integers(0, g.n_r, count), rng.integers(0, g.n_theta, count)
    nodes = polar_points(g.radii[rings], g.theta[cols])
    radii = np.exp(rng.uniform(math.log(0.5 * g.r_inner), math.log(2.0 * g.r_outer), count))
    return np.vstack([nodes, polar_points(radii, rng.uniform(0.0, 2.0 * math.pi, count))])


def assert_matches_refined_sum(g, pts):
    vals, _ = newtonian_potential(ScalarField.from_function(g, angular_density), pts)
    ref = refined_potential(g, angular_density, pts)
    # |f| <= 2.2 r_inner^-3 sets the scale of the error
    scale = 2.2 * g.r_inner ** -3 * envelope(float(np.max(np.diff(g.log_radii))))
    assert np.abs(vals - ref).max() <= 0.25 * scale


@settings(max_examples=20, deadline=None)
@given(**grid_strategies)
def test_ring_sums_match_the_dense_sum(spacing, n_r, n_q, seed):
    # an error confined to the modes k >= 1 shows here, where no radial
    # density can see it
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    assert_matches_refined_sum(g, nodes_and_targets(g, np.random.default_rng(seed), 20))


@pytest.mark.parametrize("grid_args", [
    (1.0, 2.0**20, 321, 32, LOG_RADIAL),
    (1.0, 16.0, 129, 64, LOG_RADIAL),
    (0.5, 8.0, 129, 48, UNIFORM_RADIAL),
])
def test_ring_sums_match_the_dense_sum_on_named_grids(grid_args):
    g = build_grid(*grid_args)
    assert_matches_refined_sum(g, nodes_and_targets(g, np.random.default_rng(11), 15))


@pytest.mark.parametrize("spacing, r_outer, band", [
    (LOG_RADIAL, 16.0, (2.0, 2.0 * math.sqrt(2.0))),
    (UNIFORM_RADIAL, 4.0, (2.0, 2.5)),
])
def test_potential_laplacian_residual_of_angular_modes(spacing, r_outer, band):
    # row 10's envelope, on a density with angular modes 1 to 4; n_theta =
    # n_r - 1 keeps the nine-point stencil's own error in theta inside it
    angular_quartic = angular_modes(4.0)
    resids, hs = [], []
    for n_r in (65, 129, 257):
        g = build_grid(1.0, r_outer, n_r, n_r - 1, spacing)
        f = ScalarField.from_function(g, angular_quartic)
        i_lo, i_hi = (int(np.argmin(np.abs(g.radii - r))) for r in band)
        sub = build_grid(float(g.radii[i_lo]), float(g.radii[i_hi]), i_hi - i_lo + 1,
                         g.n_theta, spacing)
        pts = np.column_stack([x[i_lo:i_hi + 1].ravel() for x in g.nodes()])
        vals, _ = newtonian_potential(f, pts)
        lap = laplacian(ScalarField(sub, vals.reshape(sub.shape)))
        fsub = ScalarField.from_function(sub, angular_quartic)
        resids.append(np.abs(lap.values - fsub.values)[2:-2, :].max())
        hs.append(g.dt)
    for resid, h in zip(resids, hs):
        assert resid <= 0.04 * envelope(h)
    assert observed_orders(resids)[-1] >= 1.6


# -- invariances the mathematics guarantees ----------------------------------


def property_targets(g, rng):
    """Nodes, off-grid targets in and around the support, the origin and |x| = 1e300."""
    pts = nodes_and_targets(g, rng, 12)
    return np.vstack([pts, [(0.0, 0.0), (1e300, 0.0), (-3e299, -4e299)]])


def potential_without_warnings(f, pts):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return newtonian_potential(f, pts)


def assert_close(vals, ref, rel, scale=None):
    # the two huge targets are compared on their own scale
    scale = np.abs(ref) if scale is None else scale
    for part in (slice(0, -2), slice(-2, None)):
        # floored at the smallest normal float, where rel * scale underflows to 0
        bound = max(rel * scale[part].max(), np.finfo(float).tiny)
        assert np.abs(vals[part] - ref[part]).max() <= bound


@settings(max_examples=25, deadline=None)
@given(**grid_strategies, shift=st.integers(1, 31))
def test_rotating_the_density_rotates_the_potential(spacing, n_r, n_q, seed, shift):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    f = random_density(g, rng)
    pts = property_targets(g, rng)
    rolled = ScalarField(g, np.roll(f.values, shift, axis=1))
    angle = shift * g.dtheta
    turned = pts @ np.array([[math.cos(angle), math.sin(angle)],
                             [-math.sin(angle), math.cos(angle)]])
    vals, mass = potential_without_warnings(f, pts)
    rot, rot_mass = potential_without_warnings(rolled, turned)
    assert_close(rot, vals, 1e-13)
    assert abs(rot_mass - mass) <= 1e-13 * abs(mass)
    assert vals[-3] == 0.0  # the origin


@settings(max_examples=25, deadline=None)
@given(**grid_strategies, alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
@example(spacing=LOG_RADIAL, n_r=9, n_q=16, seed=0, alpha=0.0, beta=5e-324)
def test_potential_is_linear_in_the_density(spacing, n_r, n_q, seed, alpha, beta):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    f, h = random_density(g, rng), random_density(g, rng)
    pts = property_targets(g, rng)
    both, _ = potential_without_warnings(ScalarField(g, alpha * f.values + beta * h.values), pts)
    u_f, _ = potential_without_warnings(f, pts)
    u_h, _ = potential_without_warnings(h, pts)
    assert_close(both, alpha * u_f + beta * u_h, 1e-13,
                 scale=np.abs(alpha * u_f) + np.abs(beta * u_h))


@settings(max_examples=25, deadline=None)
@given(**grid_strategies, offset=st.sampled_from([1e-9, 5e-12]),
       radial=st.booleans())
def test_node_and_off_node_targets_agree(spacing, n_r, n_q, seed, offset, radial):
    # 5e-12 is above the node tolerance and puts x = k a in the series range
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    f = random_density(g, rng)
    rings, cols = rng.integers(0, n_r, 12), rng.integers(0, n_q, 12)
    radii, angles = g.radii[rings], g.theta[cols]
    nodes = polar_points(radii, angles)
    moved = (polar_points(radii * (1.0 + offset), angles) if radial
             else polar_points(radii, angles + offset))
    assert np.all(node_indices(g, moved) == -1)
    at_node, _ = potential_without_warnings(f, nodes)
    off_node, _ = potential_without_warnings(f, moved)
    assert np.abs(off_node - at_node).max() <= 1e-8 * np.abs(at_node).max()


# -- the far field and failures ----------------------------------------------


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
def test_far_field_is_log_mass_log_r_plus_one_constant(spacing):
    # log_mass comes from the same mode-0 rule as u; from any other rule
    # u - log_mass log|x| would drift by O(h^2) log|x|
    g = build_grid(1.0, 16.0, 65, 32, spacing)
    f = ScalarField.from_function(g, inverse_quartic)
    rng = np.random.default_rng(2)
    radii = g.r_outer * 10.0 ** np.concatenate([[0.0], rng.uniform(0.0, 298.0, 40), [298.0]])
    vals, log_mass = newtonian_potential(f, polar_points(radii, rng.uniform(0.0, 6.3, 42)))
    shifted = vals - log_mass * np.log(radii)
    assert np.abs(shifted - shifted[0]).max() <= 1e-13 * np.abs(vals).max()


def test_potential_that_overflows_names_its_cause():
    g = build_grid(1.0, 4.0, 17, 16)
    cause = "is not finite; the density's moments or the target's radius overflow"
    with pytest.raises(ValueError, match=cause):
        newtonian_potential(ScalarField(g, np.full(g.shape, 1e307)), [(2.0, 0.5)])
    with pytest.raises(ValueError, match=cause):  # |x| is beyond the largest float
        newtonian_potential(ScalarField.from_function(g, inverse_quartic), [(1.5e308, 1.5e308)])


def test_potential_of_huge_targets_is_finite():
    # |x - y|^2 overflows at |x| = 1e200; the mode sums need only log|x|,
    # and u - log_mass log|x| is the same constant as at any target beyond
    # the support, up to terms in (r_outer / |x|)^k
    g = build_grid(1.0, 16.0, 97, 48)
    f = ScalarField.from_function(g, inverse_quartic)
    pts = np.array([(1e200, 0.0), (-3e199, 4e199), (0.0, -1e300), (1e20, 0.0)])
    vals, log_mass = newtonian_potential(f, pts)
    assert np.all(np.isfinite(vals))
    shifted = vals - log_mass * np.log(np.hypot(pts[:, 0], pts[:, 1]))
    assert np.abs(shifted - shifted[-1]).max() <= 1e-13 * np.abs(vals).max()


# -- the matrix-free solve against a direct sparse solve -------------------------


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


def padded_product(stencil, x):
    """A x over a zero-ringed, theta-wrapped copy of the whole grid, one full-size term at a time.

    The table order and the rounding of every entry are those the blocked
    ``_stencil_product`` must reproduce bit for bit.
    """
    ni, n_t = stencil[0][2].shape
    pad = np.zeros((ni + 2, n_t + 2))
    pad[1:-1] = np.pad(x.reshape(ni, n_t), ((0, 0), (1, 1)), mode="wrap")
    out = np.zeros((ni, n_t))
    for di, dj, wgt in stencil:
        out += wgt * pad[1 + di:1 + di + ni, 1 + dj:1 + dj + n_t]
    return out.ravel()


def assembled_system(coeffs, f, g_inner, g_outer):
    """System matrix and right-hand side with the boundary rings folded in."""
    g = coeffs.grid
    full = assembled_matrix(g, elliptic._nine_point(coeffs))
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


def residual_and_scale(coeffs, f, g_inner, g_outer, u):
    """|b - A x| and |A| |x| + |b| in max norms, from the assembled system."""
    mat, b = assembled_system(coeffs, f, g_inner, g_outer)
    x = u.values[1:-1].ravel()
    norm_a = float(abs(mat).sum(axis=1).max())
    resid = float(np.max(np.abs(b - mat @ x)))
    return resid, norm_a * float(np.max(np.abs(x))) + float(np.max(np.abs(b)))


def backward_error(coeffs, f, g_inner, g_outer, u):
    """|b - A x| / (|A| |x| + |b|) in max norms, from the assembled system."""
    resid, scale = residual_and_scale(coeffs, f, g_inner, g_outer, u)
    return resid / scale


def condition_number(coeffs, f, g_inner, g_outer):
    """kappa_inf of the assembled system: |A|_inf times an estimate of |A^-1|_inf = |A^-T|_1.

    A backward error eta moves the solution by at most about kappa eta
    relative, so a forward bound of 2 kappa eta holds whatever the gate.
    """
    mat, _ = assembled_system(coeffs, f, g_inner, g_outer)
    lu = splu(mat)
    inverse_t = LinearOperator(mat.shape, matvec=lambda x: lu.solve(x, trans="T"),
                               rmatvec=lu.solve)
    return float(abs(mat).sum(axis=1).max() * onenormest(inverse_t))


def solve_and_gmres_cycles(coeffs, f, g_inner, g_outer):
    """Solution plus the number of GMRES restart cycles it took.

    Each restart cycle is a ``_gmres_cycle`` call of its own, and every call
    of one solve fills the same basis of _GMRES_RESTART + 1 vectors.
    """
    with mock.patch.object(elliptic, "_gmres_cycle", wraps=elliptic._gmres_cycle) as cycle:
        u = solve_linear_dirichlet(coeffs, f, g_inner, g_outer)
    bases = [call.args[4] for call in cycle.call_args_list]
    assert all(basis is bases[0] for basis in bases)
    assert all(basis.shape == (elliptic._GMRES_RESTART + 1, u.values[1:-1].size)
               for basis in bases)
    return u, cycle.call_count


def solve_and_count_products(coeffs, f, g_inner, g_outer, krylov=None):
    """Solution, the operator products of the solve, and each cycle's products.

    ``krylov``, when given, stands in for ``elliptic._krylov_solve``.
    """
    products, per_cycle = [], []
    product, cycle = elliptic._stencil_product, elliptic._gmres_cycle

    def counted_product(stencil, x):
        products.append(None)
        return product(stencil, x)

    def counted_cycle(*args):
        before = len(products)
        x = cycle(*args)
        per_cycle.append(len(products) - before)
        return x

    with mock.patch.multiple(elliptic, _stencil_product=counted_product,
                             _gmres_cycle=counted_cycle,
                             _krylov_solve=krylov or elliptic._krylov_solve):
        u = solve_linear_dirichlet(coeffs, f, g_inner, g_outer)
    return u, len(products), per_cycle


def scipy_krylov_solve(apply, b, precondition, gate):
    """A reference for ``elliptic._krylov_solve`` on scipy's left-preconditioned ``gmres``.

    The same start x0 = M b, cycle cap and gates, with one ``gmres`` call
    of ``maxiter=1`` per restart cycle.
    """
    def residual(x):
        return float(np.max(np.abs(b - apply(x))))

    x = precondition(b)
    final = residual(x)
    if final > 0.25 * gate(x):
        shape = (b.size, b.size)
        operator = LinearOperator(shape, matvec=apply, dtype=float)
        inverse = LinearOperator(shape, matvec=precondition, dtype=float)
        for _ in range(elliptic._GMRES_CYCLES):
            x, _ = gmres(operator, b, x0=x, rtol=0.0, atol=0.0,
                         restart=elliptic._GMRES_RESTART, maxiter=1, M=inverse)
            final = residual(x)
            if final <= 0.25 * gate(x):
                break
    assert final <= gate(x)
    return x


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
# 15 and 63 interior rings leave an odd row count at every level of
# cyclic reduction, 16 an even one at every level but the last
@example(spacing=LOG_RADIAL, n_r=17, n_q=16, seed=1)
@example(spacing=UNIFORM_RADIAL, n_r=18, n_q=16, seed=2)
@example(spacing=LOG_RADIAL, n_r=65, n_q=64, seed=3)
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


def ring_constant_table(rng, ni, n_t, margin):
    """A nine-point table of independent weights, each constant along rings.

    Each ring's centre weight is margin times the sum of the other eight
    magnitudes, with a random sign, so that every mode's band row is
    diagonally dominant.  Unlike a ``_nine_point`` table, anti is not
    -cross and west is not east.
    """
    offsets = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    per_ring = rng.normal(size=(9, ni)) * 10.0 ** rng.uniform(-2.0, 2.0, (9, 1))
    off_centre = np.abs(np.delete(per_ring, 4, axis=0)).sum(axis=0)
    per_ring[4] = margin * off_centre * rng.choice([-1.0, 1.0], ni)
    return tuple((di, dj, np.repeat(w[:, None], n_t, axis=1))
                 for (di, dj), w in zip(offsets, per_ring))


@settings(max_examples=20, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(8, 66),
    n_q=st.integers(8, 32).map(lambda k: 2 * k),
    margin=st.floats(1.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
# 15 and 63 interior rings leave an odd row count at every level of
# cyclic reduction, 16 and 64 an even one at every level but the last
@example(spacing=LOG_RADIAL, n_r=17, n_q=16, margin=1.0, seed=1)
@example(spacing=UNIFORM_RADIAL, n_r=18, n_q=16, margin=1.0, seed=2)
@example(spacing=UNIFORM_RADIAL, n_r=65, n_q=64, margin=1.0, seed=3)
@example(spacing=LOG_RADIAL, n_r=66, n_q=64, margin=1.0, seed=4)
def test_mode_solver_inverts_ring_constant_tables(spacing, n_r, n_q, margin, seed):
    # every term of each ring offset's symbol, the sin term's sign and the
    # order of the di = -1, 0, 1 planes among them, enters M b
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    table = ring_constant_table(rng, n_r - 2, n_q, margin)
    b = rng.normal(size=(n_r - 2) * n_q)
    x = elliptic._polar_mode_solver(g, table)(b)
    magnitudes = tuple((di, dj, np.abs(w)) for di, dj, w in table)
    scale = elliptic._stencil_product(magnitudes, np.abs(x)) + np.abs(b)
    residual = elliptic._stencil_product(table, x) - b
    assert np.max(np.abs(residual)) <= 16.0 * np.finfo(float).eps * np.max(scale)


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
def test_mode_solver_reads_the_ring_means_of_the_weights(spacing):
    # weights that vary along rings give the same M as their ring means:
    # a solver that read one node per ring would pass the ring-constant
    # tests above but not this one
    rng = np.random.default_rng(11)
    g = build_grid(1.0, 4.0, 33, 32, spacing)
    means = ring_constant_table(rng, g.n_r - 2, g.n_theta, 2.0)
    varying = tuple((di, dj, w * (1.0 + 0.5 * np.sin(g.theta + di + 3 * dj)))
                    for di, dj, w in means)
    b = rng.normal(size=(g.n_r - 2) * g.n_theta)
    expected = elliptic._polar_mode_solver(g, means)(b.copy())
    x = elliptic._polar_mode_solver(g, varying)(b.copy())
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_nine_point_table_is_in_the_order_the_mode_solver_reads():
    # the mode solver takes the planes di = -1, 0, 1 as consecutive triples
    # dj = -1, 0, 1, and the stencil product sums in this order
    g = build_grid(1.0, 4.0, 17, 16)
    rng = np.random.default_rng(5)
    a11, a22 = rng.uniform(0.5, 2.0, (2, *g.shape))
    co = LinearCoefficients(g, a11, 0.3 * np.sqrt(a11 * a22), a22)
    table = elliptic._nine_point(co)
    assert [(di, dj) for di, dj, _ in table] == [(di, dj) for di in (-1, 0, 1)
                                                 for dj in (-1, 0, 1)]
    assert all(w.shape == (g.n_r - 2, g.n_theta) for _, _, w in table)
    weights = {(di, dj): w for di, dj, w in table}
    assert weights[-1, -1] is weights[1, 1]
    assert weights[-1, 1] is weights[1, -1]
    assert np.array_equal(weights[-1, 1], -weights[1, 1])
    assert np.any(weights[1, 1] != 0.0)


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
    eta = backward_error(co, f, g_in, g_out, u)
    assert eta <= 1e-10
    kappa = condition_number(co, f, g_in, g_out)
    assert np.abs(u.values - ref.values).max() <= 2.0 * kappa * eta * np.abs(ref.values).max()


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 49),
    n_q=st.integers(8, 24).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
@example(spacing=LOG_RADIAL, n_r=39, n_q=16, seed=40)
@example(spacing=LOG_RADIAL, n_r=43, n_q=24, seed=1116280530)
def test_ring_varying_solves_meet_the_gate_and_match_superlu(spacing, n_r, n_q, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    # coefficients that vary along and across rings, with a cross term
    a11, a22 = rng.uniform(0.5, 2.0, (2, *g.shape))
    co = LinearCoefficients(g, a11, rng.uniform(-0.4, 0.4, g.shape) * np.sqrt(a11 * a22), a22)
    f = ScalarField(g, rng.normal(size=g.shape))
    g_in, g_out = rng.normal(size=(2, n_q))
    u = solve_linear_dirichlet(co, f, g_in, g_out)
    eta = backward_error(co, f, g_in, g_out, u)
    assert eta <= 1e-10
    # kappa_inf of these systems reaches 1e4
    kappa = condition_number(co, f, g_in, g_out)
    ref = superlu_reference(co, f, g_in, g_out)
    assert np.abs(u.values - ref.values).max() <= 2.0 * kappa * eta * np.abs(ref.values).max()


def test_mode_solver_failure_is_a_singular_system():
    # all-zero weights make every pivot zero, NaN ones every pivot NaN;
    # either raises with no RuntimeWarning
    g = build_grid(1.0, 4.0, 17, 16)
    for value in (0.0, np.nan):
        weights = np.full((g.n_r - 2, g.n_theta), value)
        table = tuple((di, dj, weights) for di in (-1, 0, 1) for dj in (-1, 0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="pivot"):
                elliptic._polar_mode_solver(g, table)
    f = ScalarField(g, np.ones(g.shape))

    def singular(*args):
        raise np.linalg.LinAlgError("zero or non-finite pivot in cyclic reduction")

    with mock.patch.object(elliptic, "_polar_mode_solver", singular):
        with pytest.raises(ValueError, match="singular-system: ring-mean mode solver failed"):
            solve_linear_dirichlet(LinearCoefficients.trace_operator(g), f, 0.0, 1.0)


def dominant_band(rng, n, m, margin):
    """Complex (lower, diag, upper) of n rows and m columns, |diag| = margin (|lower| + |upper|).

    As in the mode solver's band, the end rows are dominant by the weights
    of the boundary rings, which lower[0] and upper[-1] drop.
    """
    lower, upper = rng.normal(size=(2, n, m)) + 1j * rng.normal(size=(2, n, m))
    phase = np.exp(2j * math.pi * rng.uniform(size=(n, m)))
    diag = margin * (np.abs(lower) + np.abs(upper)) * phase
    lower[0] = upper[-1] = 0.0
    return lower, diag, upper


@settings(max_examples=5, deadline=None)
@given(m=st.integers(1, 3), margin=st.floats(1.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_cyclic_reduction_matches_solve_banded(m, margin, seed):
    # every row count up to 300, so every sequence of odd and even row
    # counts over the levels, 2^q - 2, 2^q - 1 and 2^q among them; diagonal
    # dominance, weak at margin 1, makes elimination without pivoting stable
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for n in range(1, 301):
        lower, diag, upper = dominant_band(rng, n, m, margin)
        rhs = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        band = np.zeros((5, n, m), dtype=complex)
        band[:3] = lower, diag, upper
        x = elliptic._cyclic_reduction(band)(rhs.copy())
        residual = rhs - diag * x
        residual[1:] -= lower[1:] * x[:-1]
        residual[:-1] -= upper[:-1] * x[1:]
        scale = np.abs(diag) * np.abs(x) + np.abs(rhs)
        scale[1:] += np.abs(lower[1:] * x[:-1])
        scale[:-1] += np.abs(upper[:-1] * x[1:])
        # normwise relative residual within 8 eps
        assert np.max(np.abs(residual)) <= 8.0 * eps * np.max(scale), n
        # against LU with partial pivoting: 2.2e-15 relative at worst over
        # 3,600 such solves, so 1e-12 leaves room for worse-conditioned draws
        for k in range(m):
            ab = np.array([np.r_[0.0, upper[:-1, k]], diag[:, k], np.r_[lower[1:, k], 0.0]])
            ref = solve_banded((1, 1), ab, rhs[:, k])
            assert np.max(np.abs(x[:, k] - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, k)


def test_the_mode_solver_factors_once_per_solve(mode_solver_calls):
    # GMRES applies the preconditioner many times; each application is one
    # solve with the band factored when the linear solve began
    g = build_grid(1.0, 4.0, 49, 32)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    f = ScalarField.from_function(g, lambda a, b: a * b)
    applications = []
    krylov = elliptic._krylov_solve

    def counting_krylov(apply, b, precondition, gate):
        def counted(v):
            applications.append(None)
            return precondition(v)
        return krylov(apply, b, counted, gate)

    with mock.patch.object(elliptic, "_krylov_solve", counting_krylov):
        u, krylov_cycles = solve_and_gmres_cycles(co, f, np.cos(g.theta), 0.0)
        solve_linear_dirichlet(co, f, 0.0, 1.0)
    assert krylov_cycles >= 1
    assert len(applications) > 2 * krylov_cycles
    assert mode_solver_calls.factors == 2
    assert mode_solver_calls.applications == len(applications)
    assert backward_error(co, f, np.cos(g.theta), 0.0, u) <= 1e-10


def clamped_hyperbolic_correction():
    """Coefficients and source of a clamped Newton correction, for zero boundary data.

    The first Newton correction of the hyperbolic operator m11 - m22 from
    the default start |x|^2/2 with zero data on 257x128: clamping floors
    the eigenvalue -1 at 1e-3, so a = diag(1, 1e-3) and the ring-mean
    preconditioner is far from exact.
    """
    g = build_grid(1.0, 4.0, 257, 128)
    co = LinearCoefficients(g, 1.0, 0.0, 1e-3)
    w = ((g.t - g.t[0]) / (g.t[-1] - g.t[0]))[:, None]
    r2 = g.radii[:, None] ** 2
    start = ScalarField(g, 0.5 * (r2 - (1.0 - w) * r2[0] - w * r2[-1]) * np.ones(g.n_theta))
    h = hessian(start)
    rhs = np.zeros(g.shape)
    rhs[1:-1] = (h.m22 - h.m11)[1:-1]
    return co, ScalarField(g, rhs)


def test_clamped_hyperbolic_linearization_stops_on_the_max_norm_gate():
    # the residual max-norm meets gate/4 after 9 restart cycles, when its
    # 2-norm, which bounds it, is still about 3 times gate/4
    co, f = clamped_hyperbolic_correction()
    u, cycles = solve_and_gmres_cycles(co, f, 0.0, 0.0)
    assert 1 <= cycles <= 10
    assert backward_error(co, f, 0.0, 0.0, u) <= 1e-10


def test_gmres_makes_one_product_per_arnoldi_step_and_one_residual_per_cycle():
    # one product checks x0 = M b; then cycle c makes one per Arnoldi step,
    # k_c of them, each with one application of M, and applies M once more
    # to its update; one product forms the residual the gate reads after
    # it.  So a solve makes 1 + sum(k_c + 1) products.  When each cycle was
    # a call of scipy's gmres, which forms M b and b - A x0 afresh, this
    # solve made 231 in 10 cycles
    co, f = clamped_hyperbolic_correction()
    preconditions, cycle = [], elliptic._gmres_cycle

    def counted_cycle(apply, precondition, *args):
        def counted(v):
            preconditions[-1] += 1
            return precondition(v)

        preconditions.append(0)
        return cycle(apply, counted, *args)

    with mock.patch.object(elliptic, "_gmres_cycle", counted_cycle):
        u, products, steps = solve_and_count_products(co, f, 0.0, 0.0)
    assert steps and all(1 <= k <= elliptic._GMRES_RESTART for k in steps)
    assert preconditions == [k + 1 for k in steps]
    assert products == 1 + sum(k + 1 for k in steps)
    assert backward_error(co, f, 0.0, 0.0, u) <= 1e-10


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 49),
    n_q=st.integers(8, 24).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
def test_gmres_needs_no_more_products_than_scipy_gmres(spacing, n_r, n_q, seed):
    # on one fixed set of ring-varying draws; over 300 such draws the numpy
    # loop made 2 to 25 products fewer than scipy's
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    a11, a22 = rng.uniform(0.5, 2.0, (2, *g.shape))
    co = LinearCoefficients(g, a11, rng.uniform(-0.4, 0.4, g.shape) * np.sqrt(a11 * a22), a22)
    f = ScalarField(g, rng.normal(size=g.shape))
    g_in, g_out = rng.normal(size=(2, n_q))
    u, products, steps = solve_and_count_products(co, f, g_in, g_out)
    _, scipy_products, _ = solve_and_count_products(co, f, g_in, g_out, scipy_krylov_solve)
    assert steps
    assert products <= scipy_products
    eta = backward_error(co, f, g_in, g_out, u)
    assert eta <= 1e-10
    kappa = condition_number(co, f, g_in, g_out)
    ref = superlu_reference(co, f, g_in, g_out)
    assert np.abs(u.values - ref.values).max() <= 2.0 * kappa * eta * np.abs(ref.values).max()


def test_gmres_that_misses_the_gate_is_a_singular_system():
    g = build_grid(1.0, 4.0, 17, 16)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    f = ScalarField(g, np.ones(g.shape))

    def no_progress(apply, precondition, x, r, basis, tol):
        return x

    with mock.patch.object(elliptic, "_gmres_cycle", no_progress):
        with pytest.raises(ValueError, match=r"singular-system: discrete residual \d\.\d+e[-+]\d+ "
                                             r"exceeds the backward-error bound \d\.\d+e[-+]\d+"):
            solve_linear_dirichlet(co, f, 0.0, 1.0)


# -- the operator applied from its stencil arrays --------------------------------


@settings(max_examples=30, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(8, 41),
    n_q=st.integers(8, 24).map(lambda k: 2 * k),
    rings=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(spacing=LOG_RADIAL, n_r=12, n_q=16, rings=3, seed=0)  # blocks of 3, 3, 3 and 1 ring
def test_stencil_product_and_norm_match_the_assembled_matrix(spacing, n_r, n_q, rings, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, n_r, n_q, spacing)
    # coefficients that vary along and across rings, with a cross term
    a11, a22 = rng.uniform(0.5, 2.0, (2, *g.shape))
    co = LinearCoefficients(g, a11, rng.uniform(-0.4, 0.4, g.shape) * np.sqrt(a11 * a22), a22)
    stencil = elliptic._nine_point(co)
    mat = assembled_matrix(g, stencil)[:, n_q:-n_q]
    x = rng.normal(size=mat.shape[0]) * 10.0 ** rng.uniform(-3.0, 3.0)
    x[rng.random(x.size) < 0.1] = -0.0
    # a few rings per block, so that products cross block edges
    with mock.patch.object(elliptic, "_BLOCK_ELEMENTS", rings * n_q):
        product = elliptic._stencil_product(stencil, x)
    assert product.tobytes() == padded_product(stencil, x).tobytes()
    # two sums of at most nine products, each within 9 eps of |A| |x|
    bound = 18.0 * np.finfo(float).eps * (abs(mat) @ np.abs(x))
    assert np.all(np.abs(product - mat @ x) <= bound)
    norm = float(abs(mat).sum(axis=1).max())
    assert abs(elliptic._stencil_norm(stencil) - norm) <= 1e-15 * norm


def test_residual_check_holds_under_two_full_grid_arrays_beyond_the_iterate():
    # the product pads one block of rings at a time, and b - A x and its
    # absolute value are formed in the product's output: that output, a
    # block's halo and product buffers and numpy's ufunc buffer make about
    # 1.8 arrays of 8 n_r n_theta bytes here.  A padded copy of the whole
    # grid with full-size temporaries made about 3.3.
    g = build_grid(1.0, 64.0, 513, 64)
    c = np.broadcast_to(1.0 + g.radii[:, None] / 128.0, g.shape)
    co = LinearCoefficients(g, c, 0.0, c)  # constant along rings: M is exact
    f = ScalarField(g, np.ones(g.shape))
    krylov, held = elliptic._krylov_solve, []

    def measured(apply, b, precondition, gate):
        def precondition_then_reset(v):
            x = precondition(v)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return x

        x = krylov(apply, b, precondition_then_reset, gate)
        held.append(tracemalloc.get_traced_memory()[1])
        return x

    solve_linear_dirichlet(co, f, 0.0, 1.0)  # imports done first
    with mock.patch.object(elliptic, "_krylov_solve", measured):
        tracemalloc.start()
        try:
            solve_linear_dirichlet(co, f, 0.0, 1.0)
        finally:
            tracemalloc.stop()
    with_x, peak = held  # one preconditioner application: no GMRES
    assert peak - with_x <= 2.0 * 8 * g.n_r * g.n_theta


def test_gmres_path_is_unchanged_by_the_blocked_product():
    # 255 interior rings of 64 nodes make blocks of 128 and 127 rings
    g = build_grid(1.0, 4.0, 257, 64)
    co = LinearCoefficients(g, 1.0 + 0.5 * np.cos(g.theta)[None, :], 0.0, 1.0)
    f = ScalarField(g, np.outer(g.radii, np.sin(2.0 * g.theta)))
    u, cycles = solve_and_gmres_cycles(co, f, 0.0, 1.0)
    with mock.patch.object(elliptic, "_stencil_product", padded_product):
        u_ref, cycles_ref = solve_and_gmres_cycles(co, f, 0.0, 1.0)
    assert cycles >= 1
    assert (u.values.tobytes(), cycles) == (u_ref.values.tobytes(), cycles_ref)


def test_fine_grid_poisson_solve_assembles_no_matrix():
    # the mode solver is exact here, so the solve ends at its first result
    def no_krylov(*args, **kwargs):
        raise AssertionError("GMRES on ring-constant coefficients")

    g = build_grid(1, 64, 1025, 128)
    f = ScalarField(g, np.ones(g.shape))
    with mock.patch.object(elliptic, "_gmres_cycle", no_krylov):
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
# superposition holds only to the gates: this draw misses 1e-10 of the
# solution scale (1.24e-9 against 8.6e-10) with every solve within its gate
@example(spacing=LOG_RADIAL, ring_constant=False, seed=903990)
def test_solution_linear_in_data(spacing, ring_constant, seed):
    # superposition: the boundary fold and the mode solver are linear in
    # (f, g), and each solve leaves a residual within its backward-error
    # gate 1e-10 (|A| |x| + |b|).  So A applied to e = both - alpha u1 -
    # beta u2, the residual of e for zero data, is within the gate of both
    # plus |alpha| and |beta| times those of u1 and u2 (it reads at most
    # 0.15 of that over 400 draws); rounding the data's combination adds
    # about eps |b|, 1e-6 of a gate
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, 4.0, 33, 24, spacing)
    co = random_coefficients(g, rng, ring_constant)
    alpha, beta = rng.uniform(-2.0, 2.0, 2)
    f1, f2 = rng.normal(size=(2, *g.shape))
    g1i, g1o, g2i, g2o = 1.0 + rng.normal(size=(4, g.n_theta))
    data1 = (ScalarField(g, f1), g1i, g1o)
    data2 = (ScalarField(g, f2), g2i, g2o)
    data = (ScalarField(g, alpha * f1 + beta * f2), alpha * g1i + beta * g2i,
            alpha * g1o + beta * g2o)
    u1, krylov_cycles = solve_and_gmres_cycles(co, *data1)
    u2 = solve_linear_dirichlet(co, *data2)
    both = solve_linear_dirichlet(co, *data)
    assert (krylov_cycles == 0) if ring_constant else (krylov_cycles >= 1)
    gate = 1e-10 * (residual_and_scale(co, *data, both)[1]
                    + abs(alpha) * residual_and_scale(co, *data1, u1)[1]
                    + abs(beta) * residual_and_scale(co, *data2, u2)[1])
    e = both.values - alpha * u1.values - beta * u2.values
    zero = ScalarField(g, np.zeros(g.shape))
    homogeneous = residual_and_scale(co, zero, e[0], e[-1], ScalarField(g, e))[0]
    assert homogeneous <= gate
