import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulab import elliptic
from annulab.grid import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    PlanarMapping,
    ScalarField,
    build_grid,
    gradient,
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
    rr, th = g.polar()
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
    assert (co.lam, co.Lam, co.gamma) == (1.0, 3.0, 3.0)
    tr = LinearCoefficients.trace_operator(g)
    assert (tr.lam, tr.Lam, tr.gamma) == (1.0, 1.0, 1.0)


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


def test_solution_linear_in_data():
    g = build_grid(1.0, 4.0, 33, 24)
    co = LinearCoefficients(g, 1.0, 0.2, 2.0)
    f1 = ScalarField.from_function(g, lambda a, b: a)
    f2 = ScalarField.from_function(g, lambda a, b: np.sin(b))
    g1i, g1o = np.cos(g.theta), np.sin(2 * g.theta)
    g2i, g2o = 1.0 + 0.0 * g.theta, np.cos(3 * g.theta)
    ua = solve_linear_dirichlet(co, f1, g1i, g1o)
    ub = solve_linear_dirichlet(co, f2, g2i, g2o)
    fsum = ScalarField(g, f1.values + f2.values)
    uc = solve_linear_dirichlet(co, fsum, g1i + g2i, g1o + g2o)
    assert np.abs(uc.values - ua.values - ub.values).max() <= 1e-10


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
    g = build_grid(1.0, 8.0, 97, 64)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    u, _ = solve_with_boundary(co, lambda a, b: 0.0 * a, lambda a, b: a * a - b * b / 3.0)
    grad = gradient(u)
    report = dilatation_field(PlanarMapping(g, grad.q, grad.p))
    assert report.orientation_ok
    assert report.K_min <= 0.5 * (1.0 + co.gamma) + 0.05


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
    rs, ts = sub.polar()
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


# -- the on-node path against the per-target loop --------------------------


def potential_and_loop_count(f, pts):
    """Potential plus the number of targets the per-target loop received."""
    with mock.patch.object(elliptic, "_target_sums",
                           wraps=elliptic._target_sums) as loop:
        vals, log_mass = newtonian_potential(f, pts)
    looped = sum(call.args[3].shape[0] for call in loop.call_args_list)
    return vals, log_mass, looped


def assert_matches_reference(f, pts, n_node):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, log_mass, looped = potential_and_loop_count(f, pts)
        ref, ref_mass = elliptic._reference_potential(f, pts)
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


@pytest.mark.parametrize("offset", [(1e-6, 0.0), (0.0, 1e-6), (-1e-6, -1e-6)])
def test_target_off_a_node_takes_the_loop(offset):
    g = build_grid(1.0, 4.0, 17, 16)
    f = ScalarField.from_function(g, inverse_quartic)
    pts = [node_point(g, 8, 3, *offset)]
    vals, _, looped = potential_and_loop_count(f, pts)
    ref, _ = elliptic._reference_potential(f, pts)
    assert looped == 1
    assert vals.tobytes() == ref.tobytes()


# -- the FFT-in-theta solve against SuperLU ----------------------------------


def superlu_reference(coeffs, f, g_inner, g_outer):
    """``solve_linear_dirichlet`` with the FFT-in-theta path switched off."""
    with mock.patch.object(elliptic, "_refined", return_value=None):
        return solve_linear_dirichlet(coeffs, f, g_inner, g_outer)


def solve_and_factorization_count(coeffs, f, g_inner, g_outer):
    """Solution plus the number of SuperLU factorizations it took."""
    with mock.patch.object(elliptic, "splu", wraps=elliptic.splu) as lu:
        u = solve_linear_dirichlet(coeffs, f, g_inner, g_outer)
    return u, lu.call_count


def polar_frame_coefficients(grid, a_rr, a_tt, a_rt):
    """Cartesian (a11, a12, a22) of a_rr e_r e_r + a_tt e_t e_t + a_rt (e_r e_t + e_t e_r)."""
    c = np.cos(grid.theta)[None, :]
    s = np.sin(grid.theta)[None, :]
    a_rr, a_tt, a_rt = (np.asarray(a, dtype=float)[:, None] for a in (a_rr, a_tt, a_rt))
    a11 = a_rr * c * c + a_tt * s * s - 2.0 * a_rt * c * s
    a22 = a_rr * s * s + a_tt * c * c + 2.0 * a_rt * c * s
    a12 = (a_rr - a_tt) * c * s + a_rt * (c * c - s * s)
    return a11, a12, a22


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
    u, factorizations = solve_and_factorization_count(co, f, g_in, g_out)
    ref = superlu_reference(co, f, g_in, g_out)
    assert factorizations == 0
    assert np.abs(u.values - ref.values).max() <= 1e-10 * np.abs(ref.values).max()


def test_anisotropic_coefficients_fall_back_to_superlu():
    # a22 = 3 a11 varies along every ring in the polar frame, so the
    # ring-mean solve is only approximate and the gate sends the system on
    g = build_grid(1.0, 4.0, 49, 32)
    co = LinearCoefficients(g, 1.0, 0.0, 3.0)
    f = ScalarField.from_function(g, lambda a, b: a * b)
    g_in, g_out = np.cos(g.theta), np.sin(2 * g.theta)
    u, factorizations = solve_and_factorization_count(co, f, g_in, g_out)
    ref = superlu_reference(co, f, g_in, g_out)
    assert factorizations == 1
    assert u.values.tobytes() == ref.values.tobytes()
