import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulab import elliptic, nonlinear
from annulab.elliptic import LinearCoefficients, ellipticity_constants, solve_linear_dirichlet
from annulab.grid import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    ScalarField,
    build_grid,
    hessian,
    sym2_eig,
)
from annulab.nonlinear import (
    FullyNonlinearSpec,
    NewtonError,
    monge_ampere_spec,
    newton_solve,
    radial_ma_reference,
    special_lagrangian_spec,
)


def reference_boundary(a, grid):
    u_in, _, _ = radial_ma_reference(a, grid.radii[0])
    u_out, _, _ = radial_ma_reference(a, grid.radii[-1])
    return float(u_in), float(u_out)


def rotated(lo, hi, phi):
    """Entries of the symmetric matrix with eigenvalues (lo, hi), turned by phi."""
    c, s = np.cos(phi), np.sin(phi)
    return c * c * hi + s * s * lo, c * s * (hi - lo), s * s * hi + c * c * lo


def random_symmetric(rng, norm_cap):
    """Eigenvalues in [1/cap, cap] with a random rotation."""
    lam1 = rng.uniform(1.0 / norm_cap, norm_cap)
    lam2 = rng.uniform(1.0 / norm_cap, norm_cap)
    return rotated(lam2, lam1, rng.uniform(0.0, np.pi))


class TestOperatorSpecs:
    def test_monge_ampere_trivial_roots(self):
        spec = monge_ampere_spec()
        assert spec.evaluate(1.0, 0.0, 1.0) == 0.0
        assert spec.evaluate(2.0, 0.0, 0.5) == 0.0

    def test_monge_ampere_derivative_is_cofactor(self):
        spec = monge_ampere_spec()
        d11, d12, d22 = spec.derivative(2.0, 0.0, 0.5)
        assert (d11, d12, d22) == (0.5, 0.0, 2.0)
        d11, d12, d22 = spec.derivative(3.0, 0.7, 1.0)
        assert (d11, d12, d22) == (1.0, -0.7, 3.0)

    def test_special_lagrangian_trivial_roots(self):
        spec = special_lagrangian_spec(np.pi / 2)
        assert abs(spec.evaluate(1.0, 0.0, 1.0)) <= 1e-15
        assert abs(spec.evaluate(2.0, 0.0, 0.5)) <= 1e-15

    def test_special_lagrangian_odd_symmetry(self):
        spec = special_lagrangian_spec(0.0)
        for t in (0.1, 1.0, 7.5, 300.0):
            assert spec.evaluate(t, 0.0, -t) == 0.0

    def test_special_lagrangian_rotation_invariance(self):
        spec = special_lagrangian_spec(0.3)
        rng = np.random.default_rng(11)
        for _ in range(50):
            m11, m12, m22 = random_symmetric(rng, 3.0)
            mean = 0.5 * (m11 + m22)
            rad = np.hypot(0.5 * (m11 - m22), m12)
            direct = np.arctan(mean + rad) + np.arctan(mean - rad) - 0.3
            assert abs(spec.evaluate(m11, m12, m22) - direct) <= 1e-14

    def test_special_lagrangian_derivative_smooth_at_coalescence(self):
        # the divided difference hands off to its analytic limit; the two
        # branches must agree across the threshold
        spec = special_lagrangian_spec(0.0)
        for mean in (-1.3, 0.0, 0.8):
            above = spec.derivative(mean + 3e-8, 0.0, mean - 3e-8)
            below = spec.derivative(mean + 3e-9, 0.0, mean - 3e-9)
            exact = 1.0 / (1.0 + mean * mean)
            for d in (above, below):
                assert abs(0.5 * (d[0] + d[2]) - exact) <= 1e-7
                assert abs(d[1]) <= 1e-15
            # off-diagonal route through the limit as well
            d = spec.derivative(mean, 1e-9, mean)
            assert abs(d[0] - exact) <= 1e-7

    def test_special_lagrangian_phase_validation(self):
        with pytest.raises(ValueError, match="singular-input"):
            special_lagrangian_spec(np.pi)
        with pytest.raises(ValueError, match="singular-input"):
            special_lagrangian_spec(-3.5)


# every operator at a Hessian whose eigenvalues are bounded by B in modulus
B = 4.0
COALESCE = nonlinear._COALESCE


@st.composite
def operator_at_hessian(draw):
    """An operator, a Hessian, and the window its docstring gives the derivative's eigenvalues.

    Monge-Ampere on its branch det = 1 with eigenvalues in [1/B, B], where
    the cofactor's lie in [1/B, B]; SL(theta) at any Hessian of norm <= B,
    where 1/(1 + lambda^2) lies in [1/(1 + B^2), 1], with gaps down to and
    inside the coalescing band.
    """
    phi = draw(st.floats(0.0, np.pi))
    if draw(st.booleans()):
        lam = draw(st.floats(1.0, B))
        return monge_ampere_spec(), rotated(1.0 / lam, lam, phi), (1.0 / B, B)
    theta = draw(st.floats(-np.pi, np.pi, exclude_min=True, exclude_max=True))
    lo = draw(st.floats(-B, B))
    gap = draw(st.one_of(st.floats(0.0, 4.0 * COALESCE), st.floats(0.0, 2.0 * B)))
    return (special_lagrangian_spec(theta), rotated(lo, min(lo + gap, B), phi),
            (1.0 / (1.0 + B * B), 1.0))


@settings(max_examples=200, deadline=None)
@given(case=operator_at_hessian())
def test_every_operator_derivative_is_the_gradient_of_evaluate(case):
    # dF = F_11 dm11 + 2 F_12 dm12 + F_22 dm22.  Central differences with a
    # step of 1e-5 |M| are off by at most 5.3e-10 of max |F_ij| over 20,000
    # random draws (truncation and rounding about equal there), so 1e-8
    # leaves a margin of about 19
    spec, m, _ = case
    d = spec.derivative(*m)
    h = 1e-5 * max(1.0, *map(abs, m))
    for i, multiplicity in ((0, 1.0), (1, 2.0), (2, 1.0)):
        up, down = list(m), list(m)
        up[i], down[i] = m[i] + h, m[i] - h
        fd = (spec.evaluate(*up) - spec.evaluate(*down)) / (up[i] - down[i])
        assert abs(fd - multiplicity * d[i]) <= 1e-8 * max(map(abs, d))


@settings(max_examples=200, deadline=None)
@given(case=operator_at_hessian())
def test_every_operator_derivative_eigenvalues_lie_in_the_stated_window(case):
    spec, m, (low, high) = case
    lo, hi = sym2_eig(*spec.derivative(*m))
    assert low - 1e-12 <= lo <= hi <= high + 1e-12


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-B, B), gap=st.one_of(st.floats(0.0, 4.0 * COALESCE), st.floats(0.0, 2.0 * B)),
       phi=st.floats(0.0, np.pi))
def test_the_spectral_form_of_the_determinant_is_monge_ampere(lo, gap, phi):
    # f = lo hi - 1 with partials (hi, lo): the divided difference of the
    # partials is -1 at any gap, and the derivative is the cofactor matrix
    det = nonlinear.spectral_spec("det", lambda lo, hi: lo * hi - 1.0,
                                  lambda lo, hi: (hi, lo), lambda mean: -1.0)
    ma = monge_ampere_spec()
    m = rotated(lo, lo + gap, phi)
    size = max(map(abs, m))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny  # tiny covers subnormal entries
    assert abs(det.evaluate(*m) - ma.evaluate(*m)) <= 8.0 * eps * (size * size + 1.0)
    for spectral, cofactor in zip(det.derivative(*m), ma.derivative(*m)):
        assert abs(spectral - cofactor) <= 8.0 * eps * size + tiny


def clamp_test_field(grid, rng):
    """Indefinite interior-ring entries and the floor ``_coefficient_rows`` clamps them to.

    One node is 5 I, the largest eigenvalue, so the floor is 5e-3, and one
    is diag(1, -1).  The others mix generic pairs in [-2, 4] with pairs
    0 < hi - lo <= 2 _COALESCE that straddle the floor, lie above it or lie
    below it.
    """
    floor = 1e-3 * 5.0
    shape = (grid.n_r - 2, grid.n_theta)
    kind = rng.integers(0, 4, shape)
    gap = rng.uniform(0.01, 1.0, shape) * 2.0 * COALESCE
    base = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [rng.uniform(-2.0, 4.0, shape), floor - rng.uniform(0.01, 0.99, shape) * gap,
         rng.uniform(floor + 1e-6, 4.0, shape), rng.uniform(-2.0, floor - 1e-6, shape) - gap])
    top = np.where(kind == 0, rng.uniform(-2.0, 4.0, shape), base + gap)
    entries = rotated(np.minimum(base, top), np.maximum(base, top), rng.uniform(0.0, np.pi, shape))
    for a, first, second in zip(entries, (5.0, 0.0, 5.0), (1.0, 0.0, -1.0)):
        a[0, :2] = first, second
    return entries, floor


# the derivative the clamp receives is the Hessian rows themselves
IDENTITY_DERIVATIVE = FullyNonlinearSpec("identity", None, lambda *m: m)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_clamp_floors_the_eigenvalues_and_keeps_the_eigenvectors(seed):
    # the clamped entries have eigenvalues max(lambda, floor) to a few ulps
    # of the node's size and commute with the input; only a node straddling
    # the floor within 2 _COALESCE, where the slope takes its limit 1 above
    # the floor or 0 below, may be off by half its gap
    grid = build_grid(1.0, 4.0, 10, 16)
    entries, floor = clamp_test_field(grid, np.random.default_rng(seed))
    lin = nonlinear._linearization(IDENTITY_DERIVATIVE, entries)
    assert lin[1] <= 0.0
    co = nonlinear._coefficient_rows(grid, *lin)
    out = (co.a11, co.a12, co.a22)
    lo, hi = sym2_eig(*entries)
    gap = hi - lo
    band = (lo < floor) & (floor < hi) & (gap <= 2.0 * COALESCE)
    assert np.sum(band) >= 10 and np.sum((gap <= 2.0 * COALESCE) & ~band) >= 10
    eps = np.finfo(float).eps
    size = np.maximum(np.abs(lo), np.abs(hi))
    out_lo, out_hi = sym2_eig(*out)
    for got, want in ((out_lo, np.maximum(lo, floor)), (out_hi, np.maximum(hi, floor))):
        assert np.all(np.abs(got - want) <= 8.0 * eps * size + np.where(band, 0.5 * gap, 0.0))
    m11, m12, m22 = entries
    commutator = out[1] * (m11 - m22) - m12 * (out[0] - out[2])
    assert np.all(np.abs(commutator) <= 8.0 * eps * size * sum(map(np.abs, out)))


@pytest.mark.parametrize("entry", ["a11", "a12", "a22"])
def test_a_non_finite_indefinite_linearization_skips_the_clamp(entry):
    # a NaN least eigenvalue is neither positive nor <= 0, and the entries
    # reach LinearCoefficients' own check as they are
    grid = build_grid(1.0, 4.0, 10, 16)
    entries, _ = clamp_test_field(grid, np.random.default_rng(5))
    entries[("a11", "a12", "a22").index(entry)][3, 7] = np.nan
    lin = nonlinear._linearization(IDENTITY_DERIVATIVE, entries)
    assert np.isnan(lin[1])
    with pytest.raises(ValueError, match=f"^singular-input: non-finite entries in {entry}$"):
        nonlinear._coefficient_rows(grid, *lin)


class TestRadialReference:
    def test_zero_parameter_is_pure_quadratic(self):
        r = np.linspace(1.0, 20.0, 77)
        u, up, upp = radial_ma_reference(0.0, r)
        assert np.array_equal(u, 0.5 * r * r)
        assert np.array_equal(up, r)
        assert np.array_equal(upp, np.ones_like(r))

    def test_determinant_identity(self):
        r = np.linspace(1.0, 50.0, 1001)
        for a in (0.5, 1.0, 2.0):
            u, up, upp = radial_ma_reference(a, r)
            assert np.max(np.abs(upp * up / r - 1.0)) <= 1e-14

    def test_far_field_constant_term(self):
        # u - r^2/2 - (a/2) log r -> a/4 + (a/2) log 2, remainder O(r^-2)
        r = 1e3
        u, _, _ = radial_ma_reference(2.0, np.array([r]))
        c = float(u[0]) - 0.5 * r * r - np.log(r)
        assert abs(c - (0.5 + np.log(2.0))) <= 1e-6

    def test_derivative_consistency(self):
        r = np.linspace(1.0, 8.0, 2001)
        u, up, upp = radial_ma_reference(1.5, r)
        dr = r[1] - r[0]
        mid_up = (u[2:] - u[:-2]) / (2.0 * dr)
        assert np.max(np.abs(mid_up - up[1:-1])) <= 5e-6
        mid_upp = (up[2:] - up[:-2]) / (2.0 * dr)
        assert np.max(np.abs(mid_upp - upp[1:-1])) <= 5e-6

    def test_input_validation(self):
        with pytest.raises(ValueError, match="singular-input"):
            radial_ma_reference(-0.5, 2.0)
        with pytest.raises(ValueError, match="invalid-radii"):
            radial_ma_reference(1.0, 0.0)
        with pytest.raises(ValueError, match="invalid-radii"):
            radial_ma_reference(1.0, np.array([1.0, -2.0]))


@settings(max_examples=25, deadline=None)
@given(spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]), n_r=st.integers(9, 33),
       n_q=st.integers(8, 16).map(lambda k: 2 * k), r_outer=st.sampled_from([2.0, 64.0]),
       seed=st.integers(0, 2**32 - 1))
def test_the_linear_operator_is_the_hessian_contracted_with_its_coefficients(
        spacing, n_r, n_q, r_outer, seed):
    # Newton's correction solves with the nine-point operator of F'(D^2 u)
    # and its residual reads F(hessian(u)): on every interior ring, the
    # operator applied to u (boundary rings included) must be
    # a11 m11 + 2 a12 m12 + a22 m22 of hessian(u), to rounding in |A||u|
    rng = np.random.default_rng(seed)
    g = build_grid(1.0, r_outer, n_r, n_q, spacing)
    a11, a22 = rng.uniform(0.1, 10.0, (2, *g.shape))
    a12 = 0.9 * np.sqrt(a11 * a22) * rng.uniform(-1.0, 1.0, g.shape)
    u = rng.standard_normal(g.shape)
    coeffs = LinearCoefficients(g, a11, a12, a22)
    applied, size = np.zeros((n_r - 2, n_q)), np.zeros((n_r - 2, n_q))
    for di, dj, wgt in elliptic._nine_point(coeffs):
        term = wgt * np.roll(u[1 + di:n_r - 1 + di], -dj, axis=1)
        applied += term
        size += np.abs(term)
    h = hessian(ScalarField(g, u))
    contracted = (a11 * h.m11 + 2.0 * a12 * h.m12 + a22 * h.m22)[1:-1]
    assert np.all(np.abs(applied - contracted) <= 32.0 * np.finfo(float).eps * size)


class TestNewtonSolve:
    def test_affine_operator_lands_on_linear_solve(self):
        # F(M) = tr M - 2: the first full step reproduces the direct solve,
        # any further step only polishes rounding
        grid = build_grid(1.0, 4.0, 33, 32)
        spec = FullyNonlinearSpec(
            name="trace-shift",
            evaluate=lambda m11, m12, m22: m11 + m22 - 2.0,
            derivative=lambda m11, m12, m22: (
                np.ones_like(m11), np.zeros_like(m12), np.ones_like(m22)),
        )

        def target(x1, x2):
            return 0.5 * (x1 * x1 + x2 * x2) + x1

        g_in = target(*grid.nodes())[0]
        g_out = target(*grid.nodes())[-1]
        u, trace = newton_solve(spec, grid, g_in, g_out)
        assert trace.steps[0] == 1.0
        assert trace.iterations <= 2
        coeffs = LinearCoefficients.trace_operator(grid)
        f = ScalarField(grid, np.full(grid.shape, 2.0))
        direct = solve_linear_dirichlet(coeffs, f, g_in, g_out)
        assert np.max(np.abs(u.values - direct.values)) <= 1e-9

    def test_monge_ampere_radial_family(self):
        grid = build_grid(1.0, 16.0, 128, 64)
        g_in, g_out = reference_boundary(1.0, grid)
        u, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        assert trace.residuals[-1] < 1e-10
        assert trace.iterations <= 12
        u_ref, _, _ = radial_ma_reference(1.0, grid.radii)
        assert np.max(np.abs(u.values - u_ref[:, None])) <= 2e-2

    def test_radial_monge_ampere_never_factorizes(self, monkeypatch, mode_solver_calls):
        # every linearization of a radial iterate is constant along rings,
        # so each linear solve is one factored band of the mode solver,
        # applied once, with no GMRES iteration behind it
        linear = mock.Mock(wraps=nonlinear.solve_linear_dirichlet)
        monkeypatch.setattr(nonlinear, "solve_linear_dirichlet", linear)
        grid = build_grid(1.0, 16.0, 129, 64)
        g_in, g_out = reference_boundary(2.0, grid)
        u, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        assert trace.residuals[-1] < 1e-10
        assert linear.call_count >= trace.iterations > 0
        assert mode_solver_calls.factors == mode_solver_calls.applications == linear.call_count
        u_ref, _, _ = radial_ma_reference(2.0, grid.radii)
        assert np.max(np.abs(u.values - u_ref[:, None])) <= 2e-2

    def test_radial_monge_ampere_assembles_no_matrix(self, monkeypatch):
        # the stencil arrays apply the operator and give its norm, and the
        # mode solver is exact for radial iterates, so no solve runs GMRES
        def no_krylov(*args, **kwargs):
            raise AssertionError("GMRES in a radial Newton solve")

        monkeypatch.setattr(elliptic, "_gmres_cycle", no_krylov)
        grid = build_grid(1.0, 16.0, 129, 64)
        g_in, g_out = reference_boundary(2.0, grid)
        _, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        assert trace.residuals[-1] < 1e-10

    def test_monge_ampere_second_order_under_doubling(self):
        errs = []
        for n_r, n_theta in ((65, 32), (129, 64), (257, 128)):
            grid = build_grid(1.0, 16.0, n_r, n_theta)
            g_in, g_out = reference_boundary(1.0, grid)
            u, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
            assert trace.residuals[-1] < 1e-10
            u_ref, _, _ = radial_ma_reference(1.0, grid.radii)
            errs.append(float(np.max(np.abs(u.values - u_ref[:, None]))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.8
        assert errs[-1] <= 3e-3

    def test_residuals_non_increasing(self):
        grid = build_grid(1.0, 16.0, 65, 32)
        g_in, g_out = reference_boundary(2.0, grid)
        _, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        diffs = np.diff(np.asarray(trace.residuals))
        assert np.all(diffs < 0.0)
        assert all(s in (1.0, 0.5, 0.25, 0.125) or s <= 0.125 for s in trace.steps)

    def test_converged_hessian_positive_definite(self):
        grid = build_grid(1.0, 16.0, 97, 48)
        g_in, g_out = reference_boundary(2.0, grid)
        u, _ = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        h = hessian(u)
        det = h.m11 * h.m22 - h.m12 ** 2
        assert np.all(det > 0.0)
        assert np.all(h.m11 + h.m22 > 0.0)

    def test_converged_linearization_gamma_bound(self):
        # cofactor coefficients of the radial family: gamma(r) = 1 + a/r^2
        a = 1.0
        grid = build_grid(1.0, 16.0, 129, 64)
        g_in, g_out = reference_boundary(a, grid)
        u, _ = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        h = hessian(u)
        lam, Lam, gamma = ellipticity_constants(
            h.m22[1:-1], -h.m12[1:-1], h.m11[1:-1])
        assert lam > 0.0
        assert gamma <= (1.0 + a) + 0.05

    def test_special_lagrangian_matches_monge_ampere(self):
        grid = build_grid(1.0, 16.0, 129, 64)
        g_in, g_out = reference_boundary(1.0, grid)
        u_ma, _ = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        u_sl, trace = newton_solve(special_lagrangian_spec(np.pi / 2), grid, g_in, g_out)
        assert trace.residuals[-1] < 1e-10
        assert np.max(np.abs(u_ma.values - u_sl.values)) <= 1e-8

    def test_zero_iterations_when_already_converged(self):
        # r^2/2 is stencil-exact on the uniform spacing, so the start is a
        # discrete root and the loop never runs
        grid = build_grid(1.0, 4.0, 33, 24, spacing=UNIFORM_RADIAL)
        vals = 0.5 * grid.radii[:, None] ** 2 * np.ones((1, grid.n_theta))
        u0 = ScalarField(grid, vals)
        g_in = float(0.5 * grid.radii[0] ** 2)
        g_out = float(0.5 * grid.radii[-1] ** 2)
        u, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out, u0=u0)
        assert trace.iterations == 0
        assert trace.residuals[0] <= 1e-11
        assert np.max(np.abs(u.values - vals)) <= 1e-13

    @pytest.mark.parametrize("spec", [monge_ampere_spec(), special_lagrangian_spec(np.pi / 2)],
                             ids=["monge-ampere", "special-lagrangian"])
    def test_each_iterate_is_linearized_once(self, spec):
        # the linearization that admits a trial step serves the next
        # correction and the final branch check: n iterations, n + 1 calls
        derivative = mock.Mock(wraps=spec.derivative)
        grid = build_grid(1.0, 16.0, 65, 32)
        g_in, g_out = reference_boundary(1.0, grid)
        _, trace = newton_solve(dataclasses.replace(spec, derivative=derivative),
                                grid, g_in, g_out)
        assert trace.iterations >= 3
        assert derivative.call_count == trace.iterations + 1

    @pytest.mark.parametrize("u0", [None, "converged"], ids=["iterated", "converged-start"])
    def test_trace_carries_the_hessian_of_the_returned_iterate(self, u0):
        # the Hessian the last residual was formed from, to the bit; a start
        # that is already a discrete root returns its own
        grid = build_grid(1.0, 4.0, 33, 24, spacing=UNIFORM_RADIAL)
        start = None
        if u0 is not None:
            start = ScalarField(grid, 0.5 * grid.radii[:, None] ** 2 * np.ones((1, grid.n_theta)))
        g_in, g_out = reference_boundary(1.0, grid) if u0 is None else (0.5, 8.0)
        u, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out, u0=start)
        assert (trace.iterations == 0) == (u0 is not None)
        h = hessian(u)
        for name in ("m11", "m12", "m22"):
            assert getattr(trace.hessian, name).tobytes() == getattr(h, name).tobytes()

    def test_coefficient_rows_are_formed_only_for_a_correction(self):
        # the branch test needs only the smallest eigenvalue; the clamped,
        # padded rows are formed once per solved correction
        grid = build_grid(1.0, 16.0, 65, 32)
        g_in, g_out = reference_boundary(1.0, grid)
        with mock.patch.object(nonlinear, "_coefficient_rows",
                               wraps=nonlinear._coefficient_rows) as rows:
            _, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
        assert trace.iterations >= 3
        assert rows.call_count == trace.iterations

    @pytest.mark.parametrize("entry", ["a11", "a12", "a22"])
    def test_a_non_finite_linearization_never_reaches_the_mode_solver(self, monkeypatch, entry):
        # Newton checks each linearization once, on its eigenvalues; an entry
        # that is not finite fails that check and the coefficients' own, and
        # the solve never starts
        ma = monge_ampere_spec()

        def derivative(m11, m12, m22):
            entries = [np.array(a, dtype=float) for a in ma.derivative(m11, m12, m22)]
            entries[("a11", "a12", "a22").index(entry)][5, 3] = np.nan
            return tuple(entries)

        solver = mock.Mock(wraps=elliptic._polar_mode_solver)
        monkeypatch.setattr(elliptic, "_polar_mode_solver", solver)
        grid = build_grid(1.0, 4.0, 33, 32)
        g_in, g_out = reference_boundary(1.0, grid)
        spec = FullyNonlinearSpec("nan-at-one-node", ma.evaluate, derivative)
        with pytest.raises(ValueError, match=f"^singular-input: non-finite entries in {entry}$"):
            newton_solve(spec, grid, g_in, g_out)
        solver.assert_not_called()

    def test_the_wide_solve_holds_few_full_grid_arrays(self):
        # one correction forms each full-grid array once and frees it when
        # it is no longer read: about 21.5 arrays of 8 n_r n_theta bytes at
        # the peak of the whole solve, pinned with about 15% to spare for
        # other numpy and scipy versions
        grid = build_grid(1.0, 64.0, 513, 128)
        g_in, g_out = reference_boundary(2.0, grid)
        newton_solve(monge_ampere_spec(), grid, g_in, g_out)  # imports done first
        tracemalloc.start()
        try:
            _, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations >= 3
        assert peak <= 25 * 8 * grid.n_r * grid.n_theta

    def test_no_admissible_step_below_rounding(self):
        # no step lowers the residual once it sits at rounding level
        grid = build_grid(1.0, 16.0, 65, 32)
        g_in, g_out = reference_boundary(1.0, grid)
        with pytest.raises(NewtonError, match="max-iters-exceeded: no admissible step "
                                              "at iteration") as info:
            newton_solve(monge_ampere_spec(), grid, g_in, g_out, tol=1e-300)
        assert info.value.trace.residuals[-1] < 1e-10

    def test_max_iters_exceeded_carries_trace(self):
        grid = build_grid(1.0, 16.0, 65, 32)
        g_in, g_out = reference_boundary(1.0, grid)
        with pytest.raises(NewtonError, match="max-iters-exceeded") as info:
            newton_solve(monge_ampere_spec(), grid, g_in, g_out, max_iters=1)
        assert len(info.value.trace.residuals) == 2
        assert len(info.value.trace.steps) == 1

    def test_ellipticity_lost_on_hyperbolic_operator(self):
        # indefinite derivative everywhere: the iteration can only stall or
        # converge off the elliptic branch, both of which must raise
        grid = build_grid(1.0, 4.0, 17, 16)
        spec = FullyNonlinearSpec(
            name="hyperbolic",
            evaluate=lambda m11, m12, m22: m11 - m22,
            derivative=lambda m11, m12, m22: (
                np.ones_like(m11), np.zeros_like(m12), -np.ones_like(m22)),
        )
        with pytest.raises(NewtonError, match="ellipticity-lost") as info:
            newton_solve(spec, grid, 0.0, 0.0, max_iters=60)
        assert len(info.value.trace.residuals) >= 1

    def test_converged_off_the_elliptic_branch_raises(self):
        # -|x|^2/2 has det D^2 u = 1 exactly on a uniform grid, but its
        # Hessian -I is on the concave branch: the start is already converged
        grid = build_grid(1.0, 4.0, 33, 16, UNIFORM_RADIAL)
        u0 = ScalarField(grid, -0.5 * grid.radii[:, None] ** 2 * np.ones((1, grid.n_theta)))
        with pytest.raises(NewtonError, match="ellipticity-lost: converged with "
                                              "linearization eigenvalue .* off the "
                                              "elliptic branch") as info:
            newton_solve(monge_ampere_spec(), grid, u0.values[0], u0.values[-1], u0=u0)
        assert info.value.trace.iterations == 0
        assert info.value.trace.residuals[0] <= 1e-10

    def test_concave_start_recovers_convex_branch(self):
        # the radial lift of the boundary mismatch plus the clamped step
        # computation walk a concave start back onto the convex branch
        grid = build_grid(1.0, 4.0, 33, 24)
        g_in, g_out = reference_boundary(1.0, grid)
        vals = -0.5 * grid.radii[:, None] ** 2 * np.ones((1, grid.n_theta))
        u0 = ScalarField(grid, vals)
        u, trace = newton_solve(monge_ampere_spec(), grid, g_in, g_out,
                                u0=u0, max_iters=80)
        assert trace.residuals[-1] <= 1e-10
        h = hessian(u)
        assert np.all(h.m11 * h.m22 - h.m12 ** 2 > 0.0)
        assert np.all(h.m11 + h.m22 > 0.0)

    def test_input_validation(self):
        grid = build_grid(1.0, 4.0, 33, 24)
        other = build_grid(1.0, 4.0, 25, 24)
        spec = monge_ampere_spec()
        u0 = ScalarField(other, np.ones(other.shape))
        with pytest.raises(ValueError, match="invalid-dimension"):
            newton_solve(spec, grid, 0.0, 0.0, u0=u0)
        with pytest.raises(ValueError, match="singular-input"):
            newton_solve(spec, grid, 0.0, 0.0, tol=-1.0)
        with pytest.raises(ValueError, match="singular-input"):
            newton_solve(spec, grid, 0.0, 0.0, max_iters=0)
        with pytest.raises(ValueError, match="invalid-dimension"):
            newton_solve(spec, grid, np.zeros(7), 0.0)
        with pytest.raises(TypeError, match="invalid-dimension: grid must be an AnnularGrid"):
            newton_solve(spec, (1.0, 4.0, 33, 24), 0.0, 0.0)
