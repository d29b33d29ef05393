import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulab import expansion as expansion_module
from annulab.expansion import (
    BootstrapSchedule,
    ExpansionCoefficients,
    LaurentCoefficients,
    bootstrap_schedule,
    d_from_divergence,
    far_field,
    fit_expansion,
    formula_schedule,
    hessian_limit,
    laurent_coefficients,
    window_slices,
)
from annulab.grid import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    ScalarField,
    _measure_weights,
    _polar_laplacian,
    _radial_slope,
    _theta_derivative,
    annulus_integral,
    build_grid,
    gradient,
    hessian,
    laplacian,
    ring_index,
)
from annulab.nonlinear import monge_ampere_spec, newton_solve, radial_ma_reference
from annulab.qcmap import dilatation_field, holder_exponent

C_LOG = 0.5 + math.log(2.0)  # constant term of the radial family at a = 2

STANDARD_WINDOWS = [(4.0, 8.0), (8.0, 16.0), (16.0, 32.0), (32.0, 64.0)]


def radial_field(grid, a):
    vals = radial_ma_reference(a, grid.radii)[0][:, None] * np.ones(grid.n_theta)
    return ScalarField(grid, vals)


def basis_field(grid, coef):
    x1, x2 = grid.nodes()
    rsq = x1 * x1 + x2 * x2
    vals = (0.5 * coef[0] * x1 * x1 + coef[1] * x1 * x2 + 0.5 * coef[2] * x2 * x2
            + coef[3] * x1 + coef[4] * x2 + 0.5 * coef[5] * np.log(rsq)
            + coef[6] + coef[7] * x1 / rsq + coef[8] * x2 / rsq)
    return ScalarField(grid, vals)


@pytest.fixture(scope="module")
def log_grid():
    return build_grid(1.0, 64.0, 193, 64)


@pytest.fixture(scope="module")
def criterion_grid():
    return build_grid(1.0, 64.0, 256, 128)


@pytest.fixture(scope="module")
def contour_grid():
    # 43 rings per octave puts every power of two on a ring
    return build_grid(1.0, 64.0, 259, 128)


class TestTypes:
    def test_expansion_coefficients_validation(self):
        fit = fit_expansion(
            basis_field(build_grid(1.0, 64.0, 193, 16), np.zeros(9)), STANDARD_WINDOWS
        )
        with pytest.raises(ValueError, match="invalid-dimension"):
            ExpansionCoefficients(np.eye(3), np.zeros(2), 0.0, 0.0, np.zeros(2), fit.residual_fit)
        with pytest.raises(ValueError, match="singular-input"):
            ExpansionCoefficients(np.eye(2), np.zeros(2), math.nan, 0.0, np.zeros(2),
                                  fit.residual_fit)

    def test_laurent_properties(self):
        lc = LaurentCoefficients(np.array([1.0 - 2.0j, 3.0 + 4.0j]), 8.0)
        assert np.allclose(lc.b, [1.0, 2.0])
        assert lc.d == 3.0

    def test_laurent_coefficients_are_one_dimensional(self):
        with pytest.raises(ValueError, match="invalid-dimension: coefficients must be a 1-d"):
            LaurentCoefficients(np.ones((2, 2), dtype=complex), 8.0)

    def test_laurent_d_needs_first_order(self):
        lc = LaurentCoefficients(np.array([1.0 + 0.0j]), 8.0)
        with pytest.raises(ValueError, match="invalid-dimension"):
            lc.d

    def test_bootstrap_schedule_identity_enforced(self):
        BootstrapSchedule(alpha=0.5, epsilon=0.0625, n=1, delta=0.0625)
        with pytest.raises(ValueError, match="singular-input"):
            BootstrapSchedule(alpha=0.5, epsilon=0.0625, n=1, delta=0.07)
        with pytest.raises(ValueError, match="singular-input"):
            BootstrapSchedule(alpha=0.5, epsilon=0.7, n=1, delta=0.0625)
        with pytest.raises(ValueError, match="singular-input"):
            BootstrapSchedule(alpha=1.2, epsilon=0.1, n=1, delta=0.0625)
        with pytest.raises(ValueError, match="singular-input"):
            BootstrapSchedule(alpha=0.3, epsilon=0.29, n=-1, delta=0.06)

    def test_bootstrap_schedule_delta_below_one_eighth(self):
        # consistent with the identity, 1 - 2 * 0.5 + 0.25 = 0.25, but too large
        with pytest.raises(ValueError, match=r"singular-input: delta must lie in \(0, 1/8\)"):
            BootstrapSchedule(alpha=0.5, epsilon=0.25, n=1, delta=0.25)


class TestFitExpansion:
    def test_exact_on_basis_member(self, log_grid):
        target = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 3.0, 1.0, 0.0])
        fit = fit_expansion(basis_field(log_grid, target), STANDARD_WINDOWS)
        assert np.max(np.abs(fit.A - np.eye(2))) <= 1e-10
        assert np.max(np.abs(fit.b)) <= 1e-10
        assert abs(fit.d - 1.0) <= 1e-10
        assert abs(fit.c - 3.0) <= 1e-10
        assert np.max(np.abs(fit.e - [1.0, 0.0])) <= 1e-10
        assert fit.residual_fit.exponent == math.inf

    def test_exact_on_random_combination(self, log_grid):
        rng = np.random.default_rng(7)
        target = rng.standard_normal(9)
        fit = fit_expansion(basis_field(log_grid, target), STANDARD_WINDOWS)
        recovered = np.array([fit.A[0, 0], fit.A[0, 1], fit.A[1, 1], *fit.b,
                              fit.d, fit.c, *fit.e])
        assert np.max(np.abs(recovered - target)) <= 1e-9

    def test_exact_on_uniform_grid(self):
        grid = build_grid(1.0, 33.0, 129, 32, spacing=UNIFORM_RADIAL)
        target = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        fit = fit_expansion(basis_field(grid, target),
                            [(2, 6), (6, 12), (12, 24), (16, 32)])
        assert abs(fit.d - 1.0) <= 1e-10
        assert fit.residual_fit.exponent == math.inf

    def test_radial_family_coefficients(self, criterion_grid):
        u = radial_field(criterion_grid, 2.0)
        fit = fit_expansion(u, STANDARD_WINDOWS)
        assert abs(fit.d - 1.0) <= 1e-3
        assert abs(fit.c - C_LOG) <= 1e-2
        assert np.max(np.abs(fit.A - np.eye(2))) <= 1e-6
        assert np.max(np.abs(fit.b)) <= 1e-10
        assert np.max(np.abs(fit.e)) <= 1e-8
        assert fit.residual_fit.exponent >= 1.0

    def test_solved_field_coefficients(self):
        # fine grid so the Dirichlet-problem discretization error does not
        # leak an artificial log component into the far field
        grid = build_grid(1.0, 64.0, 2048, 64)
        gin = radial_ma_reference(2.0, 1.0)[0] * np.ones(grid.n_theta)
        gout = radial_ma_reference(2.0, 64.0)[0] * np.ones(grid.n_theta)
        u, _ = newton_solve(monge_ampere_spec(), grid, gin, gout, tol=1e-6)
        fit = fit_expansion(u, STANDARD_WINDOWS)
        assert abs(fit.d - 1.0) <= 1e-3
        assert abs(fit.c - C_LOG) <= 1e-2
        assert np.max(np.abs(fit.A - np.eye(2))) <= 1e-4
        assert np.max(np.abs(fit.b)) <= 1e-8
        assert np.max(np.abs(fit.e)) <= 1e-8
        assert fit.residual_fit.exponent >= 1.0

    def test_needs_three_windows(self, log_grid):
        u = basis_field(log_grid, np.zeros(9))
        with pytest.raises(ValueError, match="insufficient-window"):
            fit_expansion(u, [(4, 8), (8, 16)])

    def test_thin_window_rejected(self, log_grid):
        u = basis_field(log_grid, np.zeros(9))
        with pytest.raises(ValueError, match="insufficient-window"):
            fit_expansion(u, [(4, 8), (8, 16), (63, 64)])

    def test_window_beyond_grid_rejected(self, log_grid):
        u = basis_field(log_grid, np.zeros(9))
        with pytest.raises(ValueError, match="window-outside-grid"):
            fit_expansion(u, [(4, 8), (8, 16), (64, 128)])

    def test_window_edges_within_rounding_of_the_grid_are_accepted(self, log_grid):
        # 5e-13 relative beyond r_inner and r_outer: the edges snap to the end rings
        u = basis_field(log_grid, np.arange(1.0, 10.0))
        near = fit_expansion(u, [(1.0 - 5e-13, 8), (8, 16), (16, 64.0 * (1.0 + 5e-13))])
        exact = fit_expansion(u, [(1, 8), (8, 16), (16, 64)])
        assert np.array_equal(near.A, exact.A) and near.d == exact.d and near.c == exact.c

    def test_reversed_window_is_reported_empty(self, log_grid):
        u = basis_field(log_grid, np.zeros(9))
        with pytest.raises(ValueError, match=r"window-outside-grid: empty window \[16.0, 8.0\]"):
            fit_expansion(u, [(4, 8), (16, 8), (16, 32)])

    def test_ill_conditioned_window_rejected(self, monkeypatch):
        # a shell this thin at r = 1 makes x and x/|x|^2 collide; the
        # condition guard fires once the limit reflects that degeneracy
        grid = build_grid(1.0, 2.0, 4097, 16)
        u = basis_field(grid, np.array([1.0, 0, 1.0, 0, 0, 0, 0, 0, 0]))
        windows = [(1.1, 1.4), (1.4, 1.8), (1.0, 1.002)]
        fit_expansion(u, windows)
        monkeypatch.setattr(expansion_module, "_CONDITION_LIMIT", 1e5)
        with pytest.raises(ValueError, match="ill-conditioned-window"):
            fit_expansion(u, windows)


class TestHessianLimit:
    def test_log_perturbation_decay(self):
        grid = build_grid(1.0, 32.0, 385, 256)
        x1, x2 = grid.nodes()
        u = ScalarField(grid, 0.5 * (x1 * x1 + 2.0 * x2 * x2)
                        + 0.5 * np.log(x1 * x1 + x2 * x2))
        fit = hessian_limit(hessian(u), [(2, 4), (4, 8), (8, 16), (16, 32)])
        assert np.max(np.abs(fit.limit - np.diag([1.0, 2.0]))) <= 5e-4
        assert abs(fit.exponent - 2.0) <= 0.05
        assert fit.r_squared >= 0.999

    def test_radial_family_decay(self, criterion_grid):
        u = radial_field(criterion_grid, 2.0)
        fit = hessian_limit(hessian(u), [(2, 4), (4, 8), (8, 16), (16, 32)])
        assert np.max(np.abs(fit.limit - np.eye(2))) <= 5e-4
        assert abs(fit.exponent - 2.0) <= 0.2
        rep = dilatation_field(gradient(u))
        assert fit.exponent >= holder_exponent(rep.K_min)

    def test_synthetic_fractional_decay(self, log_grid):
        x1, x2 = log_grid.nodes()
        rsq = x1 * x1 + x2 * x2
        u = ScalarField(log_grid, 0.5 * rsq + rsq ** 0.8)
        fit = hessian_limit(hessian(u), [(2, 4), (4, 8), (8, 16), (16, 32), (32, 64)])
        assert abs(fit.exponent - 0.4) <= 0.05 * 0.4

    def test_degenerate_on_exact_quadratic(self):
        grid = build_grid(1.0, 33.0, 129, 32, spacing=UNIFORM_RADIAL)
        x1, x2 = grid.nodes()
        u = ScalarField(grid, 0.5 * (x1 * x1 + x2 * x2))
        fit = hessian_limit(hessian(u), [(2, 6), (6, 12), (12, 24), (16, 32)])
        assert np.max(np.abs(fit.limit - np.eye(2))) <= 1e-12
        assert fit.exponent == math.inf


class TestLaurentCoefficients:
    def test_log_radius_16(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, 0.5 * np.log(x1 * x1 + x2 * x2))
        lc = laurent_coefficients(u, 16.0, 4)
        expected = np.zeros(5, dtype=complex)
        expected[1] = 1.0
        assert np.max(np.abs(lc.coefficients - expected)) <= 1e-10
        assert lc.d == pytest.approx(1.0, abs=1e-10)

    def test_coordinate_functions(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        lc1 = laurent_coefficients(ScalarField(contour_grid, x1), 16.0, 4)
        assert abs(lc1.coefficients[0] - 1.0) <= 1e-10
        assert np.max(np.abs(lc1.b - [1.0, 0.0])) <= 1e-10
        lc2 = laurent_coefficients(ScalarField(contour_grid, x2), 16.0, 4)
        assert abs(lc2.coefficients[0] + 1.0j) <= 1e-10
        assert np.max(np.abs(lc2.b - [0.0, 1.0])) <= 1e-10

    def test_inverse_pole(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, x1 / (x1 * x1 + x2 * x2))
        lc = laurent_coefficients(u, 16.0, 4)
        assert abs(lc.coefficients[2] + 1.0) <= 1e-10
        others = np.delete(lc.coefficients, 2)
        assert np.max(np.abs(others)) <= 1e-10

    def test_real_harmonic_combination(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        rsq = x1 * x1 + x2 * x2
        u = ScalarField(contour_grid, np.log(rsq) + x1 + 0.5 * x2 / rsq
                        + 0.01 * (x1 * x1 - x2 * x2))
        lc = laurent_coefficients(u, 16.0, 4)
        assert abs(lc.d - 2.0) <= 1e-9
        assert np.max(np.abs(lc.b - [1.0, 0.0])) <= 1e-9
        assert abs(lc.coefficients[2] - (-0.5j)) <= 1e-9
        assert abs(lc.coefficients[1].imag) <= 1e-8

    def test_large_amplitude_harmonic_passes_diagnostic(self, contour_grid):
        # tolerance is relative to the field scale, so r^2 cos(2 theta)
        # passes even though its absolute discrete Laplacian is sizable
        x1, x2 = contour_grid.nodes()
        lc = laurent_coefficients(ScalarField(contour_grid, x1 * x1 - x2 * x2), 16.0, 2)
        assert np.max(np.abs(lc.coefficients)) <= 1e-9

    def test_rejects_non_harmonic(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, (x1 * x1 + x2 * x2) ** 1.5)
        with pytest.raises(ValueError, match="not-harmonic"):
            laurent_coefficients(u, 16.0, 2)

    def test_harmonic_check_reads_the_full_grid_laplacian(self, contour_grid, monkeypatch):
        # the check differences rings i-2 .. i+2 only, yet reads on rings
        # i-1 .. i+1 exactly the values laplacian(u) gives there
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, np.log(x1 * x1 + x2 * x2) + x1 + 1e-3 * x2 ** 3)
        i = ring_index(contour_grid, 16.0)
        seen, original = [], expansion_module._laplacian_rows

        def recorded(field, rows):
            band = original(field, rows)
            seen.append(band[1:-1])
            return band

        monkeypatch.setattr(expansion_module, "_laplacian_rows", recorded)
        laurent_coefficients(u, 16.0, 2, harmonic_tol=1.0)
        assert len(seen) == 1
        assert np.array_equal(seen[0], laplacian(u).values[i - 1:i + 2])

    def test_reads_only_the_seven_rings_about_the_contour(self, contour_grid):
        # the report's Laurent cross-check forms u - x'Ax/2 - b.x on these rings alone
        x1, x2 = contour_grid.nodes()
        vals = np.log(x1 * x1 + x2 * x2) + x1 - 0.3 * x2 / (x1 * x1 + x2 * x2)
        i = ring_index(contour_grid, 16.0)
        cut = np.full(contour_grid.shape, np.nan)
        cut[i - 3:i + 4] = vals[i - 3:i + 4]
        full = laurent_coefficients(ScalarField(contour_grid, vals), 16.0, 3)
        seven = laurent_coefficients(ScalarField(contour_grid, cut, allow_nonfinite=True),
                                     16.0, 3)
        assert np.array_equal(seven.coefficients, full.coefficients)

    @pytest.mark.parametrize("offset", range(-4, 5))
    def test_harmonic_check_sees_a_defect_as_the_full_laplacian_does(self, contour_grid,
                                                                     offset):
        # a bump on ring i + offset moves the Laplacian on rings
        # i + offset - 1 .. i + offset + 1: the check must fire exactly when
        # one of those meets rings i-1 .. i+1, the ring-local band's edges included
        x1, _ = contour_grid.nodes()
        i = ring_index(contour_grid, 16.0)
        vals = x1.copy()
        vals[i + offset] += 1e-3
        u = ScalarField(contour_grid, vals)
        worst = np.max(np.abs(laplacian(u).values[i - 1:i + 2]))
        flagged = worst > 1e-4 * (1.0 + np.max(np.abs(vals[i - 3:i + 4])))
        assert flagged == (abs(offset) <= 2)
        if flagged:
            with pytest.raises(ValueError, match="not-harmonic"):
                laurent_coefficients(u, 16.0, 2)
        else:
            laurent_coefficients(u, 16.0, 2)

    def test_stencil_margin_enforced(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, x1)
        with pytest.raises(ValueError, match="window-outside-grid"):
            laurent_coefficients(u, 1.0, 2)
        with pytest.raises(ValueError, match="window-outside-grid"):
            laurent_coefficients(u, 64.0, 2)

    def test_radius_must_be_on_grid(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, x1)
        with pytest.raises(ValueError, match="radius-not-on-grid"):
            laurent_coefficients(u, 16.5, 2)

    def test_max_order_limited_by_sectors(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, x1)
        with pytest.raises(ValueError, match="invalid-dimension"):
            laurent_coefficients(u, 16.0, 64)


def divergence_rounding_floor(grid, R, magnitude):
    """eps sum_i |g_i| magnitude_i, with d_from_divergence = sum_i g_i w_i in the ring means w_i.

    The identity is linear in the ring means of w = u - x'Ax/2, so a
    rounding of at most eps magnitude_i in ring i's values moves d by at
    most eps sum_i |g_i| magnitude_i.  The gains g_i come from the flux and
    area terms' stencils: up to about 7/dt near R, where the area term
    telescopes to the outer ring's slope.
    """
    gains = [d_from_divergence(ScalarField(grid, np.outer(ring, np.ones(grid.n_theta))),
                               np.zeros((2, 2)), R) for ring in np.eye(grid.n_r)]
    return np.finfo(float).eps * float(np.sum(np.abs(gains) * magnitude))


class TestDivergenceD:
    # the fields are built from radii^2 broadcast over theta, so they round
    # independently of the x'Ax/2 that d_from_divergence subtracts.  The
    # field and the subtracted x'Ax/2 each round a node within an ulp of
    # r^2/2 (their difference reads at most 1.14 eps r^2/2 on this grid), so
    # d is exact to 2 divergence_rounding_floor with magnitude r^2/2, 1.3e-9
    # here: eps max|x'Ax/2| / dt = 2.8e-11 amplified by the stencils' gains.
    # Measured: 1.1e-11 and 3.9e-11
    def test_pure_quadratic_gives_zero(self, contour_grid):
        r2 = np.broadcast_to(contour_grid.radii[:, None] ** 2, contour_grid.shape)
        u = ScalarField(contour_grid, 0.5 * r2)
        floor = divergence_rounding_floor(contour_grid, 64.0, 0.5 * contour_grid.radii ** 2)
        assert abs(d_from_divergence(u, np.eye(2), 64.0)) <= 2.0 * floor

    def test_quadratic_plus_log_gives_one(self, contour_grid):
        g = contour_grid
        u = ScalarField(g, np.broadcast_to(0.5 * g.radii[:, None] ** 2 + g.log_radii[:, None],
                                           g.shape))
        floor = divergence_rounding_floor(g, 64.0, 0.5 * g.radii ** 2 + g.log_radii)
        d, info = d_from_divergence(u, np.eye(2), 64.0, full_output=True)
        assert abs(d - 1.0) <= 2.0 * floor
        assert abs(info["flux_term"] - 2.0 * math.pi) <= 1e-9
        assert abs(info["area_term"]) <= 2.0 * math.pi * 2.0 * floor
        assert d == pytest.approx((info["flux_term"] + info["area_term"]) / (2 * math.pi))

    def test_anisotropic_quadratic_with_lower_order_terms(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        rsq = x1 * x1 + x2 * x2
        A = np.array([[1.3, 0.2], [0.2, 0.8]])
        vals = (0.5 * (A[0, 0] * x1 * x1 + A[1, 1] * x2 * x2) + A[0, 1] * x1 * x2
                + 2.0 * x1 - x2 + 0.5 * np.log(rsq) + x1 / rsq)
        d = d_from_divergence(ScalarField(contour_grid, vals), A, 64.0, extrapolate=True)
        assert abs(d - 1.0) <= 1e-9

    def test_radial_family_with_extrapolation(self, criterion_grid):
        for a in (1.0, 2.0):
            u = radial_field(criterion_grid, a)
            raw, info = d_from_divergence(u, np.eye(2), 64.0, full_output=True)
            assert abs(raw - a / 2) <= a * a / (8.0 * 64.0 ** 2) + 5e-5
            d = d_from_divergence(u, np.eye(2), 64.0, extrapolate=True)
            assert abs(d - a / 2) <= 1e-5

    def test_r_stability(self, criterion_grid):
        u = radial_field(criterion_grid, 2.0)
        radii = criterion_grid.radii
        for i, j in [(128, 170), (170, 213), (213, 255)]:
            d_lo = d_from_divergence(u, np.eye(2), float(radii[i]))
            d_hi = d_from_divergence(u, np.eye(2), float(radii[j]))
            assert abs(d_lo - d_hi) <= 0.1 / float(radii[i])

    def test_extrapolation_reports_truncation(self, criterion_grid):
        u = radial_field(criterion_grid, 2.0)
        d, info = d_from_divergence(u, np.eye(2), 64.0, extrapolate=True,
                                    full_output=True)
        assert info["pair_radius"] == pytest.approx(32.0, rel=0.05)
        assert abs(info["truncation"] - (d - info["raw"])) <= 1e-15
        assert abs(info["truncation"]) >= 5e-5

    def test_input_validation(self, contour_grid):
        x1, x2 = contour_grid.nodes()
        u = ScalarField(contour_grid, 0.5 * (x1 * x1 + x2 * x2))
        with pytest.raises(ValueError, match="invalid-dimension"):
            d_from_divergence(u, np.eye(3), 64.0)
        with pytest.raises(ValueError, match="invalid-dimension"):
            d_from_divergence(u, np.array([[1.0, 0.5], [0.0, 1.0]]), 64.0)
        with pytest.raises(ValueError, match="singular-input"):
            d_from_divergence(u, np.full((2, 2), np.nan), 64.0)
        with pytest.raises(ValueError, match="radius-not-on-grid"):
            d_from_divergence(u, np.eye(2), 63.0)
        with pytest.raises(ValueError, match="window-outside-grid"):
            d_from_divergence(u, np.eye(2), 1.0)
        with pytest.raises(ValueError, match="window-outside-grid"):
            d_from_divergence(u, np.eye(2), float(contour_grid.radii[3]),
                              extrapolate=True)


class TestBootstrapSchedule:
    def test_property_over_random_alphas(self):
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(0.01, 0.99, 1000):
            s = bootstrap_schedule(float(alpha))
            assert 0.0 < s.delta < 0.125
            assert 0.0 < s.epsilon < s.alpha
            assert s.n >= 0

    def test_half_needs_one_doubling(self):
        s = bootstrap_schedule(0.5)
        assert s.n == 1
        assert s.epsilon == pytest.approx(0.0625)
        assert s.delta == pytest.approx(0.0625)

    def test_large_alpha_needs_none(self):
        s = bootstrap_schedule(0.9)
        assert s.n == 0
        assert s.delta == pytest.approx(0.1)

    def test_counterexample_alpha_gets_valid_schedule(self):
        alpha = 2.0 - math.sqrt(3.0)
        s = bootstrap_schedule(alpha)
        assert s.n == 2
        assert s.epsilon == pytest.approx((4.0 * alpha - 0.9375) / 3.0, abs=1e-15)
        assert s.delta == pytest.approx(0.0625, abs=1e-12)

    def test_published_formula_counterexample(self):
        # the closed-form doubling count produces an inadmissible delta here
        n, delta = formula_schedule(2.0 - math.sqrt(3.0), 0.02)
        assert n == 2
        assert delta < 0.0
        assert delta == pytest.approx(-0.011796769724, abs=1e-9)

    def test_published_formula_on_benign_input(self):
        n, delta = formula_schedule(0.5, 0.1)
        assert n == 1
        assert delta == pytest.approx(0.1, abs=1e-12)

    def test_input_validation(self):
        for bad in (0.0, 1.0, -0.3, math.nan):
            with pytest.raises(ValueError, match="singular-input"):
                bootstrap_schedule(bad)
        with pytest.raises(ValueError, match="singular-input"):
            formula_schedule(0.9, 0.02)
        with pytest.raises(ValueError, match="singular-input"):
            formula_schedule(0.5, 0.6)


class TestConsistencyTriangle:
    def test_three_estimates_agree_on_radial_family(self, criterion_grid):
        u = radial_field(criterion_grid, 2.0)
        fit = fit_expansion(u, STANDARD_WINDOWS)
        d_div = d_from_divergence(u, np.eye(2), 64.0, extrapolate=True)
        x1, x2 = criterion_grid.nodes()
        w = ScalarField(criterion_grid, u.values - 0.5 * (x1 * x1 + x2 * x2))
        contour = float(criterion_grid.radii[213])
        lc = laurent_coefficients(w, contour, 3)
        assert abs(fit.d - d_div) <= 2e-3
        assert abs(fit.d - lc.d) <= 2e-3
        assert abs(d_div - lc.d) <= 2e-3
        assert abs(lc.coefficients[1].imag) <= 1e-8


def test_spectral_theta_derivative_of_fourier_modes():
    n = 32
    theta = np.arange(n) * (2.0 * math.pi / n)
    for k in range(n // 2):
        cos, sin = np.cos(k * theta), np.sin(k * theta)
        modes = np.stack([cos, sin])  # the derivative acts along the last axis
        first = _theta_derivative(modes, 1)
        second = _theta_derivative(modes, 2)
        assert np.max(np.abs(first - np.stack([-k * sin, k * cos]))) <= 1e-13 * (1 + k)
        assert np.max(np.abs(second + k * k * modes)) <= 1e-13 * (1 + k * k)
    # the Nyquist mode: its first derivative vanishes at the nodes, the second does not
    nyquist = np.cos(n // 2 * theta)
    assert np.max(np.abs(_theta_derivative(nyquist, 1))) <= 1e-13
    second = _theta_derivative(nyquist, 2)
    assert np.max(np.abs(second + (n // 2) ** 2 * nyquist)) <= 1e-13 * (n // 2) ** 2


# ---------------------------------------------------------------------------
# The mode-wise fit and the ring-mean identity against full-grid references

EPS = np.finfo(float).eps
LSTSQ = np.linalg.lstsq


def basis_columns(grid, rings=slice(None)):
    """The fit's nine basis columns on the rings, (9, rings, n_theta): each
    radial profile times its theta-row, one product per node."""
    return expansion_module._radial_profiles(grid, rings) @ expansion_module._theta_rows(grid)


# the basis in the fit's order A11, A12, A22, b1, b2, d, c, e1, e2
CLOSED_FORMS = (
    lambda x1, x2: 0.5 * x1 * x1,
    lambda x1, x2: x1 * x2,
    lambda x1, x2: 0.5 * x2 * x2,
    lambda x1, x2: x1,
    lambda x1, x2: x2,
    lambda x1, x2: np.log(np.hypot(x1, x2)),
    lambda x1, x2: np.ones_like(x1),
    lambda x1, x2: x1 / (x1 * x1 + x2 * x2),
    lambda x1, x2: x2 / (x1 * x1 + x2 * x2),
)


@settings(max_examples=60, deadline=None)
@given(spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
       n_theta=st.sampled_from([16, 18, 64, 128]), r_inner=st.floats(0.125, 1.0),
       ratio=st.floats(8.0, 128.0), n_r=st.integers(8, 65))
def test_every_basis_column_is_its_closed_form(spacing, n_theta, r_inner, ratio, n_r):
    # a radius ratio of 8 or more keeps max|log r| above 1, where 4 ulps of
    # the column's max leave room for the closed form's own rounding
    grid = build_grid(r_inner, r_inner * ratio, n_r, n_theta, spacing)
    x1, x2 = grid.nodes()
    columns = basis_columns(grid)
    for k, closed in enumerate(CLOSED_FORMS):
        exact = closed(x1, x2)
        floor = 4.0 * np.spacing(np.max(np.abs(exact)))
        assert np.max(np.abs(columns[k] - exact)) <= floor, f"basis column {k}"
        # far_field puts coefficient k on column k
        beta = np.eye(9)[k]
        field = far_field(grid, [0, -1], [[beta[0], beta[1]], [beta[1], beta[2]]],
                          beta[3:5], beta[5], beta[6], beta[7:])
        assert np.array_equal(field, columns[k][[0, -1]]), f"far_field term {k}"


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
@pytest.mark.parametrize("n_theta", [16, 18, 64, 128])
def test_every_basis_function_is_band_limited_to_mode_two(spacing, n_theta):
    # fit_expansion keeps each ring's theta-modes 0, 1 and 2 only, which is
    # exact only while every basis column has nothing above mode 2 on a circle
    grid = build_grid(0.5, 64.0, 9, n_theta, spacing)
    for k, vals in enumerate(basis_columns(grid)):
        modes = np.abs(np.fft.rfft(vals, axis=1)) / n_theta
        floor = 4.0 * EPS * np.max(np.abs(vals), axis=1)
        assert np.all(modes[:, 3:] <= floor[:, None]), f"basis column {k}"


def reference_fit(u, windows):
    """The SVD least squares on the full design matrix, one row per window node.

    Per window: the coefficients, the column scales, the singular values and
    the 2-norm of the weighted residual.
    """
    grid = u.grid
    fits = []
    for sl in window_slices(grid, windows)[1]:
        X = basis_columns(grid, sl).reshape(9, -1).T
        scale = np.max(np.abs(X), axis=0)
        w = np.sqrt(np.repeat(_measure_weights(grid, sl), grid.n_theta))
        Xw, yw = X / scale * w[:, None], u.values[sl].ravel() * w
        beta_n, _, _, sv = LSTSQ(Xw, yw, rcond=None)
        fits.append((beta_n / scale, scale, sv, float(np.linalg.norm(Xw @ beta_n - yw))))
    return fits


def reference_divergence(u, A, R):
    """The divergence identity on every node, spectral u_qq included: the raw
    value at R, then the extrapolated one where a ring near R/2 lies above r_inner."""
    grid = u.grid
    # the quadratic's rounding is TestDivergenceD's concern: this reference
    # subtracts the same far_field values, so only the ring means differ
    w = u.values - far_field(grid, slice(None), A)
    flux = grid.r_inner * grid.dtheta * np.sum(_radial_slope(grid, w, 4, slice(0, 5))[0])
    lap = ScalarField(grid, _polar_laplacian(grid, w, 4, _theta_derivative(w, 2)))
    d1 = (flux + annulus_integral(lap, grid.r_inner, R)) / (2.0 * math.pi)
    j = int(np.argmin(np.abs(grid.radii - 0.5 * R)))
    if j < 1:
        return d1, None
    R2 = float(grid.radii[j])
    d2 = (flux + annulus_integral(lap, grid.r_inner, R2)) / (2.0 * math.pi)
    return d1, (d1 * R ** 2 - d2 * R2 ** 2) / (R ** 2 - R2 ** 2)


def coefficients(fit):
    return np.array([fit.A[0, 0], fit.A[0, 1], fit.A[1, 1], *fit.b, fit.d, fit.c, *fit.e])


def exact_least_squares(u, window):
    """The weighted least-squares coefficients of one window in exact rational arithmetic."""
    grid = u.grid
    sl = window_slices(grid, [window] * 3)[1][0]
    X = [[Fraction(float(v)) for v in col.ravel()] for col in basis_columns(grid, sl)]
    y = [Fraction(float(v)) for v in u.values[sl].ravel()]
    w = [Fraction(float(v)) for v in np.repeat(_measure_weights(grid, sl), grid.n_theta)]
    wX = [[wi * xi for wi, xi in zip(w, col)] for col in X]
    # normal equations, solved by Gauss-Jordan elimination
    rows = [[sum(a * b for a, b in zip(wc, col)) for col in X]
            + [sum(a * b for a, b in zip(wc, y))] for wc in wX]
    n = len(rows)
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return np.array([float(rows[k][n] / rows[k][k]) for k in range(n)])


def test_fit_is_the_least_squares_solution_to_rounding():
    # one solve on the data's modes leaves A up to 18 ulps and d, c 4.5e-12 and
    # 1.4e-11 from the exact solution here; the second solve, on the residual's
    # modes, brings A within an ulp and d, c within 1e-13
    grid = build_grid(1.0, 64.0, 97, 16)
    x1, x2 = grid.nodes()
    r = np.hypot(x1, x2)
    u = ScalarField(grid, 0.5 * (1.3 * x1 * x1 + 0.7 * x2 * x2) + 0.4 * x1 * x2
                    + 0.5 * np.log(r * r) + 1.2 + r ** -2.5 * x1)
    exact = exact_least_squares(u, (32.0, 64.0))
    beta = coefficients(fit_expansion(u, [(8.0, 16.0), (16.0, 32.0), (32.0, 64.0)]))
    assert np.all(np.abs(beta[:3] - exact[:3]) <= 2.0 * np.spacing(np.abs(exact[:3])))
    assert np.max(np.abs(beta[3:7] - exact[3:7])) <= 1e-12


# grids and windows of the property: a thin shell, where x and x/|x|^2 nearly
# collide, and five octaves on each spacing
SHELLS = {
    (LOG_RADIAL, "thin"): (1.0, 1.5, [(1.0, 1.1), (1.1, 1.25), (1.25, 1.5)]),
    (UNIFORM_RADIAL, "thin"): (1.0, 1.5, [(1.0, 1.1), (1.1, 1.25), (1.25, 1.5)]),
    (LOG_RADIAL, "wide"): (1.0, 32.0, [(2.0, 4.0), (4.0, 8.0), (8.0, 16.0), (16.0, 32.0)]),
    (UNIFORM_RADIAL, "wide"): (1.0, 33.0, [(2.0, 6.0), (6.0, 12.0), (12.0, 24.0),
                                           (16.0, 32.0)]),
}


@settings(max_examples=40, deadline=None)
@given(shell=st.sampled_from(sorted(SHELLS)), half_theta=st.integers(8, 64),
       n_r=st.integers(65, 161), seed=st.integers(0, 2 ** 32 - 1))
def test_mode_wise_fit_and_ring_mean_identity_match_the_full_grid(shell, half_theta, n_r,
                                                                  seed):
    rng = np.random.default_rng(seed)
    r_inner, r_outer, windows = SHELLS[shell]
    grid = build_grid(r_inner, r_outer, n_r, 2 * half_theta, shell[0])
    x1, x2 = grid.nodes()
    r, theta = np.hypot(x1, x2), np.arctan2(x2, x1)
    # a basis combination, decaying modes above 2 and a remainder in modes
    # 0, 1 and 2 that no basis column spans
    coef = rng.uniform(-2.0, 2.0, 9)
    vals = sum(c * col for c, col in zip(coef, basis_columns(grid)))
    for k in range(3, min(8, half_theta)):
        vals += rng.uniform(-1.0, 1.0) * r ** -rng.uniform(0.5, 3.0) * np.cos(
            k * theta + rng.uniform(0.0, 2.0 * math.pi))
    for k, p in zip((0, 1, 2), rng.uniform(0.3, 2.5, 3)):
        vals += rng.uniform(-1.0, 1.0) * r ** -p * np.cos(
            k * theta + rng.uniform(0.0, 2.0 * math.pi))
    u = ScalarField(grid, vals)

    solves = []

    def recorded(*args, **kwargs):
        solves.append(LSTSQ(*args, **kwargs))
        return solves[-1]

    reference = reference_fit(u, windows)
    with mock.patch.object(np.linalg, "lstsq", recorded):
        fit = fit_expansion(u, windows)
    # per window a solve on the data's modes, then one on the residual's
    assert len(solves) == 2 * len(windows)
    for first, second, (beta_ref, scale, sv_ref, resid) in zip(solves[::2], solves[1::2],
                                                              reference):
        beta_n, sv = first[0] + second[0], second[3]
        assert np.array_equal(sv, first[3])
        cond, cond_ref = sv[0] / sv[-1], sv_ref[0] / sv_ref[-1]
        assert abs(cond - cond_ref) <= 1e-8 * cond_ref
        # two solves of one least-squares problem differ by rounding that the
        # condition number amplifies, and its square times the residual
        # (Golub and Van Loan, Matrix Computations, section 5.3)
        sensitivity = cond_ref * (1.0 + np.max(np.abs(beta_ref * scale))
                                  + cond_ref * resid / sv_ref[0])
        assert np.max(np.abs(beta_n - beta_ref * scale)) <= 32.0 * EPS * sensitivity
    scale = reference[-1][1]
    assert np.array_equal(coefficients(fit), solves[-2][0] / scale + solves[-1][0] / scale)

    A = np.array([[coef[0], coef[1]], [coef[1], coef[2]]])
    R = float(grid.radii[-1])
    raw, extrapolated = reference_divergence(u, A, R)
    assert abs(d_from_divergence(u, A, R) - raw) <= 1e-10
    if extrapolated is not None:
        assert abs(d_from_divergence(u, A, R, extrapolate=True) - extrapolated) <= 1e-10
