import math
from unittest import mock

import numpy as np
import pytest

from annulab.elliptic import LinearCoefficients, solve_linear_dirichlet
from annulab.grid import PlanarMapping, ScalarField, SymMatrixField, build_grid, hessian
from annulab.nonlinear import radial_ma_reference
from annulab.qcmap import (
    dilatation_field,
    fit_power_law,
    holder_exponent,
    kelvin_conjugate,
    limit_and_decay,
    verify_kelvin_identities,
)

# exact-derivative providers: (p_1, p_2, q_1, q_2) at given nodes


def d_identity(x1, x2):
    one, zero = np.ones_like(x1), np.zeros_like(x1)
    return one, zero, zero, one


def d_zsquared(x1, x2):
    return 2 * x1, -2 * x2, 2 * x2, 2 * x1


def d_kelvin(x1, x2):
    r2 = x1 ** 2 + x2 ** 2
    return (
        (r2 - 2 * x1 ** 2) / r2 ** 2,
        -2 * x1 * x2 / r2 ** 2,
        -2 * x1 * x2 / r2 ** 2,
        (r2 - 2 * x2 ** 2) / r2 ** 2,
    )


def w_identity(g):
    return PlanarMapping.from_function(g, lambda a, b: (a, b))


def w_zsquared(g):
    return PlanarMapping.from_function(g, lambda a, b: (a * a - b * b, 2 * a * b))


def w_kelvin(g):
    return PlanarMapping.from_function(
        g, lambda a, b: (a / (a * a + b * b), b / (a * a + b * b))
    )


# ---------------------------------------------------------------------------
# holder_exponent


def test_holder_exponent_exact_values():
    assert holder_exponent(1.0) == 1.0
    assert holder_exponent(1.25) == 0.5


def test_holder_exponent_identity_1000_random():
    rng = np.random.default_rng(42)
    K = rng.uniform(1.0, 100.0, size=1000)
    alpha = holder_exponent(K)
    assert np.max(np.abs(alpha + 1.0 / alpha - 2.0 * K)) <= 1e-12
    assert np.max(np.abs(alpha * (K + np.sqrt(K * K - 1.0)) - 1.0)) <= 1e-12
    assert np.all((alpha > 0.0) & (alpha <= 1.0))


def test_holder_exponent_rejects_subunit_K():
    with pytest.raises(ValueError):
        holder_exponent(0.5)


@pytest.mark.parametrize("K", [math.nan, [2.0, math.nan]])
def test_holder_exponent_rejects_nan(K):
    with pytest.raises(ValueError, match="invalid dilatation constant"):
        holder_exponent(K)


# ---------------------------------------------------------------------------
# dilatation_field


def test_dilatation_identity_map():
    g = build_grid(1.0, 8.0, 32, 32)
    rep = dilatation_field(w_identity(g), d_identity)
    assert abs(rep.K_min - 1.0) <= 1e-12
    assert abs(rep.alpha - 1.0) <= 1e-12
    assert rep.orientation_ok
    vals = rep.K_field.values
    assert np.nanmax(np.abs(vals - 1.0)) <= 1e-12


def test_dilatation_anisotropic_stretch():
    # w = (x1, 2 x2): K = (1 + 4) / (2 * 2) = 5/4, alpha = 1/2
    g = build_grid(1.0, 8.0, 32, 32)
    w = PlanarMapping.from_function(g, lambda a, b: (a, 2 * b))
    rep = dilatation_field(w, lambda a, b: (np.ones_like(a), 0 * a, 0 * a, 2 * np.ones_like(a)))
    assert abs(rep.K_min - 1.25) <= 1e-12
    assert abs(rep.alpha - 0.5) <= 1e-12


def test_dilatation_radial_monge_ampere_local_value():
    # w = grad(|x|^2/2 + log|x|) = x (1 + 1/|x|^2); at |x| = sqrt(2) the
    # radial stretch is 1/2 and the tangential stretch 3/2, so K = 5/3
    g = build_grid(1.0, 2.0, 65, 32)  # ring 32 sits at exactly sqrt(2)
    r_mid = g.radii[32]
    assert abs(r_mid - math.sqrt(2.0)) < 1e-12

    def deriv(x1, x2):
        r2 = x1 ** 2 + x2 ** 2
        # grad components of p = x1 (1 + 1/r2), q = x2 (1 + 1/r2)
        p1 = 1 + 1 / r2 - 2 * x1 ** 2 / r2 ** 2
        p2 = -2 * x1 * x2 / r2 ** 2
        q1 = p2
        q2 = 1 + 1 / r2 - 2 * x2 ** 2 / r2 ** 2
        return p1, p2, q1, q2

    w = PlanarMapping.from_function(g, lambda a, b: (a * (1 + 1 / (a * a + b * b)), b * (1 + 1 / (a * a + b * b))))
    rep = dilatation_field(w, deriv)
    ring_K = rep.K_field.values[32]
    assert np.max(np.abs(ring_K - 5.0 / 3.0)) <= 1e-12


def test_dilatation_orientation_failure_flagged():
    g = build_grid(1.0, 8.0, 32, 32)
    w = w_kelvin(g)  # inversion is orientation-reversing: J = -|x|^-4
    rep = dilatation_field(w, d_kelvin)
    assert not rep.orientation_ok
    assert rep.jacobian_min < 0.0
    assert np.all(np.isnan(rep.K_field.values[1:-1]))


def test_dilatation_scaling_and_rotation_invariance():
    g = build_grid(1.0, 4.0, 32, 32)
    w = w_zsquared(g)
    base = dilatation_field(w, d_zsquared).K_field.values

    # target scaling w -> 3w
    w3 = PlanarMapping(g, 3 * w.p, 3 * w.q)
    scaled = dilatation_field(w3, lambda a, b: tuple(3 * d for d in d_zsquared(a, b))).K_field.values
    assert np.nanmax(np.abs(scaled - base)) <= 1e-12

    # simultaneous rotation of domain and target by one angular spacing:
    # node (i, j) of the rotated map sees the data of node (i, j+1)
    k = 1
    phi = k * g.dtheta
    c, s = math.cos(phi), math.sin(phi)

    def w_rot(a, b):
        ar, br = c * a - s * b, s * a + c * b  # rotate domain point
        p, q = ar * ar - br * br, 2 * ar * br
        return c * p + s * q, -s * p + c * q  # rotate target back

    def d_rot(a, b):
        ar, br = c * a - s * b, s * a + c * b
        p1, p2, q1, q2 = d_zsquared(ar, br)
        # Q^T Dw Q for rotation Q
        e1 = c * (c * p1 + s * q1) + s * (c * p2 + s * q2)
        e2 = -s * (c * p1 + s * q1) + c * (c * p2 + s * q2)
        f1 = c * (-s * p1 + c * q1) + s * (-s * p2 + c * q2)
        f2 = -s * (-s * p1 + c * q1) + c * (-s * p2 + c * q2)
        return e1, e2, f1, f2

    rotated = dilatation_field(PlanarMapping.from_function(g, w_rot), d_rot).K_field.values
    assert np.nanmax(np.abs(rotated - np.roll(base, -k, axis=1))) <= 1e-12


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0])
def test_hessian_dilatation_of_the_radial_monge_ampere_family(a):
    # D^2u has eigenvalues u'' = r/sqrt(r^2 + a) and u'/r = sqrt(r^2 + a)/r,
    # so K = (r^2/(r^2 + a) + (r^2 + a)/r^2)/2, largest on the first interior ring
    g = build_grid(1.0, 64.0, 256, 128)
    u = ScalarField.from_radial(g, lambda r: radial_ma_reference(a, r)[0])
    rep = dilatation_field(hessian(u))
    r2 = g.radii[1] ** 2
    exact = 0.5 * (r2 / (r2 + a) + (r2 + a) / r2)
    assert abs(rep.K_min - exact) <= 5e-4 * exact
    assert rep.orientation_ok and not rep.components_swapped


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_hessian_dilatation_of_anisotropic_saddles(gamma):
    # (x1^2 - x2^2/gamma)/2 solves u_11 + gamma u_22 = 0; det D^2u < 0, so the
    # map measured is (u_2, u_1), with K = (gamma + 1/gamma)/2
    g = build_grid(1.0, 8.0, 129, 64)
    x1, x2 = g.nodes()
    saddle = 0.5 * (x1 * x1 - x2 * x2 / gamma)
    u = solve_linear_dirichlet(LinearCoefficients(g, 1.0, 0.0, gamma),
                               ScalarField(g, np.zeros(g.shape)), saddle[0], saddle[-1])
    rep = dilatation_field(hessian(u))
    assert rep.orientation_ok and rep.components_swapped
    assert abs(rep.K_min - 0.5 * (gamma + 1.0 / gamma)) <= 1e-4


def test_hessian_dilatation_swaps_only_when_every_interior_determinant_is_negative():
    g = build_grid(1.0, 4.0, 16, 16)
    x1, _ = g.nodes()
    one = np.ones(g.shape)
    rep = dilatation_field(SymMatrixField(g, x1, 0.0 * one, one))  # det changes sign
    assert not rep.orientation_ok and not rep.components_swapped
    rep = dilatation_field(SymMatrixField(g, one, 0.0 * one, -2.0 * one))
    assert rep.orientation_ok and rep.components_swapped
    assert rep.jacobian_min == 2.0 and rep.K_min == 1.25


def test_hessian_dilatation_refuses_a_derivative_provider():
    # D^2u is the Jacobian already; a provider would go unused
    g = build_grid(1.0, 4.0, 16, 16)
    one = np.ones(g.shape)
    with pytest.raises(ValueError, match="invalid-dimension: derivatives applies to"):
        dilatation_field(SymMatrixField(g, one, 0.0 * one, one), d_identity)


# ---------------------------------------------------------------------------
# kelvin conjugation


def test_kelvin_conjugate_constant_map():
    g = build_grid(1.0, 8.0, 16, 16)
    w = PlanarMapping.from_function(g, lambda a, b: (np.ones_like(a), np.zeros_like(b)))
    wc = kelvin_conjugate(w)
    assert np.all(wc.p == 0.0) and np.all(wc.q == 1.0)
    assert abs(wc.grid.r_inner - 1.0 / 8.0) < 1e-15


def test_kelvin_conjugate_of_inversion_is_coordinate_swap():
    g = build_grid(1.0, 8.0, 16, 16)
    wc = kelvin_conjugate(w_kelvin(g))
    y1, y2 = wc.grid.nodes()
    assert np.max(np.abs(wc.p - y2)) <= 1e-12
    assert np.max(np.abs(wc.q - y1)) <= 1e-12


def test_kelvin_conjugate_involution_exact():
    g = build_grid(1.0, 16.0, 24, 32)
    w = w_zsquared(g)
    back = kelvin_conjugate(kelvin_conjugate(w))
    assert back.grid.same_geometry(g)
    assert np.array_equal(back.p, w.p) and np.array_equal(back.q, w.q)


def test_kelvin_conjugate_preserves_K_min():
    g = build_grid(1.0, 2.0, 64, 64)
    w = w_zsquared(g)
    K = dilatation_field(w).K_min
    Kc = dilatation_field(kelvin_conjugate(w)).K_min
    assert abs(Kc - K) <= 0.02 * K


# ---------------------------------------------------------------------------
# kelvin identities


def test_kelvin_identities_exact_identity_map():
    g = build_grid(1.0, 8.0, 64, 64)
    res = verify_kelvin_identities(w_identity(g), d_identity)
    assert max(res) <= 1e-10


def test_kelvin_identities_exact_zsquared():
    g = build_grid(1.0, 2.0, 64, 64)
    res = verify_kelvin_identities(w_zsquared(g), d_zsquared)
    assert max(res) <= 1e-10


def test_kelvin_identities_exact_inversion_map():
    g = build_grid(1.0, 2.0, 64, 64)
    res = verify_kelvin_identities(w_kelvin(g), d_kelvin)
    assert max(res) <= 1e-10


def test_kelvin_identities_refuse_an_unusable_image_side():
    w = w_zsquared(build_grid(1.0, 2.0, 16, 16))
    with pytest.raises(ValueError, match="invalid-dimension: unknown image_side 'spectral'"):
        verify_kelvin_identities(w, d_zsquared, image_side="spectral")


@pytest.mark.parametrize("side", ["chain-rule", "stencil"])
def test_kelvin_identities_refuse_a_provider_that_is_not_callable(side):
    # None must not fall back to the stencils, which commute with the ring
    # reversal and so read rounding level for any map
    w = w_zsquared(build_grid(0.5, 2.0, 17, 16))
    with pytest.raises(ValueError, match="derivatives must be a callable provider, got None"):
        verify_kelvin_identities(w, None, side)


@pytest.mark.parametrize("side", ["chain-rule", "stencil"])
def test_kelvin_identities_can_fail_on_either_image_side(side):
    g = build_grid(1.0, 2.0, 64, 64)
    # a transport that leaves the annulus in place breaks both sides
    with mock.patch.object(type(g), "inverted", lambda self: self):
        assert min(verify_kelvin_identities(w_zsquared(g), d_zsquared, side)) >= 1.0
    # a provider that is not the map's derivative: only the stencil side reads
    # the map's samples; the chain-rule side pushes the provider alone through
    # Dk, |y|^-2 times a reflection, which keeps both identities for any field
    res = verify_kelvin_identities(w_zsquared(g), d_identity, side)
    if side == "stencil":
        assert min(res) >= 100.0
    else:
        assert max(res) <= 1e-10


def test_kelvin_identities_stencil_convergence_order():
    errs = []
    for n in (32, 64, 128):
        g = build_grid(1.0, 2.0, n, n)
        errs.append(
            verify_kelvin_identities(w_zsquared(g), d_zsquared, image_side="stencil")
        )
    for k in range(2):
        e = [r[k] for r in errs]
        order = np.polyfit(np.arange(3), np.log2(e), 1)[0]
        assert -order >= 1.8


# ---------------------------------------------------------------------------
# limit and decay


def test_limit_and_decay_inversion_field():
    g = build_grid(1.0, 64.0, 97, 32)
    fit = limit_and_decay(w_kelvin(g), [4.0, 8.0, 16.0, 32.0, 64.0])
    assert np.hypot(*fit.limit) <= 1e-10
    assert abs(fit.exponent - 1.0) <= 0.02
    assert fit.r_squared > 0.999


def test_limit_and_decay_fractional_exponent():
    g = build_grid(1.0, 64.0, 97, 32)
    w = PlanarMapping.from_function(
        g, lambda a, b: (a * (a * a + b * b) ** -0.75, b * (a * a + b * b) ** -0.75)
    )
    fit = limit_and_decay(w, [4.0, 8.0, 16.0, 32.0, 64.0])
    assert abs(fit.exponent - 0.5) <= 0.05 * 0.5


def test_limit_and_decay_radial_gradient_remainder():
    # w = grad u - x for the radial profile with u'(r) = sqrt(r^2 + 2):
    # |w| = a/(2r) + O(r^-3), so the fitted exponent is close to 1
    a = 2.0
    g = build_grid(1.0, 64.0, 97, 32)

    def w_fn(x1, x2):
        r = np.hypot(x1, x2)
        fac = (np.sqrt(r * r + a) - r) / r
        return fac * x1, fac * x2

    fit = limit_and_decay(PlanarMapping.from_function(g, w_fn), [4.0, 8.0, 16.0, 32.0, 64.0])
    assert np.hypot(*fit.limit) <= 1e-3
    assert abs(fit.exponent - 1.0) <= 0.05


def test_limit_and_decay_degenerate_constant_map():
    g = build_grid(1.0, 64.0, 97, 32)
    w = PlanarMapping.from_function(g, lambda a, b: (np.full_like(a, 2.0), np.full_like(b, -3.0)))
    fit = limit_and_decay(w, [4.0, 8.0, 16.0, 32.0, 64.0])
    assert math.isinf(fit.exponent)
    assert np.allclose(fit.limit, [2.0, -3.0])


def test_limit_and_decay_requires_four_radii():
    g = build_grid(1.0, 64.0, 97, 32)
    with pytest.raises(ValueError, match="window-outside-grid"):
        limit_and_decay(w_identity(g), [4.0, 8.0, 16.0])


def test_limit_and_decay_requires_increasing_radii():
    g = build_grid(1.0, 64.0, 97, 32)
    with pytest.raises(ValueError, match="window-outside-grid: window radii must increase"):
        limit_and_decay(w_identity(g), [4.0, 8.0, 8.0, 16.0])
    with pytest.raises(ValueError, match="window-outside-grid: window radii must increase"):
        limit_and_decay(w_identity(g), [4.0, 16.0, 8.0, 32.0])


def test_fit_power_law_needs_two_radii():
    with pytest.raises(ValueError, match="window-outside-grid: need at least 2 radii"):
        fit_power_law([4.0], [0.5], 0.0, 0.0)


def test_fit_power_law_recovers_exact_power():
    radii = np.array([4.0, 8.0, 16.0, 32.0])
    dev = 3.0 * radii ** -1.7
    fit = fit_power_law(radii, dev, 0.0, 0.0)
    assert abs(fit.exponent - 1.7) < 1e-12
    assert abs(math.exp(fit.log_constant) - 3.0) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert fit.limit == 0.0
    assert fit.windows == tuple(zip(radii.tolist(), dev.tolist()))
