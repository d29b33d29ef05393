import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulab.elliptic import LinearCoefficients, solve_linear_dirichlet
from annulab.grid import PlanarMapping, ScalarField, SymMatrixField, build_grid, hessian
from annulab.nonlinear import radial_ma_reference
from annulab.qcmap import (
    _energy_and_jacobian,
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


def relative_kelvin_residual(w, derivatives):
    """The larger residual over max |x|^-4 |Dw|^2 on the image grid, Dw from the provider."""
    energy = _energy_and_jacobian(*derivatives(*w.grid.nodes()))[0]
    scale = np.max(w.grid.inverted().radii[:, None] ** -4.0 * energy[::-1])
    return max(verify_kelvin_identities(w, derivatives)[:2]) / scale


@pytest.mark.parametrize("r_outer, k, builder, derivatives", [
    (8.0, 1, w_identity, d_identity),
    (2.0, 2, w_zsquared, d_zsquared),
    (2.0, 1, w_kelvin, d_kelvin),
])
def test_kelvin_identities_are_second_order_on_single_mode_images(r_outer, k, builder,
                                                                    derivatives):
    # each image is one angular mode k: the energy is short by (k dtheta)^2/6
    # from the centered theta difference and (k dt)^2/3 from the one-sided t
    # difference at a boundary ring, to leading order
    errs = []
    for n in (32, 64, 128):
        g = build_grid(1.0, r_outer, n, n)
        errs.append(verify_kelvin_identities(builder(g), derivatives))
    for i in range(3):
        order = -np.polyfit(np.arange(3), np.log2([e[i] for e in errs]), 1)[0]
        assert order >= 1.8
    leading = (k * g.dtheta) ** 2 / 6.0 + (k * g.dt) ** 2 / 3.0
    assert 0.8 * leading <= relative_kelvin_residual(builder(g), derivatives) <= 1.25 * leading


def quadratic_map(coef):
    """The map w = (P, Q) and its provider, P and Q the combinations of x, y,
    x^2, xy, y^2 by the two rows of ``coef``."""
    def values(a, b):
        return tuple(c[0] * a + c[1] * b + c[2] * a * a + c[3] * a * b + c[4] * b * b
                     for c in coef)

    def derivatives(a, b):
        return tuple(np.broadcast_to(d, np.shape(a)) for c in coef
                     for d in (c[0] + 2.0 * c[2] * a + c[3] * b, c[1] + c[3] * a + 2.0 * c[4] * b))

    return values, derivatives


@settings(max_examples=20, deadline=None)
@given(coef=st.lists(st.integers(-2, 2), min_size=10, max_size=10).filter(any),
       changed=st.integers(0, 9), change=st.floats(0.1, 1.0), sign=st.sampled_from([-1, 1]))
def test_kelvin_identities_read_the_samples_of_random_quadratic_maps(coef, changed, change,
                                                                     sign):
    # the stencil residual is second order for any quadratic map; a provider
    # off by a change of 0.1 or more in one coefficient reads it.  A change
    # can cancel a coefficient of half its size (P's x coefficient -change/2,
    # Q free of y, leave both identities exact), so the coefficients stay
    # within a quarter of the least change: 400 draws and the corners of
    # the range read at least 179 times the right residual
    coef = np.reshape(coef, (2, 5)) / 80.0
    values, derivatives = quadratic_map(coef)
    coarse, fine = (build_grid(1.0, 2.0, n, n) for n in (64, 128))
    w = PlanarMapping.from_function(fine, values)
    right = relative_kelvin_residual(w, derivatives)
    assert relative_kelvin_residual(PlanarMapping.from_function(coarse, values),
                                    derivatives) >= 3.4 * right
    off = coef.copy()
    off.flat[changed] += sign * change
    wrong = max(verify_kelvin_identities(w, quadratic_map(off)[1])[:2])
    assert wrong >= 100.0 * max(verify_kelvin_identities(w, derivatives)[:2])


def test_kelvin_identities_refuse_a_provider_that_is_not_callable():
    # None must not fall back to the stencils, which commute with the ring
    # reversal and so read rounding level for any map
    w = w_zsquared(build_grid(0.5, 2.0, 17, 16))
    with pytest.raises(ValueError, match="derivatives must be a callable provider, got None"):
        verify_kelvin_identities(w, None)


def test_kelvin_provider_residual_reads_a_sign_flipped_provider():
    # (p1, -p2, -q1, q2) keeps |Dw|^2 and det Dw, so both identities read
    # the right residuals to the bit; the provider residual reads the flip
    g = build_grid(1.0, 2.0, 64, 64)
    w = w_kelvin(g)

    def flipped(a, b):
        p1, p2, q1, q2 = d_kelvin(a, b)
        return p1, -p2, -q1, q2

    right, wrong = (verify_kelvin_identities(w, d) for d in (d_kelvin, flipped))
    assert wrong[:2] == right[:2]
    assert wrong[2] >= 100.0 * right[2]


def test_kelvin_identities_can_fail_when_the_transport_does_not_invert():
    # a transport that leaves the annulus in place breaks both identities
    g = build_grid(1.0, 2.0, 64, 64)
    with mock.patch.object(type(g), "inverted", lambda self: self):
        assert min(verify_kelvin_identities(w_zsquared(g), d_zsquared)[:2]) >= 1.0


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
