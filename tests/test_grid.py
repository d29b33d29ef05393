import ast
import hashlib
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annulab
from annulab.grid import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    PlanarMapping,
    ScalarField,
    _diff_theta,
    _laplacian_rows,
    annulus_integral,
    build_grid,
    gradient,
    hessian,
    laplacian,
    radial_derivative,
    read_snapshot,
    sym2_eig,
    window_slice,
    write_snapshot,
)


def observed_order(errs):
    """Least-squares slope of log2(err) against refinement level."""
    levels = np.arange(len(errs))
    return -np.polyfit(levels, np.log2(errs), 1)[0]


# ---------------------------------------------------------------------------
# construction and validation


def test_build_grid_log_spacing_ratio_constant():
    g = build_grid(1.0, 64.0, 32, 16)
    ratios = g.radii[1:] / g.radii[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert g.radii[0] == 1.0 and g.radii[-1] == 64.0


def test_build_grid_uniform_spacing():
    g = build_grid(1.0, 4.0, 16, 16, UNIFORM_RADIAL)
    assert np.allclose(np.diff(g.radii), g.radii[1] - g.radii[0], rtol=1e-12)


@pytest.mark.parametrize(
    "args,msg",
    [
        ((0.0, 4.0, 16, 16), "invalid-radii"),
        ((2.0, 1.0, 16, 16), "invalid-radii"),
        ((1.0, 4.0, 4, 16), "invalid-dimension"),
        ((1.0, 4.0, 16, 8), "invalid-dimension"),
        ((1.0, 4.0, 16, 17), "invalid-dimension"),
        ((1.0, 4.0, 16, 16, "cubic"), "invalid-dimension: unknown spacing 'cubic'"),
        # an infinite radius, and rings that coincide in floating point
        ((1.0, math.inf, 16, 16), "invalid-radii"),
        ((1.0, 1.0 + 1e-15, 16, 16), "invalid-radii"),
        ((1.0, 1.0 + 1e-15, 16, 16, UNIFORM_RADIAL), "invalid-radii"),
    ],
)
def test_build_grid_rejects_bad_input(args, msg):
    with pytest.raises(ValueError, match=msg):
        build_grid(*args)


def test_only_a_log_radial_grid_inverts():
    with pytest.raises(ValueError, match="invalid-dimension: kelvin_conjugate needs"):
        build_grid(1.0, 4.0, 16, 16, UNIFORM_RADIAL).inverted()


def test_field_rejects_nonfinite():
    g = build_grid(1.0, 4.0, 8, 16)
    vals = np.zeros(g.shape)
    vals[3, 5] = np.nan
    with pytest.raises(ValueError, match="singular-input"):
        ScalarField(g, vals)


# ---------------------------------------------------------------------------
# derivatives


def test_gradient_of_quadratic_is_identity_map():
    g = build_grid(1.0, 4.0, 64, 64)
    x1, x2 = g.nodes()
    u = ScalarField(g, 0.5 * (x1 ** 2 + x2 ** 2))
    w = gradient(u)
    err = np.max(np.hypot(w.p - x1, w.q - x2))
    assert err < 5e-3  # C * h^2 at this resolution


def test_gradient_convergence_order_quadratic():
    errs = []
    for n in (64, 128, 256):
        g = build_grid(1.0, 4.0, n, n)
        x1, x2 = g.nodes()
        u = ScalarField(g, 0.5 * (x1 ** 2 + x2 ** 2))
        w = gradient(u)
        errs.append(np.max(np.hypot(w.p - x1, w.q - x2)))
    assert observed_order(errs) >= 1.9


def test_gradient_of_log_is_kelvin_map():
    # log-radial grids difference log|x| exactly in the radial direction
    g = build_grid(1.0, 8.0, 32, 32)
    x1, x2 = g.nodes()
    r2 = x1 ** 2 + x2 ** 2
    u = ScalarField(g, 0.5 * np.log(r2))
    w = gradient(u)
    assert np.max(np.hypot(w.p - x1 / r2, w.q - x2 / r2)) < 1e-12


def test_hessian_of_quadratic():
    g = build_grid(1.0, 4.0, 64, 64)
    x1, x2 = g.nodes()
    u = ScalarField(g, 0.5 * (x1 ** 2 + x2 ** 2))
    h = hessian(u)
    err = max(
        np.max(np.abs(h.m11 - 1.0)),
        np.max(np.abs(h.m12)),
        np.max(np.abs(h.m22 - 1.0)),
    )
    assert err < 5e-3


def test_hessian_of_log_closed_form():
    g = build_grid(1.0, 8.0, 48, 48)
    x1, x2 = g.nodes()
    r2 = x1 ** 2 + x2 ** 2
    u = ScalarField(g, 0.5 * np.log(r2))
    h = hessian(u)
    # D^2 log|x| = (I |x|^2 - 2 x x^T) / |x|^4
    e11 = (r2 - 2 * x1 ** 2) / r2 ** 2
    e12 = -2 * x1 * x2 / r2 ** 2
    e22 = (r2 - 2 * x2 ** 2) / r2 ** 2
    err = max(
        np.max(np.abs(h.m11 - e11)),
        np.max(np.abs(h.m12 - e12)),
        np.max(np.abs(h.m22 - e22)),
    )
    assert err < 2e-4


def test_hessian_convergence_order_on_smooth_field():
    errs = []
    for n in (32, 64, 128):
        g = build_grid(1.0, 4.0, n, n)
        x1, x2 = g.nodes()
        r2 = x1 ** 2 + x2 ** 2
        u = ScalarField(g, x1 / r2)
        h = hessian(u)
        # symbolic oracle, frozen: second derivatives of x1/|x|^2
        e11 = 2 * x1 * (x1 ** 2 - 3 * x2 ** 2) / r2 ** 3
        e12 = 2 * x2 * (3 * x1 ** 2 - x2 ** 2) / r2 ** 3
        e22 = -e11
        errs.append(
            max(
                np.max(np.abs(h.m11 - e11)),
                np.max(np.abs(h.m12 - e12)),
                np.max(np.abs(h.m22 - e22)),
            )
        )
    assert observed_order(errs) >= 1.8


def test_hessian_oracle_matches_sympy():
    # derive the frozen closed forms above independently
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    u = x / (x ** 2 + y ** 2)
    e11 = sympy.simplify(sympy.diff(u, x, x) - 2 * x * (x ** 2 - 3 * y ** 2) / (x ** 2 + y ** 2) ** 3)
    e12 = sympy.simplify(sympy.diff(u, x, y) - 2 * y * (3 * x ** 2 - y ** 2) / (x ** 2 + y ** 2) ** 3)
    assert e11 == 0 and e12 == 0


def test_laplacian_polynomial_symbolic_oracle():
    # u = x1^2 x2 has Laplacian 2 x2; check the value and the O(h^2) rate
    errs = []
    for n in (64, 128, 256):
        g = build_grid(1.0, 4.0, n, n)
        x1, x2 = g.nodes()
        lap = laplacian(ScalarField(g, x1 ** 2 * x2))
        errs.append(np.max(np.abs(lap.values - 2 * x2)))
    assert errs[0] < 0.1
    assert observed_order(errs) >= 1.8


def test_laplacian_of_harmonic_fields_is_small():
    g = build_grid(1.0, 8.0, 64, 64)
    x1, x2 = g.nodes()
    r2 = x1 ** 2 + x2 ** 2
    for vals in (x1, 0.5 * np.log(r2), x1 / r2, x1 ** 2 - x2 ** 2):
        lap = laplacian(ScalarField(g, vals))
        scale = max(1.0, np.max(np.abs(vals)))
        assert np.max(np.abs(lap.values)) < 2e-3 * scale


def test_hessian_trace_equals_laplacian():
    g = build_grid(1.0, 16.0, 48, 32)
    x1, x2 = g.nodes()
    u = ScalarField(g, x1 ** 2 * x2 + np.log(x1 ** 2 + x2 ** 2) + x1)
    h = hessian(u)
    lap = laplacian(u)
    tr = h.trace()
    denom = np.maximum(np.abs(lap.values), 1.0)
    assert np.max(np.abs(tr - lap.values) / denom) < 1e-10


def reference_hessian(field):
    """The polar chain rule as plain formulas, each operation forming a new array.

    ``hessian`` forms the same operations in place, in this order.
    """
    g, u = field.grid, field.values
    dq = g.dtheta

    def diff_q(v):
        return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * dq)

    u_t, u_tt = radial_derivative(u, g.dt, 1, 2), radial_derivative(u, g.dt, 2, 2)
    h = g.dr_dt[:, None]
    u_r, u_q = u_t / h, diff_q(u)
    u_qq = (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / dq ** 2
    u_rr = (u_tt - g.d2r_ratio * u_t) / h ** 2
    u_rq = diff_q(u_t) / h
    r = g.radii[:, None]
    c, s = g.cos_theta, g.sin_theta
    a = u_r / r + u_qq / r ** 2
    m = u_rq / r - u_q / r ** 2
    m11 = c ** 2 * u_rr + s ** 2 * a - 2.0 * s * c * m
    m22 = s ** 2 * u_rr + c ** 2 * a + 2.0 * s * c * m
    m12 = s * c * (u_rr - a) + (c ** 2 - s ** 2) * m
    return m11, m12, m22


@settings(max_examples=40, deadline=None)
@given(
    spacing=st.sampled_from([LOG_RADIAL, UNIFORM_RADIAL]),
    n_r=st.integers(9, 65),
    n_q=st.integers(8, 32).map(lambda k: 2 * k),
    r_outer=st.floats(1.5, 64.0),
    exponent=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_hessian_is_its_formulas_to_the_bit(spacing, n_r, n_q, r_outer, exponent, seed):
    # the in-place entries round exactly as the formulas written out
    g = build_grid(1.0, r_outer, n_r, n_q, spacing)
    u = ScalarField(g, 10.0 ** exponent * np.random.default_rng(seed).standard_normal(g.shape))
    h = hessian(u)
    for got, want in zip((h.m11, h.m12, h.m22), reference_hessian(u)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
def test_gradient_is_the_cartesian_rule_on_the_polar_first_derivatives(spacing):
    # gradient forms the first derivatives alone, with the stencils hessian uses
    g = build_grid(1.0, 8.0, 40, 32, spacing)
    x1, x2 = g.nodes()
    u = ScalarField(g, np.sin(x1) * x2 ** 2 + np.log(x1 ** 2 + x2 ** 2))
    u_r = radial_derivative(u.values, g.dt, 1, 2) / g.dr_dt[:, None]
    u_q = _diff_theta(u.values, g.dtheta)
    r, c, s = g.radii[:, None], g.cos_theta, g.sin_theta
    w = gradient(u)
    assert np.array_equal(w.p, c * u_r - s * (u_q / r))
    assert np.array_equal(w.q, s * u_r + c * (u_q / r))


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
def test_laplacian_of_a_band_of_rings_matches_the_full_grid(spacing):
    g = build_grid(1.0, 8.0, 40, 32, spacing)
    u = ScalarField(g, np.random.default_rng(5).standard_normal(g.shape))
    full = laplacian(u).values
    for lo, hi in ((0, 40), (0, 5), (3, 8), (17, 30), (35, 40)):
        band = _laplacian_rows(u, slice(lo, hi))
        assert band.shape == (hi - lo, g.n_theta)
        assert np.array_equal(band[1:-1], full[lo + 1:hi - 1])
    assert np.array_equal(_laplacian_rows(u), full)


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
def test_derivatives_both_spacings(spacing):
    g = build_grid(1.0, 4.0, 96, 128, spacing)
    x1, x2 = g.nodes()
    u = ScalarField(g, x1 ** 3 + x2 ** 2)
    w = gradient(u)
    assert np.max(np.abs(w.p - 3 * x1 ** 2)) < 0.05
    assert np.max(np.abs(w.q - 2 * x2)) < 0.05


@pytest.mark.parametrize("deriv, order", [(1, 2), (2, 2), (1, 4), (2, 4), (1, 6)])
def test_radial_derivative_exact_on_polynomials(deriv, order):
    # every row, the one-sided edge rows included, differentiates polynomials
    # of degree `order` exactly, and those of degree order + deriv - 1 too
    rng = np.random.default_rng(10 * deriv + order)
    h = 0.37
    t = 0.8 + h * np.arange(13)
    for degree in (order, order + deriv - 1):
        coeffs = rng.normal(size=(degree + 1, 3))  # three polynomials, one per column
        vals = np.stack([np.polyval(c, t) for c in coeffs.T], axis=1)
        exact = np.stack([np.polyval(np.polyder(c, deriv), t) for c in coeffs.T], axis=1)
        got = radial_derivative(vals, h, deriv, order)
        assert np.max(np.abs(got - exact)) <= 1e-9 * np.max(np.abs(vals)) / h ** deriv


def test_sym2_eig_matches_eigvalsh():
    rng = np.random.default_rng(4)
    m11, m12, m22 = rng.normal(size=(3, 300)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 300))
    m12[:50] = 0.0  # diagonal matrices
    m22[25:75] = m11[25:75]  # equal diagonal entries; the first 25 of them are multiples of I
    lo, hi = sym2_eig(m11, m12, m22)
    ref = np.linalg.eigvalsh(np.stack([np.stack([m11, m12], -1), np.stack([m12, m22], -1)], -2))
    scale = np.max(np.abs(ref), axis=1)
    assert np.all(np.abs(lo - ref[:, 0]) <= 1e-14 * scale)
    assert np.all(np.abs(hi - ref[:, 1]) <= 1e-14 * scale)
    assert np.array_equal(lo[25:50], hi[25:50])
    assert sym2_eig(2.0, 0.0, 1.0) == (1.0, 2.0)


@pytest.mark.parametrize("exponent", [200.0, -200.0, None])
def test_sym2_eig_keeps_the_range_of_hypot(exponent):
    # squares of entries near 1e200 overflow and those near 1e-200 underflow;
    # None mixes both scales with entries near 1 in one call
    rng = np.random.default_rng(8)
    m11, m12, m22 = rng.normal(size=(3, 60))
    scale = (10.0 ** rng.choice([-200.0, 0.0, 200.0], 60) if exponent is None
             else 10.0 ** (exponent + rng.uniform(-5.0, 5.0, 60)))
    m11, m12, m22 = m11 * scale, m12 * scale, m22 * scale
    m12[:10] = 0.0
    m22[5:15] = m11[5:15]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lo, hi = sym2_eig(m11, m12, m22)
    ref = np.linalg.eigvalsh(np.stack([np.stack([m11, m12], -1), np.stack([m12, m22], -1)], -2))
    bound = 1e-14 * np.max(np.abs(ref), axis=1)
    assert np.all(np.abs(lo - ref[:, 0]) <= bound)
    assert np.all(np.abs(hi - ref[:, 1]) <= bound)
    assert np.all(lo[5:10] == hi[5:10]) and np.all(lo[5:10] == m11[5:10])


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("spacing", [LOG_RADIAL, UNIFORM_RADIAL])
def test_annulus_integral_of_one(spacing):
    g = build_grid(1.0, 2.0, 128, 32, spacing)
    f = ScalarField(g, np.ones(g.shape))
    exact = math.pi * (4.0 - 1.0)
    assert abs(annulus_integral(f, 1.0, 2.0) - exact) < 1e-4 * exact


def test_annulus_integral_inverse_quartic():
    R = 16.0
    g = build_grid(1.0, R, 256, 32)
    f = ScalarField.from_function(g, lambda x1, x2: (x1 ** 2 + x2 ** 2) ** -2)
    exact = math.pi * (1.0 - R ** -2)
    assert abs(annulus_integral(f, 1.0, R) - exact) < 1e-4 * exact


def test_annulus_integral_convergence_order():
    errs = []
    exact = math.pi * (4.0 - 1.0) / 2  # integral of cos^2(theta) over annulus [1,2]
    for n in (32, 64, 128):
        g = build_grid(1.0, 2.0, n, 32)
        f = ScalarField.from_function(g, lambda x1, x2: x1 ** 2 / (x1 ** 2 + x2 ** 2))
        errs.append(abs(annulus_integral(f, 1.0, 2.0) - exact))
    assert observed_order(errs) >= 1.8


def test_annulus_integral_window_errors():
    g = build_grid(1.0, 8.0, 16, 16)
    f = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="window-outside-grid: .* not inside the grid"):
        annulus_integral(f, 9.0, 12.0)
    with pytest.raises(ValueError, match=r"window-outside-grid: empty window \[3.0, 2.0\]"):
        annulus_integral(f, 3.0, 2.0)


@pytest.mark.parametrize("lo, hi", [(0.25, 2.0), (4.0, 100.0)])
def test_window_that_hangs_off_the_grid_is_refused(lo, hi):
    # such a window was once clipped to the grid without complaint
    g = build_grid(1.0, 8.0, 65, 32)
    f = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match=r"window-outside-grid: .* not inside the grid"):
        window_slice(g, lo, hi)
    with pytest.raises(ValueError, match=r"window-outside-grid: .* not inside the grid"):
        annulus_integral(f, lo, hi)


def test_window_edges_within_rounding_of_the_grid_are_its_edges():
    g = build_grid(1.0, 8.0, 65, 32)
    f = ScalarField(g, np.ones(g.shape))
    lo, hi = g.r_inner * (1.0 - 5e-13), g.r_outer * (1.0 + 5e-13)
    assert window_slice(g, lo, hi) == slice(0, g.n_r)
    assert annulus_integral(f, lo, hi) == annulus_integral(f, g.r_inner, g.r_outer)
    for lo, hi in ((g.r_inner * (1.0 - 1e-11), 2.0), (2.0, g.r_outer * (1.0 + 1e-11))):
        with pytest.raises(ValueError, match="not inside the grid"):
            annulus_integral(f, lo, hi)


def test_window_that_snaps_to_one_ring_is_refused():
    # both edges of [2.0, 2.05] snap to the ring at 2.0 on this coarse grid
    g = build_grid(1.0, 8.0, 16, 16)
    with pytest.raises(ValueError, match="window-outside-grid: .* spans fewer than 2 rings"):
        window_slice(g, 2.0, 2.05)


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip_scalar(tmp_path):
    g = build_grid(1.0, 16.0, 16, 16)
    x1, x2 = g.nodes()
    u = ScalarField(g, np.sin(x1) + x2 ** 2)
    path = tmp_path / "u.field"
    write_snapshot(path, u)
    back = read_snapshot(path)
    assert isinstance(back, ScalarField)
    assert back.grid.same_geometry(g)
    assert np.array_equal(back.values, u.values)


def test_snapshot_holds_one_scalar_field(tmp_path):
    g = build_grid(2.0, 4.0, 8, 16, UNIFORM_RADIAL)
    w = PlanarMapping.from_function(g, lambda x1, x2: (x1 * x2, x1 - x2))
    path = tmp_path / "w.field"
    with pytest.raises(ValueError, match="invalid-dimension: cannot snapshot PlanarMapping"):
        write_snapshot(path, w)
    assert not path.exists()
    # both components of the mapping, 2 n values behind a one-field header
    pairs = np.stack([w.p, w.q], axis=-1)
    path.write_bytes(b"annular-field v2 2.0 4.0 8 16 uniform-radial\n"
                     + pairs.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="invalid-dimension: snapshot payload has "
                                         "2048 bytes, expected 1024"):
        read_snapshot(path)


_BAD_HEADER = "invalid-dimension: bad snapshot header"


@pytest.mark.parametrize("header, message", [
    (b"annular-fields v2 1.0 2.0 8 16 log-radial\n", _BAD_HEADER),
    (b"annular-field v2 1.0 2.0 8 16\n", _BAD_HEADER),
    (b"annular-field v2 1.0 2.0 8 16 log-radial extra\n", _BAD_HEADER),
    (b"annular-field v2 1.0 2.0 x 16 log-radial\n", _BAD_HEADER),
    (b"annular-field v2 one 2.0 8 16 log-radial\n", _BAD_HEADER),
    (b"annular-field v2 1.0 inf 8 16 log-radial\n", "invalid-radii"),
], ids=["bad-magic", "six-fields", "eight-fields", "unparsed-size", "unparsed-radius",
        "infinite-radius"])
def test_snapshot_with_a_bad_header_is_refused(tmp_path, header, message):
    path = tmp_path / "bad.field"
    path.write_bytes(header + np.zeros(8 * 16, "<f8").tobytes())
    with pytest.raises(ValueError, match=message):
        read_snapshot(path)


def test_snapshot_deterministic_bytes(tmp_path):
    g = build_grid(1.0, 16.0, 16, 16)
    u = ScalarField.from_function(g, lambda x1, x2: np.cos(x1 * x2))
    p1, p2 = tmp_path / "a.field", tmp_path / "b.field"
    write_snapshot(p1, u)
    write_snapshot(p2, u)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_bytes_are_pinned(tmp_path):
    # an ASCII header line, then the values as little-endian float64
    g = build_grid(1.0, 2.0, 8, 16)
    k = np.arange(g.n_r * g.n_theta, dtype=float).reshape(g.shape)
    u = ScalarField(g, 0.1 * k - 3.0)
    u.values[0, :4] = [-0.0, 1e-300, 1.0 / 3.0, 2.0 ** 60]
    path = tmp_path / "pinned.field"
    write_snapshot(path, u)
    data = path.read_bytes()
    header = b"annular-field v2 1.0 2.0 8 16 log-radial\n"
    assert data.startswith(header)
    assert data[len(header):] == struct.pack("<128d", *u.values.ravel().tolist())
    assert len(data) == 1065
    assert (hashlib.sha256(data).hexdigest()
            == "7c5dcf145ef9c8c7aec8d45cc2c60511ac1e38e8b5596f92732d44f3f368bc4f")


@settings(max_examples=60, deadline=None)
@given(
    n_r=st.integers(8, 12),
    half_theta=st.integers(8, 12),
    data=st.data(),
)
def test_snapshot_roundtrip_is_bitwise(tmp_path_factory, n_r, half_theta, data):
    g = build_grid(0.5, 3.0, n_r, 2 * half_theta)
    bits = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=g.n_r * g.n_theta,
                              max_size=g.n_r * g.n_theta))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2e-308])
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values[:special.size] = special
    u = ScalarField(g, values.reshape(g.shape), allow_nonfinite=True)
    path = tmp_path_factory.mktemp("bits") / "u.field"
    write_snapshot(path, u)
    back = read_snapshot(path)
    assert back.grid.same_geometry(g)
    assert back.values.flags.writeable and back.values.dtype.isnative
    assert np.array_equal(back.values.view(np.uint64), u.values.view(np.uint64))


# ---------------------------------------------------------------------------
# the radial parameter map stays in this module

_SPACING_NAMES = {"spacing", "LOG_RADIAL", "UNIFORM_RADIAL"}


def _spacing_reads(source, may_import):
    """Lines that read ``.spacing`` or name a spacing constant.

    Names inside the ``_SPACINGS`` table (config name -> spacing) are not
    reads, and imports are not when ``may_import`` is set.
    """
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_SPACINGS" for t in node.targets):
            skip |= {id(n) for n in ast.walk(node.value)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr in _SPACING_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in _SPACING_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not may_import and any(
                alias.name in _SPACING_NAMES for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_grid_reads_the_spacing():
    # every radial formula outside grid.py is written in the grid's r(t),
    # t(r) and chain-rule helpers; cli.py names the spacings only in its
    # config-name table, and the package re-exports them
    package = Path(annulab.__file__).resolve().parent
    reads = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "grid.py":
            found = _spacing_reads(path.read_text(), path.name in ("__init__.py", "cli.py"))
            if found:
                reads[path.name] = found
    assert reads == {}


def test_spacing_guard_sees_branches_and_imports():
    branch = "from .grid import LOG_RADIAL\nif g.spacing == LOG_RADIAL:\n    pass\n"
    assert _spacing_reads(branch, may_import=False) == [1, 2, 2]
    assert _spacing_reads(branch, may_import=True) == [2, 2]
    table = "_SPACINGS = {'log': LOG_RADIAL, 'uniform': UNIFORM_RADIAL}\n"
    assert _spacing_reads(table, may_import=False) == []


# the angular frame, the log radii and the node coordinates stay in this module


def _frame_rebuilds(source):
    """Lines that take np.cos or np.sin of a grid's ``.theta``, np.log of its
    ``.radii``, or that call np.meshgrid on a grid's radii or angles."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            continue
        read = {n.attr for arg in node.args for n in ast.walk(arg)
                if isinstance(n, ast.Attribute)}
        if (node.func.attr in ("cos", "sin") and "theta" in read
                or node.func.attr == "log" and "radii" in read
                or node.func.attr == "meshgrid" and read & {"radii", "theta"}):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_grid_builds_its_frame():
    # cos theta, sin theta, log r and the node coordinates come from the
    # grid's cos_theta, sin_theta, log_radii and nodes(); angles and radii
    # the grid does not hold may take their own cosines and logarithms
    package = Path(annulab.__file__).resolve().parent
    rebuilds = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "grid.py":
            found = _frame_rebuilds(path.read_text())
            if found:
                rebuilds[path.name] = found
    assert rebuilds == {}


def test_frame_guard_sees_cosines_and_meshgrids():
    source = ("c = np.cos(g.theta)[None, :]\n"
              "s = np.sin(0.5 * grid.theta[jj])\n"
              "rr, th = np.meshgrid(g.radii[2:5], g.theta, indexing='ij')\n"
              "angles = grid.theta[:, None] + 0.5 * grid.dtheta\n"
              "c, s = np.cos(angles), np.sin(kappa)\n"
              "c = math.cos(g.theta[0])\n"
              "s = np.log(grid.radii)[:, None]\n"
              "t = np.log(radii)\n")
    assert _frame_rebuilds(source) == [1, 2, 3, 7]


# the chain rule d/dr = (dr/dt)^-1 d/dt stays in this module


def _chain_rule_reads(source):
    """Lines that read a grid's ``dr_dt`` or ``d2r_ratio``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("dr_dt", "d2r_ratio"))


def test_only_the_grid_applies_the_chain_rule():
    # radial slopes, Cartesian components, Laplacians and the stencil
    # coefficients come from grid.py's helpers, so no other module turns
    # (t, theta) differences into polar derivatives itself
    package = Path(annulab.__file__).resolve().parent
    reads = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "grid.py":
            found = _chain_rule_reads(path.read_text())
            if found:
                reads[path.name] = found
    assert reads == {}


def test_chain_rule_guard_sees_attribute_reads():
    source = ("u_r = ut / grid.dr_dt[i]\n"
              "h, lift = g.dr_dt[:, None], 1.0 - g.d2r_ratio\n"
              "dr_dt = np.ones(n_r)\n"
              "u_r = ut / dr_dt\n")
    assert _chain_rule_reads(source) == [1, 2, 2]


def test_nodes_are_kept_and_read_only():
    g = build_grid(1.0, 4.0, 9, 16)
    x1, x2 = g.nodes()
    assert all(a is b for a, b in zip(g.nodes(), (x1, x2)))
    rr, th = np.meshgrid(g.radii, g.theta, indexing="ij")
    assert x1.tobytes() == (rr * np.cos(th)).tobytes()
    assert x2.tobytes() == (rr * np.sin(th)).tobytes()
    assert g.log_radii.tobytes() == np.log(g.radii).tobytes()
    for frame in (x1, x2, g.cos_theta, g.sin_theta, g.log_radii):
        with pytest.raises(ValueError, match="read-only"):
            frame[0] = 0.0
