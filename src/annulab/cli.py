"""Scenario runner and command line interface.

A scenario bundles a grid, an operator, boundary data, analysis windows and
expectations into one JSON-compatible config.  Running it solves (or loads)
the field, measures the gradient map's dilatation, fits the far-field
expansion, cross-checks the log coefficient three ways, and evaluates the
configured assertions.  Reports are deterministic: byte-identical JSON for
identical configs, plus optional CSV radial profiles and SVG decay plots.

The built-in verification registry packages the acceptance checks behind
``annulab verify``; each check pins its tolerances and prints one pass/fail
row.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .elliptic import LinearCoefficients, newtonian_potential, solve_linear_dirichlet
from .expansion import (
    bootstrap_schedule,
    d_from_divergence,
    far_field,
    fit_expansion,
    formula_schedule,
    laurent_coefficients,
    hessian_limit,
    window_slices,
)
from .grid import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    PlanarMapping,
    ScalarField,
    build_grid,
    gradient,  # unused here; perfbench/tracing.py's LAYER_FUNCTIONS resolves it
    hessian,
    laplacian,
    read_snapshot,
    ring_index,
    write_snapshot,
)
from .nonlinear import (
    FullyNonlinearSpec,
    NewtonError,
    _hessian_state,
    monge_ampere_spec,
    newton_solve,
    radial_ma_reference,
    special_lagrangian_spec,
)
from .qcmap import (
    _energy_and_jacobian,
    dilatation_field,
    holder_exponent,
    limit_and_decay,
    verify_kelvin_identities,
)

__all__ = ["Scenario", "main", "run_acceptance", "run_scenario", "verify_suite"]

_SPACINGS = {"log": LOG_RADIAL, "uniform": UNIFORM_RADIAL}


def _config_error(message):
    raise ValueError(f"invalid-config: {message}")


def _is_finite(value, shape=()):
    """A finite number (not a bool), or nested lists of them of ``shape``."""
    if shape:
        return (isinstance(value, (list, tuple)) and len(value) == shape[0]
                and all(_is_finite(v, shape[1:]) for v in value))
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# Config checkers: check(value, name) raises, naming the key, on a bad value.
def _finite(shape=()):
    what = f"a finite array of shape {shape}" if shape else "a finite number"

    def check(value, where):
        if not _is_finite(value, shape):
            _config_error(f"{where} must be {what}, got {value!r}")
    return check


def _integer(value, where):
    if not (_is_finite(value) and float(value).is_integer()):
        _config_error(f"{where} must be an integer, got {value!r}")


def _positive(check):
    def positive(value, where):
        check(value, where)
        if value <= 0:
            _config_error(f"{where} must be positive, got {value!r}")
    return positive


def _text(value, where):
    if not (isinstance(value, str) and value):
        _config_error(f"{where} must be a non-empty string, got {value!r}")


def _file_name(value, where):  # the run directory is named after it
    _text(value, where)
    if Path(value).name != value or value == "..":
        _config_error(f"{where} must be a plain file name, got {value!r}")


def _one_of(options):
    def check(value, where):
        if value not in tuple(options):
            _config_error(f"{where} must be one of {tuple(options)}, got {value!r}")
    return check


def _windows(value, where):
    if not (isinstance(value, (list, tuple)) and value):
        _config_error(f"{where} must be a list of [lo, hi] pairs (at least one), "
                      f"got {value!r}")
    for k, pair in enumerate(value):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            _config_error(f"{where}[{k}] must be a [lo, hi] pair, got {pair!r}")
        for v in pair:
            _NUMBER(v, f"{where}[{k}]")


def _object(keys=None):
    """A JSON object, whose keys pass ``_check_keys`` against ``keys`` if given."""
    def check(value, where):
        if not isinstance(value, dict):
            _config_error(f"{where} must be a JSON object, got {value!r}")
        if keys is not None:
            _check_keys(value, where, keys)
    return check


def _kinded(tables):
    """A JSON object whose ``kind`` picks its keys from ``tables``."""
    def check(value, where):
        _object()(value, where)
        kind = value.get("kind")
        _one_of(tables)(kind, f"{where}.kind")
        _check_keys(value, where, tables[kind], f" for {where} kind {kind!r}")
    return check


def _check_keys(section, where, keys, context=""):
    """Reject unknown keys of ``section``, then missing ones, then bad values.

    ``keys`` is a (required, optional) pair of key -> checker maps; ``where``
    names the section, "" at the top level.
    """
    required, optional = keys
    known = {**required, **optional}
    for problem, bad in (("unknown", sorted(set(section) - set(known))),
                         ("missing", [key for key in required if key not in section])):
        if bad:
            names = ", ".join(f"{where}.{key}".lstrip(".") for key in bad)
            _config_error(f"{problem} key{'s' if len(bad) > 1 else ''} {names}{context}; "
                          f"known: {', '.join(known)}")
    for key, check in known.items():
        if key in section:
            check(section[key], f"{where}.{key}".lstrip("."))


# Each config section, per kind where it has one, may hold exactly the keys
# the pipeline reads.  Ranges (a >= 0, |theta| < pi, ellipticity) are left to
# the library functions that own them, which reject them before any solve.
_NUMBER = _finite()
_POSITIVE = _positive(_NUMBER)
_OPERATOR_KEYS = {
    "monge_ampere": ({"kind": _text}, {}),
    "special_lagrangian": ({"kind": _text, "theta": _NUMBER}, {}),
    "linear_trace": ({"kind": _text}, {"rhs": _NUMBER}),
    "linear_custom": ({"kind": _text, "a11": _NUMBER, "a12": _NUMBER, "a22": _NUMBER},
                      {"rhs": _NUMBER}),
}
_BOUNDARY_KEYS = {
    "radial_reference": ({"kind": _text, "a": _NUMBER}, {}),
    "explicit_polynomial": ({"kind": _text, "A": _finite((2, 2)), "b": _finite((2,)),
                             "d": _NUMBER, "c": _NUMBER, "e": _finite((2,))}, {}),
    "file": ({"kind": _text, "path": _text}, {}),
}
_GRID_KEYS = ({"r_inner": _NUMBER, "r_outer": _NUMBER, "n_r": _integer, "n_theta": _integer},
              {"spacing": _one_of(_SPACINGS)})
# Newton settings are read for the fully nonlinear operators only
_NEWTON_TOLERANCES = ({}, {"newton_tol": _POSITIVE, "max_iters": _positive(_integer),
                           "harmonic_tol": _POSITIVE})
_TOLERANCE_KEYS = {
    "monge_ampere": _NEWTON_TOLERANCES,
    "special_lagrangian": _NEWTON_TOLERANCES,
    "linear_trace": ({}, {"harmonic_tol": _POSITIVE}),
    "linear_custom": ({}, {"harmonic_tol": _POSITIVE}),
}


def _compared(shape=()):  # an expectation met within a tolerance
    return _object(({"value": _finite(shape), "tol": _POSITIVE}, {}))


_BOUND = _object(({"value": _NUMBER}, {}))  # a one-sided bound
_EXPECT_KEYS = ({}, {"A": _compared((2, 2)), "b": _compared((2,)), "c": _compared(),
                     "d": _compared(), "d_divergence": _compared(), "e": _compared((2,)),
                     "residual_exponent_min": _BOUND, "K_min_max": _BOUND})
_CONFIG_KEYS = ({"name": _file_name, "operator": _kinded(_OPERATOR_KEYS),
                 "grid": _object(_GRID_KEYS), "boundary": _kinded(_BOUNDARY_KEYS),
                 "windows": _windows},
                {"tolerances": _object(), "expect": _object(_EXPECT_KEYS)})


def _scenario_grid(gp):
    try:
        return build_grid(float(gp["r_inner"]), float(gp["r_outer"]), int(gp["n_r"]),
                          int(gp["n_theta"]), spacing=_SPACINGS[gp["spacing"]])
    except ValueError as err:
        _config_error(f"grid: {err}")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: what to solve, where, and what to assert."""

    name: str
    operator: dict
    grid: dict
    boundary: dict
    windows: tuple
    tolerances: dict
    expect: dict

    @classmethod
    def from_config(cls, config: dict) -> "Scenario":
        if not isinstance(config, dict):
            _config_error("scenario config must be a JSON object")
        _check_keys(config, "", _CONFIG_KEYS)
        operator = dict(config["operator"])
        gp = {"spacing": "log", **config["grid"]}
        windows = tuple((float(lo), float(hi)) for lo, hi in config["windows"])
        grid = _scenario_grid(gp)
        try:  # the fit's window rule, before any solve or analysis
            window_slices(grid, windows)
        except ValueError as err:
            _config_error(f"windows {[list(w) for w in windows]} do not suit the grid: {err}")
        tolerances = dict(config.get("tolerances", {}))
        _check_keys(tolerances, "tolerances", _TOLERANCE_KEYS[operator["kind"]],
                    f" for operator kind {operator['kind']!r}")
        return cls(config["name"], operator, gp, dict(config["boundary"]), windows,
                   tolerances, dict(config.get("expect", {})))


# Built-in scenarios; `solve` accepts these names in place of a config path.
BUILTIN_SCENARIOS = {
    "ma-radial-a2": {
        "name": "ma-radial-a2",
        "operator": {"kind": "monge_ampere"},
        "grid": {"r_inner": 1.0, "r_outer": 64.0, "n_r": 1024, "n_theta": 64,
                 "spacing": "log"},
        "boundary": {"kind": "radial_reference", "a": 2.0},
        "windows": [[4, 8], [8, 16], [16, 32], [32, 64]],
        "tolerances": {"newton_tol": 1e-9},
        "expect": {
            "d": {"value": 1.0, "tol": 5e-3},
            "c": {"value": 0.5 + math.log(2.0), "tol": 1e-2},
            "d_divergence": {"value": 1.0, "tol": 1e-2},
        },
    },
    "identity-quadratic": {
        "name": "identity-quadratic",
        "operator": {"kind": "linear_trace", "rhs": 2.0},
        "grid": {"r_inner": 1.0, "r_outer": 64.0, "n_r": 193, "n_theta": 64,
                 "spacing": "uniform"},
        "boundary": {"kind": "explicit_polynomial", "A": [[1.0, 0.0], [0.0, 1.0]],
                     "b": [0.0, 0.0], "d": 0.0, "c": 0.0, "e": [0.0, 0.0]},
        "windows": [[4, 8], [8, 16], [16, 32], [32, 64]],
        "tolerances": {},
        "expect": {
            "A": {"value": [[1.0, 0.0], [0.0, 1.0]], "tol": 1e-8},
            "b": {"value": [0.0, 0.0], "tol": 1e-8},
            "d": {"value": 0.0, "tol": 1e-8},
            "c": {"value": 0.0, "tol": 1e-8},
            "e": {"value": [0.0, 0.0], "tol": 1e-8},
        },
    },
}


def _boundary_data(scenario, grid):
    boundary = scenario.boundary
    kind = boundary["kind"]
    if kind == "radial_reference":
        return radial_ma_reference(float(boundary["a"]), [grid.r_inner, grid.r_outer])[0]
    if kind == "explicit_polynomial":
        return far_field(grid, [0, -1], *(boundary[key] for key in ("A", "b", "d", "c", "e")))
    field = _read_finite(boundary["path"], [0, -1])
    if not field.grid.same_boundary(grid):
        _config_error("boundary file grid does not match the scenario grid")
    return field.values[0].copy(), field.values[-1].copy()


def _read_finite(path, rings=slice(None)):
    """The snapshot at ``path``, refused by name unless its values on ``rings`` are finite."""
    field = read_snapshot(path)
    if not np.all(np.isfinite(field.values[rings])):
        raise ValueError(f"singular-input: non-finite entries in {path}")
    return field


def _operator(scenario, grid):
    """The scenario's operator: a Newton spec, or linear coefficients on ``grid``."""
    op = scenario.operator
    kind = op["kind"]
    if kind == "monge_ampere":
        return monge_ampere_spec()
    if kind == "special_lagrangian":
        return special_lagrangian_spec(float(op["theta"]))
    if kind == "linear_trace":
        return LinearCoefficients.trace_operator(grid)
    return LinearCoefficients(grid, float(op["a11"]), float(op["a12"]), float(op["a22"]))


def _operator_residual(scenario, op, h):
    """Sup over the interior rings of the scenario operator's residual, from the Hessian ``h``."""
    if isinstance(op, FullyNonlinearSpec):
        return _hessian_state(op, h)[2]  # the residual Newton iterates on
    resid = (op.a11 * h.m11[1:-1] + 2.0 * op.a12 * h.m12[1:-1]
             + op.a22 * h.m22[1:-1] - float(scenario.operator.get("rhs", 0.0)))
    return float(np.max(np.abs(resid)))


def _solve(scenario):
    """The solved field, its ``solve`` report entry and its Hessian."""
    grid = _scenario_grid(scenario.grid)
    gin, gout = _boundary_data(scenario, grid)
    op = _operator(scenario, grid)
    tols = scenario.tolerances

    if isinstance(op, FullyNonlinearSpec):
        u, trace = newton_solve(op, grid, gin, gout,
                                tol=float(tols.get("newton_tol", 1e-10)),
                                max_iters=int(tols.get("max_iters", 30)))
        solve_info = {"method": "newton", "iterations": trace.iterations,
                      "final_residual": float(trace.residuals[-1])}
        return u, solve_info, trace.hessian

    f = ScalarField(grid, np.full(grid.shape, float(scenario.operator.get("rhs", 0.0))))
    u = solve_linear_dirichlet(op, f, gin, gout)
    h = hessian(u)
    solve_info = {"method": "direct", "iterations": None,
                  "final_residual": _operator_residual(scenario, op, h)}
    return u, solve_info, h


def _finite_or_null(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _fit_to_dict(fit):
    # a degenerate fit (deviations at rounding level) carries exponent +inf;
    # strict JSON has no Infinity, so non-finite values become null
    return {
        "exponent": _finite_or_null(fit.exponent),
        "log_constant": _finite_or_null(fit.log_constant),
        "degenerate": not math.isfinite(fit.exponent),
        "r_squared": float(fit.r_squared),
        "windows": [{"radius": float(r), "deviation": float(dv)}
                    for r, dv in fit.windows],
    }


def _d_cross_checks(u, A, b, d_fit, harmonic_tol):
    """The report's ``cross_checks``: d from the fit (``d_fit``), from the
    divergence identity at the outer ring R, and from the Laurent series of
    u - x'Ax/2 - b.x on the ring nearest R/2, formed on the seven rings the
    contour reads and skipped where it is not harmonic.
    """
    grid = u.grid
    R = float(grid.radii[-1])
    d_div = float(d_from_divergence(u, A, R, extrapolate=True))
    cross = {"d_fit": d_fit, "d_divergence": {"value": d_div, "R": R, "extrapolated": True}}
    i = int(np.argmin(np.abs(grid.radii - 0.5 * R)))
    near, w = slice(max(i - 3, 0), i + 4), np.zeros(grid.shape)
    w[near] = u.values[near] - far_field(grid, near, A, b)
    d_values = [d_fit, d_div]
    try:
        lc = laurent_coefficients(ScalarField(grid, w), float(grid.radii[i]), 3,
                                  harmonic_tol=harmonic_tol)
        cross["d_laurent"] = {"value": float(lc.d), "radius": float(lc.radius_used)}
        d_values.append(float(lc.d))
    except ValueError as err:
        cross["d_laurent"], cross["d_laurent_skipped"] = None, str(err)
    cross["max_pairwise_gap"] = float(max(d_values) - min(d_values))
    return cross


def _analyze(scenario, u, solve_info, h):
    """The report of the field u, whose Hessian is h."""
    report = {"report_version": 1, "scenario": asdict(scenario),
              "solve": solve_info}

    rep = dilatation_field(h)
    report["gradient_map"] = {
        "K_min": float(rep.K_min),
        "alpha": float(rep.alpha),
        "jacobian_min": float(rep.jacobian_min),
        "orientation_ok": bool(rep.orientation_ok),
        "components_swapped": rep.components_swapped,
    }

    fit = fit_expansion(u, scenario.windows)
    report["expansion"] = {
        "A": fit.A.tolist(), "b": fit.b.tolist(), "d": fit.d, "c": fit.c,
        "e": fit.e.tolist(), "residual_fit": _fit_to_dict(fit.residual_fit),
        "windows": [list(w) for w in scenario.windows],
    }

    report["cross_checks"] = _d_cross_checks(
        u, fit.A, fit.b, fit.d, float(scenario.tolerances.get("harmonic_tol", 1e-4)))

    report["assertions"] = _evaluate_expectations(scenario, report)
    report["status"] = ("pass" if all(row["pass"] for row in report["assertions"])
                        else "fail")
    return report


def _evaluate_expectations(scenario, report):
    rows = []
    exp = report["expansion"]
    for key, spec in sorted(scenario.expect.items()):
        if "tol" in spec:
            tol = float(spec["tol"])
            got = (report["cross_checks"]["d_divergence"]["value"]
                   if key == "d_divergence" else exp[key])
            measured = np.asarray(got, dtype=float)
            target = np.asarray(spec["value"], dtype=float)
            gap = float(np.max(np.abs(measured - target)))
            rows.append({"name": key, "measured": measured.tolist(),
                         "expected": target.tolist(), "tolerance": tol,
                         "gap": gap, "pass": bool(gap <= tol)})
        else:  # the one-sided bounds
            bound = float(spec["value"])
            if key == "K_min_max":
                got = report["gradient_map"]["K_min"]
                ok = got <= bound
            else:
                got = exp["residual_fit"]["exponent"]
                ok = got is None or got >= bound
            rows.append({"name": key, "measured": got, "expected": bound,
                         "tolerance": 0.0, "gap": 0.0, "pass": bool(ok)})
    return rows


def run_scenario(scenario: Scenario) -> dict:
    """Execute a scenario and return its report document."""
    return _analyze(scenario, *_solve(scenario))


# ---------------------------------------------------------------------------
# Report emission


def _report_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _profile_csv(u, h, A) -> str:
    Am = np.asarray(A, dtype=float)
    dev = np.maximum(np.abs(h.m11 - Am[0, 0]),
                     np.maximum(np.abs(h.m12 - Am[0, 1]), np.abs(h.m22 - Am[1, 1])))
    columns = (u.grid.radii, u.values.min(axis=1), u.values.mean(axis=1),
               u.values.max(axis=1), dev.max(axis=1))
    lines = ["radius,u_min,u_mean,u_max,hessian_dev_max"]
    lines += [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
    return "\n".join(lines) + "\n"


def _decay_svg(fit_dict) -> str:
    """Hand-rolled log-log plot of the residual decay fit; deterministic."""
    width, height, margin = 640.0, 480.0, 60.0
    pts = [(w["radius"], w["deviation"]) for w in fit_dict["windows"]
           if w["deviation"] > 0.0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{margin:.1f}" y1="{height - margin:.1f}" '
        f'x2="{width - margin:.1f}" y2="{height - margin:.1f}" stroke="black"/>',
        f'<line x1="{margin:.1f}" y1="{margin:.1f}" x2="{margin:.1f}" '
        f'y2="{height - margin:.1f}" stroke="black"/>',
    ]
    exponent = fit_dict["exponent"]
    if len(pts) >= 2 and exponent is not None:
        lx = [math.log10(p[0]) for p in pts]
        ly = [math.log10(p[1]) for p in pts]
        x_lo, x_hi = min(lx), max(lx)
        y_lo, y_hi = min(ly), max(ly)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def sx(v):
            return margin + (v - x_lo) / x_span * (width - 2 * margin)

        def sy(v):
            return height - margin - (v - y_lo) / y_span * (height - 2 * margin)

        c10 = fit_dict["log_constant"] / math.log(10.0)
        y1 = c10 - exponent * x_lo
        y2 = c10 - exponent * x_hi
        parts.append(f'<line x1="{sx(x_lo):.2f}" y1="{sy(y1):.2f}" '
                     f'x2="{sx(x_hi):.2f}" y2="{sy(y2):.2f}" stroke="#888"/>')
        for px, py in zip(lx, ly):
            parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="4" '
                         'fill="steelblue"/>')
        label = (f"deviation ~ C R^-{exponent:.4f}, "
                 f"r^2 = {fit_dict['r_squared']:.6f}")
    else:
        label = "degenerate fit: deviations at rounding level"
    parts.append(f'<text x="{margin:.1f}" y="{margin - 20.0:.1f}" '
                 f'font-family="monospace" font-size="14">{label}</text>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 15.0:.1f}" '
                 'font-family="monospace" font-size="12" text-anchor="middle">'
                 'log10 window radius</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _tables(report, u, fmt: str, h=None) -> dict:
    """The text of each table ``fmt`` asks for, by file name; ``h`` is u's Hessian, if formed."""
    tables = {}
    if fmt in ("csv", "svg"):
        h = hessian(u) if h is None else h
        tables["profile.csv"] = _profile_csv(u, h, report["expansion"]["A"])
    if fmt == "svg":
        tables["decay.svg"] = _decay_svg(report["expansion"]["residual_fit"])
    return tables


def _report_summary(report) -> str:
    """The printed summary of a report; raises on a key it lacks or cannot format."""
    solve, gm, exp, cc = (report[key] for key in ("solve", "gradient_map", "expansion",
                                                  "cross_checks"))
    iters = "" if solve["iterations"] is None else f"{solve['iterations']} iterations, "
    rexp = exp["residual_fit"]["exponent"]
    rexp_text = "exact (degenerate fit)" if rexp is None else f"{rexp:.4f}"
    lau = cc["d_laurent"]
    lau_text = (f"{lau['value']:.6e} at radius {lau['radius']:.3f}"
                if lau else "skipped")
    lines = [
        f"scenario {report['scenario']['name']}: {report['status']}",
        f"  solve: {solve['method']}, {iters}residual {solve['final_residual']:.3e}",
        f"  gradient map: K_min {gm['K_min']:.6f}, alpha {gm['alpha']:.6f}",
        f"  expansion: d {exp['d']:.6e}, c {exp['c']:.6e}, "
        f"residual exponent {rexp_text} over windows {exp['windows']}",
        f"  d cross-checks: fit {cc['d_fit']:.6e}, divergence "
        f"{cc['d_divergence']['value']:.6e} at R {cc['d_divergence']['R']}, "
        f"laurent {lau_text}, max gap {cc['max_pairwise_gap']:.3e}",
    ]
    for row in report["assertions"]:
        verdict = "pass" if row["pass"] else "FAIL"
        lines.append(f"  assert {row['name']}: measured {row['measured']} vs "
                     f"{row['expected']} (tol {row['tolerance']}) -> {verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Acceptance registry

_CRITERION_GRID = (1.0, 64.0, 256, 128)
_STANDARD_WINDOWS = ((4.0, 8.0), (8.0, 16.0), (16.0, 32.0), (32.0, 64.0))


def _radial_field(grid, a):
    return ScalarField.from_radial(grid, lambda r: radial_ma_reference(a, r)[0])


def _check_d_recovery():
    grid = build_grid(*_CRITERION_GRID)
    worst_fit, worst_div, worst_time = 0.0, 0.0, 0.0
    for a in (0.0, 1.0, 2.0):
        start = time.perf_counter()
        u = _radial_field(grid, a)
        fit = fit_expansion(u, _STANDARD_WINDOWS)
        cross = _d_cross_checks(u, np.eye(2), np.zeros(2), fit.d, 1e-4)
        d_div = cross["d_divergence"]["value"]
        worst_time = max(worst_time, time.perf_counter() - start)
        worst_fit = max(worst_fit, abs(fit.d - a / 2.0))
        worst_div = max(worst_div, abs(d_div - a / 2.0))
    ok = worst_fit <= 1e-3 and worst_div <= 1e-4 and worst_time < 60.0
    return ok, (f"max |d_fit - a/2| {worst_fit:.3e} (tol 1e-3), "
                f"max |d_div - a/2| {worst_div:.3e} (tol 1e-4), "
                "time cap 60s per run, "
                f"grid(1,64,256,128), windows {list(_STANDARD_WINDOWS)}")


def _check_constant_term():
    grid = build_grid(*_CRITERION_GRID)
    fit = fit_expansion(_radial_field(grid, 2.0), _STANDARD_WINDOWS)
    target = 0.5 + math.log(2.0)
    gap = abs(fit.c - target)
    return gap <= 1e-2, (f"|c - (1/2 + log 2)| = {gap:.3e} "
                         f"(tol 1e-2, largest window [32, 64])")


def _check_holder_formula():
    rng = np.random.default_rng(3)
    ks = rng.uniform(1.0, 100.0, 1000)
    worst = max(abs(holder_exponent(k) + 1.0 / holder_exponent(k) - 2.0 * k)
                for k in ks)
    exact = holder_exponent(1.0) == 1.0 and holder_exponent(1.25) == 0.5
    ok = worst <= 1e-12 and exact
    return ok, (f"max |alpha + 1/alpha - 2K| = {worst:.3e} over 1000 K in [1,100] "
                f"(tol 1e-12); alpha(1) == 1 and alpha(5/4) == 1/2 exact: {exact}")


def _d_identity(y1, y2):
    one, zero = np.ones_like(y1), np.zeros_like(y1)
    return one, zero, zero, one


def _d_zsquared(y1, y2):
    return 2.0 * y1, -2.0 * y2, 2.0 * y2, 2.0 * y1


def _d_inversion(y1, y2):
    rsq = y1 * y1 + y2 * y2
    return ((rsq - 2.0 * y1 * y1) / rsq ** 2, -2.0 * y1 * y2 / rsq ** 2,
            -2.0 * y1 * y2 / rsq ** 2, (rsq - 2.0 * y2 * y2) / rsq ** 2)


def _w_zsquared(g):
    return PlanarMapping.from_function(g, lambda a, b: (a * a - b * b, 2 * a * b))


def _check_kelvin_identities():
    # each image is one angular mode k, r^-k e^{ik theta} per component.  The
    # centered theta difference returns k sinc(k dtheta), which shorts the
    # energy by (k dtheta)^2/6; the one-sided t difference at a boundary ring
    # shorts it by (k dt)^2/3 more.  The residual over max |x|^-4 |Dw|^2 reads
    # that leading term within 1% at n = 128; the next terms are O(h^4)
    cases = [(8.0, 1, lambda g: PlanarMapping.from_function(g, lambda a, b: (a, b)), _d_identity),
             (2.0, 2, _w_zsquared, _d_zsquared),
             (2.0, 1, lambda g: PlanarMapping.from_function(
                 g, lambda a, b: (a / (a * a + b * b), b / (a * a + b * b))), _d_inversion)]
    # the provider is also read against w's stencil derivatives, which a
    # provider with w's |Dw|^2 and det Dw but another Dw does not meet
    orders, provider_orders, rels, tols = [], [], [], []
    for r_outer, k, builder, deriv in cases:
        errs = []
        for n in (32, 64, 128):
            g = build_grid(1.0, r_outer, n, n)
            errs.append(verify_kelvin_identities(builder(g), deriv))
        order = [float(-np.polyfit(np.arange(3), np.log2([r[i] for r in errs]), 1)[0])
                 for i in range(3)]
        orders += order[:2]
        provider_orders.append(order[2])
        energy = _energy_and_jacobian(*deriv(*g.nodes()))[0]
        rels.append(max(errs[-1][:2]) / np.max(g.inverted().radii[:, None] ** -4.0
                                               * energy[::-1]))
        tols.append(1.25 * ((k * g.dtheta) ** 2 / 6.0 + (k * g.dt) ** 2 / 3.0))
    ok = (min(orders) >= 1.8 and min(provider_orders) >= 1.8
          and all(r <= t for r, t in zip(rels, tols)))
    return ok, (f"{{identity, z^2, x/|x|^2}}: stencil orders {min(orders):.3f} to "
                f"{max(orders):.3f} (floor 1.8) on n = 32/64/128; residual / max |x|^-4 "
                f"|Dw|^2 at n = 128 {', '.join(f'{r:.2e}' for r in rels)} (tol 1.25 "
                f"((k dtheta)^2/6 + (k dt)^2/3) = {', '.join(f'{t:.2e}' for t in tols)}); "
                f"provider against w's stencil derivatives, orders "
                f"{', '.join(f'{o:.3f}' for o in provider_orders)} (floor 1.8)")


def _check_gradient_map_qc():
    grid = build_grid(1.0, 8.0, 129, 64)
    x1, x2 = grid.nodes()
    results = []
    ok = True
    for gamma in (1.0, 2.0, 3.0):
        if gamma == 1.0:
            coeffs = LinearCoefficients.trace_operator(grid)
            exact = 0.5 * np.log(x1 * x1 + x2 * x2)
        else:
            coeffs = LinearCoefficients(grid, 1.0, 0.0, gamma)
            exact = 0.5 * (x1 * x1 - x2 * x2 / gamma)
        f = ScalarField(grid, np.zeros(grid.shape))
        u = solve_linear_dirichlet(coeffs, f, exact[0], exact[-1])
        # these gradients reverse orientation; the swap restores it
        k_min = dilatation_field(hessian(u)).K_min
        bound = (1.0 + gamma) / 2.0 + 0.05
        ok = ok and k_min <= bound
        results.append(f"gamma={gamma:.0f}: K_min {k_min:.4f} <= {bound:.4f}")
    return ok, "; ".join(results)


def _check_newton_solver():
    spec = monge_ampere_spec()
    start = time.perf_counter()
    errs, iters, resids = [], [], []
    for n_r, n_t in ((65, 32), (129, 64), (257, 128)):
        grid = build_grid(1.0, 16.0, n_r, n_t)
        gin, gout = radial_ma_reference(1.0, [1.0, 16.0])[0]
        u, trace = newton_solve(spec, grid, gin, gout)
        ref = _radial_field(grid, 1.0)
        errs.append(float(np.max(np.abs(u.values - ref.values))))
        iters.append(trace.iterations)
        resids.append(float(trace.residuals[-1]))
    elapsed = time.perf_counter() - start
    orders = np.diff(-np.log2(errs))
    ok = (max(resids) < 1e-10 and max(iters) <= 12
          and float(np.min(orders)) >= 1.8 and elapsed < 300.0)
    return ok, (f"residuals {[f'{r:.1e}' for r in resids]} (cap 1e-10), "
                f"iterations {iters} (cap 12), sup-error orders "
                f"{[f'{o:.3f}' for o in orders]} (floor 1.8), "
                "time cap 300s for 3 levels")


def _check_special_lagrangian():
    grid = build_grid(1.0, 16.0, 129, 64)
    gin, gout = radial_ma_reference(1.0, [1.0, 16.0])[0]
    u_ma, _ = newton_solve(monge_ampere_spec(), grid, gin, gout)
    u_sl, _ = newton_solve(special_lagrangian_spec(math.pi / 2.0), grid, gin, gout)
    gap = float(np.max(np.abs(u_ma.values - u_sl.values)))
    return gap <= 1e-8, (f"max |u_MA - u_SL(pi/2)| = {gap:.3e} "
                         f"(tol 1e-8) on grid(1,16,129,64)")


def _check_decay_estimator():
    grid = build_grid(1.0, 256.0, 257, 32)
    x1, x2 = grid.nodes()
    r = np.hypot(x1, x2)
    radii = [2.0 ** k for k in range(1, 8)]
    results, ok = [], True
    for p in (0.3, 0.5, 1.0, 2.0):
        w = PlanarMapping(grid, x1 / r ** (1.0 + p), x2 / r ** (1.0 + p))
        fit = limit_and_decay(w, radii)
        rel = abs(fit.exponent - p) / p
        ok = ok and rel <= 0.05
        results.append(f"p={p}: fitted {fit.exponent:.4f} ({100 * rel:.2f}%)")
    return ok, "; ".join(results) + " (tol 5%, dyadic radii 2..128)"


def _check_laurent_extraction():
    grid = build_grid(1.0, 64.0, 259, 128)
    x1, x2 = grid.nodes()
    rsq = x1 * x1 + x2 * x2
    cases = [
        ("log|x|", 0.5 * np.log(rsq), {1: 1.0}),
        ("x1", x1, {0: 1.0}),
        ("Re(1/z)", x1 / rsq, {2: -1.0}),
    ]
    worst_coeff, worst_imag = 0.0, 0.0
    for _, vals, expected in cases:
        lc = laurent_coefficients(ScalarField(grid, vals), 16.0, 4)
        for j in range(5):
            worst_coeff = max(worst_coeff,
                              abs(lc.coefficients[j] - expected.get(j, 0.0)))
        worst_imag = max(worst_imag, abs(lc.coefficients[1].imag))
    ok = worst_coeff <= 1e-10 and worst_imag <= 1e-8
    return ok, (f"max coefficient error {worst_coeff:.3e} (tol 1e-10) at radius 16, "
                f"n_theta 128; max |Im a_-1| {worst_imag:.3e} (tol 1e-8)")


def _check_newtonian_potential():
    def inverse_quartic(y1, y2):
        return (y1 * y1 + y2 * y2) ** -2.0

    resids, hs = [], []
    for n_r, n_t in ((65, 32), (129, 64), (257, 128)):
        g = build_grid(1.0, 16.0, n_r, n_t)
        f = ScalarField.from_function(g, inverse_quartic)
        i_lo = ring_index(g, 2.0)
        i_hi = ring_index(g, 2.0 * math.sqrt(2.0))
        sub = build_grid(2.0, float(g.radii[i_hi]), i_hi - i_lo + 1, n_t)
        pts = np.column_stack([x[i_lo:i_hi + 1].ravel() for x in g.nodes()])
        vals, _ = newtonian_potential(f, pts)
        lap = laplacian(ScalarField(sub, vals.reshape(sub.shape)))
        fsub = ScalarField.from_function(sub, inverse_quartic)
        resids.append(float(np.max(np.abs(lap.values - fsub.values)[2:-2])))
        hs.append(g.dt)
    envelope_ok = all(res <= 0.04 * h * h * (1.0 + abs(math.log(h)))
                      for res, h in zip(resids, hs))
    order = float(np.diff(-np.log2(resids))[-1])

    g2 = build_grid(1.0, 2.0 ** 20, 321, 32)
    f2 = ScalarField.from_function(g2, lambda a, b: (a * a + b * b) ** -0.75)
    radii = 2.0 ** np.arange(10, 18)
    vals, _ = newtonian_potential(f2, np.column_stack([radii, np.zeros_like(radii)]))
    slope = float(np.polyfit(np.log(radii), np.log(np.abs(vals)), 1)[0])
    ok = envelope_ok and order >= 1.6 and slope <= 0.6
    return ok, (f"residuals {[f'{r:.2e}' for r in resids]} within "
                f"0.04 h^2 (1+|log h|): {envelope_ok}, last order {order:.3f} "
                f"(floor 1.6); beta=3/2 growth exponent {slope:.4f} (cap 0.6)")


def _check_bootstrap_scheduler():
    rng = np.random.default_rng(11)
    ok = True
    for alpha in rng.uniform(0.01, 0.99, 1000):
        s = bootstrap_schedule(float(alpha))
        ok = ok and 0.0 < s.delta < 0.125 and 0.0 < s.epsilon < s.alpha
    n, delta = formula_schedule(2.0 - math.sqrt(3.0), 0.02)
    ok = ok and n == 2 and delta < 0.0
    return ok, (f"1000 random alphas in (0.01, 0.99) all gave delta in (0, 1/8); "
                f"literal formula at alpha = 2 - sqrt(3), eps = 0.02 gives "
                f"n = {n}, delta = {delta:.6f} < 0 as documented")


def _check_hessian_limit_decay():
    grid = build_grid(*_CRITERION_GRID)
    windows = ((2.0, 4.0), (4.0, 8.0), (8.0, 16.0), (16.0, 32.0))
    parts, ok = [], True
    for a in (1.0, 2.0):
        h = hessian(_radial_field(grid, a))
        fit = hessian_limit(h, windows)
        alpha = holder_exponent(dilatation_field(h).K_min)
        within = abs(fit.exponent - 2.0) <= 0.2
        above = fit.exponent >= alpha
        ok = ok and within and above
        parts.append(f"a={a:.0f}: exponent {fit.exponent:.4f} "
                     f"(band 2 +- 0.2, alpha(K) = {alpha:.4f})")

    u = _radial_field(grid, 2.0)
    cross = _d_cross_checks(u, np.eye(2), np.zeros(2),
                            fit_expansion(u, _STANDARD_WINDOWS).d, 1e-4)
    if cross["d_laurent"] is None:
        return False, "; ".join(parts + [f"laurent skipped: {cross['d_laurent_skipped']}"])
    ds = [cross["d_fit"], cross["d_divergence"]["value"], cross["d_laurent"]["value"]]
    gap = cross["max_pairwise_gap"]
    parts.append(f"d triangle fit/divergence/laurent = "
                 f"{ds[0]:.6f}/{ds[1]:.6f}/{ds[2]:.6f}, max gap {gap:.3e} "
                 f"(tol 2e-3)")
    return ok and gap <= 2e-3, "; ".join(parts)


ACCEPTANCE_CHECKS = (
    ("01-d-recovery-radial-family", _check_d_recovery),
    ("02-constant-term-recovery", _check_constant_term),
    ("03-holder-exponent-formula", _check_holder_formula),
    ("04-kelvin-identities", _check_kelvin_identities),
    ("05-gradient-map-quasiconformality", _check_gradient_map_qc),
    ("06-newton-solver-convergence", _check_newton_solver),
    ("07-special-lagrangian-cross-check", _check_special_lagrangian),
    ("08-decay-rate-estimator", _check_decay_estimator),
    ("09-laurent-extraction", _check_laurent_extraction),
    ("10-newtonian-potential", _check_newtonian_potential),
    ("11-bootstrap-scheduler", _check_bootstrap_scheduler),
    ("12-hessian-limit-decay", _check_hessian_limit_decay),
)


def _run_check(entry):
    name, func = entry
    start = time.perf_counter()
    try:
        passed, detail = func()
    except Exception as err:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(err).__name__}: {err}"
    return {"name": name, "passed": bool(passed), "detail": detail,
            "seconds": time.perf_counter() - start}


def run_acceptance(names=None):
    """Run acceptance checks; returns a list of result rows in registry order."""
    registry = dict(ACCEPTANCE_CHECKS)
    if names is None:
        selected = list(ACCEPTANCE_CHECKS)
    else:
        missing = [n for n in names if n not in registry]
        if missing:
            raise ValueError(f"invalid-config: unknown criteria {missing}")
        selected = [(n, registry[n]) for n in names]
    if not selected:
        raise ValueError("invalid-config: no criteria selected")
    return [_run_check(e) for e in selected]


def verify_suite(names=None):
    """Run the acceptance registry and print one pass/fail row per criterion."""
    rows = run_acceptance(names=names)
    width = max(len(r["name"]) for r in rows)
    for row in rows:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"{row['name']:<{width}}  {status}  {row['seconds']:7.2f}s  "
              f"{row['detail']}")
    failed = [r["name"] for r in rows if not r["passed"]]
    print(f"{len(rows) - len(failed)}/{len(rows)} criteria passed")
    return rows, not failed


# ---------------------------------------------------------------------------
# Command line plumbing


def _load_scenario(ref, args):
    if ref in BUILTIN_SCENARIOS:
        config = json.loads(json.dumps(BUILTIN_SCENARIOS[ref]))
    else:
        path = Path(ref)
        if not path.exists():
            _config_error(f"no such config file or built-in scenario: {ref}")
        try:
            config = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            _config_error(f"config {ref} is not valid JSON: {err}")
    if not isinstance(config, dict):
        _config_error("scenario config must be a JSON object")
    if getattr(args, "grid", None):
        parts = args.grid.split(",")
        if len(parts) not in (4, 5):
            _config_error("--grid wants r_inner,r_outer,n_r,n_theta[,spacing]")
        try:
            config["grid"] = {"r_inner": float(parts[0]), "r_outer": float(parts[1]),
                              "n_r": int(parts[2]), "n_theta": int(parts[3])}
        except ValueError:
            _config_error(f"--grid wants r_inner,r_outer,n_r,n_theta[,spacing], "
                          f"got {args.grid!r}")
        if len(parts) == 5:
            config["grid"]["spacing"] = parts[4]
    if getattr(args, "windows", None):
        windows = []
        for piece in args.windows.split(","):
            lo, _, hi = piece.partition(":")
            if not hi:
                _config_error("--windows wants lo:hi[,lo:hi...]")
            try:
                windows.append([float(lo), float(hi)])
            except ValueError:
                _config_error(f"--windows wants lo:hi[,lo:hi...], got {args.windows!r}")
        config["windows"] = windows
    if getattr(args, "tol", None) is not None:
        _object()(config.setdefault("tolerances", {}), "tolerances")
        config["tolerances"]["newton_tol"] = args.tol
    return Scenario.from_config(config)


def _emit(scenario, report, u, h, args):
    """Artefacts and summary of a finished run; the exit code of its report."""
    out_dir = Path(args.out) / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(_report_json(report))
    write_snapshot(out_dir / "solution.field", u)
    for name, text in _tables(report, u, args.format, h).items():
        (out_dir / name).write_text(text)
    print(_report_summary(report))
    print(f"artifacts written to {out_dir}")
    return 0 if report["status"] == "pass" else 1


def _cmd_solve(args):
    scenario = _load_scenario(args.config, args)
    try:
        u, solve_info, h = _solve(scenario)
        report = _analyze(scenario, u, solve_info, h)
    except NewtonError as err:
        print(f"scenario {scenario.name}: solver failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        raise ValueError(f"scenario {scenario.name}: {err}") from err
    return _emit(scenario, report, u, h, args)


def _cmd_analyze(args):
    scenario = _load_scenario(args.config, args)
    field = _read_finite(args.field_file)
    grid = field.grid
    scenario_grid = _scenario_grid(scenario.grid)
    if not grid.same_geometry(scenario_grid):
        _config_error(f"grid: the snapshot's {grid} is not the scenario's {scenario_grid}")
    h = hessian(field)
    residual = _operator_residual(scenario, _operator(scenario, grid), h)
    solve_info = {"method": "loaded", "iterations": None, "final_residual": residual}
    try:
        report = _analyze(scenario, field, solve_info, h)
    except ValueError as err:
        raise ValueError(f"scenario {scenario.name}: {err}") from err
    return _emit(scenario, report, field, h, args)


def _cmd_verify(args):
    names = args.only.split(",") if args.only else None
    _, all_pass = verify_suite(names=names)
    return 0 if all_pass else 1


def _cmd_report(args):
    run_dir = Path(args.run_dir)
    report_path = run_dir / "report.json"
    if not report_path.exists():
        _config_error(f"no report.json under {run_dir}")
    try:
        report = json.loads(report_path.read_text())
    except json.JSONDecodeError as err:
        _config_error(f"report {report_path} is not valid JSON: {err}")
    version = report.get("report_version") if isinstance(report, dict) else None
    if type(version) is not int or version != 1:  # JSON true is not 1
        _config_error(f"report {report_path} is not a JSON object with report_version 1")
    field = None
    if args.format in ("csv", "svg"):
        field_path = run_dir / "solution.field"
        if not field_path.exists():
            _config_error(f"no solution.field under {run_dir} to derive tables from")
        field = _read_finite(field_path)
    # a bad snapshot or report fails here, before anything is printed or written
    try:
        summary, tables = _report_summary(report), _tables(report, field, args.format)
    except (KeyError, TypeError, ValueError, IndexError) as err:
        _config_error(f"report {report_path} lacks or mistypes a key the summary or "
                      f"tables read ({type(err).__name__}: {err})")
    print(summary)
    for name, text in tables.items():
        (run_dir / name).write_text(text)
    return 0 if report["status"] == "pass" else 1


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="annulab",
        description="Annular-domain elliptic solve / far-field analysis scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="runs", help="output directory root")
        p.add_argument("--format", choices=("json", "csv", "svg"), default="json",
                       help="most detailed artifact to emit (cumulative)")
        p.add_argument("--grid", help="override: r_inner,r_outer,n_r,n_theta[,spacing]")
        p.add_argument("--windows", help="override: lo:hi[,lo:hi...]")
        p.add_argument("--tol", type=float, help="override Newton tolerance")

    p_solve = sub.add_parser("solve", help="run a scenario config (path or built-in name)")
    p_solve.add_argument("config")
    add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_an = sub.add_parser("analyze", help="analyze a stored field snapshot")
    p_an.add_argument("field_file")
    p_an.add_argument("config")
    add_common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser("verify", help="run the built-in acceptance checks")
    p_ver.add_argument("--only", help="comma-separated subset of criterion names")
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("report", help="summarize a finished run directory")
    p_rep.add_argument("run_dir")
    p_rep.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
