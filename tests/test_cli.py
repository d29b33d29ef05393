"""Scenario configs, the runner pipeline, CLI exit codes, and the verify harness."""

import contextlib
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import annulab.cli as cli
import annulab.expansion as expansion
import annulab.qcmap as qcmap
from annulab.cli import BUILTIN_SCENARIOS, Scenario, run_acceptance, run_scenario
from annulab.grid import (
    UNIFORM_RADIAL,
    AnnularGrid,
    PlanarMapping,
    ScalarField,
    build_grid,
    hessian,
    write_snapshot,
)
from annulab.nonlinear import radial_ma_reference


def builtin_config(name, /, **overrides):
    config = json.loads(json.dumps(BUILTIN_SCENARIOS[name]))
    config.update(overrides)
    return config


@pytest.fixture(scope="module")
def quad_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    code = cli.main(["solve", "identity-quadratic", "--out", str(out),
                     "--format", "svg"])
    assert code == 0
    return out / "identity-quadratic"


# ma-radial-a2 on a grid small enough to solve in a test, with one-sided
# bounds that its report meets: K_min is about 1.64, the residual exponent 1.73
SMALL_MA = {"name": "ma-small",
            "grid": {"r_inner": 1.0, "r_outer": 16.0, "n_r": 129, "n_theta": 32,
                     "spacing": "log"},
            "windows": [[2, 4], [4, 8], [8, 16]],
            "expect": {"K_min_max": {"value": 2.0}, "residual_exponent_min": {"value": 1.0}}}


@pytest.fixture(scope="module")
def small_ma_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    path = out / "ma-small.json"
    path.write_text(json.dumps(builtin_config("ma-radial-a2", **SMALL_MA)))
    assert cli.main(["solve", str(path), "--out", str(out), "--format", "svg"]) == 0
    return out / "ma-small"


def assert_reports_agree(report, other, rel):
    """Every number of two reports agrees to ``rel``, every other entry exactly."""
    if isinstance(report, dict):
        assert sorted(report) == sorted(other)
        for key in report:
            assert_reports_agree(report[key], other[key], rel)
    elif isinstance(report, list):
        assert len(report) == len(other)
        for item, item_other in zip(report, other):
            assert_reports_agree(item, item_other, rel)
    elif isinstance(report, float):
        assert abs(report - other) <= rel * max(1.0, abs(report)), (report, other)
    else:
        assert report == other


# ---------------------------------------------------------------------------
# config validation


class TestScenarioConfig:
    def test_config_that_is_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="scenario config must be a JSON object"):
            Scenario.from_config([])

    def test_builtins_parse(self):
        for name, config in BUILTIN_SCENARIOS.items():
            scenario = Scenario.from_config(config)
            assert scenario.name == name

    def test_missing_key_rejected(self):
        config = builtin_config("identity-quadratic")
        del config["boundary"]
        with pytest.raises(ValueError, match="invalid-config: missing key boundary;"):
            Scenario.from_config(config)

    @pytest.mark.parametrize("name", ["grid.n_theta", "boundary.a", "windows"])
    def test_missing_required_key_is_named(self, name):
        config = builtin_config("ma-radial-a2")
        *section, key = name.split(".")
        del (config[section[0]] if section else config)[key]
        with pytest.raises(ValueError, match=f"invalid-config: missing key {name}[ ;]"):
            Scenario.from_config(config)

    def test_unknown_key_rejected(self):
        config = builtin_config("identity-quadratic", extra=1)
        with pytest.raises(ValueError, match="invalid-config: unknown key extra;"):
            Scenario.from_config(config)

    def test_unknown_operator_rejected(self):
        config = builtin_config("ma-radial-a2", operator={"kind": "biharmonic"})
        with pytest.raises(ValueError, match="invalid-config"):
            Scenario.from_config(config)

    def test_special_lagrangian_needs_theta(self):
        config = builtin_config("ma-radial-a2",
                                operator={"kind": "special_lagrangian"})
        with pytest.raises(ValueError, match="invalid-config: missing key operator.theta "):
            Scenario.from_config(config)

    def test_linear_custom_needs_coefficients(self):
        config = builtin_config("identity-quadratic",
                                operator={"kind": "linear_custom", "a11": 1.0})
        with pytest.raises(ValueError, match="invalid-config: missing keys "
                                             "operator.a12, operator.a22 "):
            Scenario.from_config(config)

    def test_bad_spacing_rejected(self):
        config = builtin_config("identity-quadratic")
        config["grid"]["spacing"] = "chebyshev"
        with pytest.raises(ValueError, match="invalid-config"):
            Scenario.from_config(config)

    def test_window_outside_grid_rejected(self):
        config = builtin_config("identity-quadratic", windows=[[4, 128]])
        with pytest.raises(ValueError, match="invalid-config"):
            Scenario.from_config(config)

    def test_empty_windows_rejected(self):
        config = builtin_config("identity-quadratic", windows=[])
        with pytest.raises(ValueError, match="invalid-config"):
            Scenario.from_config(config)

    def test_unknown_expect_key_rejected(self):
        config = builtin_config("identity-quadratic",
                                expect={"volume": {"value": 1.0, "tol": 1.0}})
        with pytest.raises(ValueError, match="invalid-config: unknown key expect.volume;"):
            Scenario.from_config(config)

    @pytest.mark.parametrize("key, entry, message", [
        ("d", {"value": 0.0}, "missing key expect.d.tol; known: value, tol"),
        ("A", {"value": [[1.0, 0.0], [0.0, 1.0]], "tol": 0.0},
         "expect.A.tol must be positive, got 0.0"),
        ("d_divergence", {"value": 1.0, "tol": float("nan")},
         "expect.d_divergence.tol must be a finite number, got nan"),
        ("c", {"value": 0.0, "tol": "tight"}, "expect.c.tol must be a finite number"),
        ("e", {"tol": 1e-8}, "missing key expect.e.value; known: value, tol"),
        ("b", {"value": [0.0], "tol": 1e-8},
         "expect.b.value must be a finite array of shape (2,), got [0.0]"),
        ("K_min_max", 2.0, "expect.K_min_max must be a JSON object, got 2.0"),
    ], ids=["d-no-tol", "A-zero-tol", "d_divergence-nan-tol", "c-string-tol", "e-no-value",
            "b-wrong-shape", "K_min_max-not-an-object"])
    def test_bad_expect_entry_rejected(self, key, entry, message):
        config = builtin_config("identity-quadratic", expect={key: entry})
        with pytest.raises(ValueError, match=re.escape(f"invalid-config: {message}")):
            Scenario.from_config(config)

    @pytest.mark.parametrize("name", ["..", ".", "runs/x", "/x", "x/", ""])
    def test_name_must_be_a_plain_file_name(self, name):
        # the run directory is named after the scenario, under --out
        config = builtin_config("identity-quadratic", name=name)
        with pytest.raises(ValueError, match="invalid-config: name must be a "):
            Scenario.from_config(config)

    def test_one_sided_expectations_need_no_tol(self):
        config = builtin_config("identity-quadratic", expect={
            "K_min_max": {"value": 1.5}, "residual_exponent_min": {"value": 1.0}})
        assert Scenario.from_config(config).expect["K_min_max"] == {"value": 1.5}


# ---------------------------------------------------------------------------
# scenario runner


class TestRunScenario:
    def test_identity_quadratic_passes(self):
        report = run_scenario(Scenario.from_config(
            BUILTIN_SCENARIOS["identity-quadratic"]))
        assert report["status"] == "pass"
        assert all(row["pass"] for row in report["assertions"])
        assert abs(report["gradient_map"]["K_min"] - 1.0) <= 1e-3
        assert report["gradient_map"]["orientation_ok"]
        # the quadratic is recovered exactly, so the residual fit degenerates
        assert report["expansion"]["residual_fit"]["degenerate"]
        assert report["cross_checks"]["max_pairwise_gap"] <= 1e-8

    def test_ma_radial_passes(self):
        report = run_scenario(Scenario.from_config(
            BUILTIN_SCENARIOS["ma-radial-a2"]))
        assert report["status"] == "pass"
        assert report["solve"]["iterations"] <= 12
        assert report["solve"]["final_residual"] < 1e-9
        assert abs(report["expansion"]["d"] - 1.0) <= 5e-3
        assert 1.0 <= report["gradient_map"]["K_min"] <= 2.0
        assert report["cross_checks"]["d_laurent"] is not None

    def test_report_document_is_deterministic(self):
        scenario = Scenario.from_config(BUILTIN_SCENARIOS["identity-quadratic"])
        first = cli._report_json(run_scenario(scenario))
        second = cli._report_json(run_scenario(scenario))
        assert first == second

    def test_report_document_is_strict_json(self):
        report = run_scenario(Scenario.from_config(
            BUILTIN_SCENARIOS["identity-quadratic"]))
        text = cli._report_json(report)
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text)["status"] == "pass"

    def test_explicit_polynomial_boundary_matches_closed_form(self):
        boundary = {"kind": "explicit_polynomial", "A": [[1.5, -0.4], [-0.4, 0.7]],
                    "b": [0.3, -1.2], "d": 0.8, "c": -2.5, "e": [0.6, 0.9]}
        scenario = Scenario.from_config(builtin_config("identity-quadratic",
                                                       boundary=boundary))
        grid = build_grid(1.0, 64.0, 193, 64, UNIFORM_RADIAL)
        (a11, a12), (_, a22) = boundary["A"]
        (b1, b2), (e1, e2) = boundary["b"], boundary["e"]
        for g, r in zip(cli._boundary_data(scenario, grid), (1.0, 64.0)):
            x1, x2 = r * np.cos(grid.theta), r * np.sin(grid.theta)
            rsq = x1 * x1 + x2 * x2
            closed = (0.5 * (a11 * x1 * x1 + a22 * x2 * x2) + a12 * x1 * x2
                      + b1 * x1 + b2 * x2 + 0.5 * boundary["d"] * np.log(rsq)
                      + boundary["c"] + e1 * x1 / rsq + e2 * x2 / rsq)
            assert np.max(np.abs(g - closed)) <= 1e-14 * np.max(np.abs(g))


    def test_special_lagrangian_at_right_angle_matches_monge_ampere(self, small_ma_run):
        # SL(pi/2) is det D^2 u = 1 written through arctangents of the eigenvalues
        config = builtin_config("ma-radial-a2", **SMALL_MA,
                                operator={"kind": "special_lagrangian",
                                          "theta": math.pi / 2.0})
        report = run_scenario(Scenario.from_config(config))
        monge_ampere = json.loads((small_ma_run / "report.json").read_text())
        assert report["status"] == monge_ampere["status"] == "pass"
        assert report["solve"]["iterations"] == monge_ampere["solve"]["iterations"]
        assert report["solve"]["final_residual"] <= 1e-9
        drop = ("scenario", "solve")
        assert_reports_agree({k: v for k, v in report.items() if k not in drop},
                             {k: v for k, v in monge_ampere.items() if k not in drop},
                             1e-9)

    def test_identity_linear_custom_matches_the_trace_operator(self):
        grid = {"r_inner": 1.0, "r_outer": 64.0, "n_r": 97, "n_theta": 32,
                "spacing": "uniform"}
        windows = [[8, 16], [16, 32], [32, 64]]
        trace = run_scenario(Scenario.from_config(builtin_config(
            "identity-quadratic", grid=grid, windows=windows)))
        custom = run_scenario(Scenario.from_config(builtin_config(
            "identity-quadratic", grid=grid, windows=windows,
            operator={"kind": "linear_custom", "a11": 1.0, "a12": 0.0, "a22": 1.0,
                      "rhs": 2.0})))
        assert trace["status"] == "pass"
        del trace["scenario"], custom["scenario"]
        assert custom == trace

    def test_file_boundary_from_a_solved_field_on_another_grid(self, quad_run):
        # the snapshot's boundary rings carry |x|^2/2 on a 193-ring grid; they
        # are the Dirichlet data of a 97-ring solve of the same problem
        path = quad_run / "solution.field"
        config = builtin_config("identity-quadratic",
                                boundary={"kind": "file", "path": str(path)},
                                grid={"r_inner": 1.0, "r_outer": 64.0, "n_r": 97,
                                      "n_theta": 64, "spacing": "uniform"},
                                windows=[[8, 16], [16, 32], [32, 64]])
        scenario = Scenario.from_config(config)
        grid = build_grid(1.0, 64.0, 97, 64, UNIFORM_RADIAL)
        gin, gout = cli._boundary_data(scenario, grid)
        solved = cli.read_snapshot(path)
        assert solved.grid.n_r == 193
        assert gin.tobytes() == solved.values[0].tobytes()
        assert gout.tobytes() == solved.values[-1].tobytes()
        report = run_scenario(scenario)
        assert report["status"] == "pass"
        assert report["scenario"]["grid"]["n_r"] == 97
        assert len(report["assertions"]) == 5

    def test_file_boundary_on_another_circle_is_refused(self, quad_run):
        config = builtin_config("identity-quadratic",
                                boundary={"kind": "file",
                                          "path": str(quad_run / "solution.field")},
                                grid={"r_inner": 1.0, "r_outer": 32.0, "n_r": 97,
                                      "n_theta": 64, "spacing": "uniform"},
                                windows=[[4, 8], [8, 16], [16, 32]])
        with pytest.raises(ValueError, match="boundary file grid does not match"):
            run_scenario(Scenario.from_config(config))

    def test_file_boundary_circles_match_relative_to_their_radii(self, tmp_path):
        # one ulp of 2^20 is 2.3e-10, far above an absolute 1e-12, yet the
        # snapshot's outer circle is the scenario's to rounding
        r_outer = 2.0 ** 20
        # 8 rings per octave, as the scenario's windows need
        snap = build_grid(1.0, math.nextafter(r_outer, math.inf), 161, 16)
        values = np.arange(snap.n_r * snap.n_theta, dtype=float).reshape(snap.shape)
        path = tmp_path / "far.field"
        write_snapshot(path, ScalarField(snap, values))
        config = builtin_config("identity-quadratic",
                                boundary={"kind": "file", "path": str(path)},
                                grid={"r_inner": 1.0, "r_outer": r_outer, "n_r": 161,
                                      "n_theta": 16, "spacing": "log"})
        gin, gout = cli._boundary_data(Scenario.from_config(config),
                                       build_grid(1.0, r_outer, 161, 16))
        assert gin.tobytes() == values[0].tobytes()
        assert gout.tobytes() == values[-1].tobytes()

    def test_one_sided_bounds_pass_and_fail(self, small_ma_run):
        report = json.loads((small_ma_run / "report.json").read_text())
        k_min = report["gradient_map"]["K_min"]
        exponent = report["expansion"]["residual_fit"]["exponent"]
        assert 1.5 < k_min < 2.0 and 1.0 < exponent < 2.0
        met = {row["name"]: row for row in report["assertions"]}
        assert met["K_min_max"] == {"name": "K_min_max", "measured": k_min,
                                    "expected": 2.0, "tolerance": 0.0, "gap": 0.0,
                                    "pass": True}
        assert met["residual_exponent_min"]["measured"] == exponent
        assert met["residual_exponent_min"]["pass"]
        scenario = Scenario.from_config(builtin_config("ma-radial-a2", **dict(
            SMALL_MA, expect={"K_min_max": {"value": 1.5},
                              "residual_exponent_min": {"value": 2.0}})))
        missed = cli._evaluate_expectations(scenario, report)
        assert [(row["name"], row["expected"], row["pass"]) for row in missed] == [
            ("K_min_max", 1.5, False), ("residual_exponent_min", 2.0, False)]

    def test_saddle_swaps_components_and_skips_laurent(self):
        # u = x1^2/2 - x2^2/4 solves u_11 + 2 u_22 = 0; its gradient map
        # reverses orientation, and the residual left after the fit is
        # not harmonic, so the Laurent cross-check is skipped with the reason
        config = builtin_config(
            "identity-quadratic",
            operator={"kind": "linear_custom", "a11": 1.0, "a12": 0.0, "a22": 2.0},
            boundary={"kind": "explicit_polynomial", "A": [[1.0, 0.0], [0.0, -0.5]],
                      "b": [0.0, 0.0], "d": 0.0, "c": 0.0, "e": [0.0, 0.0]},
            grid={"r_inner": 1.0, "r_outer": 16.0, "n_r": 65, "n_theta": 64,
                  "spacing": "uniform"},
            windows=[[2, 4], [4, 8], [8, 16]], expect={})
        report = run_scenario(Scenario.from_config(config))
        gradient_map = report["gradient_map"]
        assert gradient_map["components_swapped"] and gradient_map["orientation_ok"]
        assert gradient_map["jacobian_min"] > 0.0
        cross = report["cross_checks"]
        assert cross["d_laurent"] is None
        assert cross["d_laurent_skipped"].startswith("not-harmonic: ")
        d_values = [cross["d_fit"], cross["d_divergence"]["value"]]
        assert cross["max_pairwise_gap"] == max(d_values) - min(d_values)
        assert report["status"] == "pass" and report["assertions"] == []
        (a11, a12), (_, a22) = report["expansion"]["A"]
        assert abs(a11 - 1.0) <= 1e-2 and abs(a22 + 0.5) <= 1e-2 and abs(a12) <= 1e-12


# ---------------------------------------------------------------------------
# command line


class TestCommandLine:
    def test_decay_plot_draws_the_fit(self, small_ma_run):
        fit = json.loads((small_ma_run / "report.json").read_text())[
            "expansion"]["residual_fit"]
        svg = (small_ma_run / "decay.svg").read_text()
        assert svg == cli._decay_svg(fit)
        assert svg.count("<circle ") == len(fit["windows"]) == 3
        assert svg.count('stroke="#888"') == 1
        assert f"deviation ~ C R^-{fit['exponent']:.4f}" in svg
        assert "degenerate" not in svg
        # the points span the plot: the first at the left axis, the last at the right
        xs = [float(x) for x in re.findall(r'<circle cx="([0-9.]+)"', svg)]
        assert xs[0] == 60.0 and xs[-1] == 580.0

    def test_solve_writes_artifacts(self, quad_run):
        for name in ("report.json", "solution.field", "profile.csv", "decay.svg"):
            assert (quad_run / name).exists()
        report = json.loads((quad_run / "report.json").read_text())
        assert report["status"] == "pass"
        header = (quad_run / "profile.csv").read_text().splitlines()[0]
        assert header == "radius,u_min,u_mean,u_max,hessian_dev_max"

    def test_solve_is_byte_deterministic(self, quad_run, tmp_path):
        code = cli.main(["solve", "identity-quadratic", "--out", str(tmp_path),
                         "--format", "svg"])
        assert code == 0
        again = tmp_path / "identity-quadratic"
        for name in ("report.json", "solution.field", "profile.csv", "decay.svg"):
            assert (again / name).read_bytes() == (quad_run / name).read_bytes()

    def test_report_subcommand(self, quad_run):
        assert cli.main(["report", str(quad_run)]) == 0

    def test_report_svg_rewrites_the_tables_solve_wrote(self, quad_run, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("report.json", "solution.field"):
            shutil.copy(quad_run / name, run / name)
        assert cli.main(["report", str(run), "--format", "svg"]) == 0
        for name in ("profile.csv", "decay.svg"):
            assert (run / name).read_bytes() == (quad_run / name).read_bytes()

    def test_report_without_its_files_exits_2(self, quad_run, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path)]) == 2
        assert f"no report.json under {tmp_path}" in capsys.readouterr().err
        shutil.copy(quad_run / "report.json", tmp_path / "report.json")
        assert cli.main(["report", str(tmp_path), "--format", "csv"]) == 2
        assert f"no solution.field under {tmp_path}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_profile_cells_are_plain_numbers(self, quad_run):
        rows = (quad_run / "profile.csv").read_text().splitlines()[1:]
        cells = [[float(v) for v in row.split(",")] for row in rows]
        assert all(len(row) == 5 for row in cells)
        radii = build_grid(1.0, 64.0, 193, 64, UNIFORM_RADIAL).radii
        assert [row[0] for row in cells] == radii.tolist()

    def test_analyze_roundtrip(self, quad_run, small_ma_run, tmp_path):
        # analyze of a solved snapshot reproduces the solve's tables and every
        # report entry but "solve", on the direct path and on the Newton path
        for run, config in ((quad_run, "identity-quadratic"),
                            (small_ma_run, str(small_ma_run.parent / "ma-small.json"))):
            code = cli.main(["analyze", str(run / "solution.field"), config,
                             "--format", "svg", "--out", str(tmp_path)])
            assert code == 0
            analyzed = tmp_path / run.name
            for name in ("profile.csv", "decay.svg"):
                assert (analyzed / name).read_bytes() == (run / name).read_bytes(), name
            solved = json.loads((run / "report.json").read_text())
            loaded = json.loads((analyzed / "report.json").read_text())
            assert loaded.pop("solve")["method"] == "loaded"
            solved.pop("solve")
            assert loaded == solved
            assert loaded["status"] == "pass"

    def test_no_step_loads_scipy(self, small_ma_run, tmp_path):
        # one fresh interpreter runs each step in turn and records the scipy
        # modules loaded after it; the snapshot was solved in this process
        script = r"""
import contextlib, io, json, sys
import numpy as np

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

field, config, out = sys.argv[1:]
seen = {}
import annulab
from annulab import cli, elliptic
from annulab.elliptic import LinearCoefficients, newtonian_potential, solve_linear_dirichlet
from annulab.grid import ScalarField, build_grid
from annulab.nonlinear import monge_ampere_spec, newton_solve, radial_ma_reference
seen["import"] = loaded()
g = build_grid(1.0, 4.0, 17, 16)
x1, x2 = g.nodes()
f = ScalarField(g, np.exp(-x1**2 - x2**2))
# a node, a point inside a cell, one beyond the grid and the origin
newtonian_potential(f, [[x1[3, 2], x2[3, 2]], [1.7, 0.4], [6.0, -1.0], [0.0, 0.0]])
seen["potential"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["analyze", field, config, "--format", "svg", "--out", out],
                 ["report", out + "/ma-small", "--format", "csv"],
                 ["verify", "--only", "03-holder-exponent-formula"]):
        assert cli.main(argv) == 0, argv
        seen[argv[0]] = loaded()
grid = build_grid(1.0, 16.0, 33, 16)
u_in, u_out = (float(radial_ma_reference(1.0, r)[0]) for r in grid.radii[[0, -1]])
newton_solve(monge_ampere_spec(), grid, u_in, u_out)
seen["radial newton"] = loaded()
cycles, cycle = [], elliptic._gmres_cycle
elliptic._gmres_cycle = lambda *args: cycles.append(None) or cycle(*args)
solve_linear_dirichlet(LinearCoefficients(g, 1.0 + 0.5 * np.cos(g.theta), 0.0, 1.0), f, 0.0, 1.0)
seen["varying along rings"] = loaded()
print(json.dumps({"seen": seen, "cycles": len(cycles)}))
"""
        out = tmp_path / "analyzed"
        done = subprocess.run(
            [sys.executable, "-c", script, str(small_ma_run / "solution.field"),
             str(small_ma_run.parent / "ma-small.json"), str(out)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        result = json.loads(done.stdout.splitlines()[-1])
        seen = result["seen"]
        assert result["cycles"] >= 1  # the last step runs GMRES
        assert list(seen) == ["import", "potential", "analyze", "report", "verify",
                              "radial newton", "varying along rings"]
        for step, modules in seen.items():
            assert modules == [], step

    def test_each_command_forms_the_analysed_hessian_once(self, quad_run, small_ma_run,
                                                          tmp_path, monkeypatch):
        # the residual, the gradient map and the profile table share one
        # Hessian of the field; a Newton solve hands on the Hessian its last
        # residual was formed from, so the command forms none of its own, and
        # no command differentiates grad u
        calls = []

        def counted(field):
            calls.append(field)
            return hessian(field)

        def no_gradient(field):
            raise AssertionError("a command differentiated the field a second time")

        monkeypatch.setattr(cli, "hessian", counted)
        monkeypatch.setattr(cli, "gradient", no_gradient)
        ma_config = str(small_ma_run.parent / "ma-small.json")
        for argv, formed in ((["solve", "identity-quadratic"], 1), (["solve", ma_config], 0),
                             (["analyze", str(quad_run / "solution.field"),
                               "identity-quadratic"], 1),
                             (["analyze", str(small_ma_run / "solution.field"), ma_config], 1)):
            calls.clear()
            assert cli.main([*argv, "--format", "svg", "--out", str(tmp_path)]) == 0
            assert len(calls) == formed, argv

    def test_newton_profile_is_the_table_of_the_solution_hessian(self, small_ma_run):
        # the profile a Newton solve writes from the solver's last Hessian is,
        # to the bit, the one formed afresh from the stored solution
        report = json.loads((small_ma_run / "report.json").read_text())
        u = cli.read_snapshot(small_ma_run / "solution.field")
        expected = cli._profile_csv(u, hessian(u), report["expansion"]["A"])
        assert (small_ma_run / "profile.csv").read_text() == expected

    def test_grid_and_windows_overrides(self, tmp_path):
        code = cli.main(["solve", "identity-quadratic", "--out", str(tmp_path),
                         "--grid", "1,64,97,32,uniform",
                         "--windows", "8:16,16:32,32:64"])
        assert code == 0
        report = json.loads(
            (tmp_path / "identity-quadratic" / "report.json").read_text())
        assert report["scenario"]["grid"]["n_r"] == 97
        assert report["expansion"]["windows"] == [[8, 16], [16, 32], [32, 64]]

    @pytest.mark.parametrize("windows", ["4:8,8:16", "4:8,8:16,63:64", "4:8,8:16,32:128"],
                             ids=["two-windows", "thin-window", "beyond-the-grid"])
    def test_windows_the_fit_refuses_exit_2_before_solving(self, tmp_path, monkeypatch,
                                                           capsys, windows):
        def no_solve(*args, **kwargs):
            raise AssertionError("the Newton solve ran for windows the fit refuses")

        monkeypatch.setattr(cli, "newton_solve", no_solve)
        assert cli.main(["solve", "ma-radial-a2", "--windows", windows,
                         "--out", str(tmp_path)]) == 2
        named = [[float(v) for v in pair.split(":")] for pair in windows.split(",")]
        assert f"windows {named} do not suit the grid" in capsys.readouterr().err
        assert not (tmp_path / "ma-radial-a2").exists()

    def test_analyze_refuses_a_snapshot_on_another_grid(self, tmp_path, monkeypatch, capsys):
        # identity-quadratic's windows suit this 385x32 snapshot too, so
        # without the grid check the analysis ran, and its report named the
        # scenario's 193x64 grid
        grid = build_grid(1.0, 64.0, 385, 32, UNIFORM_RADIAL)
        write_snapshot(tmp_path / "other.field",
                       ScalarField.from_radial(grid, lambda r: 0.5 * r * r))

        def no_analysis(*args):
            raise AssertionError("the analysis ran on a snapshot of another grid")

        monkeypatch.setattr(cli, "_analyze", no_analysis)
        out = tmp_path / "out"
        assert cli.main(["analyze", str(tmp_path / "other.field"), "identity-quadratic",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: invalid-config: grid: the snapshot's {grid} is not the scenario's " in err
        assert "n_r=193, n_theta=64" in err
        assert not out.exists()

    def test_analyze_refuses_a_snapshot_of_the_same_shape_on_another_spacing(
            self, tmp_path, monkeypatch, capsys):
        # 193x64 like identity-quadratic's grid, but log-spaced: the shapes
        # agree, the radii do not
        grid = build_grid(1.0, 64.0, 193, 64)
        write_snapshot(tmp_path / "log.field",
                       ScalarField.from_radial(grid, lambda r: 0.5 * r * r))

        def no_analysis(*args):
            raise AssertionError("the analysis ran on a snapshot of another spacing")

        monkeypatch.setattr(cli, "_analyze", no_analysis)
        out = tmp_path / "out"
        assert cli.main(["analyze", str(tmp_path / "log.field"), "identity-quadratic",
                         "--out", str(out)]) == 2
        assert (f"error: invalid-config: grid: the snapshot's {grid} is not the scenario's "
                in capsys.readouterr().err)
        assert not out.exists()

    def test_analyze_after_a_parse_error_matches_a_fresh_process(self, small_ma_run,
                                                                 tmp_path, capsys):
        # main builds its parser once per process: a call that the parser
        # refuses must leave nothing behind for the next call
        field, config = small_ma_run / "solution.field", small_ma_run.parent / "ma-small.json"
        argv = ["analyze", str(field), str(config), "--format", "svg"]
        with pytest.raises(SystemExit) as refused:
            cli.main(argv[:-1] + ["bogus", "--out", str(tmp_path / "refused")])
        assert refused.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()
        assert cli.main(argv + ["--out", str(tmp_path / "here")]) == 0
        subprocess.run([sys.executable, "-m", "annulab", *argv, "--out",
                        str(tmp_path / "fresh")], capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        names = sorted(p.name for p in (tmp_path / "fresh" / "ma-small").iterdir())
        assert names == ["decay.svg", "profile.csv", "report.json", "solution.field"]
        for name in names:
            here, fresh = (tmp_path / side / "ma-small" / name for side in ("here", "fresh"))
            assert here.read_bytes() == fresh.read_bytes(), name

    def test_analyze_grid_option_selects_the_snapshot_grid(self, tmp_path):
        # --grid names the snapshot's grid, and the report names it too
        grid = build_grid(1.0, 64.0, 385, 32, UNIFORM_RADIAL)
        write_snapshot(tmp_path / "other.field",
                       ScalarField.from_radial(grid, lambda r: 0.5 * r * r))
        assert cli.main(["analyze", str(tmp_path / "other.field"), "identity-quadratic",
                         "--grid", "1,64,385,32,uniform", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "identity-quadratic" / "report.json").read_text())
        named = report["scenario"]["grid"]
        assert (named["n_r"], named["n_theta"], named["spacing"]) == (385, 32, "uniform")

    def test_windows_are_checked_against_the_snapshot_grid(self, tmp_path, monkeypatch,
                                                           capsys):
        # with --grid naming this snapshot's grid, [4, 8] spans 6 of its
        # rings, though 171 of the config's grid
        grid = build_grid(1.0, 64.0, 33, 16)
        write_snapshot(tmp_path / "coarse.field",
                       ScalarField.from_radial(grid, lambda r: 0.5 * r * r))

        def no_analysis(*args):
            raise AssertionError("the analysis ran for windows the fit refuses")

        monkeypatch.setattr(cli, "_analyze", no_analysis)
        assert cli.main(["analyze", str(tmp_path / "coarse.field"), "ma-radial-a2",
                         "--grid", "1,64,33,16", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "do not suit the grid: insufficient-window: [4.0, 8.0]" in err
        assert not (tmp_path / "ma-radial-a2").exists()

    def test_config_error_exits_2(self, tmp_path):
        config = builtin_config("identity-quadratic", windows=[[4, 128]])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2

    def test_expect_without_tol_exits_2_before_solving(self, tmp_path, monkeypatch,
                                                       capsys):
        config = builtin_config("identity-quadratic", expect={"d": {"value": 0.0}})
        path = tmp_path / "no-tol.json"
        path.write_text(json.dumps(config))

        def no_solve(scenario):
            raise AssertionError("the solve ran for an invalid config")

        monkeypatch.setattr(cli, "_solve", no_solve)
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2
        assert "missing key expect.d.tol;" in capsys.readouterr().err
        assert not (tmp_path / "identity-quadratic").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"windows": [[4]]}, "windows[0] must be a [lo, hi] pair"),
        ({"windows": [[4, 8], [8, 16, 32]]}, "windows[1] must be a [lo, hi] pair"),
        ({"windows": [[4, "eight"]]}, "windows[0] must be a finite number"),
        ({"windows": [[4, math.nan]]}, "windows[0] must be a finite number"),
        ({"windows": "4:8"}, "windows must be a list of [lo, hi] pairs"),
        ({"grid": {"n_r": "many"}}, "grid.n_r must be an integer"),
        ({"grid": {"n_theta": 64.5}}, "grid.n_theta must be an integer"),
        ({"grid": {"r_inner": math.nan}}, "grid.r_inner must be a finite number"),
        ({"grid": {"r_outer": math.inf}}, "grid.r_outer must be a finite number"),
        # beyond the float range, which JSON integers may be
        ({"grid": {"n_r": 10 ** 400}}, "grid.n_r must be an integer"),
        # an integer that numpy refuses to allocate rings for, before allocating
        ({"grid": {"n_r": 1e300}}, "error: invalid-config: grid: "),
        ({"windows": [[4, 10 ** 400]]}, "windows[0] must be a finite number"),
        # rings that coincide in floating point, though every window lies inside
        ({"grid": {"r_outer": 1.000000000000001, "spacing": "log"},
          "windows": [[1.0, 1.0000000000000004], [1.0000000000000004, 1.000000000000001],
                      [1.0, 1.000000000000001]]}, "invalid-radii"),
    ])
    def test_malformed_windows_and_grid_exit_2_before_solving(
            self, tmp_path, monkeypatch, capsys, overrides, message):
        config = builtin_config("identity-quadratic")
        config["grid"].update(overrides.pop("grid", {}))
        config.update(overrides)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(config))

        def no_solve(scenario):
            raise AssertionError("the solve ran for an invalid config")

        monkeypatch.setattr(cli, "_solve", no_solve)
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, section, key, value", [
        ("ma-radial-a2", "tolerances", "newton_tolerance", 1e-12),
        ("ma-radial-a2", "operator", "rhs", 2.0),
        ("ma-radial-a2", "boundary", "b", [0.0, 0.0]),
        # no solver reads an ellipticity window from the config
        ("ma-radial-a2", "tolerances", "hessian_bound", 10),
        ("identity-quadratic", "grid", "spacingg", "uniform"),
        # a direct solve reads no Newton settings
        ("identity-quadratic", "tolerances", "max_iters", 5),
    ])
    def test_unknown_section_key_exits_2_before_solving(
            self, tmp_path, monkeypatch, capsys, name, section, key, value):
        config = builtin_config(name)
        config[section][key] = value
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))

        def no_solve(scenario):
            raise AssertionError("the solve ran for an invalid config")

        monkeypatch.setattr(cli, "_solve", no_solve)
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2
        assert f"unknown key {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerances, options, message", [
        ({"harmonic_tol": "x"}, [], "tolerances.harmonic_tol must be a finite number"),
        ({"harmonic_tol": -1}, [], "tolerances.harmonic_tol must be positive"),
        ({"max_iters": 2.5}, [], "tolerances.max_iters must be an integer"),
        ({"max_iters": 0}, [], "tolerances.max_iters must be positive"),
        ({"newton_tol": True}, [], "tolerances.newton_tol must be a finite number"),
        ({}, ["--tol", "-1"], "tolerances.newton_tol must be positive"),
        ([["newton_tol", 1e-9]], ["--tol", "1e-9"], "tolerances must be a JSON object"),
    ], ids=["harmonic_tol-string", "harmonic_tol-negative", "max_iters-fraction",
            "max_iters-zero", "newton_tol-bool", "tol-option-negative",
            "tol-option-on-a-list"])
    def test_bad_tolerance_value_exits_2_before_solving(
            self, tmp_path, monkeypatch, capsys, tolerances, options, message):
        config = builtin_config("ma-radial-a2", tolerances=tolerances)
        path = tmp_path / "tolerance.json"
        path.write_text(json.dumps(config))

        def no_solve(scenario):
            raise AssertionError("the solve ran for an invalid config")

        monkeypatch.setattr(cli, "_solve", no_solve)
        assert cli.main(["solve", str(path), "--out", str(tmp_path), *options]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("builtin, key, value, named", [
        ("identity-quadratic", "boundary", {"kind": "explicit_polynomial", "A": [1, 2],
                                            "b": [0, 0], "d": 0, "c": 0, "e": [0, 0]},
         "boundary.A"),
        ("identity-quadratic", "boundary", {"kind": "file", "path": 5}, "boundary.path"),
        ("identity-quadratic", "name", "../escaped", "name"),
        ("identity-quadratic", "name", ["x"], "name"),
        ("ma-radial-a2", "boundary", {"kind": "radial_reference", "a": True}, "boundary.a"),
        ("identity-quadratic", "operator",
         {"kind": "linear_custom", "a11": 1.0, "a12": 0.0, "a22": "2"}, "operator.a22"),
        ("ma-radial-a2", "operator", {"kind": "special_lagrangian", "theta": "x"},
         "operator.theta"),
        ("identity-quadratic", "operator", {"kind": "linear_trace", "rhs": "x"},
         "operator.rhs"),
        ("ma-radial-a2", "expect", {"d": {"value": 1.0, "tol": 5e-3, "tolerance": 1e-9}},
         "expect.d.tolerance"),
        ("ma-radial-a2", "expect", {"K_min_max": {"value": 1.0, "tol": 5.0}},
         "expect.K_min_max.tol"),
    ], ids=["boundary.A-shape", "boundary.path-number", "name-outside-out", "name-list",
            "boundary.a-bool", "operator.a22-string", "operator.theta-string",
            "operator.rhs-string", "expect.d-extra-key", "expect.K_min_max-tol"])
    def test_bad_value_exits_2_before_solving_and_names_the_key(
            self, tmp_path, monkeypatch, capsys, builtin, key, value, named):
        path = tmp_path / "bad-value.json"
        path.write_text(json.dumps(builtin_config(builtin, **{key: value})))

        def no_solve(scenario):
            raise AssertionError("the solve ran for an invalid config")

        monkeypatch.setattr(cli, "_solve", no_solve)
        assert cli.main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-config: ")
        assert re.search(rf" {re.escape(named)}[ ;]", err), err
        assert list(tmp_path.rglob("*")) == [path]

    @pytest.mark.parametrize("section", ["operator", "grid", "boundary", "tolerances"])
    def test_section_that_is_not_an_object_exits_2(self, tmp_path, capsys, section):
        config = builtin_config("identity-quadratic", **{section: [["kind", "x"]]})
        path = tmp_path / "list.json"
        path.write_text(json.dumps(config))
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2
        assert f"{section} must be a JSON object" in capsys.readouterr().err

    def test_newton_tolerance_override_on_a_direct_solve_exits_2(self, tmp_path, capsys):
        code = cli.main(["solve", "identity-quadratic", "--out", str(tmp_path),
                         "--tol", "1e-9"])
        assert code == 2
        assert "unknown key tolerances.newton_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--grid", "1,64,many,64"],
                                        ["--windows", "8:sixteen"],
                                        ["--grid", "1,64,97"],
                                        ["--windows", "8-16"]])
    def test_malformed_overrides_exit_2(self, tmp_path, capsys, option):
        code = cli.main(["solve", "identity-quadratic", "--out", str(tmp_path), *option])
        assert code == 2
        assert f"{option[0]} wants" in capsys.readouterr().err

    def test_summary_follows_redirected_stdout(self, tmp_path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["solve", "identity-quadratic", "--out", str(tmp_path)])
        assert code == 0
        text = buf.getvalue()
        assert "scenario identity-quadratic: pass" in text
        assert "  solve: direct" in text
        assert "artifacts written to" in text

    def test_verify_rows_follow_redirected_stdout(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--only", "03-holder-exponent-formula"])
        assert code == 0
        assert "03-holder-exponent-formula" in buf.getvalue()
        assert "1/1 criteria passed" in buf.getvalue()

    def test_python_m_runs_without_runtime_warning(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "annulab",
             "verify", "--help"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "--only" in proc.stdout

    def test_analyze_reports_operator_residual(self, tmp_path):
        # the radial Monge-Ampere profile: the discrete det D^2 u - 1 is
        # small, while the Laplacian it used to report is about 2
        grid = build_grid(1.0, 16.0, 97, 32)
        u = ScalarField.from_radial(grid, lambda r: radial_ma_reference(2.0, r)[0])
        write_snapshot(tmp_path / "radial.field", u)
        config = builtin_config("ma-radial-a2", windows=[[2, 4], [4, 8], [8, 16]],
                                expect={})
        path = tmp_path / "radial.json"
        path.write_text(json.dumps(config))
        code = cli.main(["analyze", str(tmp_path / "radial.field"), str(path),
                         "--grid", "1,16,97,32", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "ma-radial-a2" / "report.json").read_text())
        h = hessian(u)
        det = (h.m11 * h.m22 - h.m12 * h.m12 - 1.0)[1:-1]
        assert report["solve"]["final_residual"] == float(np.max(np.abs(det)))
        assert report["solve"]["final_residual"] < 0.1

    def test_analysis_error_names_the_scenario(self, quad_run, tmp_path, monkeypatch,
                                               capsys):
        def refused(u, windows):
            raise ValueError("ill-conditioned: synthetic")

        monkeypatch.setattr(cli, "fit_expansion", refused)
        assert cli.main(["analyze", str(quad_run / "solution.field"), "identity-quadratic",
                         "--out", str(tmp_path)]) == 2
        assert ("error: scenario identity-quadratic: ill-conditioned: synthetic"
                in capsys.readouterr().err)
        assert not (tmp_path / "identity-quadratic").exists()

    def test_two_column_snapshot_exits_2(self, quad_run, tmp_path, capsys):
        # a snapshot holds one scalar field; a payload of two values per node
        # is refused by every reader
        run = tmp_path / "run"
        run.mkdir()
        (run / "report.json").write_bytes((quad_run / "report.json").read_bytes())
        field = run / "solution.field"
        header = (quad_run / "solution.field").read_bytes().split(b"\n")[0]
        n_r, n_theta = map(int, header.split()[4:6])
        pairs = np.tile([0.5, -0.5], n_r * n_theta).astype("<f8")
        field.write_bytes(header + b"\n" + pairs.tobytes())
        n = 8 * n_r * n_theta
        for argv in self.snapshot_readers(field, run, tmp_path):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert (f"invalid-dimension: snapshot payload has {2 * n} bytes, "
                    f"expected {n}") in err, argv
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in run.iterdir()) == ["report.json", "solution.field"]

    @staticmethod
    def snapshot_readers(field, run, tmp_path):
        """argv of analyze, report --format csv and a file boundary of ``field``."""
        config = builtin_config("identity-quadratic",
                                boundary={"kind": "file", "path": str(field)})
        path = tmp_path / "file-boundary.json"
        path.write_text(json.dumps(config))
        out = ["--out", str(tmp_path / "out")]
        return (["analyze", str(field), "identity-quadratic", *out],
                ["report", str(run), "--format", "csv"],
                ["solve", str(path), *out])

    def test_truncated_snapshot_exits_2(self, quad_run, tmp_path, capsys):
        data = (quad_run / "solution.field").read_bytes()
        n_r, n_theta = map(int, data.split(b"\n")[0].split()[4:6])
        field = tmp_path / "solution.field"
        field.write_bytes(data[:-3])
        assert cli.main(["analyze", str(field), "identity-quadratic",
                         "--out", str(tmp_path / "out")]) == 2
        n = 8 * n_r * n_theta
        assert (f"invalid-dimension: snapshot payload has {n - 3} bytes, expected {n}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_text_snapshot_exits_2(self, quad_run, tmp_path, capsys):
        # the one-repr-per-line format of version v1 is not read
        u = cli.read_snapshot(quad_run / "solution.field")
        g = u.grid
        field = tmp_path / "solution.field"
        field.write_text(f"annular-field v1 {g.r_inner!r} {g.r_outer!r} {g.n_r} "
                         f"{g.n_theta} {g.spacing}\n"
                         + "".join(f"{v!r}\n" for v in u.values.ravel().tolist()))
        assert cli.main(["analyze", str(field), "identity-quadratic",
                         "--out", str(tmp_path / "out")]) == 2
        assert "has version 'v1', expected v2" in capsys.readouterr().err

    def test_unparsed_snapshot_header_exits_2(self, quad_run, tmp_path, capsys):
        # header numbers that do not parse make a bad header, named by every reader
        run = tmp_path / "run"
        run.mkdir()
        (run / "report.json").write_bytes((quad_run / "report.json").read_bytes())
        field = run / "solution.field"
        field.write_bytes(b"annular-field v2 1.0 2.0 x 16 log-radial\n"
                          + np.zeros(8 * 16, "<f8").tobytes())
        for argv in self.snapshot_readers(field, run, tmp_path):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert f"invalid-dimension: bad snapshot header in {field}\n" in err, argv
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in run.iterdir()) == ["report.json", "solution.field"]

    def test_corrupt_report_exits_2_and_names_the_file(self, quad_run, tmp_path, capsys):
        (tmp_path / "report.json").write_text('{"status": ')
        shutil.copy(quad_run / "solution.field", tmp_path / "solution.field")
        assert cli.main(["report", str(tmp_path), "--format", "svg"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert (f"error: invalid-config: report {tmp_path / 'report.json'} is not valid "
                f"JSON: ") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "solution.field"]

    @pytest.mark.parametrize("text", ["[1]", "{}", "null", '"report"',
                                      '{"report_version": 2}', '{"report_version": true}'])
    def test_report_that_is_not_a_report_exits_2_and_names_the_file(
            self, quad_run, tmp_path, capsys, text):
        (tmp_path / "report.json").write_text(text)
        shutil.copy(quad_run / "solution.field", tmp_path / "solution.field")
        assert cli.main(["report", str(tmp_path), "--format", "svg"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert (f"error: invalid-config: report {tmp_path / 'report.json'} is not a JSON "
                "object with report_version 1\n") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "solution.field"]

    @pytest.mark.parametrize("case", ["version only", "scenario and status only",
                                      "solve without final_residual"])
    def test_report_that_lacks_a_summary_key_exits_2_before_any_output(
            self, quad_run, tmp_path, capsys, case):
        # every key the summary and the tables read is read before a line is
        # printed or a table written
        report = json.loads((quad_run / "report.json").read_text())
        del report["solve"]["final_residual"]
        report = {"version only": {"report_version": 1},
                  "scenario and status only": {"report_version": 1, "scenario": {"name": "x"},
                                               "status": "pass"},
                  "solve without final_residual": report}[case]
        (tmp_path / "report.json").write_text(json.dumps(report))
        shutil.copy(quad_run / "solution.field", tmp_path / "solution.field")
        for fmt in ("json", "svg"):
            assert cli.main(["report", str(tmp_path), "--format", fmt]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"error: invalid-config: report {tmp_path / 'report.json'} lacks " in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json",
                                                                  "solution.field"]

    def test_analyze_names_a_snapshot_with_a_non_finite_value(self, quad_run, tmp_path,
                                                              capsys):
        u = cli.read_snapshot(quad_run / "solution.field")
        u.values[5, 3] = np.nan
        field = tmp_path / "nan.field"
        write_snapshot(field, u)
        analyze, _, _ = self.snapshot_readers(field, tmp_path, tmp_path)
        assert cli.main(analyze) == 2
        assert f"error: singular-input: non-finite entries in {field}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_file_boundary_names_a_snapshot_with_a_non_finite_boundary_ring(
            self, quad_run, tmp_path, capsys):
        # only the boundary rings are read, so a NaN inside is no error
        u = cli.read_snapshot(quad_run / "solution.field")
        field = tmp_path / "boundary.field"
        _, _, solve = self.snapshot_readers(field, tmp_path, tmp_path)
        u.values[5, 3] = np.nan
        write_snapshot(field, u)
        assert cli.main(solve) == 0
        for ring in (0, -1):
            u.values[ring, 3] = np.nan
            write_snapshot(field, u)
            assert cli.main(solve[:2] + ["--out", str(tmp_path / "refused")]) == 2
            assert (f"error: scenario identity-quadratic: singular-input: non-finite "
                    f"entries in {field}\n") in capsys.readouterr().err
            u.values[ring, 3] = 0.0
        assert not (tmp_path / "refused").exists()

    def test_non_finite_snapshot_is_not_analyzed(self, quad_run, tmp_path, capsys):
        # the snapshot keeps the NaN as written; the Hessian refuses it
        u = cli.read_snapshot(quad_run / "solution.field")
        u.values[5, 3] = np.nan
        run = tmp_path / "run"
        run.mkdir()
        (run / "report.json").write_bytes((quad_run / "report.json").read_bytes())
        write_snapshot(run / "solution.field", u)
        analyze, report, _ = self.snapshot_readers(run / "solution.field", run, tmp_path)
        for argv in (analyze, report):
            assert cli.main(argv) == 2, argv
            assert "singular-input: non-finite entries" in capsys.readouterr().err, argv
        assert not (tmp_path / "out").exists()

    def test_report_reads_the_snapshot_before_it_prints(self, quad_run, tmp_path, capsys):
        u = cli.read_snapshot(quad_run / "solution.field")
        u.values[5, 3] = np.nan
        run = tmp_path / "run"
        run.mkdir()
        (run / "report.json").write_bytes((quad_run / "report.json").read_bytes())
        write_snapshot(run / "solution.field", u)
        assert cli.main(["report", str(run), "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "singular-input: non-finite entries" in err
        assert not (run / "profile.csv").exists()

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.field"
        analyze, _, file_boundary = self.snapshot_readers(missing, tmp_path, tmp_path)
        for argv in (analyze, file_boundary):
            assert cli.main(argv) == 2, argv
            assert str(missing) in capsys.readouterr().err, argv
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("option", [["--tol", "1e-9"], ["--grid", "1,64,97,32"]],
                             ids=["tol", "grid"])
    def test_list_config_with_override_exits_2(self, tmp_path, capsys, option):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert cli.main(["solve", str(path), "--out", str(tmp_path), *option]) == 2
        assert ("invalid-config: scenario config must be a JSON object"
                in capsys.readouterr().err)

    def test_failed_expectation_exits_1(self, tmp_path):
        config = builtin_config(
            "identity-quadratic",
            expect={"d": {"value": 0.5, "tol": 1e-3}})
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(config))
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 1
        report = json.loads(
            (tmp_path / "identity-quadratic" / "report.json").read_text())
        assert report["status"] == "fail"

    def test_solver_failure_exits_1(self, tmp_path):
        config = builtin_config("ma-radial-a2")
        config["grid"] = {"r_inner": 1.0, "r_outer": 8.0, "n_r": 33,
                          "n_theta": 16, "spacing": "log"}
        config["windows"] = [[1, 2], [2, 4], [4, 8]]
        config["tolerances"] = {"max_iters": 1}
        config["expect"] = {}
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(config))
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 1

    def test_verify_subset(self):
        code = cli.main(["verify", "--only",
                         "03-holder-exponent-formula,11-bootstrap-scheduler"])
        assert code == 0

    def test_verify_unknown_criterion_exits_2(self, capsys):
        assert cli.main(["verify", "--only", "nope"]) == 2
        assert "error: invalid-config: unknown criteria ['nope']" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# acceptance harness


class TestAcceptanceHarness:
    def test_rows_follow_requested_order(self):
        names = ["11-bootstrap-scheduler", "03-holder-exponent-formula"]
        rows = run_acceptance(names=names)
        assert [r["name"] for r in rows] == names
        assert all(r["passed"] for r in rows)

    def test_perturbed_tolerance_fails(self, monkeypatch):
        # a recovered constant twice the row's tolerance off must fail row 02
        fit_expansion = cli.fit_expansion

        def shifted(u, windows):
            fit = fit_expansion(u, windows)
            return dataclasses.replace(fit, c=fit.c + 2e-2)

        monkeypatch.setattr(cli, "fit_expansion", shifted)
        rows = run_acceptance(names=["02-constant-term-recovery"])
        assert not rows[0]["passed"]

    def test_no_names_runs_the_whole_registry(self, monkeypatch):
        checks = (("a-passes", lambda: (True, "fine")), ("b-fails", lambda: (False, "off")))
        monkeypatch.setattr(cli, "ACCEPTANCE_CHECKS", checks)
        rows = run_acceptance()
        assert [(r["name"], r["passed"], r["detail"]) for r in rows] == [
            ("a-passes", True, "fine"), ("b-fails", False, "off")]

    def test_rows_05_and_12_run_the_pipeline_steps(self, monkeypatch):
        # the gradient map and the d cross-check each have one implementation,
        # which the reports and these rows share; each row forms one Hessian
        # per field (three in row 05, two in row 12), which row 12's Hessian
        # limit and gradient map both read
        steps = {name: mock.Mock(wraps=getattr(cli, name))
                 for name in ("dilatation_field", "_d_cross_checks")}
        for name, step in steps.items():
            monkeypatch.setattr(cli, name, step)
        hessians = mock.Mock(wraps=hessian)
        for module in (cli, expansion):
            monkeypatch.setattr(module, "hessian", hessians, raising=False)
        rows = run_acceptance(names=["05-gradient-map-quasiconformality",
                                     "12-hessian-limit-decay"])
        assert all(row["passed"] for row in rows)
        assert steps["dilatation_field"].call_count == 3 + 2
        assert steps["_d_cross_checks"].call_count == 1
        assert hessians.call_count == 3 + 2

    def test_row_12_fails_when_laurent_is_skipped(self, monkeypatch):
        def not_harmonic(*args, **kwargs):
            raise ValueError("not-harmonic: synthetic")

        monkeypatch.setattr(cli, "laurent_coefficients", not_harmonic)
        row, = run_acceptance(names=["12-hessian-limit-decay"])
        assert not row["passed"]
        assert row["detail"].endswith("; laurent skipped: not-harmonic: synthetic")

    @pytest.mark.parametrize("mutation", ["wrong provider", "sign-flipped provider",
                                          "no ring reversal", "no inversion"])
    def test_row_04_fails_on_each_transport_or_provider_mutation(self, mutation):
        # z^2 checked with the identity's provider, x/|x|^2 with (p1, -p2,
        # -q1, q2), which keeps |Dw|^2 and det Dw, the image built on the
        # inverted grid with the samples in their own ring order, and a
        # transport that leaves the annulus in place
        inversion = cli._d_inversion

        def flipped(y1, y2):
            p1, p2, q1, q2 = inversion(y1, y2)
            return p1, -p2, -q1, q2

        patches = {
            "wrong provider": mock.patch.object(cli, "_d_zsquared", cli._d_identity),
            "sign-flipped provider": mock.patch.object(cli, "_d_inversion", flipped),
            "no ring reversal": mock.patch.object(
                qcmap, "PlanarMapping", lambda grid, p, q: PlanarMapping(grid, p[::-1], q[::-1])),
            "no inversion": mock.patch.object(AnnularGrid, "inverted", lambda self: self),
        }
        with patches[mutation]:
            (row,) = run_acceptance(names=["04-kelvin-identities"])
        assert not row["passed"]

    def test_empty_selection_raises(self):
        with pytest.raises(ValueError, match="invalid-config: no criteria selected"):
            run_acceptance(names=[])

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="invalid-config"):
            run_acceptance(names=["00-not-a-criterion"])

    def test_detail_strings_do_not_depend_on_the_clock(self, monkeypatch):
        # rows 01 and 06 enforce wall-time caps; their detail strings must
        # still come out the same on every run
        names = ["01-d-recovery-radial-family", "06-newton-solver-convergence"]
        details = []
        for tick in (0.5, 2.0):
            clock = itertools.count(0.0, tick)
            fake_time = SimpleNamespace(perf_counter=lambda: next(clock))
            monkeypatch.setattr(cli, "time", fake_time)
            rows = run_acceptance(names=names)
            assert all(row["passed"] for row in rows)
            details.append([row["detail"] for row in rows])
        assert details[0] == details[1]

    def test_crashing_check_is_reported_failed(self):
        def boom():
            raise RuntimeError("synthetic crash")

        row = cli._run_check(("synthetic", boom))
        assert not row["passed"]
        assert "RuntimeError" in row["detail"]


# ---------------------------------------------------------------------------
# benchmark hooks


def load_tracing():
    """The benchmark's span recorder, ``perfbench/tracing.py``."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layer_functions_resolve():
    # the benchmark's tracer replaces each of these names in its module; one
    # that no longer resolves fails every traced run
    module = load_tracing()
    assert module.LAYER_FUNCTIONS
    missing = [(name, attr) for name, attr, *_ in module.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(name), attr, None))]
    assert not missing


def test_traced_solve_and_analyze_record_every_layer(tmp_path):
    # the tracer wraps each layer function by name in the module that calls
    # it; a call that moved out of that module would record no span and
    # read zero in the benchmark, without an error
    tracer = load_tracing().Tracer()
    config = tmp_path / "ma-small.json"
    config.write_text(json.dumps(builtin_config("ma-radial-a2", **SMALL_MA)))
    with tracer.installed():
        assert cli.main(["solve", str(config), "--format", "svg",
                         "--out", str(tmp_path / "solved")]) == 0
        assert cli.main(["analyze", str(tmp_path / "solved" / "ma-small" / "solution.field"),
                         str(config), "--format", "svg",
                         "--out", str(tmp_path / "analyzed")]) == 0
    recorded = {span["name"] for span in tracer.spans}
    expected = {"nonlinear.newton_solve", "elliptic.solve_linear_dirichlet",
                "expansion.fit_expansion", "expansion.d_from_divergence",
                "expansion.laurent_coefficients", "qcmap.dilatation_field",
                "grid.hessian", "grid.read_snapshot",
                "grid.write_snapshot"}
    assert expected <= recorded, sorted(expected - recorded)
