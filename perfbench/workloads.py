"""The benchmark's three workloads: inputs, one operation, correctness checks.

Each workload is a closed loop over a fixed set of input kinds.  ``generate``
does set-up work too costly to repeat, ``prepare`` builds the inputs from
the seed, ``before`` readies one operation, ``call`` is the timed operation
and ``check`` validates its output and returns the gap ratio: the largest
measured error over its pinned tolerance.  ``check`` raises ``CheckFailed``
when an output is wrong.  ``op_time`` reduces each kind's operation times
to the one figure that the gated ``op_geomean_s`` takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics

import numpy as np


class CheckFailed(Exception):
    """An operation produced a wrong or missing output.

    ``gap`` is the gap ratio when the output could still be measured.
    """

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class Discard(io.TextIOBase):
    """Text sink for the command's console summary."""

    def write(self, s):
        return len(s)


SINK = Discard()

# kind -> the arguments after the subcommand that select its scenario
SOLVE_KINDS = {
    "ma-radial-a2": ["ma-radial-a2"],
    "ma-radial-a2-wide": ["ma-radial-a2", "--grid", "1,64,1025,128"],
    "identity-quadratic": ["identity-quadratic"],
}


def _run_cli(cli, argv, tracer):
    with contextlib.redirect_stdout(SINK):
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli.main"):
            return cli.main(argv)


def _report_gap(report):
    """Largest gap / tolerance over a report's assertions and Newton residual."""
    ratios = [row["gap"] / row["tolerance"] for row in report["assertions"]
              if row["tolerance"] > 0.0]
    solve = report["solve"]
    if solve["method"] == "newton":
        ratios.append(solve["final_residual"]
                      / float(report["scenario"]["tolerances"]["newton_tol"]))
    return max(ratios)


def digests(reference):
    return {k: hashlib.sha256(v).hexdigest() for k, v in reference.items()}


class _ReportWorkload:
    """Shared checks for operations that emit a scenario run directory."""

    artifacts = ("report.json", "solution.field", "profile.csv", "decay.svg")

    def __init__(self, annulab, work, seed):
        self.cli = annulab.cli
        self.work = work
        self.reference = {}

    def run_dir(self, kind):
        return self.work / "ops" / kind / SOLVE_KINDS[kind][0]

    def before(self, kind):
        for name in self.artifacts:
            (self.run_dir(kind) / name).unlink(missing_ok=True)

    def check(self, kind, rc):
        run_dir = self.run_dir(kind)
        missing = [n for n in self.artifacts if not (run_dir / n).exists()]
        if missing:
            raise CheckFailed(f"{kind}: exit code {rc}, missing artifacts {missing}")
        raw = (run_dir / "report.json").read_bytes()
        report = json.loads(raw)
        gap = _report_gap(report)
        if rc != 0 or report["status"] != "pass":
            raise CheckFailed(f"{kind}: exit code {rc}, report status "
                              f"{report['status']!r}", gap)
        if raw != self.reference.setdefault(kind, raw):
            raise CheckFailed(f"{kind}: report.json differs from the first run of "
                              "this config", gap)
        return gap


class MaSolve(_ReportWorkload):
    """One ``annulab solve`` of a built-in scenario, written to disk."""

    kinds = tuple(SOLVE_KINDS)
    op_time = staticmethod(statistics.median)

    def prepare(self):
        self.argv = {k: ["solve", *SOLVE_KINDS[k], "--out", str(self.work / "ops" / k),
                         "--format", "svg"] for k in self.kinds}

    def generate(self):
        pass

    def call(self, kind, tracer):
        return _run_cli(self.cli, self.argv[kind], tracer)

    def headline(self, medians):
        return {"solve_s": medians["ma-radial-a2"],
                "solve_wide_s": medians["ma-radial-a2-wide"],
                "solve_linear_s": medians["identity-quadratic"]}


class Analyze(_ReportWorkload):
    """One ``annulab analyze --format svg`` of a snapshot solved in set-up."""

    kinds = tuple(SOLVE_KINDS)
    # an analyze operation takes 0.03-0.4 s, too short to average over the
    # machine's slow phases; each run's operation times mix a fast and a
    # slow mode, and the median flips with the share of slow ones, which
    # changes from run to run.  The fastest of a run's 40-70 operations per
    # kind stays on the fast mode.
    op_time = staticmethod(min)

    def snapshot(self, kind):
        return (self.work / "snapshots" / kind / SOLVE_KINDS[kind][0]
                / "solution.field")

    def prepare(self):
        self.argv = {k: ["analyze", str(self.snapshot(k)), *SOLVE_KINDS[k], "--out",
                         str(self.work / "ops" / k), "--format", "svg"]
                     for k in self.kinds}

    def generate(self):
        for kind in self.kinds:
            argv = ["solve", *SOLVE_KINDS[kind], "--out",
                    str(self.work / "snapshots" / kind), "--format", "json"]
            rc = _run_cli(self.cli, argv, None)
            if rc != 0 or not self.snapshot(kind).exists():
                raise RuntimeError(f"set-up solve of {kind} failed with exit code {rc}")

    def call(self, kind, tracer):
        return _run_cli(self.cli, self.argv[kind], tracer)

    def headline(self, medians):
        # one analyze operation: every snapshot weighs the same
        return {"analyze_s": statistics.geometric_mean(medians.values())}


def _inverse_quartic(y1, y2):
    return (y1 * y1 + y2 * y2) ** -2.0


def _radial_potential(rho):
    """Exact potential of |y|^-4 on 1 <= |y| <= 16 at a radius inside it."""
    return 0.5 * np.log(rho) - 0.25 * (1.0 - rho ** -2.0)


class Potential:
    """One ``newtonian_potential`` batch of the acceptance-10 density.

    ``ongrid`` is every node of the ring band [2, 2 sqrt 2]; its discrete
    Laplacian must reproduce the density within the acceptance-10 envelope.
    ``offgrid`` alternates between ``OFFGRID_POOL`` seeded batches, half
    inside the support and half at 20 <= |x| <= 100.
    """

    kinds = ("ongrid", "offgrid")
    op_time = staticmethod(statistics.median)
    OFFGRID_TARGETS = 2048
    OFFGRID_POOL = 2
    # far field: u(x) - log_mass log|x| is one constant for a radial density;
    # its spread over a batch may be this share of max |u|
    FAR_REL_TOL = 1e-10
    # inside: |u - exact radial potential| <= this many h^2 (1 + |log h|)
    INSIDE_ENVELOPE = 2.0

    def __init__(self, annulab, work, seed):
        self.elliptic = annulab.elliptic
        self.g = annulab.grid
        self.seed = seed
        self.reference = {}
        self.batch = 0
        self.key = None

    def prepare(self):
        g = self.g
        grid = g.build_grid(1.0, 16.0, 257, 128)
        self.grid = grid
        self.density = g.ScalarField.from_function(grid, _inverse_quartic)
        i_lo = g.ring_index(grid, 2.0)
        i_hi = g.ring_index(grid, 2.0 * math.sqrt(2.0))
        self.band = g.build_grid(2.0, float(grid.radii[i_hi]), i_hi - i_lo + 1,
                                 grid.n_theta)
        rr, th = np.meshgrid(grid.radii[i_lo:i_hi + 1], grid.theta, indexing="ij")
        self.band_shape = rr.shape
        self.band_density = g.ScalarField.from_function(self.band, _inverse_quartic)
        self.targets = {"ongrid": np.column_stack([(rr * np.cos(th)).ravel(),
                                                   (rr * np.sin(th)).ravel()])}
        half = self.OFFGRID_TARGETS // 2
        rng = np.random.default_rng(self.seed)
        self.pool = []
        for _ in range(self.OFFGRID_POOL):
            r_in = np.exp(rng.uniform(0.0, math.log(16.0), half))
            r_far = np.exp(rng.uniform(math.log(20.0), math.log(100.0), half))
            radii = np.concatenate([r_in, r_far])
            angle = rng.uniform(0.0, 2.0 * math.pi, radii.size)
            self.pool.append(np.column_stack([radii * np.cos(angle),
                                              radii * np.sin(angle)]))

    def generate(self):
        pass

    def before(self, kind):
        self.key = kind
        if kind == "offgrid":
            index = self.batch % self.OFFGRID_POOL
            self.targets["offgrid"] = self.pool[index]
            self.key = f"offgrid-seed{self.seed}-{index}"
            self.batch += 1

    def counts(self, kind):
        """Kernel evaluations and targets within 2.5 cells of the grid."""
        pts = self.targets[kind]
        grid = self.grid
        tf = (np.log(np.hypot(pts[:, 0], pts[:, 1])) - grid.t[0]) / grid.dt
        near = int(np.count_nonzero((tf >= -2.5) & (tf <= grid.n_r - 1 + 2.5)))
        return {"kernel_evals": pts.shape[0] * grid.n_r * grid.n_theta,
                "near_targets": near}

    def call(self, kind, tracer):
        pts = self.targets[kind]
        if tracer is None:
            return self.elliptic.newtonian_potential(self.density, pts)
        with tracer.span("elliptic.newtonian_potential", **self.counts(kind)):
            return self.elliptic.newtonian_potential(self.density, pts)

    def check(self, kind, result):
        vals, log_mass = result
        if not np.all(np.isfinite(vals)):
            raise CheckFailed(f"{self.key}: non-finite potential values")
        gap = self._gap(kind, vals, log_mass)
        if not gap <= 1.0:
            raise CheckFailed(f"{self.key}: gap ratio {gap:.3e} above 1", gap)
        raw = vals.tobytes() + np.float64(log_mass).tobytes()
        if raw != self.reference.setdefault(self.key, raw):
            raise CheckFailed(f"{self.key}: values differ from the first batch on the "
                              "same targets", gap)
        return gap

    def _gap(self, kind, vals, log_mass):
        h = self.grid.dt
        envelope = h * h * (1.0 + abs(math.log(h)))
        if kind == "ongrid":
            lap = self.g.laplacian(self.g.ScalarField(self.band,
                                                      vals.reshape(self.band_shape)))
            resid = float(np.max(np.abs(lap.values - self.band_density.values)[2:-2]))
            return resid / (0.04 * envelope)
        radii = np.hypot(self.targets[kind][:, 0], self.targets[kind][:, 1])
        inside = radii <= 16.0
        err = float(np.max(np.abs(vals[inside] - _radial_potential(radii[inside]))))
        far = vals[~inside] - log_mass * np.log(radii[~inside])
        spread = float(np.max(np.abs(far - np.median(far))))
        return max(err / (self.INSIDE_ENVELOPE * envelope),
                   spread / (self.FAR_REL_TOL * float(np.max(np.abs(vals[~inside])))))

    def headline(self, medians):
        return {"potential_ongrid_targets_per_s":
                    self.targets["ongrid"].shape[0] / medians["ongrid"],
                "potential_offgrid_targets_per_s":
                    self.OFFGRID_TARGETS / medians["offgrid"]}


WORKLOADS = {"ma-solve": MaSolve, "analyze": Analyze, "potential": Potential}
