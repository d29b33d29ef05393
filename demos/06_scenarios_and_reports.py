"""
Scenario configs, deterministic reports, and the verification suite
===================================================================

The same pipeline the `annulab` command drives is importable: a JSON
config (or a built-in name) becomes a Scenario, run_scenario solves it
and cross-checks the far-field coefficients, and the report is a plain
dict that serializes to byte-identical JSON on every run.  The shipped
acceptance criteria live in a registry that both `annulab verify` and
the test suite execute.

Command-line equivalents of what this script does:

    annulab solve ma-radial-a2 --out runs --format svg
    annulab analyze runs/ma-radial-a2/solution.field ma-radial-a2 --out runs2
    annulab report runs/ma-radial-a2
"""

import json

from annulab import Scenario, run_acceptance, run_scenario
from annulab.cli import BUILTIN_SCENARIOS


def report_text(report):
    return json.dumps(report, indent=2, sort_keys=True)

# a custom scenario: anisotropic linear operator, saddle boundary data.
# The d tolerance is set by the solve's discretization of the cos(2 theta)
# mode, not by the extractors (the sampled-field checks in the acceptance
# registry recover d two orders tighter); the quasiconformality bound
# (1 + gamma)/2 + margin is the ellipticity claim this scenario verifies.
config = {
    "name": "demo-anisotropic",
    "operator": {"kind": "linear_custom", "a11": 1.0, "a12": 0.0, "a22": 2.0,
                 "rhs": 0.0},
    "grid": {"r_inner": 1.0, "r_outer": 8.0, "n_r": 129, "n_theta": 64,
             "spacing": "log"},
    "boundary": {"kind": "explicit_polynomial",
                 "A": [[1.0, 0.0], [0.0, -0.5]], "b": [0.0, 0.0],
                 "d": 0.0, "c": 0.0, "e": [0.0, 0.0]},
    "windows": [[1.5, 3], [3, 5], [5, 8]],
    "expect": {"d": {"value": 0.0, "tol": 0.05},
               "K_min_max": {"value": 1.55}},
}
scenario = Scenario.from_config(config)
report = run_scenario(scenario)
print(f"scenario {scenario.name}: {report['status']}")
print(f"  gradient map K_min {report['gradient_map']['K_min']:.4f} "
      f"(saddle under diag(1,2): exact 1.25, bound 1.55), orientation "
      f"restored by component swap: {report['gradient_map']['components_swapped']}")
print(f"  fitted A = {report['expansion']['A']}")
for row in report["assertions"]:
    print(f"  assert {row['name']}: {'pass' if row['pass'] else 'FAIL'}")

# the report is deterministic: same config, same bytes
again = report_text(run_scenario(scenario))
print(f"\nreport bytes identical across runs: {report_text(report) == again}")
print(f"report keys: {sorted(json.loads(again))}")

# the built-in demonstration scenario solves det D^2 u = 1 and recovers
# the a = 2 far field end to end
report = run_scenario(Scenario.from_config(BUILTIN_SCENARIOS["ma-radial-a2"]))
print(f"\nma-radial-a2: {report['status']}, "
      f"d = {report['expansion']['d']:.5f}, "
      f"c = {report['expansion']['c']:.5f}, "
      f"Newton iterations = {report['solve']['iterations']}")

# a slice of the acceptance registry, the same rows `annulab verify` prints
rows = run_acceptance(names=["03-holder-exponent-formula",
                             "09-laurent-extraction",
                             "11-bootstrap-scheduler"])
print()
for row in rows:
    print(f"{'PASS' if row['passed'] else 'FAIL'} {row['name']} "
      f"({row['seconds']:.2f}s)")
