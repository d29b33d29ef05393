"""Acceptance gate: every shipped capability checked at its pinned tolerance.

Each case runs one registered criterion end to end and prints a single
pass/fail line with the measured numbers; ``annulab verify`` runs the same
registry from the command line.
"""

import pytest

from annulab.cli import ACCEPTANCE_CHECKS


@pytest.mark.parametrize("name, check", ACCEPTANCE_CHECKS,
                         ids=[name for name, _ in ACCEPTANCE_CHECKS])
def test_acceptance_row(name, check):
    passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"
