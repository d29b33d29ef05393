"""Shared test settings.

Every hypothesis property prints the ``@reproduce_failure`` blob of a
failing example, so that a rare draw seen once, in CI or elsewhere, can be
replayed exactly.
"""

import warnings
from types import SimpleNamespace

import pytest
from hypothesis import settings

# hypothesis imports libcst to report a failing example, and libcst's import
# warns that mypy_extensions.TypedDict is deprecated; under
# -W error::DeprecationWarning that warning ends the session in an internal
# error before the example prints, so libcst is imported once here without it
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # the test extras need not install it
        pass

settings.register_profile("annulab", print_blob=True)
settings.load_profile("annulab")


@pytest.fixture
def mode_solver_calls(monkeypatch):
    """Counts of ring-mean mode solver factorizations and of applications of their solves."""
    from annulab import elliptic

    calls = SimpleNamespace(factors=0, applications=0)
    factor = elliptic._polar_mode_solver

    def counting(*args):
        calls.factors += 1
        solve = factor(*args)

        def counted(rhs):
            calls.applications += 1
            return solve(rhs)
        return counted

    monkeypatch.setattr(elliptic, "_polar_mode_solver", counting)
    return calls
