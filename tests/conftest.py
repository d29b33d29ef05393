"""Shared test settings.

Every hypothesis property prints the ``@reproduce_failure`` blob of a
failing example, so that a rare draw seen once, in CI or elsewhere, can be
replayed exactly.
"""

from hypothesis import settings

settings.register_profile("annulab", print_blob=True)
settings.load_profile("annulab")
