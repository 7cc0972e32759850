"""Shared test settings.

Every hypothesis test draws the same examples on every run
(``derandomize``) and has no per-example deadline; a test's own
``@settings`` sets only its example count.
"""

from hypothesis import settings

settings.register_profile("oscnet", derandomize=True, deadline=None)
settings.load_profile("oscnet")
