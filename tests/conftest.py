"""Shared test configuration.

Hypothesis properties draw the same examples on every run and keep no example
database, so a result never depends on an earlier run's leftovers in
`.hypothesis/`.
"""

from hypothesis import settings

settings.register_profile("reproducible", database=None, derandomize=True)
settings.load_profile("reproducible")
