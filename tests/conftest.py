"""Suite-wide Hypothesis settings.

Every property draws the same examples on every run and keeps no example
database, so a run cannot fail on a draw that no earlier run made, nor replay
a counterexample that only one checkout has seen.  Each test's own
``max_examples`` still applies.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
