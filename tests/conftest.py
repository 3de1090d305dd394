"""Shared test settings.

Every hypothesis test runs the ``qtunnel`` profile: derandomized, so a run
draws the same examples each time and a failure reproduces, and without a
per-example deadline, since the CLI-level draws vary widely in run time.
Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("qtunnel", derandomize=True, deadline=None)
settings.load_profile("qtunnel")
