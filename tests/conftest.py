"""Shared test settings.

Every hypothesis test runs the ``qtunnel`` profile: derandomized, so a run
draws the same examples each time and a failure reproduces, and without a
per-example deadline, since the CLI-level draws vary widely in run time.
It leaves out the shrink phase: a failing draw is reported as drawn, at
once, instead of after minutes of shrinking CLI runs.  Which tests pass is
the same either way.  Each test keeps its own ``max_examples``.
"""

from hypothesis import Phase, settings

settings.register_profile("qtunnel", derandomize=True, deadline=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("qtunnel")
