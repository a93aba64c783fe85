"""Test-suite settings: every Hypothesis property runs derandomized, with no example
database and no deadline, so a run draws the same examples on any machine. A suite
sets only its own max_examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
