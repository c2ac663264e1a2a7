"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no
per-example deadline: tier-1 must give the same verdict on every run,
and wall-clock deadlines fail spuriously on a loaded machine.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
