"""Hypothesis runs the same examples on every run and sets no time limit."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
