"""Hypothesis runs the same examples on every run and keeps no example database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
