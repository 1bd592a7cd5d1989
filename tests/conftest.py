"""Test-wide settings: one hypothesis profile, loaded by default, so that
property tests draw the same examples on every run and stay bounded in
time."""

from hypothesis import settings

settings.register_profile(
    "fraclab", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("fraclab")
