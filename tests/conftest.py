"""Shared test settings.

``--hypothesis-profile=ci`` selects fixed examples, so the property sweeps
cannot flake in CI; local runs keep drawing random ones.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
