"""Shared test settings.

A ``ci`` Hypothesis profile, loaded when the ``CI`` environment variable is
set (GitHub Actions sets it): its examples are derandomized, and a failing
property prints the blob that ``@reproduce_failure`` replays, so a failure
in a CI log reproduces locally.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")
