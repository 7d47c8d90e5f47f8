"""Hypothesis profiles. ``--hypothesis-profile=ci`` derandomizes every
property test, so a failure in continuous integration reproduces from the
same examples; local runs keep the default random profile."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
