"""Hypothesis profiles. Tier-1 runs the default settings; `tests/mutants.py`
selects `mutants` with `--hypothesis-profile=mutants`, which stops at the
first failing example instead of shrinking it: a killed mutant needs only
the failure, and shrinking one can take minutes."""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])
