"""Performance profiles: the versioned JSON schema that ``python -m
benchmark`` writes its results in and reads back to compare two runs.
See :mod:`repro.perf.profile`.
"""
