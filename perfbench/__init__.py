"""perfbench: end-to-end + per-layer wall-clock benchmark of the repo.

See ``perfbench/README.md``. ``python3 perfbench/run.py`` is the entry
the benchmark driver calls (one workload, one pass); ``python -m
perfbench`` runs the whole suite, compares two result files, or
self-compares two suite runs.
"""
