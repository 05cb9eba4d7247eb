"""Benchmark harness reproducing every table and figure of the paper.

* :mod:`repro.bench.harness` -- run-matrix utilities: build algorithms,
  pick deterministic sources, run any system on any dataset, share
  functional traces across baselines; also the wall-clock kernel-backend
  benchmark (``python -m repro.bench.harness``).
* :mod:`repro.bench.experiments` -- one sweep function per experiment and
  the ordered ``EXPERIMENTS`` registry that binds each to its key, title
  and table specs (``python -m repro.bench.experiments`` regenerates
  EXPERIMENTS.md from it).
* :mod:`repro.bench.reporting` -- the one generic renderer: a table
  formatter with a ``text`` and a ``markdown`` style.

Nothing is imported here: both ``-m`` entry points above would otherwise
find themselves in ``sys.modules`` before they run.
"""
