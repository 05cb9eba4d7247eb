"""Benchmark harness reproducing every table and figure of the paper.

* :mod:`repro.bench.harness` -- run-matrix utilities: build algorithms,
  pick deterministic sources, run any system on any dataset, share
  functional traces across baselines.
* :mod:`repro.bench.experiments` -- one sweep function per experiment and
  the ordered ``EXPERIMENTS`` registry that binds each to its key, title
  and table specs (``python -m repro.bench.experiments`` regenerates
  EXPERIMENTS.md from it).
* :mod:`repro.bench.reporting` -- the one generic renderer: a table
  formatter with a ``text`` and a ``markdown`` style.

Nothing is imported here: the ``-m`` entry point above would otherwise find
itself in ``sys.modules`` before it runs.
"""
