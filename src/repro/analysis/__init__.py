"""Static analysis and runtime sanitizing for the simulated engine.

Two prongs, one goal: turn the ACC model's implicit contracts into
*checkable* invariants instead of properties a fuzz seed may or may not
trip over.

* :mod:`repro.analysis.registry` -- the central registry of every
  ``RunResult.extra`` key the repository writes or reads. A typo'd key is
  a lint error, not a silently-empty metric.
* :mod:`repro.analysis.sanitizer` -- the runtime sanitizer
  (``EngineConfig.sanitize=True``): shadows each superstep's functional
  execution and flags writes that bypass the ``CombineOp`` reduction
  (would-be atomics), phase-order violations, non-bijective lane remaps,
  impure ACC hooks and broken accounting. Violations raise
  :class:`~repro.analysis.sanitizer.SanitizerError`; clean runs land a
  machine-readable report in ``RunResult.extra["sanitizer"]``.
* :mod:`repro.analysis.lint` -- the repo-specific AST lint pass behind
  ``tools/repro_lint.py`` (extra-key registry enforcement, seeded-RNG
  discipline, increment-only accounting counters, no float equality in
  ``converged()``).

See ``docs/static-analysis.md`` for the rule table and how to run both.
"""

from repro.analysis.registry import ExtraKey, is_registered, registered_keys
from repro.analysis.sanitizer import (
    RuntimeSanitizer,
    SanitizerError,
    SanitizerViolation,
    ViolationKind,
)

__all__ = [
    "ExtraKey",
    "is_registered",
    "registered_keys",
    "RuntimeSanitizer",
    "SanitizerError",
    "SanitizerViolation",
    "ViolationKind",
]
