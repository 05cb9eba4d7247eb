"""Tests for the repro-lint AST pass (``repro.analysis.lint``).

Each rule gets a seeded-defect snippet that must be flagged plus a
well-formed twin that must not; suppression comments and the src-only
scoping are exercised; and the shipped tree itself must lint clean (the
same invariant the CI ``static-analysis`` job enforces via
``tools/repro_lint.py``).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import (
    COUNTER_DECREMENT,
    EXTRA_KEY,
    FLOAT_EQ_CONVERGED,
    UNSEEDED_RNG,
    lint_paths,
    lint_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rules(source: str, *, src_scope: bool = True) -> list:
    return [f.rule for f in lint_source(source, src_scope=src_scope)]


# ----------------------------------------------------------------------
# REPRO001: extra keys must come from the registry
# ----------------------------------------------------------------------
def test_unregistered_extra_subscript_flagged():
    assert _rules("value = result.extra['bogus_key']\n") == [EXTRA_KEY]


def test_unregistered_extra_get_flagged():
    assert _rules("value = result.extra.get('bogus_key', 0)\n") == [EXTRA_KEY]


def test_unregistered_extra_membership_flagged():
    assert _rules("ok = 'bogus_key' in result.extra\n") == [EXTRA_KEY]


def test_unregistered_extra_literal_dict_flagged():
    source = "result = RunResult(extra={'bogus_key': 1})\n"
    assert _rules(source) == [EXTRA_KEY]


def test_registered_extra_key_clean():
    source = (
        "value = result.extra['union_edges_walked']\n"
        "other = result.extra.get('fusion')\n"
        "ok = 'sanitizer' in result.extra\n"
    )
    assert _rules(source) == []


def test_non_extra_dict_access_not_flagged():
    assert _rules("value = config['bogus_key']\n") == []


# ----------------------------------------------------------------------
# REPRO002: no unseeded randomness in src/
# ----------------------------------------------------------------------
def test_legacy_numpy_random_flagged_in_src():
    source = "import numpy as np\nx = np.random.rand(4)\n"
    assert _rules(source) == [UNSEEDED_RNG]


def test_no_arg_default_rng_flagged_in_src():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert _rules(source) == [UNSEEDED_RNG]


def test_stdlib_random_import_flagged_in_src():
    assert _rules("import random\n") == [UNSEEDED_RNG]


def test_seeded_default_rng_clean():
    source = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert _rules(source) == []


def test_rng_rule_skipped_outside_src():
    source = "import numpy as np\nx = np.random.rand(4)\n"
    assert _rules(source, src_scope=False) == []


# ----------------------------------------------------------------------
# REPRO003: counters only ever increase
# ----------------------------------------------------------------------
def test_counter_decrement_flagged():
    assert _rules("self.launch_count -= 1\n") == [COUNTER_DECREMENT]


def test_counter_increment_clean():
    assert _rules("self.launch_count += 1\n") == []


def test_non_counter_decrement_clean():
    assert _rules("self.budget -= 1\n") == []


# ----------------------------------------------------------------------
# REPRO004: no float equality inside converged()
# ----------------------------------------------------------------------
def test_float_eq_in_converged_flagged():
    source = (
        "class A:\n"
        "    def converged(self, curr, prev, iteration):\n"
        "        return curr == 0.0\n"
    )
    assert _rules(source) == [FLOAT_EQ_CONVERGED]


def test_metadata_param_eq_in_converged_flagged():
    source = (
        "class A:\n"
        "    def converged(self, curr, prev, iteration):\n"
        "        return bool(curr == prev)\n"
    )
    assert _rules(source) == [FLOAT_EQ_CONVERGED]


def test_tolerance_compare_in_converged_clean():
    source = (
        "class A:\n"
        "    def converged(self, curr, prev, iteration):\n"
        "        return abs(curr - prev).max() < 1e-6\n"
    )
    assert _rules(source) == []


def test_float_eq_outside_converged_clean():
    source = "def check(x):\n    return x == 0.0\n"
    assert _rules(source) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_line_suppression():
    source = "x = result.extra['bogus_key']  # repro-lint: disable=REPRO001\n"
    assert _rules(source) == []


def test_file_suppression():
    source = (
        "# repro-lint: disable-file=REPRO001\n"
        "x = result.extra['bogus_key']\n"
        "y = result.extra['another_bogus']\n"
    )
    assert _rules(source) == []


def test_suppression_is_rule_specific():
    source = "x = result.extra['bogus_key']  # repro-lint: disable=REPRO002\n"
    assert _rules(source) == [EXTRA_KEY]


def test_syntax_error_reported_not_raised():
    findings = lint_source("def broken(:\n")
    assert [f.rule for f in findings] == ["SYNTAX"]


def test_finding_str_contains_location_and_rule():
    (finding,) = lint_source("x = result.extra['bogus_key']\n", path="demo.py")
    rendered = str(finding)
    assert rendered.startswith("demo.py:1:")
    assert "REPRO001" in rendered
    assert "extra-key" in rendered


# ----------------------------------------------------------------------
# The shipped tree lints clean (same gate as CI)
# ----------------------------------------------------------------------
def test_shipped_tree_lints_clean():
    paths = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    findings = lint_paths(paths)
    assert findings == [], "\n".join(str(f) for f in findings)
