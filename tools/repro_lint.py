#!/usr/bin/env python3
"""Run the repo-specific AST lint pass (repro.analysis.lint).

Usage:  PYTHONPATH=src python tools/repro_lint.py src tests benchmarks
        python tools/repro_lint.py --list-keys      # dump the extra keys + contracts
        python tools/repro_lint.py --list-rules     # dump the rule table

Exit status 0 when every linted file is clean, 1 otherwise. Rules scoped
to shipped code (unseeded-rng) apply only to files under a
directory named ``src``; see docs/static-analysis.md for the rule table
and the suppression syntax.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Allow running straight from a checkout without PYTHONPATH=src.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis import registry  # noqa: E402
from repro.analysis.lint import RULE_NAMES, SRC_ONLY_RULES, lint_paths  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--list-keys", action="store_true",
        help="print the registered RunResult.extra keys with their contracts and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the lint rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_keys:
        for name, key in sorted(registry.registered_keys().items()):
            producers = ", ".join(key.producers) or "-"
            print(f"{name} [{key.contract()}]  ({producers}): {key.description}")
        return 0
    if args.list_rules:
        for rule_id, name in sorted(RULE_NAMES.items()):
            scope = "src only" if rule_id in SRC_ONLY_RULES else "everywhere"
            print(f"{rule_id}  {name}  [{scope}]")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
