"""Repo-specific AST lint rules behind ``tools/repro_lint.py``.

Four rules, each encoding a convention the test suite cannot check
structurally:

======== ================== ====================================================
id       name               what it flags
======== ================== ====================================================
REPRO001 extra-key          a string-literal ``RunResult.extra`` key (read,
                            write or membership test) that is not registered
                            in :mod:`repro.analysis.registry`
REPRO002 unseeded-rng       ``np.random`` legacy global-state calls, no-arg
                            ``default_rng()`` and stdlib ``random`` module use
                            (``src/`` only - tests may draw from fixtures)
REPRO003 counter-decrement  ``-=`` on an accounting counter (``*_us``,
                            ``*_count``, ``*_iterations``, ...) - counters are
                            increment-only by contract
REPRO004 float-eq-converged ``==`` / ``!=`` against a float constant or the
                            metadata arrays inside a ``converged()``
                            implementation (use tolerances or integer state)
======== ================== ====================================================

Suppressions:

* line level - trailing ``# repro-lint: disable=REPRO001`` (comma-separate
  several ids; rule names work too);
* file level - ``# repro-lint: disable-file=REPRO002`` anywhere in the file.

The checker is pure :mod:`ast` - no imports of the linted code - so it runs
on defect fixtures and broken snippets alike.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import registry

EXTRA_KEY = "REPRO001"
UNSEEDED_RNG = "REPRO002"
COUNTER_DECREMENT = "REPRO003"
FLOAT_EQ_CONVERGED = "REPRO004"

RULE_NAMES: Dict[str, str] = {
    EXTRA_KEY: "extra-key",
    UNSEEDED_RNG: "unseeded-rng",
    COUNTER_DECREMENT: "counter-decrement",
    FLOAT_EQ_CONVERGED: "float-eq-converged",
}
_NAME_TO_ID = {name: rule_id for rule_id, name in RULE_NAMES.items()}

#: Rules that only apply to shipped code under ``src/``.
SRC_ONLY_RULES = {UNSEEDED_RNG}

#: Accounting-counter naming convention: increment-only by contract.
_COUNTER_SUFFIXES = (
    "_us", "_count", "_counter", "_counters", "_launches", "_iterations",
    "_switches", "_splits", "_pairs", "_edges", "_ops", "_walked", "_scanned",
)

#: ``np.random`` members that are explicitly seeded constructions.
_SEEDED_RNG_FACTORIES = {"default_rng", "Generator", "SeedSequence", "PCG64",
                         "Philox", "MT19937", "BitGenerator"}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<file>-file)?\s*=\s*(?P<rules>[\w,\-]+)"
)


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def rule_name(self) -> str:
        return RULE_NAMES.get(self.rule, self.rule)

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.rule_name}] {self.message}"
        )


def _normalize_rules(raw: str) -> Set[str]:
    rules: Set[str] = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        rules.add(_NAME_TO_ID.get(token, token.upper()))
    return rules


def _suppressions(source: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """(file-wide suppressed rules, per-line suppressed rules)."""
    file_rules: Set[str] = set()
    line_rules: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = _normalize_rules(match.group("rules"))
        if match.group("file"):
            file_rules |= rules
        else:
            line_rules.setdefault(lineno, set()).update(rules)
    return file_rules, line_rules


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, src_scope: bool):
        self.path = path
        self.src_scope = src_scope
        self.findings: List[Finding] = []
        #: Local names bound to the numpy module / np.random / stdlib random.
        self._numpy_aliases: Set[str] = set()
        self._nprandom_aliases: Set[str] = set()
        self._random_aliases: Set[str] = set()
        self._converged_depth = 0
        self._converged_params: Set[str] = set()

    # ------------------------------------------------------------------
    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in SRC_ONLY_RULES and not self.src_scope:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -------------------------- imports ------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self._numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname is not None:
                    self._nprandom_aliases.add(alias.asname)
                else:
                    self._numpy_aliases.add("numpy")
            elif alias.name == "random":
                self._random_aliases.add(bound)
                self._add(
                    node, UNSEEDED_RNG,
                    "stdlib random draws from hidden global state; use "
                    "np.random.default_rng(seed)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy" and node.level == 0:
            for alias in node.names:
                if alias.name == "random":
                    self._nprandom_aliases.add(alias.asname or "random")
        self.generic_visit(node)

    # ------------------------ REPRO001: extra keys --------------------
    @staticmethod
    def _is_extra_expr(node: ast.AST) -> bool:
        return (
            (isinstance(node, ast.Attribute) and node.attr == "extra")
            or (isinstance(node, ast.Name) and node.id == "extra")
        )

    def _check_extra_key(self, node: ast.AST, key_node: ast.AST) -> None:
        if not (
            isinstance(key_node, ast.Constant)
            and isinstance(key_node.value, str)
        ):
            return
        key = key_node.value
        if not registry.is_registered(key):
            self._add(
                key_node, EXTRA_KEY,
                f"RunResult.extra key {key!r} is not registered in "
                f"repro.analysis.registry",
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_extra_expr(node.value):
            self._check_extra_key(node, node.slice)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # "key" in result.extra
        if (
            len(node.ops) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and self._is_extra_expr(node.comparators[0])
        ):
            self._check_extra_key(node, node.left)
        if self._converged_depth:
            self._check_converged_compare(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # result.extra.get("key", ...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and self._is_extra_expr(func.value)
            and node.args
        ):
            self._check_extra_key(node, node.args[0])
        # extra={"key": ...} keyword of a result construction
        for keyword in node.keywords:
            if keyword.arg == "extra" and isinstance(keyword.value, ast.Dict):
                for key_node in keyword.value.keys:
                    if key_node is not None:
                        self._check_extra_key(node, key_node)
        self._check_rng_call(node)
        self.generic_visit(node)

    # ------------------------ REPRO002: unseeded RNG ------------------
    def _rng_root(self, node: ast.AST) -> Optional[str]:
        """'legacy' for np.random.<fn>, 'module' for the np.random module."""
        if isinstance(node, ast.Attribute):
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self._numpy_aliases
            ):
                return node.attr
            if (
                isinstance(value, ast.Name)
                and value.id in self._nprandom_aliases
            ):
                return node.attr
        return None

    def _check_rng_call(self, node: ast.Call) -> None:
        func = node.func
        member = self._rng_root(func)
        if member is not None:
            if member == "default_rng" and not node.args:
                self._add(
                    node, UNSEEDED_RNG,
                    "default_rng() without a seed is non-reproducible; pass "
                    "an explicit seed",
                )
            elif member not in _SEEDED_RNG_FACTORIES:
                self._add(
                    node, UNSEEDED_RNG,
                    f"np.random.{member} uses the legacy global RNG; use "
                    f"np.random.default_rng(seed)",
                )
            return
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._random_aliases
        ):
            if func.attr == "Random" and node.args:
                return  # random.Random(seed) is explicitly seeded
            self._add(
                node, UNSEEDED_RNG,
                f"random.{func.attr} draws from hidden global state; use "
                f"np.random.default_rng(seed)",
            )

    # --------------------- REPRO003: counter decrements ---------------
    @staticmethod
    def _target_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None  # subscripts (metadata[u] -= ...) are data, not counters

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Sub):
            name = self._target_name(node.target)
            if name is not None and name.endswith(_COUNTER_SUFFIXES):
                self._add(
                    node, COUNTER_DECREMENT,
                    f"accounting counter {name!r} is decremented; counters "
                    f"are increment-only by contract",
                )
        self.generic_visit(node)

    # ------------------ REPRO004: float == in converged ---------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        if node.name != "converged":
            self.generic_visit(node)
            return
        params = [a.arg for a in node.args.args if a.arg != "self"]
        # The metadata arrays by ACC convention: converged(curr, prev, it).
        outer = self._converged_params
        self._converged_params = set(params[:2])
        self._converged_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._converged_depth -= 1
            self._converged_params = outer

    def _references_metadata(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self._converged_params:
                return True
        return False

    def _check_converged_compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands[:-1], operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            float_const = any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in (left, right)
            )
            metadata_ref = self._references_metadata(
                left
            ) or self._references_metadata(right)
            if float_const or metadata_ref:
                self._add(
                    node, FLOAT_EQ_CONVERGED,
                    "float equality in converged(); compare with a "
                    "tolerance or track integer state instead",
                )
                return


def lint_source(
    source: str, path: str = "<string>", *, src_scope: bool = True
) -> List[Finding]:
    """Lint python ``source``; ``src_scope`` enables the src-only rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="SYNTAX",
                message=f"cannot parse: {exc.msg}",
            )
        ]
    checker = _Checker(path, src_scope)
    checker.visit(tree)
    file_rules, line_rules = _suppressions(source)
    return [
        f for f in checker.findings
        if f.rule not in file_rules
        and f.rule not in line_rules.get(f.line, set())
    ]


def _is_src_scoped(path: Path) -> bool:
    return "src" in path.resolve().parts


def lint_file(path, *, src_scope: Optional[bool] = None) -> List[Finding]:
    path = Path(path)
    if src_scope is None:
        src_scope = _is_src_scoped(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), src_scope=src_scope)


def iter_python_files(paths: Sequence) -> Iterable[Path]:
    """Every .py file under ``paths`` (dirs walked, caches skipped)."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file in sorted(entry.rglob("*.py")):
                if "__pycache__" not in file.parts:
                    yield file
        elif entry.suffix == ".py":
            yield entry


def lint_paths(paths: Sequence) -> List[Finding]:
    """Lint every python file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_file(file))
    return findings
