#!/usr/bin/env python3
"""Check that every function, class and method in ``src/repro`` is used.

Usage:  python tools/src_reachability.py [--repo ROOT]

A definition is *used* when its name is referenced from code a path
runs or from API the docs advertise:

* ``src/`` itself, except ``import`` statements and ``__all__`` lists
  (a package re-exporting a name is not a use; a registry dict such as
  ``ALGORITHMS = {"bfs": BFS}`` is);
* ``perfbench/``, ``benchmarks/``, ``examples/`` and ``tools/``;
* the fenced ``python`` code blocks of ``README.md`` and ``docs/*.md``.

``tests/`` is not a use: a helper only its own test reaches is dead
code, and a fixture or oracle the tests need lives under ``tests/``.

Reachability is by name and transitive. Module-level code in ``src/``
and everything in the other places above are the roots; a reference
made inside a definition counts only once that definition is itself
used. A method is used when its class is and some use reads its name as
an attribute (``obj.name``). A string constant spelling a (dotted)
identifier is a reference too, which is how ``perfbench/layers.py``
names the seams it wraps. Matching is by name, not by type, so a method
shares its fate with every attribute of the same name - the check never
reports a live definition, and may miss a dead one whose name is also
used elsewhere.

``ALLOWED`` holds the only exceptions: names the interpreter or a
library calls by name, never spelled at a call site. Dunders are
always allowed.

Exit status 0 when every definition is used, 1 otherwise (each unused
definition is listed as ``path:line: qualified.name``). CI's
static-analysis job and a tier-1 test run this on the committed tree.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

#: Name pattern -> why it is reached without being spelled at a call site.
ALLOWED: Dict[str, str] = {
    "visit_*": "ast.NodeVisitor.visit dispatches on 'visit_' + the node's class name",
}

ROOT_DIRS = ("perfbench", "benchmarks", "examples", "tools")

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


@dataclass
class Definition:
    path: str
    line: int
    qualname: str
    name: str
    parent: Optional["Definition"] = None
    refs: Set[str] = field(default_factory=set)


def _docstring_ids(tree: ast.AST) -> Set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _is_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _both(words: Iterable[str]) -> Set[str]:
    return {form for word in words for form in (word, "." + word)}


def _references(nodes: Iterable[ast.AST], skip: Set[int]) -> Set[str]:
    """What the nodes reference: ``name`` for a bare name, ``.name`` for an
    attribute, both for a string spelling an identifier."""
    names: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add("." + node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skip and _IDENTIFIER.match(node.value)):
                names |= _both(node.value.split("."))
    return names


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def scan_module(path: Path, rel: str, roots: Set[str]) -> List[Definition]:
    """The module's definitions; its module-level references go to ``roots``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
    skip = _docstring_ids(tree)
    module = rel[len("src/"):-len(".py")].replace("/", ".")
    found: List[Definition] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt):
            continue
        if not _is_def(stmt):
            roots |= _references([stmt], skip)
            continue
        top = Definition(rel, stmt.lineno, f"{module}.{stmt.name}", stmt.name)
        found.append(top)
        if not isinstance(stmt, ast.ClassDef):
            top.refs = _references([stmt], skip)
            continue
        class_level = list(stmt.decorator_list) + list(stmt.bases) + list(stmt.keywords)
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = Definition(rel, member.lineno, f"{top.qualname}.{member.name}",
                                    member.name, parent=top)
                method.refs = _references([member], skip)
                found.append(method)
            else:
                class_level.append(member)
        top.refs = _references(class_level, skip)
    return found


def _code_blocks(text: str, page: Path) -> Set[str]:
    names: Set[str] = set()
    for block in _PYTHON_BLOCK.findall(text):
        tree = ast.parse(block, filename=str(page))
        names |= _references([tree], _docstring_ids(tree))
    return names


def allowed(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in ALLOWED)


def unused_definitions(repo: Path) -> List[Definition]:
    """Definitions under ``src/repro`` that no use reaches, in file order."""
    roots: Set[str] = set()
    definitions: List[Definition] = []
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        definitions += scan_module(path, path.relative_to(repo).as_posix(), roots)
    for directory in ROOT_DIRS:
        for path in sorted((repo / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            roots |= _references([tree], _docstring_ids(tree))
    for page in [repo / "README.md", *sorted((repo / "docs").glob("*.md"))]:
        if page.is_file():
            roots |= _code_blocks(page.read_text(encoding="utf-8"), page)

    live: Set[int] = set()
    names = set(roots)
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            parent = definition.parent
            if id(definition) in live or (parent is not None and id(parent) not in live):
                continue
            if allowed(definition.name) or "." + definition.name in names or (
                    parent is None and definition.name in names):
                live.add(id(definition))
                names |= definition.refs
                changed = True
    return [d for d in definitions if id(d) not in live]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: the checkout containing this tool)",
    )
    args = parser.parse_args(argv)
    unused = unused_definitions(Path(args.repo))
    for definition in unused:
        print(f"{definition.path}:{definition.line}: {definition.qualname}")
    if unused:
        print(f"src_reachability: {len(unused)} definition(s) no path uses "
              "(tests/ does not count)", file=sys.stderr)
        return 1
    print("src_reachability: every src/repro definition is used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
