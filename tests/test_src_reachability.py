"""Tests for ``tools/src_reachability.py``: every ``src/repro`` definition
is reached by a path, not only by its own tests.

The committed tree must be clean (the same check CI's static-analysis
job runs), and a copy of the tree with one planted unreferenced
definition must fail, naming it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "src_reachability.py"


def _run(repo: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--repo", str(repo)],
        capture_output=True, text=True, timeout=120,
    )


def _copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "perfbench", "benchmarks", "examples", "tools", "docs"):
        shutil.copytree(REPO_ROOT / name, dest / name, ignore=ignore)
    shutil.copy(REPO_ROOT / "README.md", dest / "README.md")
    return dest


def test_committed_tree_has_no_unused_definition():
    result = _run(REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr


def test_planted_unreferenced_function_is_reported(tmp_path):
    repo = _copy_tree(tmp_path)
    module = repo / "src" / "repro" / "graph" / "properties.py"
    module.write_text(
        module.read_text(encoding="utf-8")
        + "\n\ndef planted_dead_helper(graph):\n    return graph.num_vertices\n",
        encoding="utf-8",
    )
    result = _run(repo)
    assert result.returncode == 1
    [line] = result.stdout.splitlines()
    assert line.startswith("src/repro/graph/properties.py:")
    assert line.endswith(": repro.graph.properties.planted_dead_helper")


def test_planted_method_reached_only_from_a_dead_function_is_reported(tmp_path):
    """Reachability is transitive: a reference from a definition no path
    uses does not keep its target alive."""
    repo = _copy_tree(tmp_path)
    module = repo / "src" / "repro" / "graph" / "csr.py"
    module.write_text(
        module.read_text(encoding="utf-8").replace(
            "    def out_degrees(self) -> np.ndarray:\n",
            "    def planted_in_class(self) -> int:\n"
            "        return 0\n\n"
            "    def out_degrees(self) -> np.ndarray:\n",
        )
        + "\n\ndef planted_caller(graph):\n    return graph.planted_in_class()\n",
        encoding="utf-8",
    )
    result = _run(repo)
    assert result.returncode == 1
    reported = [line.split(": ")[1] for line in result.stdout.splitlines()]
    assert reported == [
        "repro.graph.csr.CSRGraph.planted_in_class",
        "repro.graph.csr.planted_caller",
    ]


# ----------------------------------------------------------------------
# The rules, one at a time, on a small synthetic tree
# ----------------------------------------------------------------------
def _load_tool():
    import importlib.util

    spec = importlib.util.spec_from_file_location("src_reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    # The dataclasses in the tool look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


reach = _load_tool()

#: One module with a function, a class and a method, none of them used.
MODULE = '''\
"""helper, Thing and Thing.seam are named here, which is not a use."""


def helper():
    return 1


class Thing:
    def seam(self):
        return 2
'''


def _tree(root: Path, files: dict) -> Path:
    files = {"src/repro/__init__.py": "", "src/repro/mod.py": MODULE, **files}
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def _unused(root: Path, **files) -> list:
    return [d.qualname for d in reach.unused_definitions(_tree(root, files))]


ALL_THREE = ["repro.mod.helper", "repro.mod.Thing", "repro.mod.Thing.seam"]


def test_nothing_referenced_reports_every_definition(tmp_path):
    assert _unused(tmp_path) == ALL_THREE


def test_package_reexport_is_not_a_use(tmp_path):
    init = 'from repro.mod import Thing, helper\n\n__all__ = ["Thing", "helper"]\n'
    assert _unused(tmp_path, **{"src/repro/__init__.py": init}) == ALL_THREE


def test_registry_dict_is_a_use(tmp_path):
    registry = "from repro.mod import helper\n\nREGISTRY = {'h': helper}\n"
    assert _unused(tmp_path, **{"src/repro/registry.py": registry}) == ALL_THREE[1:]


@pytest.mark.parametrize("directory", reach.ROOT_DIRS)
def test_reference_from_a_root_directory_is_a_use(tmp_path, directory):
    caller = "from repro.mod import helper\n\nhelper()\n"
    assert _unused(tmp_path, **{f"{directory}/caller.py": caller}) == ALL_THREE[1:]


def test_reference_from_tests_is_not_a_use(tmp_path):
    caller = "from repro.mod import Thing, helper\n\nhelper()\nThing().seam()\n"
    assert _unused(tmp_path, **{"tests/test_mod.py": caller}) == ALL_THREE


@pytest.mark.parametrize("page", ["README.md", "docs/guide.md"])
def test_python_block_in_the_docs_is_a_use(tmp_path, page):
    text = "Usage:\n\n```python\nfrom repro.mod import Thing\nThing().seam()\n```\n"
    assert _unused(tmp_path, **{page: text}) == ["repro.mod.helper"]


def test_other_code_blocks_in_the_docs_are_not_a_use(tmp_path):
    text = "```bash\npython -c 'from repro.mod import helper; helper()'\n```\n"
    assert _unused(tmp_path, **{"docs/guide.md": text}) == ALL_THREE


def test_string_spelling_a_dotted_name_is_a_use(tmp_path):
    seams = 'SEAMS = ["repro.mod.Thing.seam"]\n'
    assert _unused(tmp_path, **{"perfbench/layers.py": seams}) == ["repro.mod.helper"]


def test_method_needs_its_class_used(tmp_path):
    # ``.seam`` is read, but nothing uses Thing, so its method is dead too.
    caller = "def run(obj):\n    return obj.seam()\n\nrun(None)\n"
    assert _unused(tmp_path, **{"tools/caller.py": caller}) == ALL_THREE


def test_method_needs_an_attribute_read(tmp_path):
    # A bare name that happens to match a method does not keep it alive.
    caller = "from repro.mod import Thing\n\nseam = Thing()\n"
    assert _unused(tmp_path, **{"tools/caller.py": caller}) == [
        "repro.mod.helper", "repro.mod.Thing.seam",
    ]


def test_module_attribute_read_uses_a_function(tmp_path):
    caller = "import repro.mod as mod\n\nmod.helper()\n"
    assert _unused(tmp_path, **{"examples/caller.py": caller}) == ALL_THREE[1:]


def test_dunders_and_allowed_names_need_no_caller(tmp_path):
    module = (
        "class Visitor:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def visit_Name(self, node):\n        return node\n"
    )
    caller = "from repro.visitor import Visitor\n\nVisitor()\n"
    unused = _unused(tmp_path, **{"src/repro/visitor.py": module,
                                  "tools/caller.py": caller})
    assert unused == ALL_THREE


def test_use_is_transitive_from_a_live_definition(tmp_path):
    chain = (
        "from repro.mod import Thing, helper\n\n\n"
        "def first():\n    return second()\n\n\n"
        "def second():\n    return Thing().seam() + helper()\n"
    )
    caller = "from repro.chain import first\n\nfirst()\n"
    assert _unused(tmp_path, **{"src/repro/chain.py": chain,
                                "benchmarks/caller.py": caller}) == []


def test_main_reports_unused_definitions_and_exits_one(tmp_path, capsys):
    root = _tree(tmp_path, {})
    assert reach.main(["--repo", str(root)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "src/repro/mod.py:4: repro.mod.helper",
        "src/repro/mod.py:8: repro.mod.Thing",
        "src/repro/mod.py:9: repro.mod.Thing.seam",
    ]


def test_main_exits_zero_when_everything_is_used(tmp_path, capsys):
    caller = "from repro.mod import Thing, helper\n\nhelper()\nThing().seam()\n"
    root = _tree(tmp_path, {"tools/caller.py": caller})
    assert reach.main(["--repo", str(root)]) == 0
    assert "every src/repro definition is used" in capsys.readouterr().out
