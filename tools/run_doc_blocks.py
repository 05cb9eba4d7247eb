#!/usr/bin/env python3
"""Execute the ```python code blocks of a markdown document.

CI's docs job runs this against every docs page so the documented
examples cannot rot: every fenced ``python`` block is executed in order,
in one shared namespace (so later blocks may build on earlier ones), and
any exception fails the run with the offending block echoed.

Usage:  PYTHONPATH=src python tools/run_doc_blocks.py docs/batching.md [more.md ...]
"""

from __future__ import annotations

import re
import sys

FENCE = re.compile(r"^```python\s*$")
CLOSE = re.compile(r"^```\s*$")


def extract_blocks(text: str) -> list:
    """Fenced ```python blocks, in document order."""
    blocks = []
    current = None
    for line in text.splitlines():
        if current is None:
            if FENCE.match(line):
                current = []
        elif CLOSE.match(line):
            blocks.append("\n".join(current) + "\n")
            current = None
        else:
            current.append(line)
    if current is not None:
        raise SystemExit("unterminated ```python fence")
    return blocks


def run_document(path: str) -> int:
    with open(path) as handle:
        blocks = extract_blocks(handle.read())
    if not blocks:
        print(f"{path}: no python blocks")
        return 0
    namespace: dict = {"__name__": f"docblock:{path}"}
    for index, block in enumerate(blocks, 1):
        try:
            exec(compile(block, f"{path}[block {index}]", "exec"), namespace)
        except Exception:
            sys.stderr.write(
                f"\n{path}: block {index} failed:\n\n{block}\n"
            )
            raise
        print(f"{path}: block {index} ok")
    return len(blocks)


def main(argv: list) -> None:
    if not argv:
        raise SystemExit(__doc__)
    total = 0
    for path in argv:
        total += run_document(path)
    print(f"{total} block(s) executed")


if __name__ == "__main__":
    main(sys.argv[1:])
