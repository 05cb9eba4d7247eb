"""Render experiment results as tables, in a text or a markdown style.

This module names no experiment. :mod:`repro.bench.experiments` describes
each one as data - an ``Experiment`` whose :class:`Table` specs say which
result rows become which columns - and :func:`render` turns those specs plus
a sweep result into a printable string: the fixed-width ``text`` layout the
paper-artifact drivers print, or the ``markdown`` EXPERIMENTS.md is made of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

#: The output styles :func:`format_table` and :func:`render` understand.
STYLES = ("text", "markdown")


@dataclass(frozen=True)
class Table:
    """One rendered block of an experiment: heading, lead-in, table, footer.

    Every part is optional. ``columns`` holds ``(header, source[, digits])``
    tuples: ``source`` is a row key or a function of the row, ``digits``
    rounds float cells. With ``columns``, ``rows`` names the result key of
    the row dictionaries; without, it names ready ``(title, headers, rows)``
    blocks the sweep built itself because its columns depend on the sweep
    (an empty ``rows`` means there is no table body at all).
    """

    title: str = ""
    columns: Tuple[tuple, ...] = ()
    rows: str = "rows"
    #: Leading columns that identify a cell: a ``failed`` row keeps them,
    #: then reads ``OOM`` and ``-`` (0 = rows of this table cannot fail).
    cell: int = 0
    #: EXPERIMENTS.md section number of this block (0 = not a section).
    section: int = 0
    #: Lead-in paragraph, a format string over the result.
    lead: str = ""
    #: Closing lines: a format string over the result, or a function of it.
    footer: Union[str, Callable[[Dict], str]] = ""
    #: Result key to render against when one entry runs several sweeps.
    of: str = ""


def _format_cell(cell: object, style: str) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, bool):
        return "yes" if cell else "NO"
    if isinstance(cell, float):
        return f"{cell:.3f}" if style == "text" else f"{cell:g}"
    return str(cell)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], style: str = "text"
) -> str:
    """Fixed-width (``text``) or GitHub-flavoured (``markdown``) table."""
    if style not in STYLES:
        raise ValueError(f"unknown table style {style!r}; known: {STYLES}")
    headers = [str(h) for h in headers]
    cells = [[_format_cell(c, style) for c in row] for row in rows]
    if style == "markdown":
        lines = [headers, ["---"] * len(headers)] + cells
        return "\n".join("| " + " | ".join(line) + " |" for line in lines)
    widths = [len(h) for h in headers]
    for row in cells:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = [headers, ["-" * w for w in widths]] + cells
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in lines
    )


def _cells(columns: Sequence[tuple], row: Dict) -> List[object]:
    """The cells of one row dictionary under ``(header, source[, digits])``."""
    cells = []
    for _, source, *digits in columns:
        value = source(row) if callable(source) else row[source]
        if digits and isinstance(value, float):
            value = round(value, digits[0])
        cells.append(value)
    return cells


def _row(table: Table, row: Dict) -> List[object]:
    if table.cell and row.get("failed"):
        blanks = [None] * (len(table.columns) - table.cell - 1)
        return _cells(table.columns[: table.cell], row) + ["OOM"] + blanks
    return _cells(table.columns, row)


def _block(table: Table, result: Dict, style: str) -> str:
    """One :class:`Table` spec rendered against a sweep result."""
    data = result[table.of] if table.of else result
    sep = "\n" if style == "text" else "\n\n"

    def heading(title: str) -> str:
        if style == "text":
            return title
        return f"## {table.section}. {title}" if table.section else f"### {title}"

    pieces = [heading(table.title)] if table.title else []
    if table.lead:
        pieces.append(table.lead.format(**data))
    if table.columns:
        pieces.append(format_table(
            [column[0] for column in table.columns],
            [_row(table, row) for row in data[table.rows]],
            style,
        ))
    elif table.rows:
        pieces.append("\n\n".join(
            sep.join([heading(title), format_table(headers, rows, style)])
            for title, headers, rows in data[table.rows]
        ))
    if table.footer:
        footer = table.footer
        pieces.append(footer(data) if callable(footer) else footer.format(**data))
    return sep.join(pieces)


def render(tables: Iterable[Table], result: Dict, style: str = "text") -> str:
    """Render all of one experiment's tables for one sweep result."""
    return "\n\n".join(_block(table, result, style) for table in tables)
