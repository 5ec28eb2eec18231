"""CSV output with a finite-value guard.

Every CLI table, to stdout or to a file, is rendered by render_table, so a
NaN or infinity anywhere in a result is caught at the boundary, before a
byte of the table is written; write_table only writes text rendered so.
Floats are rendered with repr() (shortest round-trip form) which keeps
repeated runs byte-identical.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from pathlib import Path

from .errors import UnusableResultError


def format_cell(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise UnusableResultError(f"non-finite value {value!r} in CSV output")
        return repr(value)
    return str(value)


def render_table(header: list[str], rows: Iterable[list], comment: str | None = None) -> str:
    """The RFC-4180-style CSV text of a table: comment, when given, as a
    '# ...' line, the header row, then every row with each cell formatted.
    Nothing is returned unless every cell is finite."""
    lines = [f"# {comment}"] * (comment is not None) + [",".join(header)]
    lines += [",".join(map(format_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_table(path, text: str):
    """Write a table's text, as render_table returned it, to path."""
    Path(path).write_text(text, encoding="utf-8")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by write_table; comment lines are skipped.
    ValueError when the file is not UTF-8, empty, or has ragged rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise ValueError("empty table")
    header, *rows = (ln.split(",") for ln in data)
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"a row does not have the header's {len(header)} cells")
    return header, rows
