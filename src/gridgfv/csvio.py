"""CSV output with a finite-value guard and an optional JSON mirror.

All CLI outputs funnel through write_table, so a NaN or infinity anywhere in
a result is caught at the boundary instead of landing in a file.  Floats are
rendered with repr() (shortest round-trip form) which keeps repeated runs
byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import UnusableResultError


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise UnusableResultError(f"non-finite value {value!r} in CSV output")
        return repr(value)
    return str(value)


def write_table(
    path,
    header: list[str],
    rows: list[list],
    comment: str | None = None,
    json_mirror: bool = False,
):
    """Write an RFC-4180-style CSV with a header row.

    comment, when given, is emitted first as a '# ...' line.  With
    json_mirror the same table is also written next to the CSV as
    {stem}.json with keys columns/rows (and comment when present).
    """
    path = Path(path)
    formatted = [[format_cell(v) for v in row] for row in rows]
    lines = []
    if comment is not None:
        lines.append(f"# {comment}")
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in formatted)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if json_mirror:
        doc = {"columns": header, "rows": formatted}
        if comment is not None:
            doc["comment"] = comment
        path.with_suffix(".json").write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8"
        )


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
