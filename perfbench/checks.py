"""Checks of grid-gfv outputs against stored references.

Values are compared within a relative tolerance, not byte for byte: the
project allows deliberate last-bit changes (a batched integrator, a one-solve
nodal inertia), which move results by about 1e-14, while a wrong result moves
them by far more than RTOL.  The files are parsed here rather than with
gridgfv.csvio, so a fault in the program's own reader cannot hide one in its
writer.
"""

from __future__ import annotations

import math
from pathlib import Path

RTOL = 1e-6
# Absolute floor for gfv entries, which lie in [0, 1] and can be near 0.
GFV_ATOL = 1e-9


def close(a: float, b: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _table(path: Path):
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    comment = {}
    if lines and lines[0].startswith("#"):
        comment = dict(tok.split("=", 1) for tok in lines[0][1:].split() if "=" in tok)
        lines = lines[1:]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return comment, rows


def read_gfv(path) -> dict:
    """lambda2, lambda2_bar and the per-bus gfv column of a `gfv --out` file."""
    comment, rows = _table(path)
    return {
        "lambda2": float(comment["lambda2"]),
        "lambda2_bar": float(comment["lambda2_bar"]),
        "bus_id": [int(r["bus_id"]) for r in rows],
        "gfv": [float(r["gfv"]) for r in rows],
    }


def read_mc(out_dir) -> dict:
    """Per-bus median IFD and success count from an `mc` summary.csv, with the
    ranking (bus ids by ascending median IFD)."""
    comment, rows = _table(Path(out_dir) / "summary.csv")
    median = {int(r["bus_id"]): float(r["median_ifd"]) for r in rows}
    return {
        "n_realizations": int(comment["n_realizations"]),
        "median_ifd": median,
        "n_ok": {int(r["bus_id"]): int(r["n_ok"]) for r in rows},
        "ranking": sorted(median, key=median.__getitem__),
    }


def gfv_errors(out: dict, ref: dict | None) -> list[str]:
    errors = []
    g = out["gfv"]
    if not g or not all(math.isfinite(v) for v in g):
        return ["gfv column is empty or not finite"]
    if max(g) != 1.0:
        errors.append(f"max(gfv) is {max(g)!r}, not 1")
    if any(v < 0.0 or v > 1.0 for v in g):
        errors.append("a gfv value lies outside [0, 1]")
    if ref is None:
        return errors
    for key in ("lambda2", "lambda2_bar"):
        if not close(out[key], ref[key]):
            errors.append(f"{key} {out[key]!r} differs from reference {ref[key]!r}")
    if out["bus_id"] != ref["bus_id"]:
        return errors + ["bus ids differ from the reference"]
    bad = [b for b, v, r in zip(out["bus_id"], g, ref["gfv"])
           if not close(v, r, atol=GFV_ATOL)]
    if bad:
        errors.append(f"gfv differs from reference at buses {bad[:5]}")
    return errors


def mc_errors(out: dict, n: int, ref: dict | None) -> list[str]:
    errors = []
    short = {b: k for b, k in out["n_ok"].items() if k != n}
    if out["n_realizations"] != n or short:
        errors.append(f"n_ok != N={n} at buses {sorted(short)}")
    if ref is None:
        return errors
    ref_median = {int(b): v for b, v in ref["median_ifd"].items()}
    if set(out["median_ifd"]) != set(ref_median):
        return errors + ["placement buses differ from the reference"]
    bad = [b for b, v in out["median_ifd"].items() if not close(v, ref_median[b])]
    if bad:
        errors.append(f"median_ifd differs from reference at buses {sorted(bad)}")
    # The ranking must follow the reference medians; only buses whose
    # reference medians tie within RTOL may swap places.
    rank = out["ranking"]
    for i, a in enumerate(rank):
        for b in rank[i + 1:]:
            if ref_median[a] > ref_median[b] and not close(ref_median[a], ref_median[b]):
                errors.append(f"IFD ranking puts bus {a} before bus {b}")
    return errors
