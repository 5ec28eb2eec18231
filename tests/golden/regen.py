"""Regenerate the golden corpus: the outputs of grid-gfv's commands on the
bundled cases, and the manifest of the environment that wrote them.

    python tests/golden/regen.py

run from the root of a checkout, rewrites corpus/ and manifest.json and
prints, per file, whether its bytes moved and the largest change of a number
relative to its column's largest magnitude.  tests/test_golden.py regenerates
the same outputs through cli.main and holds them to the corpus.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
CORPUS = GOLDEN / "corpus"
MANIFEST = GOLDEN / "manifest.json"
sys.path.insert(0, str(ROOT / "src"))

from gridgfv import cli  # noqa: E402  (importing gridgfv pins BLAS before numpy)
from gridgfv.powerflow import PF_TOL  # noqa: E402

import numpy as np  # noqa: E402

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Where the environment differs from the manifest's, a number may differ from
# the corpus by this much of its column's largest magnitude (CHANGES.md
# derives it); an integer cell must not differ, but for a histogram count,
# which may gain or lose one sample that sits at a bin edge as long as its
# histogram keeps its total.
RTOL = 1e-6
# Comment values that are residuals of a converged iteration: rounding noise
# below the tolerance the run used, held to that tolerance and not to RTOL.
RESIDUALS = {"max_mismatch": PF_TOL}

_CASES = ("case2", "case4_path", "case4_ring", "case4_sym", "case7_study", "case9",
          "case9_lossless")
# Each output, a file or (mc) a directory of files under corpus/, and the
# command that writes it.
RUNS = {
    f"{case}/{command}.csv": [command, str(ROOT / "fixtures" / f"{case}.json")]
    for case in _CASES for command in ("pf", "laplacian", "dmatrix", "inertia", "gfv")
}
RUNS["case9/simulate_bus5.csv"] = ["simulate", str(ROOT / "fixtures" / "case9.json"),
                                   "--bus", "5", "--t", "2"]
RUNS["case7_study/mc"] = ["mc", str(ROOT / "fixtures" / "case7_study.json"),
                          "--buses", "3,4,5,7", "--n", "24", "--t", "5"]


def _blas_core() -> str:
    """The kernel set that OpenBLAS chose for this CPU, which can change last
    bits; "unknown" where the library cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def environment() -> dict:
    """What the corpus's last bits depend on: numpy, its BLAS and the kernel
    set it runs here, the BLAS thread pins and the machine."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_core": _blas_core(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PINS},
        "machine": platform.machine(),
    }


def generate(dest: Path) -> list[str]:
    """Write every output of RUNS under dest through cli.main; return the
    files written, relative to dest."""
    for name, argv in RUNS.items():
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        code = cli.main([*argv, "--out-dir" if argv[0] == "mc" else "--out", str(target)])
        if code != 0:
            raise RuntimeError(f"grid-gfv {' '.join(argv)} exited {code}")
    return files(dest)


def files(directory: Path) -> list[str]:
    """The files under directory, as sorted relative POSIX paths."""
    return sorted(p.relative_to(directory).as_posix()
                  for p in directory.rglob("*") if p.is_file())


_INTEGER = re.compile(r"-?\d+")


def _number(cell: str):
    """cell as an int or a float, or None when it is neither."""
    if _INTEGER.fullmatch(cell):
        return int(cell)
    try:
        return float(cell)
    except ValueError:
        return None


def _parse(text: str):
    """The comment's key=value pairs, the header and the rows of a table."""
    lines = text.splitlines()
    comment = {}
    if lines and lines[0].startswith("# "):
        comment = dict(token.split("=", 1) for token in lines.pop(0)[2:].split())
    header, *rows = (line.split(",") for line in lines)
    return comment, header, rows


def integer_cells(text: str) -> list[str]:
    """The integer cells of a table, its comment's integers first."""
    comment, _, rows = _parse(text)
    return [cell for cell in [*comment.values(), *(c for row in rows for c in row)]
            if _INTEGER.fullmatch(cell)]


def compare(old: str, new: str) -> tuple[float, list[str]]:
    """The largest change of a number of table new from table old, relative
    to the largest magnitude of its column in old (to itself for a comment
    value), and every difference that no relative change measures: of
    shape, text, integers beyond the count rule, or a residual above its
    tolerance."""
    (old_comment, old_header, old_rows), (new_comment, new_header, new_rows) = (
        _parse(old), _parse(new))
    if (old_header, len(old_rows), sorted(old_comment)) != (
            new_header, len(new_rows), sorted(new_comment)):
        return 0.0, ["header, row count or comment keys differ"]
    largest, faults = 0.0, []

    def relative(a: float, b: float, scale: float) -> float:
        return 0.0 if a == b else (abs(a - b) / scale if scale > 0 else np.inf)

    for key, value in old_comment.items():
        a, b = _number(value), _number(new_comment[key])
        if key in RESIDUALS:
            if not (b is not None and abs(b) <= RESIDUALS[key]):
                faults.append(f"{key}={new_comment[key]} exceeds {RESIDUALS[key]!r}")
        elif isinstance(a, float) and isinstance(b, float):
            largest = max(largest, relative(a, b, abs(a)))
        elif value != new_comment[key]:
            faults.append(f"{key}: {value} -> {new_comment[key]}")
    totals = {}
    for j, name in enumerate(old_header):
        old_col = [_number(row[j]) for row in old_rows]
        new_col = [_number(row[j]) for row in new_rows]
        floats = [abs(v) for v in old_col if isinstance(v, float)]
        scale = max(floats, default=0.0)
        for i, (a, b) in enumerate(zip(old_col, new_col)):
            if isinstance(a, float) and isinstance(b, float):
                largest = max(largest, relative(a, b, scale))
            elif name == "count" and isinstance(a, int) and isinstance(b, int):
                if abs(a - b) > 1:
                    faults.append(f"row {i + 1} count: {a} -> {b}")
                key = tuple(c for k, c in enumerate(old_rows[i])
                            if k != j and not isinstance(_number(c), float))
                totals[key] = totals.get(key, 0) + b - a
            elif old_rows[i][j] != new_rows[i][j]:
                faults.append(f"row {i + 1} {name}: {old_rows[i][j]} -> {new_rows[i][j]}")
    faults += [f"histogram {key} changes its total by {d}" for key, d in totals.items() if d]
    return largest, faults


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        written = generate(Path(tmp))
        before = files(CORPUS) if CORPUS.is_dir() else []
        for name in written:
            old_path, new_text = CORPUS / name, (Path(tmp) / name).read_text()
            if not old_path.is_file():
                print(f"{name}: new")
            elif old_path.read_text() == new_text:
                print(f"{name}: bytes unchanged")
            else:
                largest, faults = compare(old_path.read_text(), new_text)
                same = integer_cells(old_path.read_text()) == integer_cells(new_text)
                print(f"{name}: bytes moved, largest relative change {largest:.2g}, "
                      f"integer cells {'unchanged' if same else 'moved'}"
                      + "".join(f"; {fault}" for fault in faults))
        for name in sorted(set(before) - set(written)):
            print(f"{name}: removed")
        shutil.rmtree(CORPUS, ignore_errors=True)
        shutil.copytree(tmp, CORPUS)
    MANIFEST.write_text(json.dumps({"environment": environment(), "files": written},
                                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
