"""Shared fixtures: bundled case files and cached per-case analyses."""

import os

# One BLAS thread, set before numpy is first imported: OpenBLAS worker
# threads otherwise contend with the small matrix products of the tests and
# with the Monte Carlo worker processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib.util
from functools import lru_cache
from pathlib import Path

import pytest

from gridgfv import analyze_case, load_case, parse_case

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "fixtures"

# Every bundled case; several acceptance criteria quantify over all of them.
FIXTURE_NAMES = [
    "case2",
    "case4_path",
    "case4_ring",
    "case4_sym",
    "case7_study",
    "case9",
    "case9_lossless",
]


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


# The benchmark's seeded 120-bus synthetic grid, for checks at a size that
# no bundled case reaches.
SYNTH120 = "synth120"


@lru_cache(maxsize=None)
def synth_case_bytes(n_bus: int, seed: int = 0) -> bytes:
    """The case file that perfbench/synthgrid.py writes for n_bus and seed."""
    spec = importlib.util.spec_from_file_location(
        "synthgrid", ROOT / "perfbench" / "synthgrid.py")
    synthgrid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synthgrid)
    return synthgrid.case_bytes(n_bus, seed)


@lru_cache(maxsize=None)
def get_case(name: str):
    """A bundled case by name, or SYNTH120 from perfbench/synthgrid.py."""
    if name == SYNTH120:
        return parse_case(synth_case_bytes(120).decode())
    return load_case(fixture_path(name))


@lru_cache(maxsize=None)
def get_analysis(name: str):
    return analyze_case(get_case(name))


def assert_no_child_left():
    """Every child of this process has been reaped: none runs, none is a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def is_lossless_shuntfree(case) -> bool:
    return all(br.r == 0.0 and br.b_ch == 0.0 for br in case.branches) and all(
        b.g_shunt == 0.0 and b.b_shunt == 0.0 for b in case.buses
    )


@pytest.fixture(scope="session")
def case9():
    return get_case("case9")


@pytest.fixture(scope="session")
def case2():
    return get_case("case2")
