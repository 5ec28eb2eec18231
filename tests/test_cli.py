"""Command-line behavior: outputs, exit codes, determinism."""

import argparse
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields
from itertools import groupby
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from gridgfv import OuParams, TurbineParams, cli, montecarlo, pipeline, powerflow
from gridgfv.case_model import bus_positions, load_validated_case
from gridgfv.cli import main
from gridgfv.csvio import format_cell, read_table, render_table, write_table
from gridgfv.errors import SimulationUnstableError

from conftest import FIXTURE_NAMES, assert_no_child_left, fixture_path, synth_case_bytes

CASE9 = str(fixture_path("case9"))
STUDY = str(fixture_path("case7_study"))
STUDY_RUN = str(fixture_path("case7_study_run"))


def test_validate_clean_case_exits_zero(capsys):
    assert main(["validate", CASE9]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(Path(CASE9).read_text())
    doc["buses"][1]["kind"] = "slack"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "duplicate-slack" in capsys.readouterr().out


def test_invalid_case_is_one_stderr_line_naming_every_violation(tmp_path, capsys):
    doc = json.loads(Path(CASE9).read_text())
    doc["buses"][0]["kind"] = "pq"  # the slack bus, which holds a machine
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["gfv", str(bad)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "missing-slack" in err and "generator-on-pq-bus" in err
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert "missing-slack" in out[0] + out[1] and "generator-on-pq-bus" in out[0] + out[1]


def test_missing_file_exits_one(capsys):
    assert main(["pf", "missing.json"]) == 1
    assert "file not found" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_malformed_case_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["pf", str(bad)]) == 2


def test_numerical_failure_exits_three(tmp_path, capsys):
    doc = {
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_set": 1.0},
            {"id": 2, "kind": "pq", "p_load": 50.0},
        ],
        "branches": [{"from_bus": 1, "to_bus": 2, "x": 0.2}],
        "generators": [{"bus": 1, "h": 5.0, "xd_p": 0.3}],
    }
    hopeless = tmp_path / "hopeless.json"
    hopeless.write_text(json.dumps(doc))
    assert main(["pf", str(hopeless)]) == 3


def test_pf_csv_columns(tmp_path):
    out = tmp_path / "pf.csv"
    assert main(["pf", CASE9, "--out", str(out)]) == 0
    header, rows = read_table(out)
    assert header == ["bus_id", "vm", "va_deg", "p_inj", "q_inj"]
    assert len(rows) == 9
    for row in rows:
        for cell in row[1:]:
            float(cell)  # every cell parses and is finite by writer contract


def test_gfv_csv_and_comment(tmp_path):
    out = tmp_path / "gfv.csv"
    assert main(["gfv", CASE9, "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# lambda2=") and "lambda2_bar=" in first
    header, rows = read_table(out)
    assert header == ["bus_id", "nodal_inertia_s", "fiedler_norm", "gfv"]
    assert len(rows) == 9
    gfv_col = [float(r[3]) for r in rows]
    assert max(gfv_col) == 1.0
    assert first.endswith(" fiedler_degenerate=False gfv_degenerate=False")


# A slack hub with the one machine and three identical load leaves: the
# leaves' modes coincide, so the second and third eigenvalues are equal in
# both problems and the printed vectors are one arbitrary member of a plane.
STAR = {
    "base_mva": 100.0,
    "buses": [{"id": 1, "kind": "slack", "v_set": 1.0}]
    + [{"id": i, "kind": "pq", "p_load": 0.1, "q_load": 0.02} for i in (2, 3, 4)],
    "branches": [{"from_bus": 1, "to_bus": i, "x": 0.1} for i in (2, 3, 4)],
    "generators": [{"bus": 1, "h": 5.0, "xd_p": 0.2}],
}


def test_gfv_and_mc_report_a_degenerate_second_mode(tmp_path, monkeypatch):
    case = tmp_path / "star.json"
    case.write_text(json.dumps(STAR))
    out = tmp_path / "gfv.csv"
    assert main(["gfv", str(case), "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# lambda2=")
    assert first.endswith(" fiedler_degenerate=True gfv_degenerate=True")
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    assert main(["mc", str(case), "--buses", "2", "--n", "2", "--t", "0.2",
                 "--out-dir", str(tmp_path / "mc")]) == 0
    first = (tmp_path / "mc" / "summary.csv").read_text().splitlines()[0]
    assert " gfv_degenerate=True seed=0 " in first


def test_laplacian_dense_dump(tmp_path):
    out = tmp_path / "lap.csv"
    assert main(["laplacian", CASE9, "--out", str(out)]) == 0
    header, rows = read_table(out)
    assert len(header) == 10 and len(rows) == 9
    assert [r[0] for r in rows] == header[1:]


def test_dmatrix_layout(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dmatrix", CASE9, "--out", str(out)]) == 0
    header, rows = read_table(out)
    assert header == ["bus_id", "gen_0", "gen_1", "gen_2"]
    assert len(rows) == 9


def test_inertia_output(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["inertia", CASE9, "--out", str(out)]) == 0
    header, rows = read_table(out)
    assert header == ["bus_id", "nodal_inertia_s"]
    assert all(float(r[1]) > 0 for r in rows)


def test_simulate_output_shape(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", STUDY, "--bus", "5", "--seed", "3", "--t", "1.0",
         "--dt", "0.01", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_table(out)
    assert header[:3] == ["t", "dp", "coi_freq"]
    assert len(header) == 3 + 3 + 7  # three machines, seven buses
    assert len(rows) == 101


def test_simulate_unknown_bus_is_one_line(capsys):
    assert main(["simulate", STUDY, "--bus", "99", "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown injection node 99\n"


def test_simulate_refuses_an_unknown_bus_before_the_power_flow(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the case was analyzed before --bus was resolved")

    monkeypatch.setattr(cli, "analyze_case", fail)
    assert main(["simulate", STUDY, "--bus", "99", "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown injection node 99\n"


def test_simulate_overflow_of_a_stable_model_is_not_called_unstable(tmp_path, capsys):
    # dt = 0.01 is well inside case9's stability region; a 1e306 pu turbine
    # drives the states past the float range, which the same run at
    # --t 5 (states near 1e299) does not reach.
    argv = ["simulate", CASE9, "--bus", "5", "--rated-power", "1e306", "--ou-b", "1",
            "--out", str(tmp_path / "traj.csv")]
    assert main(argv + ["--t", "5"]) == 0
    assert main(argv + ["--t", "50"]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: non-finite state; the input drives the states "
                   "past the float range (the linear model is stable at this step size)\n")


def _run_mc(tmp_path, name, threads):
    out_dir = tmp_path / name
    env_before = os.environ.get("GRID_GFV_THREADS")
    os.environ["GRID_GFV_THREADS"] = str(threads)
    try:
        code = main(
            ["mc", STUDY, "--buses", "5,3", "--n", "4", "--t", "1.0",
             "--dt", "0.01", "--seed", "7", "--out-dir", str(out_dir)]
        )
    finally:
        if env_before is None:
            del os.environ["GRID_GFV_THREADS"]
        else:
            os.environ["GRID_GFV_THREADS"] = env_before
    assert code == 0
    return out_dir


def _snapshot(root: Path):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_mc_outputs_and_determinism(tmp_path):
    first = _run_mc(tmp_path, "a", threads=1)
    second = _run_mc(tmp_path, "b", threads=2)
    snap_a, snap_b = _snapshot(first), _snapshot(second)
    assert set(snap_a) == set(snap_b)
    assert snap_a == snap_b  # byte-identical regardless of worker count
    # Three tables, whose rows name their bus; buses are emitted in case
    # order (3 before 5), each bus's COI histogram before its POI one.
    assert set(snap_a) == {"summary.csv", "ifd.csv", "hist.csv"}
    header, rows = read_table(first / "summary.csv")
    assert [r[0] for r in rows] == ["3", "5"]
    header, hist_rows = read_table(first / "hist.csv")
    assert header == ["bus_id", "series", "bin_low", "bin_high", "count"]
    assert [key for key, _ in groupby((r[0], r[1]) for r in hist_rows)] == [
        ("3", "coi"), ("3", "poi"), ("5", "coi"), ("5", "poi")]
    header, ifd_rows = read_table(first / "ifd.csv")
    assert header == ["bus_id", "realization", "ifd"]
    assert [(r[0], r[1]) for r in ifd_rows] == [
        (bus, str(r)) for bus in ("3", "5") for r in range(4)]


def test_other_placement_buses_never_perturb_a_bus(tmp_path, monkeypatch):
    # Common random numbers: bus 3's outputs are the same bytes whether it
    # runs alone or among other placement buses.
    monkeypatch.setenv("GRID_GFV_THREADS", "2")
    outputs = {}
    for buses in ("3", "5,3,7"):
        out_dir = tmp_path / buses.replace(",", "_")
        assert main(["mc", STUDY, "--buses", buses, "--n", "6", "--t", "5",
                     "--seed", "3", "--out-dir", str(out_dir)]) == 0
        outputs[buses] = [[row for row in (out_dir / name).read_text().splitlines()
                           if row.startswith("3,")]
                          for name in ("summary.csv", "hist.csv", "ifd.csv")]
    assert len(outputs["3"][0]) == 1
    assert {row.split(",")[1] for row in outputs["3"][1]} == {"coi", "poi"}
    assert len(outputs["3"][2]) == 6
    assert outputs["3"] == outputs["5,3,7"]


def test_a_rerun_into_the_same_out_dir_leaves_only_its_own_files(tmp_path, monkeypatch):
    monkeypatch.setenv("GRID_GFV_THREADS", "2")
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for buses, out_dir in (("3,4", reused), ("5", reused), ("5", fresh)):
        assert main(["mc", STUDY, "--buses", buses, "--n", "3", "--t", "0.5",
                     "--out-dir", str(out_dir)]) == 0
    assert _snapshot(reused) == _snapshot(fresh)


def test_a_failed_mc_leaves_an_earlier_runs_tables_as_they_were(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    out_dir = tmp_path / "mc"
    run = ["mc", STUDY, "--n", "2", "--t", "0.2", "--out-dir", str(out_dir)]
    assert main(run + ["--buses", "3"]) == 0
    before = _snapshot(out_dir)
    # Near the float range, bus 5's ifd and hist rows are finite but its
    # COI/POI standard deviations overflow, so only summary.csv fails.
    assert main(run + ["--buses", "5", "--rated-power", "1e300"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: non-finite value inf in CSV output\n")
    assert _snapshot(out_dir) == before


def test_a_directory_at_a_table_path_fails_mc_before_the_study(tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    out_dir = tmp_path / "mc"
    run = ["mc", STUDY, "--n", "2", "--t", "0.2", "--out-dir", str(out_dir)]
    assert main(run + ["--buses", "3"]) == 0
    (out_dir / "hist.csv").unlink()
    (out_dir / "hist.csv").mkdir()
    before, names = _snapshot(out_dir), sorted(os.listdir(out_dir))

    def fail(*args, **kwargs):
        raise AssertionError("the case was analyzed before the table paths were checked")

    monkeypatch.setattr(cli, "analyze_case", fail)
    assert main(run + ["--buses", "5"]) == 1
    assert capsys.readouterr().err == (
        f"{out_dir / 'hist.csv'}: {os.strerror(errno.EISDIR)}\n")
    assert _snapshot(out_dir) == before
    assert sorted(os.listdir(out_dir)) == names


def test_an_mc_whose_second_table_write_fails_replaces_no_table(tmp_path, capsys,
                                                               monkeypatch):
    # The first table is written whole and the second in part before the
    # disk fills up; neither reaches its name, and no temporary is left.
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    out_dir = tmp_path / "mc"
    run = ["mc", STUDY, "--n", "2", "--t", "0.2", "--out-dir", str(out_dir)]
    assert main(run + ["--buses", "3"]) == 0
    before, names = _snapshot(out_dir), sorted(os.listdir(out_dir))
    write, calls = cli.write_table, []

    def disk_full_at_the_second(path, text):
        calls.append(path)
        if len(calls) == 2:
            write(path, text[:10])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write(path, text)

    monkeypatch.setattr(cli, "write_table", disk_full_at_the_second)
    assert main(run + ["--buses", "5"]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert len(calls) == 2
    assert _snapshot(out_dir) == before
    assert sorted(os.listdir(out_dir)) == names


def test_a_worker_that_dies_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch):
    # As under the OOM killer: the worker process ends without a word.
    realize = montecarlo._one_span

    def dies_at_three(cfg, model, placements, slots, wind, k, span):
        if 3 in span:
            os._exit(9)
        return realize(cfg, model, placements, slots, wind, k, span)

    monkeypatch.setattr(montecarlo, "_one_span", dies_at_three)
    monkeypatch.setenv("GRID_GFV_THREADS", "2")
    assert main(["mc", STUDY, "--buses", "3", "--n", "4", "--t", "0.5",
                 "--out-dir", str(tmp_path / "mc")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: a Monte Carlo worker process ended abruptly")
    assert_no_child_left()


def test_a_worker_out_of_memory_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch):
    # The worker's MemoryError is pickled to this process and raised here.
    realize = montecarlo._one_span

    def fails_at_bus_1(cfg, model, placements, slots, wind, k, span):
        if k == 1 and 3 in span:
            raise MemoryError("Unable to allocate 8 GiB for a work buffer (injected)")
        return realize(cfg, model, placements, slots, wind, k, span)

    monkeypatch.setattr(montecarlo, "_one_span", fails_at_bus_1)
    monkeypatch.setenv("GRID_GFV_THREADS", "2")
    out_dir = tmp_path / "mc"
    assert main(["mc", STUDY, "--buses", "3,5,7", "--n", "4", "--t", "0.5",
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "out of memory: Unable to allocate 8 GiB for a work buffer (injected)\n")
    assert not list(out_dir.iterdir())
    assert_no_child_left()


# mc through cli.main, as the installed script runs it, with each Monte Carlo
# worker asleep in its first span for longer than any test waits.
_SLEEPING_MC = """
import sys, time
from gridgfv import cli, montecarlo
one_span = montecarlo._one_span
def sleeping(*args):
    time.sleep(60)
    return one_span(*args)
montecarlo._one_span = sleeping
sys.exit(cli.main(sys.argv[1:]))
"""


def _wait_until(done, what, seconds=15.0):
    deadline = time.monotonic() + seconds
    while not done():
        assert time.monotonic() < deadline, f"no {what} within {seconds} s"
        time.sleep(0.02)


def _group_is_gone(pgid) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="reads a process's children from /proc")
@pytest.mark.parametrize("signum, to_group, status", [
    (signal.SIGINT, True, 130),  # Ctrl-C in a terminal: the whole foreground group
    (signal.SIGTERM, False, 143),  # kill, or a scheduler: the parent alone
], ids=["sigint-to-group", "sigterm-to-parent"])
def test_an_interrupted_mc_ends_with_one_line_and_leaves_no_process(
        tmp_path, signum, to_group, status):
    out_dir = tmp_path / "mc"
    out_dir.mkdir()
    (out_dir / "summary.csv").write_text("an earlier study\n")
    before = _snapshot(out_dir)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_MC, "mc", STUDY, "--buses", "3,5", "--n", "4",
         "--t", "1", "--out-dir", str(out_dir)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
             "GRID_GFV_THREADS": "2"},
        start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        _wait_until(lambda: len(children.read_text().split()) == 2, "two workers")
        if to_group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        _, err = proc.communicate(timeout=15)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == status, err
    assert err == "interrupted\n"
    assert _snapshot(out_dir) == before
    assert os.listdir(out_dir) == ["summary.csv"]  # no .mc-* directory left
    _wait_until(lambda: _group_is_gone(proc.pid), "empty process group", seconds=5)


def test_report_ranking(tmp_path):
    out_dir = _run_mc(tmp_path, "rep", threads=1)
    report = tmp_path / "report.csv"
    assert main(["report", str(out_dir), "--out", str(report)]) == 0
    header, rows = read_table(report)
    assert header == ["bus_id", "gfv", "median_ifd", "ifd_iqr", "coi_std", "poi_std"]
    assert [r[0] for r in rows] == ["3", "5"]  # same order as the gfv table


def test_report_without_summary_names_the_missing_file_once(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"file not found: {tmp_path / 'summary.csv'}\n"


@pytest.mark.parametrize("argv, culprit, code", [
    (["validate", "{dir}"], "{dir}", errno.EISDIR),
    (["gfv", CASE9, "--config", "{dir}"], "{dir}", errno.EISDIR),
    (["gfv", CASE9, "--out", "{dir}"], "{dir}", errno.EISDIR),
    (["mc", STUDY, "--buses", "3", "--n", "1", "--t", "0.1", "--out-dir", CASE9],
     CASE9, errno.EEXIST),
], ids=["validate-directory", "config-directory", "out-directory", "out-dir-file"])
def test_os_error_is_a_one_line_usage_error(tmp_path, capsys, argv, culprit, code):
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main(argv) == 1
    culprit = culprit.format(dir=tmp_path)
    assert capsys.readouterr().err == f"{culprit}: {os.strerror(code)}\n"


def test_csv_writer_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        format_cell(math.nan)
    with pytest.raises(ValueError, match="non-finite"):
        render_table(["a"], [[math.inf]])


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_a_non_finite_cell_writes_no_table(tmp_path, capsys, monkeypatch, out):
    analyze = cli.analyze_case

    def nan_in_row_4(*args, **kwargs):
        analysis = analyze(*args, **kwargs)
        analysis.inertia[3] = math.nan
        return analysis

    monkeypatch.setattr(cli, "analyze_case", nan_in_row_4)
    path = tmp_path / "h.csv"
    assert main(["inertia", CASE9] + ["--out", str(path)] * out) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err == "numerical failure: non-finite value nan in CSV output\n"


def test_csv_floats_round_trip_exactly(tmp_path):
    value = 0.1234567890123456789
    path = tmp_path / "x.csv"
    write_table(path, render_table(["a"], [[value]]))
    _, rows = read_table(path)
    assert float(rows[0][0]) == value


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mc": {"dt": 0.02}, "seed": 9}))
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", STUDY, "--bus", "3", "--t", "1.0", "--config", str(cfg),
         "--out", str(out)]
    )
    assert code == 0
    _, rows = read_table(out)
    assert len(rows) == 51  # dt from the config file


@pytest.mark.parametrize("text", [
    '{"mc": {"n_realisations": 10}}',  # unknown key in a section
    '{"toll": 1e-6}',  # unknown key at the top level
    '{"ou": 3}',  # section that is not an object
    '[{"tol": 1e-6}]',  # top level that is not an object
    '{"seed": 1,',  # malformed JSON
    '{"tol": "1e-6"}',  # string for a number
    '{"mc": {"bins": 2.5}}',  # float for an integer
    '{"max_iter": true}',  # boolean for an integer
    '{"ou": {"alpha": -1}}',  # value out of its range
    '{"tol": 1' + '0' * 400 + '}',  # integer too large for a float
    pytest.param('[' * 100_000, id="nested-too-deeply"),  # for the JSON parser
])
def test_bad_config_file_is_a_one_line_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert main(["pf", CASE9, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_mc_damping_reaches_the_swing_model(tmp_path, monkeypatch):
    # case7_study gives no machine damping, so every machine takes --damping
    # or the config file's damping.
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"damping": 5.0}))
    summaries = {}
    for name, extra in [("default", []), ("flag", ["--damping", "5"]),
                        ("config", ["--config", str(cfg)])]:
        out_dir = tmp_path / name
        assert main(["mc", STUDY, "--buses", "3", "--n", "2", "--t", "1.0",
                     "--dt", "0.01", "--out-dir", str(out_dir)] + extra) == 0
        summaries[name] = (out_dir / "summary.csv").read_bytes()
    assert summaries["flag"] == summaries["config"] != summaries["default"]


@pytest.mark.parametrize("argv", [
    ["simulate", STUDY, "--bus", "3", "--t", "1", "--dt", "0"],
    ["mc", STUDY, "--buses", "3", "--t", "1", "--dt", "0"],
    ["simulate", STUDY, "--bus", "3", "--t", "1", "--dt", "nan"],
    ["mc", STUDY, "--buses", "3", "--t", "1", "--n", "0"],
    ["mc", STUDY, "--buses", "3", "--t", "1", "--n", "1", "--bins", "0"],
    ["simulate", STUDY, "--bus", "3", "--t", "1", "--v-rated", "0"],
    ["mc", STUDY, "--buses", "3", "--t", "-1"],
    ["mc", STUDY, "--buses", "3", "--t", "0.001"],  # less than one step
    ["simulate", STUDY, "--bus", "3", "--t", "inf"],
    ["simulate", STUDY, "--bus", "3", "--t", "1", "--seed", "-1"],
    ["pf", CASE9, "--max-iter", "-1"],
    ["pf", CASE9, "--tol", "nan"],
    # More steps than fit in memory: numpy refuses the array at once.
    ["simulate", STUDY, "--bus", "3", "--t", "1e13", "--dt", "0.01"],
    ["mc", STUDY, "--buses", "3", "--n", "2", "--t", "1e13", "--dt", "0.01"],
    # More steps than numpy's largest array dimension.
    ["simulate", STUDY, "--bus", "3", "--t", "1e17", "--dt", "0.01"],
    ["mc", STUDY, "--buses", "3", "--n", "2", "--t", "1e17", "--dt", "0.01"],
    # More histogram edges than fit in memory, past numpy's largest array and
    # past int64.
    ["mc", STUDY, "--buses", "3", "--n", "1", "--t", "0.02", "--bins", str(2**60 - 1)],
    ["mc", STUDY, "--buses", "3", "--n", "1", "--t", "0.02", "--bins", str(2**63 - 1)],
    ["mc", STUDY, "--buses", "3", "--n", "1", "--t", "0.02", "--bins", str(10**20)],
], ids=["simulate-dt-0", "mc-dt-0", "simulate-dt-nan", "mc-n-0", "mc-bins-0",
        "simulate-v-rated-0", "mc-t-negative", "mc-t-below-one-step",
        "simulate-t-inf", "simulate-seed-negative", "pf-max-iter-negative",
        "pf-tol-nan", "simulate-t-beyond-memory", "mc-t-beyond-memory",
        "simulate-t-beyond-dimension", "mc-t-beyond-dimension",
        "mc-bins-beyond-memory", "mc-bins-int64-max", "mc-bins-beyond-int64"])
def test_out_of_range_run_parameter_is_a_one_line_usage_error(tmp_path, capsys, argv):
    if argv[0] == "mc":
        argv = argv + ["--out-dir", str(tmp_path / "mc")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    beyond_memory = {"1e13", "1e17", str(2**60 - 1), str(2**63 - 1), str(10**20)}
    if beyond_memory & set(argv):  # more steps or bins than fit in memory
        assert err.startswith("out of memory: ")


def test_each_run_parameter_has_exactly_one_flag():
    # A field of RunConfig (or of its ou or turbine) is a run parameter; it
    # cannot be declared without a flag, nor a flag without its field.
    run = montecarlo.RunConfig()
    parts = {"ou": run.ou, "turbine": run.turbine}
    declared = Counter((type(parts.get(section, run)), key)
                       for section, key in cli._RUN_PARAMETERS.values())
    assert set(declared) == {(type(owner), f.name) for owner in (run, *parts.values())
                             for f in fields(owner) if f.name not in parts}
    assert set(declared.values()) == {1}


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("command", ["validate", "gfv"])
@pytest.mark.parametrize("path, value, message", [
    (("buses", 1), 5, "buses[1]: entry must be an object"),
    (("buses",), 5, "section 'buses' must be an array"),
    (("branches", 0, "from_bus"), [1], "field 'from_bus' must be an integer"),
    (("generators", 0, "bus"), [1], "field 'bus' must be an integer"),
    (("buses", 4, "p_load"), 10**400, "field 'p_load' must be finite"),
    (("base_mva",), True, "base_mva must be a positive number"),
    (("branches", 0, "from_bus"), True, "field 'from_bus' must be an integer"),
    (("generators", 0, "bus"), 1.0, "field 'bus' must be an integer"),
    (("branches", 0, "status"), 5, "field 'status' must be true, false, 0 or 1"),
    (("branches", 0), "1-4", "branches[0]: entry must be an object"),
    (("generators",), {"g": {"bus": 1, "h": 5.0, "xd_p": 0.1}},
     "section 'generators' must be an array"),
    (("branches", 0, "to_bus"), 1, "branches[0]: from_bus and to_bus are both 1"),
    (("generators", 0, "mva_base"), 0,
     "generators[0]: mva_base must be positive, got 0.0"),
], ids=["bus-entry-number", "buses-number", "from_bus-list", "generator-bus-list",
        "p_load-huge", "base_mva-bool", "from_bus-bool", "generator-bus-float",
        "status-5", "branch-entry-string", "generators-object", "self-loop",
        "mva_base-0"])
def test_malformed_case_is_a_one_line_data_error(tmp_path, capsys, command, path,
                                                 value, message):
    doc = json.loads(Path(CASE9).read_text())
    _set(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and message in err


@pytest.mark.parametrize("command", ["validate", "gfv"])
@pytest.mark.parametrize("content, message", [
    (b"[" * 100_000, "error: invalid JSON: nested too deeply\n"),
    (b'{"base_mva": "\xff"}', "error: case file is not UTF-8 text: 'utf-8' codec can't "
     "decode byte 0xff in position 14: invalid start byte\n"),
], ids=["nested-too-deeply", "not-utf8"])
def test_an_unreadable_case_file_is_a_one_line_data_error(tmp_path, capsys, command,
                                                          content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("path, value, violation", [
    (("buses", 1, "v_set"), 0, "bus 2: invalid-v-set (0.0)"),
    (("branches", 0, "x"), 0, "branch 1-4[0]: zero-reactance (0.0)"),
    (("generators",), [], "case: no-generators"),
    (("generators", 0, "h"), 0, "generator[0] at bus 1: non-positive-inertia (0.0)"),
    (("generators", 0, "d"), -1, "generator[0] at bus 1: negative-damping (-1.0)"),
    (("generators", 0, "xd_p"), -0.1,
     "generator[0] at bus 1: non-positive-transient-reactance (-0.1)"),
], ids=["invalid-v-set", "zero-reactance", "no-generators", "non-positive-inertia",
        "negative-damping", "non-positive-transient-reactance"])
def test_each_case_rule_is_a_data_error(tmp_path, capsys, path, value, violation):
    doc = json.loads(Path(CASE9).read_text())
    _set(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().out == violation + "\n"
    assert main(["gfv", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: case {bad} fails validation: {violation}\n"


def _one_bus_case(tmp_path) -> Path:
    """case9 cut to bus 1 and its machine."""
    doc = json.loads(Path(CASE9).read_text())
    doc.update(buses=doc["buses"][:1], branches=[], generators=doc["generators"][:1])
    one = tmp_path / "one.json"
    one.write_text(json.dumps(doc))
    return one


def test_a_one_bus_case_is_a_one_line_data_error(tmp_path, capsys):
    one = _one_bus_case(tmp_path)
    assert main(["gfv", str(one)]) == 2
    assert capsys.readouterr().err == (
        f"error: case {one} fails validation: case: too-few-buses (1)\n")


def test_a_one_bus_case_fails_validate(tmp_path, capsys):
    # validate_case's empty list means the case is usable for analysis, and
    # the analysis needs two buses.
    one = _one_bus_case(tmp_path)
    assert main(["validate", str(one)]) == 2
    assert capsys.readouterr().out == "case: too-few-buses (1)\n"
    assert main(["pf", str(one)]) == 2
    assert capsys.readouterr().err == (
        f"error: case {one} fails validation: case: too-few-buses (1)\n")


@pytest.mark.parametrize("argv, code", [
    (["pf"], 0),
    (["laplacian"], 0),
    (["dmatrix"], 0),
    (["inertia"], 3),
    (["gfv"], 3),
    (["mc", "--buses", "3", "--n", "1", "--t", "0.05", "--out-dir", "{tmp}"], 3),
], ids=["pf", "laplacian", "dmatrix", "inertia", "gfv", "mc"])
def test_non_positive_nodal_inertia_of_a_valid_case_is_a_numerical_failure(
        tmp_path, capsys, monkeypatch, argv, code):
    # A valid case on which the nodal inertia fails: exit 3, not a data error,
    # for a command that reads it, and no failure for one that does not.  mc
    # reads the GFV before its study, so the study never starts.
    def fail(*args, **kwargs):
        raise AssertionError("the study ran before the GFV was read")

    monkeypatch.setattr(montecarlo, "run_monte_carlo", fail)
    doc = json.loads(fixture_path("case4_ring").read_text())
    doc["buses"][1]["v_set"] = 1e9
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(doc))
    assert main(["validate", str(ring)]) == 0
    capsys.readouterr()
    assert main([argv[0], str(ring)] + [a.format(tmp=tmp_path / "mc") for a in argv[1:]]) \
        == code
    assert capsys.readouterr().err == ("" if code == 0 else
        "numerical failure: non-positive nodal inertia at buses [1, 3, 4]\n")


@pytest.mark.parametrize("buses, message", [
    (",", "--buses must name at least one bus"),
    ("3,x", "--buses must be a comma-separated id list, got '3,x'"),
], ids=["empty", "not-ids"])
def test_mc_reports_bad_buses_before_reading_the_case(tmp_path, capsys, buses, message):
    doc = json.loads(Path(CASE9).read_text())
    doc["branches"][0]["x"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["mc", str(bad), "--buses", buses, "--out-dir", str(tmp_path / "mc")]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command", ["pf", "laplacian", "gfv"])
def test_an_out_of_service_branch_changes_no_output(tmp_path, capsys, command):
    # A parallel copy of branch 1-4 would halve its impedance if it were in
    # service.
    doc = json.loads(Path(CASE9).read_text())
    doc["branches"].append({**doc["branches"][0], "status": 0})
    with_spare = tmp_path / "spare.json"
    with_spare.write_text(json.dumps(doc))
    assert main([command, CASE9]) == 0
    expected = capsys.readouterr().out
    assert main([command, str(with_spare)]) == 0
    assert capsys.readouterr().out == expected


def _paths(doc, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


_DOCS = {name: fixture_path(name).read_text() for name in FIXTURE_NAMES}
_SLOTS = [(name, path) for name, text in _DOCS.items()
          for path in _paths(json.loads(text))]
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# The slot of every branch and generator of each case, for deletion.
_ENTRIES = [(name, (section, k)) for name, text in _DOCS.items()
            for section in ("branches", "generators")
            for k in range(len(json.loads(text)[section]))]
_DELETED = object()  # in place of a value: the entry at the slot is deleted


def _run(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(mutation=st.tuples(st.sampled_from(_SLOTS), _ANY_JSON)
       | st.tuples(st.sampled_from(_ENTRIES), st.just(_DELETED)))
@settings(max_examples=300, deadline=None)
def test_validate_survives_any_json_value_in_a_case(tmp_path_factory, mutation):
    # validate's verdict is gfv's: a case it passes is analyzed or fails
    # numerically (exit 3), and one it rejects is a data error for gfv too.
    (name, path), value = mutation
    doc = json.loads(_DOCS[name])
    if value is _DELETED:
        del doc[path[0]][path[1]]
    elif path:
        _set(doc, path, value)
    else:
        doc = value
    case = tmp_path_factory.getbasetemp() / "mutated.json"
    case.write_text(json.dumps(doc))
    code, out, err = _run(["validate", str(case)])
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2 and not out:  # a case file that does not parse
        assert len(err.strip().splitlines()) == 1
    gfv_code, _, gfv_err = _run(["gfv", str(case)])
    assert gfv_code in ((0, 3) if code == 0 else (2,)), gfv_err
    assert len(gfv_err.splitlines()) == (gfv_code != 0)


def test_config_file_horizon_reaches_simulate(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mc": {"horizon": 0.5, "dt": 0.01}}))
    out = tmp_path / "traj.csv"
    assert main(["simulate", STUDY, "--bus", "3", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert len(read_table(out)[1]) == 51


@pytest.mark.parametrize("config, flags, message", [
    ({"mc": {"dt": 0}}, ["--dt", "0.0001", "--t", "0.01"],
     "horizon must cover at least one step of dt and finitely many, "
     "got horizon 200.0 and dt 0.0"),
    ({"mc": {"horizon": 0.001}}, ["--dt", "0.0001", "--t", "0.01"],
     "horizon must cover at least one step of dt and finitely many, "
     "got horizon 0.001 and dt 0.01"),
    ({"ou": {"alpha": 0}}, ["--ou-alpha", "0.1", "--dt", "0.0001", "--t", "0.01"],
     "alpha must be positive, got 0.0"),
    ({"damping": -1}, ["--damping", "1.0", "--dt", "0.0001", "--t", "0.01"],
     "damping must be non-negative, got -1.0"),
], ids=["dt-0", "horizon-below-one-step", "alpha-0", "damping-negative"])
def test_flags_override_an_out_of_range_config_value(tmp_path, capsys, config, flags,
                                                      message):
    # The range rules judge the merged run parameters, not the file's alone.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    argv = ["simulate", CASE9, "--bus", "5"]
    by_flags, by_both = tmp_path / "flags.csv", tmp_path / "both.csv"
    assert main(argv + flags + ["--out", str(by_flags)]) == 0
    assert main(argv + flags + ["--config", str(cfg), "--out", str(by_both)]) == 0
    assert by_both.read_bytes() == by_flags.read_bytes()
    # A file value that no flag overrides is still out of range.
    assert main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("argv, config, message", [
    (["simulate", STUDY, "--bus", "3", "--t", "1", "--ou-mu", "nan"], None,
     "--ou-mu must be finite, got nan\n"),
    (["mc", STUDY, "--buses", "3", "--t", "1", "--damping=-inf"], None,
     "--damping must be finite, got -inf\n"),
    (["simulate", STUDY, "--bus", "3", "--t", "1"], '{"turbine": {"v_ref": Infinity}}',
     "config {cfg}: turbine.v_ref must be finite, got inf\n"),
    (["pf", CASE9], '{"ou": {"b": NaN}}', "config {cfg}: ou.b must be finite, got nan\n"),
], ids=["flag-nan", "flag-inf", "config-inf", "config-nan"])
def test_non_finite_run_parameter_is_a_one_line_usage_error(tmp_path, capsys, argv,
                                                            config, message):
    cfg = tmp_path / "run.json"
    if config is not None:
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    if argv[0] == "mc":
        argv = argv + ["--out-dir", str(tmp_path / "mc")]
    assert main(argv) == 1
    assert capsys.readouterr().err == message.format(cfg=cfg)


@pytest.mark.parametrize("flags, message", [
    # A step of 1 s is far beyond the stability limit: every realization fails.
    (["--n", "3", "--t", "400", "--dt", "1", "--seed", "1"],
     "placement bus 3 has no successful realizations (realization 0: non-finite "
     "state at t = "),
    # The summary's standard deviations overflow.
    (["--n", "2", "--t", "0.05", "--rated-power=1e200"],
     "non-finite value inf in CSV output"),
], ids=["no-successful-realization", "non-finite-summary"])
def test_mc_failure_is_a_one_line_numerical_failure(tmp_path, capsys, monkeypatch,
                                                   flags, message):
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    assert main(["mc", STUDY, "--buses", "3", "--out-dir", str(tmp_path / "mc")]
                + flags) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"numerical failure: {message}")


def test_partial_mc_run_names_each_failure_then_warns(tmp_path, capsys, monkeypatch):
    # A run serially simulates every realization at bus 3, then at bus 5;
    # simulate sees their rows.
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    simulate, calls = montecarlo.simulate, []
    row = bus_positions(load_validated_case(STUDY))
    failing = {(1, row[3]), (2, row[5]), (3, row[5])}  # (realization, row)

    def flaky(model, port, dp, dt, out=None):
        calls.append(port)
        if ((len(calls) - 1) % 4, port) in failing:
            raise SimulationUnstableError("non-finite state (injected)")
        return simulate(model, port, dp, dt, out=out)

    monkeypatch.setattr(montecarlo, "simulate", flaky)
    out_dir = tmp_path / "mc"
    assert main(["mc", STUDY, "--buses", "5,3", "--n", "4", "--t", "0.5",
                 "--out-dir", str(out_dir)]) == 0
    assert calls == [row[3]] * 4 + [row[5]] * 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "bus 3: realization 1: non-finite state (injected)\n"
        "bus 5: realization 2: non-finite state (injected)\n"
        "bus 5: realization 3: non-finite state (injected)\n"
        "warning: summary is partial (some realizations failed)\n")
    summary = out_dir / "summary.csv"
    assert summary.read_text().splitlines()[0].endswith(" n_realizations=4 partial=True")
    header, rows = read_table(summary)
    n_ok = header.index("n_ok")
    assert [(row[0], row[n_ok]) for row in rows] == [("3", "3"), ("5", "2")]
    header, rows = read_table(out_dir / "ifd.csv")
    assert header == ["bus_id", "realization", "ifd"]
    assert [(row[0], row[1]) for row in rows] == [
        ("3", "0"), ("3", "2"), ("3", "3"), ("5", "0"), ("5", "1")]


def test_unusable_out_dir_is_reported_before_the_study(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the study ran before --out-dir was made")

    monkeypatch.setattr(montecarlo, "run_monte_carlo", fail)
    assert main(["mc", STUDY, "--buses", "3", "--n", "1", "--t", "0.1",
                 "--out-dir", CASE9]) == 1
    assert capsys.readouterr().err == f"{CASE9}: {os.strerror(errno.EEXIST)}\n"


@pytest.mark.parametrize("value", ["abc", " "])
def test_bad_worker_count_is_a_one_line_usage_error_before_the_analysis(
        tmp_path, capsys, monkeypatch, value):
    def fail(*args, **kwargs):
        raise AssertionError("the case was analyzed before GRID_GFV_THREADS was read")

    monkeypatch.setattr(cli, "analyze_case", fail)
    monkeypatch.setenv("GRID_GFV_THREADS", value)
    # mc's workers, and the nodal inertia's processes of mc's gfv column, gfv
    # and inertia.
    for argv in (["mc", STUDY, "--buses", "3", "--n", "2", "--t", "0.05",
                  "--out-dir", str(tmp_path / "mc")],
                 ["gfv", STUDY, "--out", str(tmp_path / "gfv.csv")],
                 ["inertia", STUDY, "--out", str(tmp_path / "inertia.csv")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"GRID_GFV_THREADS must be an integer, got {value!r}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gfv", "inertia"])
def test_inertia_commands_write_the_same_bytes_at_any_process_count(
        tmp_path, monkeypatch, command):
    # SYNTH120's 120 buses make 3 spans of spectral.FORK_MIN_SPAN or more: at
    # 2 and 3 the nodal inertia's reductions run in forked children too.
    case = tmp_path / "synth120.json"
    case.write_bytes(synth_case_bytes(120))
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    outputs = []
    for threads in (1, 2, 3):
        monkeypatch.setenv("GRID_GFV_THREADS", str(threads))
        forks.clear()
        assert main([command, str(case), "--out", str(tmp_path / "out.csv")]) == 0
        assert len(forks) == threads - 1
        outputs.append((tmp_path / "out.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_mc_gfv_column_is_the_same_at_any_process_count(tmp_path, monkeypatch):
    case = tmp_path / "synth120.json"
    case.write_bytes(synth_case_bytes(120))
    tables = []
    for threads in (1, 2):
        monkeypatch.setenv("GRID_GFV_THREADS", str(threads))
        out = tmp_path / f"mc{threads}"
        assert main(["mc", str(case), "--buses", "3,90", "--n", "2", "--t", "0.05",
                     "--out-dir", str(out)]) == 0
        tables.append([(out / name).read_bytes() for name in ("summary.csv", "ifd.csv")])
    assert tables[0] == tables[1]


@pytest.mark.parametrize("content, reason", [
    (b"bus_id,gfv,median_ifd,ifd_iqr,coi_std,poi_std\n3,x,1,1,1,1\n",
     "could not convert string to float: 'x'"),
    (b"bus_id,gfv,median_ifd,ifd_iqr,coi_std,poi_std\n3,1,1\n",
     "a row does not have the header's 6 cells"),
    (b"", "empty table"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
    (b"bus_id,gfv,median_ifd,ifd_iqr,coi_std,poi_std\n3,nan,1,1,1,1\n",
     "a value is not a finite number"),
    (b"bus_id,gfv,median_ifd,ifd_iqr,coi_std\n3,1,1,1,1\n", "lacks columns ['poi_std']"),
], ids=["not-a-number", "short-row", "empty", "not-utf8", "nan", "no-ranking-column"])
def test_malformed_summary_is_a_one_line_data_error(tmp_path, capsys, content, reason):
    summary = tmp_path / "summary.csv"
    summary.write_bytes(content)
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {summary}: {reason}")


# Run-parameter flags, with the values to draw for each.  The horizon, step and
# realization count stay fixed and small, and --max-iter and --bins bounded, so
# that no example asks for unbounded time or memory.
_RUN_FLAG_VALUES = {
    "--tol": st.floats(), "--max-iter": st.integers(max_value=50),
    "--seed": st.integers(), "--damping": st.floats(), "--ou-mu": st.floats(),
    "--ou-alpha": st.floats(), "--ou-b": st.floats(), "--rated-power": st.floats(),
    "--v-rated": st.floats(), "--v-ref": st.floats(),
    "--bins": st.integers(max_value=1000),
}
_PF = ["--tol", "--max-iter"]
_DYNAMICS = ["--seed", "--damping", "--ou-mu", "--ou-alpha", "--ou-b",
             "--rated-power", "--v-rated", "--v-ref"]
# Each command: its argv, its required argument (kept or dropped), the
# run-parameter flags drawn for it (some of which it does not take) and
# arguments it does not take, none of them a prefix of one it takes.
_COMMANDS = [
    (["pf", CASE9], [], _PF + ["--seed", "--bins"], ["--buses=3", "--bus=3"]),
    (["simulate", STUDY, "--t", "0.05", "--dt", "0.01"], ["--bus=3"],
     _PF + _DYNAMICS + ["--bins"], ["--buses=3,5", "--n=2"]),
    (["mc", STUDY, "--n", "2", "--t", "0.05", "--dt", "0.01"], ["--buses=3,5"],
     _PF + _DYNAMICS + ["--bins"], ["extra", "--frobnicate=1"]),
]
_RUN_VECTORS = st.one_of(*(
    st.tuples(st.just(argv), st.sampled_from([required, []]), st.fixed_dictionaries(
        {}, optional={flag: _RUN_FLAG_VALUES[flag] for flag in flags}),
        st.lists(st.sampled_from(foreign), max_size=1))
    for argv, required, flags, foreign in _COMMANDS
))


@given(vector=_RUN_VECTORS)
@settings(max_examples=200, deadline=None)
def test_any_run_parameter_vector_ends_in_a_documented_exit(tmp_path_factory, vector):
    argv, required, values, foreign = vector
    # --flag=value, so that a value such as -1 is never read as an option.
    argv = (argv + required + [f"{flag}={value}" for flag, value in values.items()]
            + foreign)
    if argv[0] == "mc":
        argv += ["--out-dir", str(tmp_path_factory.mktemp("mc"))]
    out, err = io.StringIO(), io.StringIO()
    # A warning would be one more stderr line outside the test.
    with mock.patch.dict(os.environ, {"GRID_GFV_THREADS": "1"}), \
            warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert len(err.getvalue().splitlines()) + len(caught) == 1, (err.getvalue(),
                                                                     caught)


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", STUDY, "--bus", "3", "--t", "0.05", "--dt", "0.01", "--bins=3"], 1,
     "grid-gfv: unrecognized arguments: --bins=3\n"),
    (["mc", STUDY, "--n", "1", "--t", "0.05", "--out-dir", "{tmp}"], 1,
     "grid-gfv mc: the following arguments are required: --buses\n"),
    (["mc", STUDY, "--buses", "3", "--n", "x", "--out-dir", "{tmp}"], 1,
     "grid-gfv mc: argument --n: invalid int value: 'x'\n"),
    (["frobnicate"], 1, "grid-gfv: argument command: invalid choice: 'frobnicate' "
     "(choose from 'validate', 'pf', 'laplacian', 'dmatrix', 'inertia', 'gfv', "
     "'simulate', 'mc', 'report')\n"),
    ([], 1, "grid-gfv: the following arguments are required: command\n"),
    # A prefix of a flag is not that flag.
    (["gfv", CASE9, "--to", "1e-3"], 1, "grid-gfv: unrecognized arguments: --to 1e-3\n"),
    (["mc", STUDY, "--buses", "3", "--out-dir", "{tmp}", "--out", "D"], 1,
     "grid-gfv: unrecognized arguments: --out D\n"),
    (["mc", STUDY, "--buses", "3", "--out-dir", "{tmp}", "--bus", "3"], 1,
     "grid-gfv: unrecognized arguments: --bus 3\n"),
    # A newline in an argument or a path is written escaped.
    (["pf", CASE9, "--x\ny"], 1, "grid-gfv: unrecognized arguments: --x\\ny\n"),
    (["validate", "no\nsuch.json"], 1, "file not found: no\\nsuch.json\n"),
    # A bus the case does not have is a data error.
    (["mc", STUDY, "--buses", "99", "--n", "1", "--t", "0.05", "--out-dir", "{tmp}"], 2,
     "error: placement buses not in case: [99]\n"),
    (["mc", STUDY, "--buses", "3,x", "--out-dir", "{tmp}"], 1,
     "--buses must be a comma-separated id list, got '3,x'\n"),
    (["mc", STUDY, "--buses", ",", "--out-dir", "{tmp}"], 1,
     "--buses must name at least one bus\n"),
], ids=["foreign-flag", "missing-buses", "bad-int", "unknown-command", "no-command",
        "flag-prefix", "mc-out-prefix", "mc-bus-prefix", "newline-in-argument",
        "newline-in-path", "mc-unknown-bus", "mc-buses-not-ids", "mc-buses-empty"])
def test_argument_error_is_one_line(tmp_path, capsys, argv, code, message):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv, unused", [
    (["validate", CASE9, "--json"], "--json"),
    (["gfv", CASE9, "--out", "x.csv", "--json"], "--json"),
    (["mc", STUDY, "--buses", "3", "--out-dir", "mc", "--json"], "--json"),
    (["validate", CASE9, "--config", "run.json"], "--config run.json"),
    (["report", ".", "--config", "run.json"], "--config run.json"),
], ids=["validate-json", "gfv-json", "mc-json", "validate-config", "report-config"])
def test_flag_a_command_does_not_use_is_a_one_line_usage_error(tmp_path, capsys,
                                                               monkeypatch, argv, unused):
    monkeypatch.chdir(tmp_path)  # a command that took the flag would write here
    assert main(argv) == 1
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err == f"grid-gfv: unrecognized arguments: {unused}\n"


# The flags each command takes, besides --help.
_ANALYSIS_FLAGS = {"--tol", "--max-iter", "--config", "--out"}
_SIMULATE_FLAGS = _ANALYSIS_FLAGS | {
    "--bus", "--seed", "--damping", "--ou-mu", "--ou-alpha", "--ou-b", "--rated-power",
    "--v-rated", "--v-ref", "--t", "--dt"}
_FLAGS = {
    "validate": set(), "pf": _ANALYSIS_FLAGS, "laplacian": _ANALYSIS_FLAGS,
    "dmatrix": _ANALYSIS_FLAGS, "inertia": _ANALYSIS_FLAGS, "gfv": _ANALYSIS_FLAGS,
    "simulate": _SIMULATE_FLAGS,
    "mc": _SIMULATE_FLAGS - {"--bus", "--out"} | {"--buses", "--out-dir", "--n", "--bins"},
    "report": {"--out"},
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_command_help_lists_exactly_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) == _FLAGS[command] | {"--help"}


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert all(re.search(rf"^    {command} ", text, re.M) for command in _FLAGS)


def test_only_the_named_command_is_built(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["gfv", CASE9]) == 0
    assert built == ["gfv"]
    built.clear()
    assert main(["frobnicate"]) == 1
    assert built == list(_FLAGS)


def test_simulate_max_iter_reaches_its_power_flow(capsys):
    assert main(["simulate", STUDY, "--bus", "3", "--t", "0.05", "--max-iter=0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: power flow did not converge in 0 iterations")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, builds", [
    (["pf", CASE9], 1),
    (["gfv", CASE9], 1),
    (["simulate", STUDY, "--bus", "3", "--t", "0.05"], 1),
    # The metric's operating point and the Monte Carlo driver's.
    (["mc", STUDY, "--buses", "3", "--n", "1", "--t", "0.05", "--out-dir", "{tmp}"], 2),
], ids=["pf", "gfv", "simulate", "mc"])
def test_one_ybus_build_and_one_solve_per_operating_point(tmp_path, capsys, monkeypatch,
                                                          argv, builds):
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gridgfv"]
    for name in ("build_ybus", "solve_powerflow"):
        original = getattr(powerflow, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert calls == {"build_ybus": builds, "solve_powerflow": builds}


# The functions that the stages of a CaseAnalysis call, in the order of the
# call counts below.
_STAGE_FUNCTIONS = ("internal_emfs", "frequency_participation", "build_laplacian",
                    "nodal_inertia", "eigendecompose", "solve_gep")


def _count_stages(monkeypatch) -> Counter:
    """Count the calls of each of _STAGE_FUNCTIONS made through pipeline."""
    calls = Counter()
    for name in _STAGE_FUNCTIONS:
        def counted(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


# mc counts the metric's analysis and the Monte Carlo driver's swing model.
@pytest.mark.parametrize("argv, counts", [
    (["pf", CASE9], (0, 0, 0, 0, 0, 0)),
    (["laplacian", CASE9], (0, 0, 1, 0, 0, 0)),
    (["dmatrix", CASE9], (0, 1, 0, 0, 0, 0)),
    (["inertia", CASE9], (1, 1, 0, 1, 0, 0)),
    (["gfv", CASE9], (1, 1, 1, 1, 1, 1)),
    (["mc", CASE9, "--buses", "5", "--n", "1", "--t", "0.05", "--out-dir", "{tmp}"],
     (2, 2, 1, 1, 0, 1)),
    (["simulate", CASE9, "--bus", "5", "--t", "0.05"], (1, 1, 0, 0, 0, 0)),
], ids=["pf", "laplacian", "dmatrix", "inertia", "gfv", "mc", "simulate"])
def test_each_command_runs_only_the_stages_it_reads(tmp_path, capsys, monkeypatch,
                                                    argv, counts):
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    calls = _count_stages(monkeypatch)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert calls == Counter(dict(zip(_STAGE_FUNCTIONS, counts)))


def test_each_stage_runs_once_however_often_it_is_read(monkeypatch):
    calls = _count_stages(monkeypatch)
    analysis = pipeline.analyze_case(load_validated_case(CASE9))
    assert analysis.gfv is analysis.gfv
    assert analysis.inertia is analysis.inertia and analysis.emfs is analysis.emfs
    assert calls == Counter(dict(zip(_STAGE_FUNCTIONS, (1, 1, 1, 1, 0, 1))))


def test_mc_tolerances_reach_every_power_flow(tmp_path, capsys, monkeypatch):
    # Both of mc's operating points, the metric's and the Monte Carlo
    # driver's, solve with --tol and --max-iter.
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    seen = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gridgfv"]
    original = powerflow.solve_powerflow

    def recorded(*args, **kwargs):
        seen.append((kwargs.get("tol"), kwargs.get("max_iter")))
        return original(*args, **kwargs)

    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, recorded)
    assert main(["mc", STUDY, "--buses", "3", "--n", "1", "--t", "0.05",
                 "--tol", "1e-3", "--max-iter", "7", "--out-dir", str(tmp_path)]) == 0
    assert seen == [(1e-3, 7), (1e-3, 7)]


def _spearman_comment(path) -> str:
    """The value of the spearman_gfv_median_ifd comment on report output path."""
    first = Path(path).read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# spearman_gfv_median_ifd="), first
    return first.split("=", 1)[1]


def test_study_config_runs_the_placement_study(tmp_path, monkeypatch):
    # The placement study is mc with the committed run parameters, then report.
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    out_dir, ranking = tmp_path / "study", tmp_path / "ranking.csv"
    assert main(["mc", STUDY, "--config", STUDY_RUN, "--n", "2", "--t", "0.5",
                 "--buses", "7,3,5,4", "--out-dir", str(out_dir)]) == 0
    assert main(["report", str(out_dir), "--out", str(ranking)]) == 0
    header, rows = read_table(ranking)
    assert header == ["bus_id", "gfv", "median_ifd", "ifd_iqr", "coi_std", "poi_std"]
    assert [int(row[0]) for row in rows] == [3, 4, 5, 7]
    rho = spearmanr([float(row[1]) for row in rows], [float(row[2]) for row in rows])
    assert float(_spearman_comment(ranking)) == pytest.approx(rho.statistic, abs=1e-12)


@pytest.mark.parametrize("rows", [
    [(3, 0.1, 2.0), (4, 0.1, 1.0), (5, 0.3, 1.0), (7, 0.5, 3.0)],
    [(3, 0.4, 2.0), (4, 0.1, 2.0), (5, 0.3, 5.0), (7, 0.1, 2.0), (9, 0.2, -1.0)],
    [(3, 0.1, 2.0)],
    [(3, 0.1, 2.0), (4, 0.1, 1.0), (5, 0.1, 3.0)],
    [(3, 0.1, 2.0), (4, 0.2, 2.0)],
], ids=["ties", "ties-both", "one-row", "constant-gfv", "constant-median"])
def test_report_spearman_matches_scipy(tmp_path, rows):
    # Average ranks for ties; undefined where scipy's coefficient is nan.
    lines = ["bus_id,gfv,median_ifd,ifd_iqr,coi_std,poi_std"]
    lines += [f"{bus},{g!r},{m!r},1.0,1.0,1.0" for bus, g, m in rows]
    (tmp_path / "summary.csv").write_text("\n".join(lines) + "\n")
    ranking = tmp_path / "ranking.csv"
    assert main(["report", str(tmp_path), "--out", str(ranking)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        rho = spearmanr([g for _, g, _ in rows], [m for _, _, m in rows]).statistic
    value = _spearman_comment(ranking)
    if math.isnan(rho):
        assert value == "undefined"
    else:
        assert float(value) == pytest.approx(rho, abs=1e-12)


def test_study_config_is_the_acceptance_study():
    expected = montecarlo.RunConfig(
        n_realizations=200, horizon=50.0, dt=0.01,
        ou=OuParams(mu=14.0, alpha=2.0, b=0.4427),
        turbine=TurbineParams(rated_power=1.0, v_rated=15.0, v_ref=14.0), seed=2024)
    assert asdict(cli._load_run_config(STUDY_RUN)) == asdict(expected)


def test_no_scipy_module_is_loaded_by_import_gfv_or_mc(tmp_path):
    # import scipy.linalg alone was about half of every command's start-up
    # time; the package imports numpy only, report's rank correlation too.
    script = (
        "import sys, gridgfv.cli\n"
        f"assert gridgfv.cli.main(['gfv', {CASE9!r}, '--out', {str(tmp_path / 'g.csv')!r}]) == 0\n"
        f"assert gridgfv.cli.main(['mc', {CASE9!r}, '--buses', '5,7', '--n', '2', '--t', '1',"
        f" '--out-dir', {str(tmp_path / 'mc')!r}]) == 0\n"
        f"assert gridgfv.cli.main(['report', {str(tmp_path / 'mc')!r},"
        f" '--out', {str(tmp_path / 'r.csv')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
             "GRID_GFV_THREADS": "1"},
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_cli_loads_no_process_pool_module(tmp_path):
    # run_monte_carlo forks its workers itself: neither importing the CLI
    # nor an mc at two workers loads multiprocessing or concurrent.futures.
    script = ("import sys, gridgfv.cli\n"
              f"assert gridgfv.cli.main(['mc', {STUDY!r}, '--buses', '3,5,7', '--n', '4',"
              f" '--t', '0.5', '--out-dir', {str(tmp_path / 'mc')!r}]) == 0\n"
              "print(sorted(m for m in sys.modules"
              " if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
             "GRID_GFV_THREADS": "2"},
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Records OPENBLAS_NUM_THREADS when numpy is first looked up, then imports
# the package alone.
_FIRST_NUMPY_IMPORT = """
import os, sys
seen = []

class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Recorder())
import gridgfv
print(seen)
"""


@pytest.mark.parametrize("caller, seen", [(None, "1"), ("3", "3")])
def test_blas_is_pinned_before_numpy_loads_unless_the_caller_set_it(caller, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    done = subprocess.run([sys.executable, "-c", _FIRST_NUMPY_IMPORT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"[{seen!r}]\n"
