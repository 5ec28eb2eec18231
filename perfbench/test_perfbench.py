"""Tests of the benchmark itself: generator, reference checks, span
arithmetic and the metric names promised by BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import synthgrid  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def test_generator_is_deterministic():
    assert synthgrid.case_bytes(60, 3) == synthgrid.case_bytes(60, 3)
    assert synthgrid.case_bytes(60, 3) != synthgrid.case_bytes(60, 4)
    assert synthgrid.case_bytes(60, 3) != synthgrid.case_bytes(61, 3)


@pytest.mark.parametrize("n_bus,seed", [(20, 0), (120, 0), (120, 31), (200, 7)])
def test_generated_grids_are_fit(cli, tmp_path, n_bus, seed):
    path = tmp_path / "g.json"
    path.write_bytes(synthgrid.case_bytes(n_bus, seed))
    assert run.grid_problems(path) == []
    doc = json.loads(path.read_text())
    assert len(doc["buses"]) == n_bus
    assert len(doc["generators"]) == round(0.1 * n_bus)
    assert len(doc["branches"]) == n_bus - 1 + round(0.25 * n_bus)


def test_fixture_operation_passes_and_a_perturbed_output_fails(cli, tmp_path):
    ref = run.reference_lookup("gfv_fixtures")
    calls, _ = run.gfv_fixtures(5, tmp_path, ref)
    wall, errors = run.run_op(cli, calls)
    assert wall > 0 and errors == []

    class Perturbing:
        """The real CLI, then one gfv value in case9's output moved by 1e-4."""

        @staticmethod
        def main(argv):
            rc = cli.main(argv)
            if "case9.json" in argv[1]:
                path = Path(argv[3])
                lines = path.read_text().splitlines()
                row = next(i for i, ln in enumerate(lines[2:], 2)
                           if float(ln.split(",")[-1]) < 0.9)
                cells = lines[row].split(",")
                cells[-1] = repr(float(cells[-1]) * (1 + 1e-4))
                lines[row] = ",".join(cells)
                path.write_text("\n".join(lines) + "\n")
            return rc

    _, errors = run.run_op(Perturbing, calls)
    assert errors == [errors[0]] and "case9.json" in errors[0]
    assert "differs from reference" in errors[0]


def test_failed_exit_and_exception_count_as_failures(tmp_path):
    calls, _ = run.gfv_fixtures(0, tmp_path, lambda key: None)

    class Failing:
        @staticmethod
        def main(argv):
            if "case2" in argv[1]:
                raise RuntimeError("boom")
            return 3

    _, errors = run.run_op(Failing, calls)
    assert len(errors) == len(calls)
    assert any("boom" in e for e in errors) and any("exit code 3" in e for e in errors)


def test_mc_checks():
    ref = {"median_ifd": {"3": 1.0, "4": 2.0, "5": 2.0 + 1e-9}}
    good = {"n_realizations": 8, "n_ok": {3: 8, 4: 8, 5: 8},
            "median_ifd": {3: 1.0, 4: 2.0 + 1e-9, 5: 2.0}, "ranking": [3, 5, 4]}
    assert checks.mc_errors(good, 8, ref) == []  # 4 and 5 tie within RTOL
    assert checks.mc_errors(good, 9, ref)  # n_ok != N
    moved = dict(good, median_ifd={3: 1.0, 4: 2.0, 5: 2.001})
    assert any("median_ifd" in e for e in checks.mc_errors(moved, 8, ref))
    swapped = dict(good, median_ifd={3: 2.0, 4: 1.0, 5: 2.0}, ranking=[4, 3, 5])
    assert any("ranking" in e for e in checks.mc_errors(swapped, 8, ref))


def test_gfv_invariants():
    out = {"lambda2": 1.0, "lambda2_bar": 2.0, "bus_id": [1, 2], "gfv": [0.5, 0.99]}
    assert any("max(gfv)" in e for e in checks.gfv_errors(out, None))
    out["gfv"] = [-0.1, 1.0]
    assert any("[0, 1]" in e for e in checks.gfv_errors(out, None))


def _span(name, start, end, parent=-1, layer=None):
    return tracing.Span(name, name, layer or name.split(".")[0], start, end, parent)


def test_self_time_arithmetic():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("powerflow.solve_powerflow", 1.0, 4.0, parent=0),
        _span("powerflow.build_ybus", 1.5, 2.0, parent=1),
        _span("spectral.nodal_inertia", 5.0, 9.0, parent=0),
        _span("reduction.kron_reduce", 5.0, 6.0, parent=3),
        _span("reduction.kron_reduce", 7.0, 8.5, parent=3),
        _span("csvio.write_table", 9.0, 9.5, parent=0, layer="cli"),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.5, 0.5, 1.5, 1.0, 1.5, 0.5])
    m = tracing.op_metrics(spans, 10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)  # main's own 2.5 plus write_table
    assert m["powerflow.self_s"] == pytest.approx(3.0)
    assert m["powerflow.nr_s"] == pytest.approx(2.5)
    assert m["spectral.inertia_s"] == pytest.approx(4.0)
    assert m["spectral.inertia_share"] == pytest.approx(0.4)
    assert m["reduction.kron_calls"] == 2
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [_span("cli.main", 0.0, 10.0), _span("cli.a", 1.0, 5.0, 0),
             _span("cli.b", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.METRICS
    assert BENCHMARK["paths"] == ["perfbench"]


def test_traced_mc_operation_reports_every_layer_metric(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("GRID_GFV_THREADS", "1")
    case = run.ROOT / "fixtures" / "case7_study.json"
    calls = [run._mc(case, (3, 4, 5, 7), 2, 0.5, 0, tmp_path / "mc", None)]
    plain_wall, errors = run.run_op(cli, calls)
    plain = calls[0].output_bytes()
    tracer = tracing.Tracer()
    tracer.begin_op()
    with tracing.traced(tracer):
        wall, traced_errors = run.run_op(cli, calls)
    assert errors == traced_errors == []
    assert calls[0].output_bytes() == plain
    assert not hasattr(cli.main, "__wrapped__")  # wrappers are removed again
    m = tracing.op_metrics(tracer.ops[0], wall)
    expected = set(tracing.METRICS) - {"trace.untraced_op_wall_s",
                                       "trace.overhead_frac", "trace.ops"}
    assert set(m) == expected
    assert m["powerflow.solves"] == 2
    assert m["dynamics.simulate_calls"] == 8
    assert m["dynamics.injection_kron_calls"] == 8
    assert m["spectral.inertia_kron_calls"] == 7
    assert m["montecarlo.sims_ok_frac"] == 1.0
    assert m["dynamics.rk4_ns_per_step"] > 0 and m["cli.bytes_written"] > 0
    assert os.environ["GRID_GFV_THREADS"] == "1"
