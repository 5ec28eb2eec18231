"""grid-gfv benchmark: `grid-gfv gfv` and `grid-gfv mc` end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS or "all".  Each operation is one or more in-process
``gridgfv.cli.main([...])`` calls, timed from outside and checked against
perfbench/references.json.  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it runs serially, wraps the public functions of every
layer (tracing.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
import synthgrid
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

# numpy's BLAS would otherwise start one thread per core in the benchmark
# process and in each Monte Carlo worker: with 2 workers on 2 cores that
# oversubscribes the machine and makes op times swing by several times.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
MC_WORKERS = 2  # GRID_GFV_THREADS for untraced runs; traced runs are serial
POOL = 32  # --seed selects input seed (seed % POOL), each with a stored reference
SETUP_SAMPLES = 3  # this process plus fresh processes; setup_s is their median
FIXTURES = ("case2", "case4_path", "case4_ring", "case4_sym", "case7_study",
            "case9", "case9_lossless")

# name -> (unit, better); the end_to_end metrics of BENCHMARK.json.  The
# op time is gated by its mean: on a shared host whose speed alternates
# between fast and slow stretches, the median of a run flips between two
# modes while the mean follows the share of slow time (README.md, Bounds).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_wall_s_mean": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "worker_peak_rss_mb": ("MB", "lower"),
}
# Printed with the end-to-end metrics but not gated.
END_TO_END_INFO = {"op_wall_s_p50": "s"}


@dataclass
class Call:
    """One `grid-gfv` invocation and how to check what it wrote."""

    argv: list
    out: Path  # gfv: the --out file; mc: the --out-dir
    ref: dict | None
    n: int = 0  # mc: realizations requested

    @property
    def kind(self) -> str:
        return self.argv[0]

    def clear(self):
        if self.out.is_dir():
            shutil.rmtree(self.out)
        else:
            self.out.unlink(missing_ok=True)

    def read(self) -> dict:
        return checks.read_gfv(self.out) if self.kind == "gfv" else checks.read_mc(self.out)

    def errors(self, rc) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            out = self.read()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.kind == "gfv":
            return checks.gfv_errors(out, self.ref)
        return checks.mc_errors(out, self.n, self.ref)

    def output_bytes(self) -> bytes:
        path = self.out if self.kind == "gfv" else self.out / "summary.csv"
        return path.read_bytes() if path.exists() else b""


def _gfv(case: Path, out: Path, ref) -> Call:
    return Call(["gfv", str(case), "--out", str(out)], out, ref)


def _mc(case: Path, buses, n: int, t: float, seed: int, out: Path, ref) -> Call:
    argv = ["mc", str(case), "--buses", ",".join(map(str, buses)), "--n", str(n),
            "--t", str(t), "--dt", "0.01", "--seed", str(seed), "--out-dir", str(out)]
    return Call(argv, out, ref, n)


def grid_problems(path: Path) -> list:
    """Why a generated case is unfit for the benchmark; empty when fit."""
    from gridgfv.case_model import bus_positions, load_case, validate_case
    from gridgfv.errors import GridGfvError
    from gridgfv.powerflow import solve_powerflow

    case = load_case(path)
    problems = [str(v) for v in validate_case(case)]
    if problems:
        return problems
    try:
        sol = solve_powerflow(case)
    except GridGfvError as exc:
        return [f"power flow: {exc}"]
    pos = bus_positions(case)
    for br in case.branches:
        spread = abs(sol.va[pos[br.from_bus]] - sol.va[pos[br.to_bus]])
        if spread >= math.pi / 2:
            problems.append(f"branch {br.from_bus}-{br.to_bus}: angle spread "
                            f"{math.degrees(spread):.1f} deg")
    return problems


def _grid(n_bus: int, k: int, work: Path) -> Path:
    path = work / f"synth{n_bus}_{k}.json"
    path.write_bytes(synthgrid.case_bytes(n_bus, k))
    problems = grid_problems(path)
    if problems:
        raise SystemExit(f"perfbench: generated grid {path.name} is unfit: {problems[:3]}")
    return path


# Each workload maps (seed, work dir, reference lookup) to the calls of one
# operation and the calls of its warm-up.  README.md says why each exists.
def gfv_fixtures(seed, work, ref):
    names = list(FIXTURES)
    random.Random(f"gfv_fixtures:{seed}").shuffle(names)
    calls = [_gfv(ROOT / "fixtures" / f"{name}.json", work / f"{name}.csv", ref(name))
             for name in names]
    return calls, calls


def gfv_synth200(seed, work, ref):
    k = seed % POOL
    call = _gfv(_grid(200, k, work), work / "gfv.csv", ref(str(k)))
    return [call], [call]


def mc_case7(seed, work, ref):
    k = seed % POOL
    case = ROOT / "fixtures" / "case7_study.json"
    buses = (3, 4, 5, 7)
    return ([_mc(case, buses, 96, 50, k, work / "mc", ref(str(k)))],
            [_mc(case, buses, 2, 1, k, work / "warm", None)])


def mc_synth_wide(seed, work, ref):
    k = seed % POOL
    case = _grid(120, k, work)
    buses = sorted(random.Random(f"mc_synth_wide:{k}").sample(range(1, 121), 16))
    return ([_mc(case, buses, 8, 10, k, work / "mc", ref(str(k)))],
            [_mc(case, buses, 2, 1, k, work / "warm", None)])


WORKLOADS = {
    "gfv_fixtures": gfv_fixtures,
    "gfv_synth200": gfv_synth200,
    "mc_case7": mc_case7,
    "mc_synth_wide": mc_synth_wide,
}


def import_program():
    """gridgfv.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gridgfv" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"perfbench: {ROOT} holds no src/gridgfv or fixtures/")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gridgfv.cli

    if Path(gridgfv.cli.__file__).resolve().parent != src / "gridgfv":
        raise SystemExit(f"perfbench: gridgfv was imported from {gridgfv.cli.__file__}")
    return gridgfv.cli


def reference_lookup(workload: str):
    try:
        table = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"perfbench: no references for {workload}: {exc!r}")

    def ref(key):
        if key not in table:
            raise SystemExit(f"perfbench: no reference for {workload} input {key}")
        return table[key]

    return ref


def run_op(cli, calls) -> tuple:
    """Run one operation; return its wall time and what failed.

    Each operation starts from a collected, trimmed heap, as a fresh
    `grid-gfv` process would."""
    for call in calls:
        call.clear()
    gc.collect()
    tracing.trim_heap()
    codes = []
    start = time.perf_counter()
    for call in calls:
        try:
            codes.append(cli.main(call.argv))
        except Exception as exc:  # an escaped exception is a failed operation
            codes.append(repr(exc))
    wall = time.perf_counter() - start
    errors = [f"{call.argv[0]} {Path(call.argv[1]).name}: {err}"
              for call, rc in zip(calls, codes) for err in call.errors(rc)]
    return wall, errors


def set_up(workload: str, seed: int, work: Path, cli, ref) -> list:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls, warm = WORKLOADS[workload](seed, work, ref)
    run_op(cli, warm)  # a failure here recurs, and is counted, in the timed operations
    return calls


def setup_sample(args, k: int) -> float:
    """setup_s of a fresh process doing this run's set-up."""
    work = WORK / args.workload / f"setup{k}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up sample failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"workload": args.workload, "seed": args.seed, "input_seed": args.seed % POOL,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "GRID_GFV_THREADS": os.environ["GRID_GFV_THREADS"],
            **{k: os.environ[k] for k in BLAS_THREADS}}


def _peak_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_run(args, cli, calls, setup_s: float):
    walls, failures = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, errors = run_op(cli, calls)
        walls.append(wall)
        if errors:
            failures.append(errors)
        if time.perf_counter() >= deadline:
            break
    self_peak = _peak_mb(resource.RUSAGE_SELF)
    # Read before the set-up samples below, which are children too.  A gfv
    # workload starts no worker: its work ran in this process.
    uses_workers = any(call.kind == "mc" for call in calls)
    worker_peak = _peak_mb(resource.RUSAGE_CHILDREN) if uses_workers else self_peak
    setups = [setup_s] + [setup_sample(args, k) for k in range(1, SETUP_SAMPLES)]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "op_wall_s_mean": (statistics.fmean(walls), len(walls)),
        "op_wall_s_p50": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (self_peak, 1),
        "worker_peak_rss_mb": (worker_peak, 1),
    }
    return metrics, walls, failures, {"setup_samples": setups, "op_walls": walls}


def traced_run(args, cli, calls, work: Path):
    """Alternate untraced and traced serial operations for --seconds."""
    tracer = tracing.Tracer()
    plain, traced, failures = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced_turn in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.begin_op()
                with tracing.traced(tracer):
                    wall, traced_errors = run_op(cli, calls)
                traced.append(wall)
                traced_out = [c.output_bytes() for c in calls]
            else:
                wall, plain_errors = run_op(cli, calls)
                plain.append(wall)
                plain_out = [c.output_bytes() for c in calls]
        if traced_out != plain_out:
            traced_errors.append("traced outputs differ from untraced outputs")
        failures += [errors for errors in (plain_errors, traced_errors) if errors]
        if time.perf_counter() >= deadline:
            break
    per_op = [tracing.op_metrics(spans, wall) for spans, wall in zip(tracer.ops, traced)]
    metrics = {name: (statistics.median(m[name] for m in per_op), len(per_op))
               for name in per_op[0]}
    untraced = statistics.median(plain)
    metrics["trace.untraced_op_wall_s"] = (untraced, len(plain))
    metrics["trace.overhead_frac"] = (metrics["trace.op_wall_s"][0] / untraced - 1.0,
                                      len(per_op))
    metrics["trace.ops"] = (len(per_op), 1)
    (work / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return metrics, plain + traced, failures, {"traced_walls": traced, "untraced_walls": plain}


def run_all(args) -> int:
    """Every workload in its own process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORK_DIR",
                   help="set up in WORK_DIR, print setup_s and exit (used for set-up samples)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.environ.update(BLAS_THREADS)  # before numpy loads
    os.environ["GRID_GFV_THREADS"] = str(1 if args.trace else MC_WORKERS)
    cli = import_program()
    work = Path(args.setup_only) if args.setup_only else WORK / args.workload
    calls = set_up(args.workload, args.seed, work, cli, reference_lookup(args.workload))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args)
    if args.trace:
        metrics, walls, failures, samples = traced_run(args, cli, calls, work)
        units = tracing.METRICS
    else:
        metrics, walls, failures, samples = timed_run(args, cli, calls, setup_s)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    attempted, failed = len(walls), len(failures)

    print(f"env {json.dumps(env)}")
    for name, unit in {**units, **({} if args.trace else END_TO_END_INFO)}.items():
        value, n = metrics[name]
        base = " of trace.op_wall_s" if name.endswith("_share") else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{base} (n={n})")
    print(f"{args.workload} ops_failed_frac = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    for errors in failures[:3]:
        print(f"failed: {'; '.join(errors[:3])}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name][0], "unit": unit}
                          for name, unit in units.items()}}
    (work / "result.json").write_text(json.dumps(
        {**result, "env": env, "samples": samples, "failures": failures[:20]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
