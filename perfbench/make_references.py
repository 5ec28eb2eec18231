"""Rewrite references.json from the program in this checkout.

    python3 perfbench/make_references.py

The benchmark checks every operation against references.json, so run this
only when a change to the outputs is deliberate, and record it.  It runs
each workload's operation once per stored input: the 7 fixtures, and the
POOL input seeds of the others.  Monte Carlo results do not depend on the
worker count.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import checks
import run


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def reference(call: run.Call) -> dict:
    out = call.read()
    if call.kind == "gfv":
        return {"lambda2": _sig(out["lambda2"]), "lambda2_bar": _sig(out["lambda2_bar"]),
                "bus_id": out["bus_id"], "gfv": [_sig(v) for v in out["gfv"]]}
    return {"n": call.n, "median_ifd": {str(b): _sig(v) for b, v in out["median_ifd"].items()},
            "ranking": out["ranking"]}


def main() -> int:
    os.environ.update(run.BLAS_THREADS)
    os.environ["GRID_GFV_THREADS"] = str(run.MC_WORKERS)
    cli = run.import_program()
    table = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, build in run.WORKLOADS.items():
            seeds = [0] if name == "gfv_fixtures" else range(run.POOL)
            table[name] = {}
            for seed in seeds:
                work = Path(tmp) / f"{name}_{seed}"
                work.mkdir()
                calls, _ = build(seed, work, lambda key: None)
                _, errors = run.run_op(cli, calls)
                if errors:
                    raise SystemExit(f"{name} seed {seed}: {errors}")
                for call in calls:
                    key = Path(call.argv[1]).stem if name == "gfv_fixtures" else str(seed)
                    table[name][key] = reference(call)
                print(name, seed, file=sys.stderr)
    doc = {"rtol": checks.RTOL, "gfv_atol": checks.GFV_ATOL, **table}
    run.REFERENCES.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
