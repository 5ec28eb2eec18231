"""grid-gfv command line: validate | pf | laplacian | dmatrix | inertia |
gfv | simulate | mc | report.

Exit codes: 0 success, 1 usage error (bad arguments, missing files), 2 data
or validation error, 3 numerical failure (non-convergence, singularity,
unstable integration); every failure is one line on stderr.  All outputs
are CSV with a header row, rendered whole before a byte is written; an mc
whose study, tables or writes fail replaces no file.  A command takes the
run-parameter flags it uses and, with them, a --config JSON file of run
parameters (tolerances, OU/turbine/MC parameters, seed); explicit flags win
over the file, and unknown keys or mistyped values in it are usage errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import case_model, montecarlo
from .case_model import bus_ids, load_case, load_validated_case, validate_case
from .csvio import read_table, render_table, write_table
from .dynamics import build_swing_model, simulate, simulate_ou, wind_to_power
from .errors import CaseError, GridGfvError, NumericalError
from .montecarlo import RunConfig
from .pipeline import analyze_case


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# Every run parameter: its flag -> its (section, key) in a --config file,
# "" being the top level.  Sections "ou" and "turbine" hold fields of
# RunConfig.ou and RunConfig.turbine, the others fields of RunConfig.
_RUN_PARAMETERS = {
    "--tol": ("", "tol"), "--max-iter": ("", "max_iter"),
    "--seed": ("", "seed"), "--damping": ("", "damping"),
    "--ou-mu": ("ou", "mu"), "--ou-alpha": ("ou", "alpha"), "--ou-b": ("ou", "b"),
    "--rated-power": ("turbine", "rated_power"),
    "--v-rated": ("turbine", "v_rated"), "--v-ref": ("turbine", "v_ref"),
    "--n": ("mc", "n_realizations"), "--t": ("mc", "horizon"),
    "--dt": ("mc", "dt"), "--bins": ("mc", "bins"),
}


def _kind(section: str, key: str) -> type:
    """The type of run parameter (section, key): that of its default."""
    run = RunConfig()
    return type(getattr(getattr(run, section, run), key))


def _checked(section: str, key: str, value, name: str):
    """value as run parameter (section, key) holds it; a usage error naming
    it when the value does not fit the parameter's type."""
    try:
        return case_model.VALUE_CHECKS[_kind(section, key)](value)
    except ValueError as exc:
        raise _UsageError(f"{name} {exc}, got {value!r}") from None


def _overlay(values: dict) -> RunConfig:
    """RunConfig() with values, (section, key) -> value, set over it."""
    run, parts = RunConfig(), {"ou": {}, "turbine": {}, "": {}}
    for (section, key), value in values.items():
        parts.get(section, parts[""])[key] = value
    try:
        return replace(run, ou=replace(run.ou, **parts["ou"]),
                       turbine=replace(run.turbine, **parts["turbine"]), **parts[""])
    except ValueError as exc:  # a parameter out of its range
        raise _UsageError(str(exc)) from None


def _config_values(path) -> dict:
    """The run parameters of the --config file at path, (section, key) ->
    value.  Unknown keys, sections that are not objects and values that do
    not fit their parameter's type are usage errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise _UsageError(f"config {path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise _UsageError(
                f"config {path}: invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path}: the top level must be a JSON object")
    sections = {section for section, _ in _RUN_PARAMETERS.values() if section}
    values = {}
    for name, value in raw.items():
        if name in sections:
            if not isinstance(value, dict):
                raise _UsageError(f"config {path}: {name!r} must be a JSON object")
            values.update(((name, key), v) for key, v in value.items())
        else:
            values["", name] = value
    for (section, key), value in values.items():
        where = f"{section}.{key}" if section else key
        if (section, key) not in _RUN_PARAMETERS.values():
            raise _UsageError(f"config {path}: unknown key {where!r}")
        values[section, key] = _checked(section, key, value, f"config {path}: {where}")
    return values


def _load_run_config(path, flags=None) -> RunConfig:
    """RunConfig() with the --config file's values at path (none when path is
    None), then the run-parameter flags set in the namespace flags, over it
    in one pass: the range rules judge only the merged values.  A flag value
    that does not fit its parameter's type is a usage error."""
    values = _config_values(path) if path else {}
    for flag, target in _RUN_PARAMETERS.items():
        value = getattr(flags, flag[2:].replace("-", "_"), None)
        if value is not None:
            values[target] = _checked(*target, value, flag)
    return _overlay(values)


def _emit(args, header, rows, comment=None):
    """Render a command's table whole, then write it to --out or to stdout;
    a non-finite cell leaves both untouched."""
    text = render_table(header, rows, comment)
    if args.out:
        write_table(args.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args, run: RunConfig) -> int:
    violations = validate_case(load_case(args.case))
    for v in violations:
        print(str(v))
    return 0 if not violations else 2


def _per_bus(case, *columns):
    """One row per bus of case, in case order: its id, then its entry in each
    column."""
    return [[bid] + [float(col[i]) for col in columns]
            for i, bid in enumerate(bus_ids(case))]


def _cmd_simulate(args, run: RunConfig) -> int:
    case = load_validated_case(args.case)
    row = case_model.bus_positions(case).get(args.bus)
    if row is None:
        raise GridGfvError(f"unknown injection node {args.bus}")
    model = build_swing_model(analyze_case(case, tol=run.tol, max_iter=run.max_iter),
                              run.damping)
    dp = wind_to_power(simulate_ou(run.ou, run.dt, run.n_steps, run.seed), run.turbine)
    traj = simulate(model, row, dp, run.dt)
    header = (["t", "dp", "coi_freq"]
              + [f"gen_{k}" for k in range(case.n_gen)]
              + [f"bus_{b}" for b in bus_ids(case)])
    rows = np.vstack([traj.t, dp, traj.coi_freq, traj.gen_freq,
                      traj.bus_freq]).T.tolist()
    _emit(args, header, rows, comment=f"seed={run.seed} bus={args.bus} dt={run.dt!r}")
    return 0


def _cmd_mc(args, run: RunConfig) -> int:
    try:
        workers = montecarlo.resolve_workers(None, run.n_realizations)
    except ValueError as exc:  # GRID_GFV_THREADS is not an integer
        raise _UsageError(str(exc)) from None
    try:
        buses = [int(tok) for tok in args.buses.split(",") if tok]
    except ValueError:
        raise _UsageError(f"--buses must be a comma-separated id list, got {args.buses!r}")
    if not buses:
        raise _UsageError("--buses must name at least one bus")
    case = load_validated_case(args.case)
    # Keep outputs in case bus order so gfv and mc/report orderings compose.
    rows = montecarlo.placement_rows(case, buses)
    buses = sorted(rows, key=rows.get)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ("ifd.csv", "hist.csv", "summary.csv")
    for path in (out_dir / name for name in names):
        if path.is_dir():  # a table could not replace it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))

    # Rows in case bus order; read before the study, which then holds no analysis.
    gfv = analyze_case(case, tol=run.tol, max_iter=run.max_iter).gfv
    placements = montecarlo.run_monte_carlo(case, buses, run, workers)

    summary_rows, failures = [], []
    for bus, stats in placements.items():
        failures += (f"bus {bus}: {failure}" for failure in stats.failures)
        q = stats.ifd_quartiles
        summary_rows.append([
            bus, float(gfv.vector[rows[bus]]), q.median, q.q3 - q.q1, q.q1, q.q3,
            q.whisker_low, q.whisker_high, stats.coi_std, stats.poi_std,
            len(stats.ifd_samples),
        ])
    # Every table is rendered, then written into a temporary directory, before
    # any replaces its name, so a run whose study, tables or writes fail
    # leaves the files of out_dir as it found them.
    texts = (
        render_table(
            ["bus_id", "realization", "ifd"],
            ([bus, r, v] for bus, s in placements.items()
             for r, v in zip(s.ifd_realizations.tolist(), s.ifd_samples.tolist()))),
        render_table(
            ["bus_id", "series", "bin_low", "bin_high", "count"],
            ([bus, series, *cells] for bus, s in placements.items()
             for series, h in (("coi", s.coi_histogram), ("poi", s.poi_histogram))
             for cells in zip(h.edges.tolist(), h.edges[1:].tolist(), h.counts.tolist()))),
        render_table(
            ["bus_id", "gfv", "median_ifd", "ifd_iqr", "q1", "q3", "whisker_low",
             "whisker_high", "coi_std", "poi_std", "n_ok"],
            summary_rows,
            comment=(f"f0_pu=1.0 frequency_values=deviation_pu "
                     f"gfv_degenerate={gfv.degenerate} seed={run.seed} "
                     f"n_realizations={run.n_realizations} partial={bool(failures)}")),
    )
    temp = Path(tempfile.mkdtemp(prefix=".mc-", dir=out_dir))
    try:
        for name, text in zip(names, texts):
            write_table(temp / name, text)
        for name in names:
            os.replace(temp / name, out_dir / name)
    finally:
        shutil.rmtree(temp, ignore_errors=True)
    if failures:
        print(*failures, "warning: summary is partial (some realizations failed)",
              sep="\n", file=sys.stderr)
    return 0


def _ranks(values) -> np.ndarray:
    """The 1-based rank of each of values; tied values share their mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _spearman(x, y) -> str:
    """Spearman's rank correlation of x and y as a float's repr, or
    "undefined" when a side has fewer than two distinct values."""
    if min(len(set(x)), len(set(y))) < 2:
        return "undefined"
    return repr(float(np.corrcoef(_ranks(x), _ranks(y))[0, 1]))


def _cmd_report(args, run: RunConfig) -> int:
    summary_path = Path(args.out_dir) / "summary.csv"
    needed = ["bus_id", "gfv", "median_ifd", "ifd_iqr", "coi_std", "poi_std"]
    try:
        header, rows = read_table(summary_path)
        col = {name: i for i, name in enumerate(header)}
        missing = [name for name in needed if name not in col]
        if missing:
            raise ValueError(f"lacks columns {missing}")
        out_rows = [
            [int(row[col["bus_id"]])] + [float(row[col[name]]) for name in needed[1:]]
            for row in rows
        ]
        if not all(math.isfinite(v) for row in out_rows for v in row[1:]):
            raise ValueError("a value is not a finite number")
    except ValueError as exc:  # also a file that is not UTF-8
        raise CaseError(f"{summary_path}: {exc}") from None
    rho = _spearman([row[1] for row in out_rows], [row[2] for row in out_rows])
    _emit(args, needed, out_rows, comment=f"spearman_gfv_median_ifd={rho}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


# add_argument's keywords for each argument of a command that is neither a
# positional nor a run-parameter flag.
_ARGUMENTS = {
    "--bus": {"type": int, "required": True},
    "--buses": {"required": True, "help": "comma-separated bus ids"},
    "--out-dir": {"required": True},
    "--config": {"help": "JSON file with shared run defaults"},
    "--out": {"help": "output CSV path (default: stdout)"},
}


@dataclass(frozen=True)
class _Command:
    """A subcommand: its help, its handler(args, run) -> exit code, its own
    arguments, the run-parameter flags it takes (and so --config) and whether
    it writes one table (to stdout or --out)."""

    help: str
    handler: Callable[[argparse.Namespace, RunConfig], int]
    arguments: tuple[str, ...]
    flags: tuple[str, ...] = ()
    table: bool = True


def _analysis(help_text: str, tabulate) -> _Command:
    """A command that writes one table of a case's analysis, tabulate(analysis)
    -> (header, rows[, comment]); only the stages that tabulate reads run."""
    def handler(args, run: RunConfig) -> int:
        analysis = analyze_case(load_validated_case(args.case), tol=run.tol,
                                max_iter=run.max_iter)
        _emit(args, *tabulate(analysis))
        return 0

    return _Command(help_text, handler, ("case",), ("--tol", "--max-iter"))


_COMMANDS = {
    "validate": _Command("check case invariants", _cmd_validate, ("case",),
                         table=False),
    "pf": _analysis("solve the AC power flow", lambda a: (
        ["bus_id", "vm", "va_deg", "p_inj", "q_inj"],
        _per_bus(a.case, a.solution.vm, np.degrees(a.solution.va), a.solution.p_inj,
                 a.solution.q_inj),
        f"iterations={a.solution.iterations} max_mismatch={a.solution.max_mismatch!r}",
    )),
    "laplacian": _analysis("dump the weighted Laplacian", lambda a: (
        ["bus_id"] + [str(b) for b in bus_ids(a.case)],
        _per_bus(a.case, *a.laplacian.T),
    )),
    "dmatrix": _analysis("dump the frequency participation matrix", lambda a: (
        ["bus_id"] + [f"gen_{k}" for k in range(a.case.n_gen)],
        _per_bus(a.case, *a.participation.T),
    )),
    "inertia": _analysis("per-bus nodal inertia", lambda a: (
        ["bus_id", "nodal_inertia_s"],
        _per_bus(a.case, a.inertia),
    )),
    "gfv": _analysis("per-bus placement metric and Fiedler vector", lambda a: (
        ["bus_id", "nodal_inertia_s", "fiedler_norm", "gfv"],
        _per_bus(a.case, a.inertia, a.fiedler.vector, a.gfv.vector),
        f"lambda2={a.fiedler.value!r} lambda2_bar={a.gfv.value!r} "
        f"fiedler_degenerate={a.fiedler.degenerate} gfv_degenerate={a.gfv.degenerate}",
    )),
    "simulate": _Command(
        "one stochastic-wind trajectory", _cmd_simulate, ("case", "--bus"),
        ("--tol", "--max-iter", "--seed", "--damping", "--ou-mu", "--ou-alpha",
         "--ou-b", "--rated-power", "--v-rated", "--v-ref", "--t", "--dt")),
    "mc": _Command(  # every run parameter
        "Monte Carlo placement study", _cmd_mc,
        ("case", "--buses", "--out-dir"), tuple(_RUN_PARAMETERS),
        table=False),
    "report": _Command("ranking table from an mc output directory", _cmd_report,
                       ("out_dir",)),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of subcommand command, or of every subcommand when command
    names none (as for --help)."""
    parser = _Parser(prog="grid-gfv", description=__doc__, allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        cmd = _COMMANDS[name]
        sub = subs.add_parser(name, help=cmd.help, allow_abbrev=False)
        for option in (cmd.arguments + cmd.flags + ("--config",) * bool(cmd.flags)
                       + ("--out",) * cmd.table):
            if option in _RUN_PARAMETERS:
                sub.add_argument(option, type=_kind(*_RUN_PARAMETERS[option]))
            else:
                sub.add_argument(option, **_ARGUMENTS.get(option, {}))
    return parser


def _fail(message: str, code: int) -> int:
    """Write a failure message as one stderr line; return its exit code."""
    print(message.replace("\n", "\\n").replace("\r", "\\r"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run the grid-gfv command in argv (default: sys.argv[1:]) and return its
    exit code.  A failure is reported as one stderr line: 1 for usage,
    memory and file-system errors and a Monte Carlo worker that died, 2 for
    bad data, 3 for a numerical failure."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        run = _load_run_config(getattr(args, "config", None), args)
        with np.errstate(all="ignore"):  # outputs are checked for finiteness
            return _COMMANDS[args.command].handler(args, run)
    except _UsageError as exc:
        return _fail(str(exc), 1)
    except MemoryError as exc:  # e.g. a horizon of more steps than fit in memory
        return _fail(f"out of memory: {exc}", 1)
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc.filename or exc}", 1)
    except OSError as exc:  # e.g. a directory where a file belongs, a dead worker
        return _fail(f"{exc.filename}: {exc.strerror}" if exc.filename
                     else f"error: {exc}", 1)
    except NumericalError as exc:
        return _fail(f"numerical failure: {exc}", 3)
    except GridGfvError as exc:  # CaseError among them
        return _fail(f"error: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
