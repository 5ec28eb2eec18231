"""Spans around calls into gridgfv's layers, recorded from outside the program.

Each traced function is wrapped at every module namespace that binds it, so
a call is recorded under the module it is made from: ``kron_reduce`` called
by ``spectral.nodal_inertia`` is the span ``spectral.kron_reduce``, the same
function called by ``dynamics.simulate`` is ``dynamics.kron_reduce``.  A
span's layer is the module that defines the function; ``csvio`` counts under
``cli``.  ``pipeline.analyze_case`` is composition only and gets no span of
its own.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("case_model", "powerflow", "reduction", "spectral", "dynamics",
          "montecarlo", "cli")
LAYER_OF = {"csvio": "cli"}

# (defining module, function) for every public function whose calls are spans.
TRACED = (
    ("cli", "main"),
    ("case_model", "load_case"),
    ("case_model", "validate_case"),
    ("powerflow", "build_ybus"),
    ("powerflow", "solve_powerflow"),
    ("powerflow", "internal_emfs"),
    ("reduction", "augment_internal_nodes"),
    ("reduction", "frequency_participation"),
    ("reduction", "kron_reduce"),
    ("spectral", "build_laplacian"),
    ("spectral", "eigendecompose"),
    ("spectral", "fiedler"),
    ("spectral", "nodal_inertia"),
    ("spectral", "solve_gep"),
    ("spectral", "gfv"),
    ("dynamics", "build_swing_model"),
    ("dynamics", "simulate"),
    ("dynamics", "simulate_ou"),
    ("dynamics", "wind_to_power"),
    ("montecarlo", "run_monte_carlo"),
    ("montecarlo", "summarize"),
    ("csvio", "write_table"),
)
# Modules whose namespaces are searched for bindings of the traced functions.
CALLERS = ("case_model", "powerflow", "reduction", "spectral", "dynamics",
           "montecarlo", "pipeline", "csvio", "cli")

# Resident-set growth is sampled at every span boundary inside this call.
RSS_SCOPE = "montecarlo.run_monte_carlo"

# Per-layer metrics of one operation: name -> unit.  Times are seconds per
# operation; "_calls" and other counts are per operation; a "_share" is the
# named time over trace.op_wall_s, the traced operation's wall time.
METRICS = {
    "case_model.load_s": "s",
    "case_model.validate_s": "s",
    "case_model.self_s": "s",
    "case_model.self_share": "fraction",
    "powerflow.nr_s": "s",
    "powerflow.nr_iterations": "count",
    "powerflow.nr_s_per_iter": "s",
    "powerflow.ybus_s": "s",
    "powerflow.solves": "count",
    "powerflow.ybus_builds": "count",
    "powerflow.self_s": "s",
    "powerflow.self_share": "fraction",
    "reduction.augment_calls": "count",
    "reduction.participation_calls": "count",
    "reduction.participation_s": "s",
    "reduction.kron_calls": "count",
    "reduction.kron_s": "s",
    "reduction.self_s": "s",
    "reduction.self_share": "fraction",
    "spectral.laplacian_s": "s",
    "spectral.eig_s": "s",
    "spectral.gep_s": "s",
    "spectral.inertia_s": "s",
    "spectral.inertia_share": "fraction",
    "spectral.inertia_kron_calls": "count",
    "spectral.self_s": "s",
    "spectral.self_share": "fraction",
    "dynamics.simulate_calls": "count",
    "dynamics.simulate_self_s": "s",
    "dynamics.simulate_self_share": "fraction",
    "dynamics.rk4_ns_per_step": "ns",
    "dynamics.injection_kron_calls": "count",
    "dynamics.injection_kron_s": "s",
    "dynamics.swing_build_s": "s",
    "dynamics.ou_s": "s",
    "dynamics.self_s": "s",
    "dynamics.self_share": "fraction",
    "montecarlo.run_s": "s",
    "montecarlo.summarize_s": "s",
    "montecarlo.rss_growth_mb": "MB",
    "montecarlo.sims_ok_frac": "fraction",
    "montecarlo.self_s": "s",
    "montecarlo.self_share": "fraction",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.self_s": "s",
    "cli.self_share": "fraction",
    "trace.op_wall_s": "s",
    "trace.untraced_op_wall_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.ops": "count",
}


@dataclass
class Span:
    name: str  # "<calling module>.<function>"
    func: str  # "<defining module>.<function>"
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1  # index in the operation's span list; -1 for a root
    ok: bool = True
    facts: dict = field(default_factory=dict)


def _written_bytes(args, kwargs):
    path = os.fspath(args[0] if args else kwargs["path"])
    total = os.path.getsize(path)
    if kwargs.get("json_mirror", args[4] if len(args) > 4 else False):
        total += os.path.getsize(os.path.splitext(path)[0] + ".json")
    return total


# Facts read off a call's arguments and result: func -> (args, kwargs, result) -> dict.
PROBES = {
    "powerflow.solve_powerflow": lambda a, k, r: {"iterations": r.iterations},
    "dynamics.simulate": lambda a, k, r: {"steps": len(a[2] if len(a) > 2 else k["dp"]) - 1},
    "csvio.write_table": lambda a, k, r: {"bytes": _written_bytes(a, k)},
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def trim_heap():
    """Hand freed heap pages back to the system (glibc; elsewhere a no-op), so
    memory an earlier operation freed neither hides this one's growth nor is
    inherited by the Monte Carlo workers it forks."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


class Tracer:
    """Records spans per operation; one instance per traced run."""

    def __init__(self):
        self.ops: list[list[Span]] = []
        self._stack: list[int] = []
        self._rss: list[int] | None = None  # [baseline, peak] inside RSS_SCOPE

    def begin_op(self):
        self.ops.append([])
        self._stack.clear()

    def _sample_rss(self):
        if self._rss is not None:
            self._rss[1] = max(self._rss[1], _rss_bytes())

    def call(self, name, func, fn, args, kwargs):
        spans = self.ops[-1]
        module = func.split(".")[0]
        span = Span(name, func, LAYER_OF.get(module, module), 0.0,
                    parent=self._stack[-1] if self._stack else -1)
        spans.append(span)
        self._stack.append(len(spans) - 1)
        scoped = func == RSS_SCOPE and self._rss is None
        if scoped:
            trim_heap()
            base = _rss_bytes()
            self._rss = [base, base]
        self._sample_rss()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.ok = False
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._sample_rss()
            if scoped:
                span.facts["rss_growth_bytes"] = self._rss[1] - self._rss[0]
                self._rss = None
        probe = PROBES.get(func)
        if probe is not None:
            span.facts.update(probe(args, kwargs, result))
        return result

    def dump(self) -> list:
        return [[asdict(s) for s in spans] for spans in self.ops]


def _wrapper(tracer, name, func, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, func, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def traced(tracer: Tracer):
    """Wrap every binding of the TRACED functions for the duration."""
    modules = {m: importlib.import_module(f"gridgfv.{m}") for m in CALLERS}
    patched = []
    try:
        for defining, fname in TRACED:
            original = getattr(modules[defining], fname)
            for caller, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        wrapped = _wrapper(tracer, f"{caller}.{fname}",
                                           f"{defining}.{fname}", original)
                        setattr(mod, attr, wrapped)
                        patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                             for c in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def op_metrics(spans: list[Span], op_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (all of METRICS but the
    trace.untraced_op_wall_s, trace.overhead_frac and trace.ops run totals)."""
    own = self_times(spans)

    def sel(func=None, name=None):
        return [i for i, s in enumerate(spans)
                if (func is None or s.func == func) and (name is None or s.name == name)]

    def calls(func=None, name=None):
        return len(sel(func, name))

    def incl(func=None, name=None):
        return sum(spans[i].end - spans[i].start for i in sel(func, name))

    def fact(func, key):
        return sum(spans[i].facts.get(key, 0) for i in sel(func))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for t, s in zip(own, spans) if s.layer == layer)
        m[f"{layer}.self_share"] = m[f"{layer}.self_s"] / op_wall
    m["case_model.load_s"] = incl("case_model.load_case")
    m["case_model.validate_s"] = incl("case_model.validate_case")

    nr = sel("powerflow.solve_powerflow")
    m["powerflow.nr_s"] = sum(own[i] for i in nr)
    m["powerflow.nr_iterations"] = fact("powerflow.solve_powerflow", "iterations")
    m["powerflow.nr_s_per_iter"] = (m["powerflow.nr_s"] / m["powerflow.nr_iterations"]
                                    if m["powerflow.nr_iterations"] else 0.0)
    m["powerflow.ybus_s"] = incl("powerflow.build_ybus")
    m["powerflow.solves"] = len(nr)
    m["powerflow.ybus_builds"] = calls("powerflow.build_ybus")

    m["reduction.augment_calls"] = calls("reduction.augment_internal_nodes")
    m["reduction.participation_calls"] = calls("reduction.frequency_participation")
    m["reduction.participation_s"] = incl("reduction.frequency_participation")
    m["reduction.kron_calls"] = calls("reduction.kron_reduce")
    m["reduction.kron_s"] = incl("reduction.kron_reduce")

    m["spectral.laplacian_s"] = incl("spectral.build_laplacian")
    m["spectral.eig_s"] = incl("spectral.eigendecompose") + incl("spectral.fiedler")
    m["spectral.gep_s"] = incl("spectral.solve_gep") + incl("spectral.gfv")
    m["spectral.inertia_s"] = incl("spectral.nodal_inertia")
    m["spectral.inertia_share"] = m["spectral.inertia_s"] / op_wall
    m["spectral.inertia_kron_calls"] = calls(name="spectral.kron_reduce")

    sims = sel("dynamics.simulate")
    steps = fact("dynamics.simulate", "steps")
    m["dynamics.simulate_calls"] = len(sims)
    m["dynamics.simulate_self_s"] = sum(own[i] for i in sims)
    m["dynamics.simulate_self_share"] = m["dynamics.simulate_self_s"] / op_wall
    m["dynamics.rk4_ns_per_step"] = (1e9 * m["dynamics.simulate_self_s"] / steps
                                     if steps else 0.0)
    m["dynamics.injection_kron_calls"] = calls(name="dynamics.kron_reduce")
    m["dynamics.injection_kron_s"] = incl(name="dynamics.kron_reduce")
    m["dynamics.swing_build_s"] = incl("dynamics.build_swing_model")
    m["dynamics.ou_s"] = incl("dynamics.simulate_ou") + incl("dynamics.wind_to_power")

    m["montecarlo.run_s"] = incl("montecarlo.run_monte_carlo")
    m["montecarlo.summarize_s"] = incl("montecarlo.summarize")
    m["montecarlo.rss_growth_mb"] = fact(RSS_SCOPE, "rss_growth_bytes") / 2**20
    m["montecarlo.sims_ok_frac"] = (sum(spans[i].ok for i in sims) / len(sims)
                                    if sims else 0.0)

    m["cli.write_s"] = incl("csvio.write_table")
    m["cli.bytes_written"] = fact("csvio.write_table", "bytes")
    m["trace.op_wall_s"] = op_wall
    return m
