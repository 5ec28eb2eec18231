"""Grid data model and case-file parsing.

A case file is a single JSON document with top-level keys ``base_mva``,
``buses``, ``branches`` and ``generators``; each section is an array of
objects whose keys and types are the fields of ``Bus``, ``Branch`` and
``Generator``.  All electrical quantities are stored in per-unit on the
system base after parsing; generator parameters given on the machine base
(h, d, xd_p) are rescaled at parse time so no downstream code ever sees
mixed bases.
"""

import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from reprlib import repr as _show
from typing import Literal, NewType, get_args

from .errors import CaseError

BusKind = Literal["slack", "pv", "pq"]
BUS_KINDS = get_args(BusKind)
# A bus's id, or a reference to one from a branch or generator.
BusId = NewType("BusId", int)


@dataclass(frozen=True)
class Bus:
    """Network bus.

    Attributes:
        id: unique integer identifier
        kind: one of "slack", "pv", "pq"
        p_load, q_load: demand in pu on the system base
        g_shunt, b_shunt: shunt conductance / susceptance in pu
        v_set: voltage setpoint magnitude, meaningful for slack/pv buses
    """

    id: BusId
    kind: BusKind
    p_load: float = 0.0
    q_load: float = 0.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0
    v_set: float = 1.0


@dataclass(frozen=True)
class Branch:
    """Series branch (line or transformer) between two buses.

    r, x are the series impedance in pu; b_ch is the *total* line charging
    susceptance (half is lumped at each end).
    """

    from_bus: BusId
    to_bus: BusId
    x: float
    r: float = 0.0
    b_ch: float = 0.0
    status: bool = True

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError(f"from_bus and to_bus are both {self.from_bus}")


@dataclass(frozen=True)
class Generator:
    """Synchronous generator attached to a bus.

    After parsing, h (inertia constant, s), d (damping, pu) and xd_p
    (transient reactance, pu) are on the *system* base.  mva_base records
    the machine rating the file used (None: the system base, which
    parse_case fills in), so serialization can convert back.  d may be None
    when the case file does not provide a damping value.
    """

    bus: BusId
    h: float
    xd_p: float
    p_gen: float = 0.0
    d: float | None = None
    mva_base: float | None = None

    def __post_init__(self):
        if self.mva_base is not None and self.mva_base <= 0:
            raise ValueError(f"mva_base must be positive, got {self.mva_base}")


@dataclass(frozen=True)
class NetworkCase:
    """Static grid description: buses, branches, generators at one MVA base."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_gen(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Violation:
    """One broken case invariant; violations are data, not exceptions."""

    entity: str
    rule: str
    detail: str = ""

    def __str__(self):
        msg = f"{self.entity}: {self.rule}"
        return f"{msg} ({self.detail})" if self.detail else msg


def bus_positions(case: NetworkCase) -> dict[int, int]:
    """Map bus id -> row index in the case's bus ordering."""
    return {bus.id: i for i, bus in enumerate(case.buses)}


def bus_ids(case: NetworkCase) -> tuple[int, ...]:
    return tuple(bus.id for bus in case.buses)


def _number(value) -> float:
    if type(value) not in (int, float):
        raise ValueError("must be a number")
    if not abs(value) <= sys.float_info.max:  # inf, NaN, or an int beyond floats
        raise ValueError("must be finite")
    return float(value)


def _ensure(ok: bool, value, reason: str):
    if not ok:
        raise ValueError(reason)
    return value


# The value a field or run parameter of each type stores for a JSON value;
# ValueError with the reason when the value does not fit the type.
VALUE_CHECKS = {
    **dict.fromkeys((BusId, int),
                    lambda v: _ensure(type(v) is int, v, "must be an integer")),
    BusKind: lambda v: _ensure(v in BUS_KINDS, v, f"must be one of {BUS_KINDS}"),
    float: _number,
    float | None: lambda v: None if v is None else _number(v),
    bool: lambda v: _ensure(type(v) in (bool, int) and v in (0, 1), bool(v),
                            "must be true, false, 0 or 1"),
}

# Generator fields a case file gives on the machine base, with the power of
# r = mva_base / base_mva that takes each to the system base.
_MACHINE_BASE = {"h": 1, "d": 1, "xd_p": -1}


def _read(raw: dict, section: str, cls, ids: set[int]) -> list:
    """raw[section], an array of objects, as cls instances: fields without a
    default are required, each value must fit its field's type, other keys
    are ignored.  Buses add their ids to ids; other bus ids must be in it."""
    entries = raw[section]
    if not isinstance(entries, list):
        raise CaseError(f"section '{section}' must be an array, got {_show(entries)}")
    # f.type is the type itself, as this module does not postpone annotations.
    schema = [(f.name, VALUE_CHECKS[f.type], f.default is MISSING, f.type is BusId)
              for f in fields(cls)]
    out = []
    for k, entry in enumerate(entries):
        where = f"{section}[{k}]"
        if not isinstance(entry, dict):
            raise CaseError(f"{where}: entry must be an object, got {_show(entry)}")
        values = {}
        for name, check, required, is_bus_id in schema:
            if name not in entry:
                if required:
                    raise CaseError(f"{where}: missing required field '{name}'")
                continue
            value = entry[name]
            try:
                values[name] = check(value)
            except ValueError as exc:
                raise CaseError(f"{where}: field '{name}' {exc}, got {_show(value)}") from None
            if is_bus_id and cls is Bus:
                if value in ids:
                    raise CaseError(f"{where}: duplicate bus id {value}")
                ids.add(value)
            elif is_bus_id and value not in ids:
                raise CaseError(f"{where}: {name} references nonexistent bus {value}")
        try:
            out.append(cls(**values))
        except ValueError as exc:  # an invariant of cls
            raise CaseError(f"{where}: {exc}") from None
    return out


def _rebase(gen: Generator, base_mva: float, direction: int) -> Generator:
    """gen with its machine-base fields taken to the system base (direction
    1) or back to the machine base (direction -1)."""
    mva = base_mva if gen.mva_base is None else gen.mva_base
    r = mva / base_mva
    scaled = {name: v * r if power * direction > 0 else v / r
              for name, power in _MACHINE_BASE.items()
              if (v := getattr(gen, name)) is not None}
    return replace(gen, mva_base=mva, **scaled)


def parse_case(text: str) -> NetworkCase:
    """Parse a JSON case file into a NetworkCase.

    Generator machine-base quantities are converted to the system base here:
    h and d scale by mva_base/base_mva, xd_p by base_mva/mva_base.

    Raises CaseError, with one line naming the entry and field at fault,
    when the text does not fit the schema of Bus, Branch and Generator.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise CaseError("invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise CaseError("case file must contain a JSON object at top level")

    for section in ("base_mva", "buses", "branches", "generators"):
        if section not in raw:
            raise CaseError(f"missing required section '{section}'")

    base_mva = raw["base_mva"]
    if type(base_mva) not in (int, float) or not 0 < base_mva <= sys.float_info.max:
        raise CaseError(f"base_mva must be a positive number, got {_show(base_mva)}")
    base_mva = float(base_mva)

    ids: set[int] = set()
    buses = _read(raw, "buses", Bus, ids)
    branches = _read(raw, "branches", Branch, ids)
    generators = [_rebase(g, base_mva, 1) for g in _read(raw, "generators", Generator, ids)]
    return NetworkCase(base_mva, tuple(buses), tuple(branches), tuple(generators))


def serialize_case(case: NetworkCase) -> str:
    """Inverse of parse_case: emits machine-base generator quantities."""
    return json.dumps({
        "base_mva": case.base_mva,
        "buses": [asdict(b) for b in case.buses],
        "branches": [asdict(br) for br in case.branches],
        "generators": [asdict(_rebase(g, case.base_mva, -1)) for g in case.generators],
    }, indent=2)


def load_case(path) -> NetworkCase:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CaseError(f"case file is not UTF-8 text: {exc}") from None
    return parse_case(text)


def load_validated_case(path) -> NetworkCase:
    """load_case(path); raises CaseError listing every violation it has."""
    case = load_case(path)
    if violations := validate_case(case):
        raise CaseError(f"case {path} fails validation: "
                        + "; ".join(str(v) for v in violations))
    return case


def connected_components(case: NetworkCase) -> list[list[int]]:
    """Partition bus ids by reachability over in-service branches.

    Components are listed in order of their lowest-index bus; bus ids within
    a component are sorted.
    """
    adjacency: dict[int, list[int]] = {bus.id: [] for bus in case.buses}
    for br in case.branches:
        if br.status:
            adjacency[br.from_bus].append(br.to_bus)
            adjacency[br.to_bus].append(br.from_bus)

    seen: set[int] = set()
    components = []
    for bus in case.buses:
        if bus.id in seen:
            continue
        stack = [bus.id]
        group = []
        seen.add(bus.id)
        while stack:
            node = stack.pop()
            group.append(node)
            for nb in adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        components.append(sorted(group))
    return components


def validate_case(case: NetworkCase) -> list[Violation]:
    """The invariants of a parsed case that parse_case does not check: at
    least two buses, one slack bus, v_set, h and xd_p positive, d non-negative,
    x nonzero, machines on slack or pv buses and a connected network.  Returns an empty
    list iff the case is usable for analysis.  Never raises: violations are
    returned as data."""
    violations = [
        Violation(f"bus {bus.id}", "invalid-v-set", str(bus.v_set))
        for bus in case.buses if bus.kind in ("slack", "pv") and not bus.v_set > 0
    ]
    if case.n_bus < 2:
        violations.append(Violation("case", "too-few-buses", str(case.n_bus)))

    slack_ids = [b.id for b in case.buses if b.kind == "slack"]
    if not slack_ids:
        violations.append(Violation("case", "missing-slack"))
    elif len(slack_ids) > 1:
        violations.append(Violation("case", "duplicate-slack", f"buses {slack_ids}"))

    for k, br in enumerate(case.branches):
        if br.x == 0.0:
            violations.append(Violation(f"branch {br.from_bus}-{br.to_bus}[{k}]",
                                        "zero-reactance", str(br.x)))

    if not case.generators:
        violations.append(Violation("case", "no-generators"))
    kind_of = {b.id: b.kind for b in case.buses}
    for k, g in enumerate(case.generators):
        entity = f"generator[{k}] at bus {g.bus}"
        if kind_of[g.bus] == "pq":
            violations.append(Violation(entity, "generator-on-pq-bus"))
        if not g.h > 0:
            violations.append(Violation(entity, "non-positive-inertia", str(g.h)))
        if g.d is not None and g.d < 0:
            violations.append(Violation(entity, "negative-damping", str(g.d)))
        if not g.xd_p > 0:
            violations.append(Violation(entity, "non-positive-transient-reactance",
                                        str(g.xd_p)))

    if len(components := connected_components(case)) > 1:
        sizes = ", ".join(str(len(c)) for c in components)
        violations.append(
            Violation("case", "disconnected-graph", f"component sizes {sizes}")
        )
    return violations
