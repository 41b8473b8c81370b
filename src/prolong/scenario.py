"""Scenario documents: one JSON file naming groups, maps and a mode.

Modes: "pre-prolongation" (e0 + alpha + gamma + theta), "full-ladder"
(adds one or two complete bottom rows) and "cohomology-only" (a module and a
degree).  Groups may be given inline as tables or by fixture name.

The shape of a document is declared once (SCENARIO, GROUP) and checked by
`check` before anything is built, naming the JSON path at fault; what runs
after it checks algebra only and builds each group, map and ladder once.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ProlongError, ScenarioError, ShapeError
from .extensions import Prolongation, ShortExtension, make_extension
from .fixtures import builtin, builtin_names, group_to_json
from .groups import FiniteGroup, Homomorphism, validate_group
from .cohomology import PiModule, pi_module
from .obstruction import PreProlongation
from .record import Record, assign, replace

NEEDS = {
    "pre-prolongation": ("e0", "alpha", "gamma", "theta"),
    "full-ladder": ("e0", "alpha", "gamma", "ladders"),
    "cohomology-only": ("cohomology",),
}

# A shape is a type (int refuses bool), a literal, [s] (a list of s),
# {str: s} (every name maps to s), a dict of keys (a trailing "?" makes one
# optional; unknown keys are ignored) or a tuple of alternatives.  A table's
# rows and entries are validate_group's to check.
GROUP = {"table": list, "order?": int, "labels?": list, "name?": str}
SCENARIO = {
    "mode": tuple(NEEDS),
    "groups?": {str: (str, dict)},
    "homs?": {str: {"source": str, "target": str, "map": [int]}},
    "e0?": {"j": str, "p": str},
    "alpha?": str,
    "gamma?": str,
    "theta?": [[int]],
    "ladders?": [{"j": str, "p": str, "beta": str}],
    "cohomology?": {"pi": str, "a": str, "action?": (None, [[int]]),
                    "degree?": (None, int)},
}
_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _fits(value, shape) -> bool:
    """Whether value has the outermost JSON type (or literal value) of shape."""
    if isinstance(shape, type):
        return type(value) is shape
    return type(value) is type(shape) and (isinstance(shape, (list, dict))
                                           or value == shape)


def _describe(shape) -> str:
    if isinstance(shape, tuple):
        return " or ".join(map(_describe, shape))
    if isinstance(shape, (list, dict)):
        return _NAMES[type(shape)]
    return _NAMES.get(shape) or json.dumps(shape)


def check(value, shape, path: str = "") -> None:
    """Raise a ShapeError naming the JSON path where value leaves shape."""
    alts = shape if isinstance(shape, tuple) else (shape,)
    shape = next((alt for alt in alts if _fits(value, alt)), alts)
    if shape is alts:
        raise ShapeError(f"{path.lstrip('.') or 'document'} must be "
                         f"{_describe(alts)}, got {value!r}")
    if isinstance(shape, list):
        for index, item in enumerate(value):
            check(item, shape[0], f"{path}[{index}]")
    elif isinstance(shape, dict) and str in shape:
        for name, item in value.items():
            check(item, shape[str], f"{path}.{name}")
    elif isinstance(shape, dict):
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in value:
                check(value[name], sub, f"{path}.{name}")
            elif name == key:
                raise ShapeError(f"{path}.{name}".lstrip(".") + " is missing")


def _named(table: dict, name: str, path: str, kind: str):
    """table[name], where name is the reference found at the JSON path."""
    if name not in table:
        raise ScenarioError(f"{path} names unknown {kind} {name!r}")
    return table[name]


def group_from_json(obj, path: str = "") -> FiniteGroup:
    """A group from its JSON object, which is checked against GROUP first.

    path is where obj sits in its document; every error names the group.
    """
    name = obj.get("name", "") if isinstance(obj, dict) else ""
    try:
        check(obj, GROUP, path)
    except ShapeError as exc:
        raise ShapeError(f"group {name!r}: {exc}") from None
    table, labels = obj["table"], obj.get("labels")
    if "order" in obj and obj["order"] != len(table):
        raise ScenarioError(f"group {name!r}: declared order {obj['order']} "
                            f"disagrees with table size {len(table)}")
    g = validate_group(table, labels=labels, name=name)
    if labels is not None and len(labels) != g.order:
        raise ScenarioError(
            f"group {name!r} has {len(labels)} labels for {g.order} elements")
    return g


class Scenario(Record, eq=False):
    __slots__ = ("mode", "groups", "homs", "e0", "alpha", "gamma", "theta", "ladders",
                 "cohomology")

    def __init__(self, mode: str, groups: dict[str, FiniteGroup],
                 homs: dict[str, Homomorphism], e0: ShortExtension | None,
                 alpha: Homomorphism | None, gamma: Homomorphism | None,
                 theta: tuple[tuple[int, ...], ...] | None,
                 ladders: tuple[Prolongation, ...] = (), cohomology: dict | None = None):
        assign(self, "mode", mode)
        assign(self, "groups", groups)
        assign(self, "homs", homs)
        assign(self, "e0", e0)
        assign(self, "alpha", alpha)
        assign(self, "gamma", gamma)
        assign(self, "theta", theta)
        assign(self, "ladders", ladders)
        assign(self, "cohomology", cohomology)

    def pre_prolongation(self) -> PreProlongation:
        if None in (self.e0, self.alpha, self.gamma, self.theta):
            raise ScenarioError("scenario does not define e0, alpha, gamma and theta")
        return PreProlongation(e0=self.e0, alpha=self.alpha,
                               gamma=self.gamma, theta=self.theta)

    def ladder(self, index: int = 0) -> Prolongation:
        if index >= len(self.ladders):
            raise ScenarioError(f"scenario defines {len(self.ladders)} ladder(s)")
        return self.ladders[index]

    def module(self) -> PiModule:
        if self.cohomology is None:
            raise ScenarioError("scenario has no cohomology section")
        return self.cohomology["module"]


def _row(homs: dict, entry: dict, path: str) -> ShortExtension:
    j = _named(homs, entry["j"], f"{path}.j", "homomorphism")
    p = _named(homs, entry["p"], f"{path}.p", "homomorphism")
    try:
        return make_extension(j, p)
    except ProlongError as exc:
        raise ScenarioError(f"{path} row is invalid: {exc}") from exc


def load_scenario(source) -> Scenario:
    """Parse a scenario from a path, JSON text, or an already-decoded dict.

    A str whose first non-blank character is "{" is JSON text; any other str
    is a path.  Telling them apart touches no file.
    """
    try:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            raw = json.loads(source)
        elif isinstance(source, (str, Path)):
            raw = json.loads(Path(source).read_text())
        else:
            raw = source
    except (ValueError, OSError) as exc:
        raise ScenarioError(f"cannot read scenario {source!r}: {exc}") from exc
    check(raw, SCENARIO)
    mode = raw["mode"]
    if any(key not in raw for key in NEEDS[mode]):
        raise ScenarioError(f"{mode} scenarios need {', '.join(NEEDS[mode])}")

    fixtures = {name: name for name in builtin_names()}
    groups = {key: replace(builtin(_named(fixtures, entry, f"groups.{key}",
                                          "fixture group")), name=key)
              if isinstance(entry, str)
              else group_from_json({**entry, "name": key}, f"groups.{key}")
              for key, entry in raw.get("groups", {}).items()}
    homs = {}
    for key, entry in raw.get("homs", {}).items():
        source = _named(groups, entry["source"], f"homs.{key}.source", "group")
        target = _named(groups, entry["target"], f"homs.{key}.target", "group")
        try:
            homs[key] = Homomorphism(source, target, tuple(entry["map"]))
        except ProlongError as exc:
            raise ScenarioError(f"homomorphism {key!r} is invalid: {exc}") from exc

    e0 = _row(homs, raw["e0"], "e0") if "e0" in raw else None
    alpha, gamma = (_named(homs, raw[key], key, "homomorphism") if key in raw
                    else None for key in ("alpha", "gamma"))
    theta = tuple(tuple(row) for row in raw["theta"]) if "theta" in raw else None

    ladders = []
    for index, entry in enumerate(raw.get("ladders", [])):
        path = f"ladders[{index}]"
        if e0 is None or alpha is None or gamma is None:
            raise ScenarioError(f"{path} needs e0, alpha and gamma")
        beta = _named(homs, entry["beta"], f"{path}.beta", "homomorphism")
        ladders.append(Prolongation(e0=e0, e=_row(homs, entry, path),
                                    alpha=alpha, beta=beta, gamma=gamma))
    if mode == "full-ladder" and not ladders:
        raise ScenarioError("full-ladder scenarios need at least one ladder")

    cohomology = None
    if "cohomology" in raw:
        entry = raw["cohomology"]
        pi = _named(groups, entry["pi"], "cohomology.pi", "group")
        a = _named(groups, entry["a"], "cohomology.a", "group")
        try:
            module = pi_module(pi, a, entry.get("action"))
        except ProlongError as exc:
            raise ScenarioError(f"cohomology module is invalid: {exc}") from exc
        cohomology = {"module": module, "degree": entry.get("degree")}

    return Scenario(mode=mode, groups=groups, homs=homs, e0=e0, alpha=alpha,
                    gamma=gamma, theta=theta, ladders=tuple(ladders),
                    cohomology=cohomology)


def prolongation_to_scenario(p: Prolongation,
                             theta: tuple[tuple[int, ...], ...] | None = None) -> dict:
    """Serialize a full ladder as a self-contained scenario document.

    The output re-validates on load, so built prolongations round-trip.
    """
    groups = {name: {**group_to_json(g), "name": name} for name, g in (
        ("A0", p.e0.a), ("B0", p.e0.b), ("G0", p.e0.g),
        ("A", p.e.a), ("B", p.e.b), ("G", p.e.g))}
    homs = {
        "j0": {"source": "A0", "target": "B0", "map": list(p.e0.j.map)},
        "p0": {"source": "B0", "target": "G0", "map": list(p.e0.p.map)},
        "j": {"source": "A", "target": "B", "map": list(p.e.j.map)},
        "p": {"source": "B", "target": "G", "map": list(p.e.p.map)},
        "alpha": {"source": "A0", "target": "A", "map": list(p.alpha.map)},
        "beta": {"source": "B0", "target": "B", "map": list(p.beta.map)},
        "gamma": {"source": "G0", "target": "G", "map": list(p.gamma.map)},
    }
    doc = {
        "mode": "full-ladder",
        "groups": groups,
        "homs": homs,
        "e0": {"j": "j0", "p": "p0"},
        "alpha": "alpha",
        "gamma": "gamma",
        "ladders": [{"j": "j", "p": "p", "beta": "beta"}],
    }
    if theta is not None:
        doc["theta"] = [list(row) for row in theta]
    return doc
