"""Scenario documents: one JSON file naming groups, maps and a mode.

Modes: "pre-prolongation" (e0 + alpha + gamma + theta), "full-ladder"
(adds one or two complete bottom rows) and "cohomology-only" (a module and a
degree).  Groups may be given inline as tables or by fixture name; all tables
validate on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ProlongError, ScenarioError
from .extensions import Prolongation, ShortExtension, make_extension
from .fixtures import group_from_json, group_to_json, resolve_group
from .groups import FiniteGroup, Homomorphism
from .cohomology import PiModule, pi_module
from .obstruction import PreProlongation

MODES = ("pre-prolongation", "full-ladder", "cohomology-only")


@dataclass(frozen=True, eq=False)
class Scenario:
    mode: str
    groups: dict[str, FiniteGroup]
    homs: dict[str, Homomorphism]
    e0: ShortExtension | None
    alpha: Homomorphism | None
    gamma: Homomorphism | None
    theta: tuple[tuple[int, ...], ...] | None
    ladders: tuple[dict, ...] = ()
    cohomology: dict | None = None

    def pre_prolongation(self) -> PreProlongation:
        if self.e0 is None or self.alpha is None or self.gamma is None:
            raise ScenarioError("scenario does not define e0, alpha and gamma")
        if self.theta is None:
            raise ScenarioError("scenario does not define theta")
        return PreProlongation(e0=self.e0, alpha=self.alpha,
                               gamma=self.gamma, theta=self.theta)

    def ladder(self, index: int = 0) -> Prolongation:
        if index >= len(self.ladders):
            raise ScenarioError(f"scenario defines {len(self.ladders)} ladder(s)")
        entry = self.ladders[index]
        ext = make_extension(entry["j"], entry["p"])
        if self.e0 is None or self.alpha is None or self.gamma is None:
            raise ScenarioError("a full ladder needs e0, alpha and gamma")
        return Prolongation(e0=self.e0, e=ext, alpha=self.alpha,
                            beta=entry["beta"], gamma=self.gamma)

    def module(self) -> PiModule:
        if self.cohomology is None:
            raise ScenarioError("scenario has no cohomology section")
        return self.cohomology["module"]


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where} is missing the {key!r} field")
    return obj[key]


def _parse_groups(obj) -> dict[str, FiniteGroup]:
    groups = {}
    for name, entry in obj.items():
        if isinstance(entry, str):
            g = resolve_group(entry)
        elif isinstance(entry, dict):
            g = group_from_json({**entry, "name": name})
        else:
            raise ScenarioError(f"group {name!r} must be a fixture name or a table")
        groups[name] = FiniteGroup(order=g.order, table=g.table, inv=g.inv,
                                   labels=g.labels, name=name)
    return groups


def _parse_homs(obj, groups) -> dict[str, Homomorphism]:
    homs = {}
    for name, entry in obj.items():
        src = _require(entry, "source", f"homomorphism {name!r}")
        tgt = _require(entry, "target", f"homomorphism {name!r}")
        if src not in groups or tgt not in groups:
            raise ScenarioError(f"homomorphism {name!r} references unknown groups")
        try:
            homs[name] = Homomorphism(groups[src], groups[tgt],
                                      tuple(_require(entry, "map", f"hom {name!r}")))
        except ProlongError as exc:
            raise ScenarioError(f"homomorphism {name!r} is invalid: {exc}") from exc
    return homs


def _hom_ref(name, homs, where) -> Homomorphism:
    if name not in homs:
        raise ScenarioError(f"{where} references unknown homomorphism {name!r}")
    return homs[name]


def _parse_theta(raw) -> tuple[tuple[int, ...], ...]:
    """theta as a table of ints; JSON floats and booleans are refused."""
    if not isinstance(raw, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in raw):
        raise ScenarioError("theta must be a list of lists of integers")
    for g, row in enumerate(raw):
        for x, v in enumerate(row):
            if type(v) is not int:
                raise ScenarioError(f"theta[{g}][{x}] must be an integer, got {v!r}")
    return tuple(tuple(row) for row in raw)


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
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    mode = _require(raw, "mode", "scenario")
    if mode not in MODES:
        raise ScenarioError(f"unknown mode {mode!r}; expected one of {MODES}")
    groups = _parse_groups(raw.get("groups", {}))
    homs = _parse_homs(raw.get("homs", {}), groups)

    e0 = alpha = gamma = None
    theta = None
    if "e0" in raw:
        entry = raw["e0"]
        try:
            e0 = make_extension(_hom_ref(_require(entry, "j", "e0"), homs, "e0"),
                                _hom_ref(_require(entry, "p", "e0"), homs, "e0"))
        except ProlongError as exc:
            raise ScenarioError(f"e0 row is invalid: {exc}") from exc
    if "alpha" in raw:
        alpha = _hom_ref(raw["alpha"], homs, "alpha")
    if "gamma" in raw:
        gamma = _hom_ref(raw["gamma"], homs, "gamma")
    if "theta" in raw:
        theta = _parse_theta(raw["theta"])

    ladders = []
    for idx, entry in enumerate(raw.get("ladders", [])):
        j = _hom_ref(_require(entry, "j", f"ladder {idx}"), homs, f"ladder {idx}")
        p = _hom_ref(_require(entry, "p", f"ladder {idx}"), homs, f"ladder {idx}")
        beta = _hom_ref(_require(entry, "beta", f"ladder {idx}"), homs, f"ladder {idx}")
        try:
            make_extension(j, p)
        except ProlongError as exc:
            raise ScenarioError(f"ladder {idx} row is invalid: {exc}") from exc
        ladders.append({"j": j, "p": p, "beta": beta})

    cohomology = None
    if "cohomology" in raw:
        entry = raw["cohomology"]
        pi_name = _require(entry, "pi", "cohomology section")
        a_name = _require(entry, "a", "cohomology section")
        if pi_name not in groups or a_name not in groups:
            raise ScenarioError("cohomology section references unknown groups")
        try:
            module = pi_module(groups[pi_name], groups[a_name], entry.get("action"))
        except ProlongError as exc:
            raise ScenarioError(f"cohomology module is invalid: {exc}") from exc
        cohomology = {"module": module, "degree": entry.get("degree")}

    if mode == "pre-prolongation":
        if e0 is None or alpha is None or gamma is None or theta is None:
            raise ScenarioError(
                "pre-prolongation scenarios need e0, alpha, gamma and theta")
    if mode == "full-ladder" and not ladders:
        raise ScenarioError("full-ladder scenarios need at least one ladder")
    if mode == "cohomology-only" and cohomology is None:
        raise ScenarioError("cohomology-only scenarios need a cohomology section")

    return Scenario(mode=mode, groups=groups, homs=homs, e0=e0, alpha=alpha,
                    gamma=gamma, theta=theta, ladders=tuple(ladders),
                    cohomology=cohomology)


def prolongation_to_scenario(p: Prolongation,
                             theta: tuple[tuple[int, ...], ...] | None = None) -> dict:
    """Serialize a full ladder as a self-contained scenario document.

    The output re-validates on load, so built prolongations round-trip.
    """
    def gjson(g: FiniteGroup, name: str) -> dict:
        obj = group_to_json(g)
        obj["name"] = name
        return obj

    groups = {
        "A0": gjson(p.e0.a, "A0"), "B0": gjson(p.e0.b, "B0"),
        "G0": gjson(p.e0.g, "G0"), "A": gjson(p.e.a, "A"),
        "B": gjson(p.e.b, "B"), "G": gjson(p.e.g, "G"),
    }
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
