#!/usr/bin/env python3
"""Regenerate the shipped fixture JSON files from the programmatic builders.

Run from the repository root:  python scripts/gen_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

from prolong.fixtures import builtin, builtin_names, group_to_json

OUT = Path(__file__).resolve().parent.parent / "src" / "prolong" / "fixtures"


def render(obj: dict) -> str:
    """The text of a fixture file holding obj."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def scenario_canonical() -> dict:
    """The order-4 classification scenario: kernel Z2 over a trivial base quotient."""
    return {
        "mode": "pre-prolongation",
        "groups": {"A0": "Z2", "B0": "Z2", "G0": "Z1", "A": "Z2", "G": "Z2"},
        "homs": {
            "j0": {"source": "A0", "target": "B0", "map": [0, 1]},
            "p0": {"source": "B0", "target": "G0", "map": [0, 0]},
            "alpha": {"source": "A0", "target": "A", "map": [0, 1]},
            "gamma": {"source": "G0", "target": "G", "map": [0]},
        },
        "e0": {"j": "j0", "p": "p0"},
        "alpha": "alpha",
        "gamma": "gamma",
        "theta": [[0, 1], [0, 1]],
    }


def scenario_inversion_action() -> dict:
    """Kernel Z3 with the quotient acting by inversion; builds a dicyclic group."""
    ident = list(range(6))
    inv = [0, 5, 4, 3, 2, 1]
    return {
        "mode": "pre-prolongation",
        "groups": {"A0": "Z3", "B0": "Z6", "G0": "Z2", "A": "Z3", "G": "Z4"},
        "homs": {
            "j0": {"source": "A0", "target": "B0", "map": [0, 2, 4]},
            "p0": {"source": "B0", "target": "G0", "map": [0, 1, 0, 1, 0, 1]},
            "alpha": {"source": "A0", "target": "A", "map": [0, 1, 2]},
            "gamma": {"source": "G0", "target": "G", "map": [0, 2]},
        },
        "e0": {"j": "j0", "p": "p0"},
        "alpha": "alpha",
        "gamma": "gamma",
        "theta": [ident, inv, ident, inv],
    }


def scenario_obstructed() -> dict:
    """A pre-prolongation whose obstruction class is the nonzero element of H^3."""
    ident = [0, 1, 2, 3]
    inv = [0, 3, 2, 1]
    return {
        "mode": "pre-prolongation",
        "groups": {"A0": "Z2", "B0": "Z4", "G0": "Z2", "A": "Z2", "G": "Z4"},
        "homs": {
            "j0": {"source": "A0", "target": "B0", "map": [0, 2]},
            "p0": {"source": "B0", "target": "G0", "map": [0, 1, 0, 1]},
            "alpha": {"source": "A0", "target": "A", "map": [0, 1]},
            "gamma": {"source": "G0", "target": "G", "map": [0, 2]},
        },
        "e0": {"j": "j0", "p": "p0"},
        "alpha": "alpha",
        "gamma": "gamma",
        "theta": [ident, inv, ident, inv],
    }


def scenario_klein_ladder() -> dict:
    """The Klein-form covering of the canonical scenario as a full ladder."""
    doc = scenario_canonical()
    doc["mode"] = "full-ladder"
    doc["groups"]["B"] = "V4"
    doc["homs"]["j"] = {"source": "A", "target": "B", "map": [0, 2]}
    doc["homs"]["p"] = {"source": "B", "target": "G", "map": [0, 1, 0, 1]}
    doc["homs"]["beta"] = {"source": "B0", "target": "B", "map": [0, 2]}
    doc["ladders"] = [{"j": "j", "p": "p", "beta": "beta"}]
    return doc


def scenario_ladder_pair() -> dict:
    """Klein-form and cyclic-form coverings side by side (inequivalent)."""
    doc = scenario_klein_ladder()
    doc["groups"]["B2"] = "Z4"
    doc["homs"]["j2"] = {"source": "A", "target": "B2", "map": [0, 2]}
    doc["homs"]["p2"] = {"source": "B2", "target": "G", "map": [0, 1, 0, 1]}
    doc["homs"]["beta2"] = {"source": "B0", "target": "B2", "map": [0, 2]}
    doc["ladders"].append({"j": "j2", "p": "p2", "beta": "beta2"})
    return doc


def scenario_klein_quotient() -> dict:
    """Kernel Z2 over a Klein-four target quotient: eight covering classes."""
    return {
        "mode": "pre-prolongation",
        "groups": {"A0": "Z2", "B0": "Z2", "G0": "Z1", "A": "Z2", "G": "V4"},
        "homs": {
            "j0": {"source": "A0", "target": "B0", "map": [0, 1]},
            "p0": {"source": "B0", "target": "G0", "map": [0, 0]},
            "alpha": {"source": "A0", "target": "A", "map": [0, 1]},
            "gamma": {"source": "G0", "target": "G", "map": [0]},
        },
        "e0": {"j": "j0", "p": "p0"},
        "alpha": "alpha",
        "gamma": "gamma",
        "theta": [[0, 1], [0, 1], [0, 1], [0, 1]],
    }


def scenario_cohomology() -> dict:
    return {
        "mode": "cohomology-only",
        "groups": {"Pi": "Z2", "A": "Z2"},
        "cohomology": {"pi": "Pi", "a": "A", "action": None, "degree": 3},
    }


def documents() -> dict[Path, dict]:
    """Every shipped fixture file, by path, with the document it holds."""
    docs = {OUT / f"{name}.json": group_to_json(builtin(name))
            for name in builtin_names()}
    scenarios = {
        "canonical_order4": scenario_canonical(),
        "inversion_action": scenario_inversion_action(),
        "obstructed": scenario_obstructed(),
        "klein_ladder": scenario_klein_ladder(),
        "ladder_pair": scenario_ladder_pair(),
        "klein_quotient": scenario_klein_quotient(),
        "cohomology_z2": scenario_cohomology(),
    }
    docs.update({OUT / "scenarios" / f"{name}.json": doc
                 for name, doc in scenarios.items()})
    return docs


def main() -> None:
    for path, obj in documents().items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(obj))
        print("wrote", path)


if __name__ == "__main__":
    main()
