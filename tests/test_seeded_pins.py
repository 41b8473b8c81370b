"""Seeded CLI output pinned byte for byte.

The golden file holds the `--format json` stdout and exit code of
`obstruction --seed k` and `build --seed k`, k = 0..4, for every shipped
scenario that carries pre-prolongation data (e0, alpha, gamma, theta).  A
seeded run draws a random section and lift, so these pins catch any change
in the order or number of rng draws, which the unseeded answers cannot.

Regenerate (only when a change of the seeded output is intended) with

    PYTHONPATH=src python tests/test_seeded_pins.py
"""

import io
import json
import sys
from pathlib import Path

import pytest

from prolong.cli import run

from oracles import SCENARIOS

GOLDEN = Path(__file__).parent / "data" / "seeded_outputs.json"
SEEDS = range(5)
COMMANDS = ("obstruction", "build")


def _pinned_scenarios() -> list[str]:
    return sorted(p.name for p in SCENARIOS.glob("*.json")
                  if "theta" in json.loads(p.read_text()))


def _clear_caches() -> None:
    """Start from empty functools caches, as a fresh process does.

    The caches key groups by their tables alone, so a warm cache can hand
    back the group names of an earlier, equal scenario.
    """
    for name, module in list(sys.modules.items()):
        if name == "prolong" or name.startswith("prolong."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _invoke(command: str, scenario: str, seed: int) -> tuple[int, str]:
    _clear_caches()
    out = io.StringIO()
    code = run(["--format", "json", command, str(SCENARIOS / scenario),
                "--seed", str(seed)], out=out)
    return code, out.getvalue()


def _cases():
    return [(c, s, k) for s in _pinned_scenarios() for c in COMMANDS for k in SEEDS]


def _key(command: str, scenario: str, seed: int) -> str:
    return f"{command} {scenario} --seed {seed}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("command,scenario,seed", _cases())
def test_seeded_output_is_pinned(golden, command, scenario, seed):
    code, text = _invoke(command, scenario, seed)
    want = golden[_key(command, scenario, seed)]
    assert code == want["code"]
    assert text == json.dumps(want["stdout"], sort_keys=True, indent=2) + "\n"


def _vanishing_cases(golden: dict):
    return [(s, k) for s in _pinned_scenarios() for k in SEEDS
            if "built_scenario" in golden[_key("obstruction", s, k)]["stdout"]]


@pytest.mark.parametrize("scenario,seed", _vanishing_cases(
    json.loads(GOLDEN.read_text())))
def test_obstruction_emits_the_built_covering(scenario, seed):
    """obstruction --seed k prints the covering of the class it reports, which
    is the one build --seed k builds: one lift, one solve."""
    built = [json.loads(_invoke(command, scenario, seed)[1])["built_scenario"]
             for command in COMMANDS]
    assert built[0] == built[1]


if __name__ == "__main__":
    pins = {}
    for case in _cases():
        code, text = _invoke(*case)
        pins[_key(*case)] = {"code": code, "stdout": json.loads(text)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")
