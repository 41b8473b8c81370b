import json

import pytest

from prolong.fixtures import builtin, builtin_names, group_to_json
from prolong.errors import ScenarioError
from prolong.scenario import group_from_json

from oracles import FIXTURES

EXPECTED_ORDERS = {
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "V4": 4, "Z5": 5, "Z6": 6, "S3": 6,
    "Z7": 7, "Z8": 8, "Z4xZ2": 8, "Z2xZ2xZ2": 8, "D4": 8, "Q8": 8,
    "Z9": 9, "Z3xZ3": 9,
}


def test_registry_covers_all_small_orders():
    assert set(builtin_names()) == set(EXPECTED_ORDERS)
    for name, order in EXPECTED_ORDERS.items():
        assert builtin(name).order == order


def test_every_group_of_order_at_most_8_is_present():
    """One fixture per isomorphism type, checked through order profiles."""
    profiles = {}
    for name in builtin_names():
        g = builtin(name)
        if g.order <= 8:
            profiles.setdefault(g.order, set()).add(g.order_profile())
    counts = {n: len(p) for n, p in profiles.items()}
    # numbers of isomorphism types: 1,1,1,2,1,2,1,5
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}


def test_shipped_json_matches_builders():
    for name in builtin_names():
        path = FIXTURES / f"{name}.json"
        assert path.exists(), f"missing fixture file {name}"
        loaded = group_from_json(json.loads(path.read_text()))
        built = builtin(name)
        assert loaded.table == built.table
        assert loaded.labels == built.labels


def test_q8_structure():
    q8 = builtin("Q8")
    assert q8.label(1) == "-1"
    minus_one = 1
    assert all(q8.mul(x, x) in (0, minus_one) for x in q8.elements())
    assert q8.order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)


def test_group_json_round_trip():
    for name in ("S3", "D4", "Z3xZ3"):
        g = builtin(name)
        again = group_from_json(group_to_json(g))
        assert again.table == g.table and again.labels == g.labels


def test_group_json_rejects_bad_order():
    obj = group_to_json(builtin("Z2"))
    obj["order"] = 3
    with pytest.raises(ScenarioError):
        group_from_json(obj)


def test_unknown_fixture():
    with pytest.raises(ScenarioError):
        builtin("Z99")


@pytest.mark.parametrize("labels", [5, "ex", ["e"], ["e", "x", "y"]])
def test_group_json_rejects_bad_labels(labels):
    obj = {"name": "B0", "table": [[0, 1], [1, 0]], "labels": labels}
    with pytest.raises(ScenarioError, match="'B0'"):
        group_from_json(obj)
