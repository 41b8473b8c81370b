"""The record classes: frozen, compared by value or by identity as declared,
rebuilt and rechecked by `replace`, and importable without `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from prolong import classify, cohomology, snf, sweep
from prolong.classify import are_equivalent, enumerate_classes
from prolong.cohomology import abelian_structure, pi_module
from prolong.errors import NotHomomorphism, NotInjective
from prolong.extensions import (
    choose_section,
    factor_set,
    pullback,
    validate_prolongation,
)
from prolong.fixtures import builtin
from prolong.groups import Homomorphism, center, identity_hom, trivial_hom
from prolong.obstruction import derive, obstruction_class
from prolong.record import Record, replace
from prolong.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "src" / "prolong" / "fixtures" / "scenarios" / "ladder_pair.json"

IDENTITY_CLASSES = {
    "AbelianStructure", "CohomologyGroup", "CrossedProductExtension",
    "EquivalenceWitness", "InducedCrossedModule", "InducedSequence", "InputReport",
    "ObstructionResult", "PreDerived", "ProlongationClass", "Scenario", "SmithForm",
    "_CoboundaryMap", "_Lattice", "_Reduction",
}


@pytest.fixture(scope="module")
def records():
    """One instance of every record class, keyed by class name."""
    scn = load_scenario(SCENARIO)
    pre = scn.pre_prolongation()
    d = derive(pre)
    res = obstruction_class(pre)
    ladder = scn.ladder(0)
    row = d.top
    lattice = res.h3._exact()
    objs = [
        scn, pre, d, d.e0_data, row, d.cm, d.module, res, res.h3, res.cocycle, res.lift,
        res.covering, res.covering.icm, res.covering.icm.induced, ladder,
        enumerate_classes(pre)[0], classify._reduce(ladder),
        choose_section(row), factor_set(row, choose_section(row)),
        are_equivalent(ladder, ladder), pullback(row, identity_hom(row.g)),
        validate_prolongation(ladder), center(row.b), abelian_structure(row.a),
        lattice, snf.smith_normal_form([[2]], track="uv"),
        cohomology._coboundary_map(d.module, 2),
        sweep.SweepConfig(), sweep.check(pre),
        row.a, row.j,
    ]
    return {type(obj).__name__: obj for obj in objs}


def test_every_record_class_is_covered(records):
    classes = set(Record.__subclasses__())
    assert len(classes) == 31
    assert {type(obj) for obj in records.values()} == classes
    assert IDENTITY_CLASSES < set(records)


def test_fields_cannot_be_assigned_or_deleted(records):
    for name, obj in records.items():
        for field in type(obj).__slots__:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError):
                delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_equality_by_value_or_identity(records):
    for name, obj in records.items():
        twin = replace(obj)
        assert twin is not obj and type(twin) is type(obj) and obj == obj
        if name in IDENTITY_CLASSES:
            assert twin != obj and hash(obj) == object.__hash__(obj), name
        else:
            assert twin == obj and hash(twin) == hash(obj), name
            assert repr(twin) == repr(obj), name


def test_groups_equal_up_to_labels_and_name():
    z4 = builtin("Z4")
    renamed = replace(z4, name="C4", labels=("e", "r", "r2", "r3"))
    assert renamed == z4 and hash(renamed) == hash(z4)
    assert renamed.name == "C4" and renamed.labels == ("e", "r", "r2", "r3")
    assert renamed != builtin("V4")


def test_replace_runs_the_constructor_checks(records):
    hom = records["Homomorphism"]
    with pytest.raises(NotHomomorphism):
        replace(hom, map=(1,) + hom.map[1:])   # the identity is not sent to 0
    row = records["ShortExtension"]
    with pytest.raises(NotInjective):
        replace(row, j=trivial_hom(row.a, row.b))
    with pytest.raises(TypeError):
        replace(row, a=row.b)   # a, b and g are read off j and p
    ladder = records["Prolongation"]
    broken = replace(ladder, beta=trivial_hom(ladder.beta.source, ladder.beta.target))
    assert not validate_prolongation(broken).ok


def test_replace_rederives_the_derived_fields(records):
    row = records["ShortExtension"]
    a, b, g = (replace(x, name=x.name + "'") for x in (row.a, row.b, row.g))
    renamed = replace(row, j=Homomorphism(a, b, row.j.map), p=Homomorphism(b, g, row.p.map))
    assert (renamed.a.name, renamed.b.name, renamed.g.name) == (a.name, b.name, g.name)
    assert renamed == row and hash(renamed) == hash(row)
    ladder = records["Prolongation"]
    moved = replace(ladder, e=renamed, alpha=Homomorphism(ladder.alpha.source, a,
                                                          ladder.alpha.map))
    assert moved.e.a is a and moved.e.b is b and moved.e.g is g
    pre = records["PreProlongation"]
    gamma = Homomorphism(pre.gamma.source, replace(pre.g, name="G'"), pre.gamma.map)
    other = replace(pre, gamma=gamma)
    assert other == pre and hash(other) == hash(pre) and other._tags != pre._tags


def test_repr_matches_the_dataclass_repr():
    z2, z3, z4 = builtin("Z2"), builtin("Z3"), builtin("Z4")
    assert repr(Homomorphism(z2, z4, (0, 2))) == (
        "Homomorphism(source=FiniteGroup(Z2), target=FiniteGroup(Z4), map=(0, 2))")
    assert repr(pi_module(z2, z3, ((0, 1, 2), (0, 2, 1)))) == (
        "PiModule(pi=FiniteGroup(Z2), a=FiniteGroup(Z3), "
        "action=((0, 1, 2), (0, 2, 1)))")


def test_records_copy_and_pickle_through_their_constructor(records):
    for name in ("FiniteGroup", "Homomorphism", "ShortExtension", "PreProlongation",
                 "SweepConfig"):
        obj = records[name]
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and repr(twin) == repr(obj), name
    group = pickle.loads(pickle.dumps(records["FiniteGroup"]))
    assert (group.name, group.labels) == (records["FiniteGroup"].name,
                                          records["FiniteGroup"].labels)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Importing the CLI compiles no generated code: neither `dataclasses`
    nor the `inspect` it pulls in is loaded, and no module of the package
    imports `dataclasses`."""
    modules = sorted(p.stem for p in (ROOT / "src" / "prolong").glob("*.py"))
    code = ("import importlib, sys\n"
            "import prolong.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('prolong.' + name)\n"
            "print(sorted({'dataclasses'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]
