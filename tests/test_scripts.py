import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import prolong.sweep
from prolong.errors import OrderBoundExceeded, SearchBoundExceeded
from prolong.obstruction import obstruction_class
from prolong.sweep import SweepConfig, generate_pre_prolongations

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SMALL_SWEEP = ["sweep.py", "--max-kernel", "2", "--max-cokernel", "2",
               "--max-e0", "4", "--max-total", "8"]
SMALL_CONFIG = SweepConfig(max_kernel=2, max_cokernel=2, max_e0=4, max_total=8)


def test_scripts_check_without_assert():
    """python -O strips assert statements, so every check a script or the
    library makes is explicit."""
    library = sorted((ROOT / "src" / "prolong").glob("*.py"))
    paths = sorted(SCRIPTS.glob("*.py")) + library
    assert paths and library
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts at lines {lines}"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_no_unused_imports():
    paths = ([p for p in sorted((ROOT / "src" / "prolong").glob("*.py"))
              if p.name != "__init__.py"] + sorted(SCRIPTS.glob("*.py"))
             + sorted((ROOT / "tests").glob("*.py")))
    assert len(paths) > 25
    unused = {p.name: names for p in paths if (names := unused_imports(p))}
    assert not unused


def test_fixture_files_match_their_generator():
    """scripts/gen_fixtures.py reproduces every shipped group and scenario
    file byte for byte, and ships no other."""
    spec = importlib.util.spec_from_file_location("gen_fixtures",
                                                  SCRIPTS / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs = gen.documents()
    assert sorted(docs) == sorted(gen.OUT.rglob("*.json"))
    for path, doc in docs.items():
        assert path.read_text() == gen.render(doc), path.name


def _landscape(out: str) -> list[str]:
    return [line for line in out.splitlines()
            if not line.startswith(("generated", "processed", "  oracle-unchecked"))]


def _sweep_script(monkeypatch):
    """scripts/sweep.py as a module, set to run the small sweep."""
    spec = importlib.util.spec_from_file_location("sweep_script", SCRIPTS / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", SMALL_SWEEP)
    return sweep


def test_sweep_help_lists_each_bound_with_its_default(monkeypatch, capsys):
    """The flags and their defaults are read off SweepConfig."""
    sweep = _sweep_script(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["sweep.py", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        sweep.main()
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in (("--max-kernel", 3), ("--max-cokernel", 3),
                          ("--max-e0", 8), ("--max-total", 16)):
        assert f"{flag} N default: {default}" in text, flag


def test_sweep_counts_oracle_unchecked_inputs(monkeypatch, capsys):
    """An input past the covering search's bounds is counted and skips only
    the oracle's checks: the sweep runs to the end, where a disagreement
    would exit 1, with the landscape of a sweep the oracle checks fully."""
    sweep = _sweep_script(monkeypatch)
    sweep.main()
    checked = capsys.readouterr().out
    assert "oracle-unchecked" not in checked

    calls, reports = [], []
    oracle, check = prolong.sweep.brute_force_coverings, sweep.check
    bound = "middle group order 18 exceeds max_order = 16"

    def bounded(pre, **bounds):
        calls.append(pre)
        if len(calls) % 3 == 1:
            raise SearchBoundExceeded(bound)
        return oracle(pre, **bounds)

    def recorded(pre):
        reports.append(check(pre))
        return reports[-1]

    monkeypatch.setattr(prolong.sweep, "brute_force_coverings", bounded)
    monkeypatch.setattr(sweep, "check", recorded)
    sweep.main()
    out = capsys.readouterr().out
    assert len(calls) == 103
    assert "  oracle-unchecked: 35\n" in out
    assert _landscape(out) == _landscape(checked)
    assert [r.unchecked for r in reports if r.coverings is None] == [bound] * 35


@pytest.mark.parametrize("name, error, bound", [
    ("all_homomorphisms", SearchBoundExceeded,
     "homomorphism search space 9 exceeds MAX_HOM_CANDIDATES = 8"),
    ("automorphism_group_table", OrderBoundExceeded,
     "group order 4 exceeds MAX_AUT_ORDER = 3"),
])
def test_sweep_fails_on_a_generation_bound(monkeypatch, capsys, name, error, bound):
    """A bound hit by the theta search (all_homomorphisms with fixed values)
    or the automorphism search stops generation with the bound's error, and
    the script prints its message to stderr and exits 1; no input is dropped
    in silence."""
    search = getattr(prolong.sweep, name)

    def bounded(*groups, **options):
        if name == "automorphism_group_table" or "fixed" in options:
            raise error(bound)
        return search(*groups, **options)

    monkeypatch.setattr(prolong.sweep, name, bounded)
    with pytest.raises(error, match=bound):
        generate_pre_prolongations(SMALL_CONFIG)
    with pytest.raises(SystemExit) as exit_info:
        _sweep_script(monkeypatch).main()
    assert exit_info.value.code == 1
    assert capsys.readouterr() == ("", f"generation: {bound}\n")


def _no_coverings(oracle):
    return lambda pre, **bounds: ()


def _drop_a_class(enumerate_classes):
    return lambda pre: enumerate_classes(pre)[1:]


def _flip(is_central):
    return lambda ext: not is_central(ext)


@pytest.mark.parametrize("kind, name, broken", [
    ("existence", "brute_force_coverings", _no_coverings),
    ("class count", "enumerate_classes", _drop_a_class),
    ("centrality", "is_central", _flip),
])
def test_sweep_names_each_disagreement(monkeypatch, capsys, kind, name, broken):
    """With one collaborator of the check broken, the first vanishing input
    of the small sweep disagrees in that kind, and the script names its index
    and the kind on stderr and exits 1."""
    pres = generate_pre_prolongations(SMALL_CONFIG)
    idx = next(i for i, pre in enumerate(pres) if obstruction_class(pre).vanishes)
    monkeypatch.setattr(prolong.sweep, name, broken(getattr(prolong.sweep, name)))
    assert prolong.sweep.check(pres[idx]).disagreement.startswith(f"{kind}: ")
    with pytest.raises(SystemExit) as exit_info:
        _sweep_script(monkeypatch).main()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.startswith(f"sweep index {idx}: {kind}: ")
