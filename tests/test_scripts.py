import ast
import importlib.util
import sys
from pathlib import Path

from prolong.errors import SearchBoundExceeded

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SMALL_SWEEP = ["sweep.py", "--max-kernel", "2", "--max-cokernel", "2",
               "--max-e0", "4", "--max-total", "8"]


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
    paths = [p for p in sorted((ROOT / "src" / "prolong").glob("*.py"))
             if p.name != "__init__.py"] + sorted(SCRIPTS.glob("*.py"))
    assert len(paths) > 10
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


def test_sweep_counts_oracle_unchecked_inputs(monkeypatch, capsys):
    """An input past the covering search's bounds is counted and skips only
    the oracle's checks: the sweep runs to the end, where a disagreement
    would exit 1, with the landscape of a sweep the oracle checks fully."""
    spec = importlib.util.spec_from_file_location("sweep_script", SCRIPTS / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", SMALL_SWEEP)
    sweep.main()
    checked = capsys.readouterr().out
    assert "oracle-unchecked" not in checked

    calls = []
    oracle = sweep.brute_force_coverings

    def bounded(pre):
        calls.append(pre)
        if len(calls) % 3 == 1:
            raise SearchBoundExceeded("middle group order 18 exceeds max_order = 16")
        return oracle(pre)

    monkeypatch.setattr(sweep, "brute_force_coverings", bounded)
    sweep.main()
    out = capsys.readouterr().out
    assert len(calls) == 103
    assert "  oracle-unchecked: 35\n" in out
    assert _landscape(out) == _landscape(checked)
