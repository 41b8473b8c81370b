import ast
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_check_without_assert():
    """python -O strips assert statements, so every check a script makes is explicit."""
    paths = sorted(SCRIPTS.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts at lines {lines}"
