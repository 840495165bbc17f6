import ast
from pathlib import Path

import tuttebound

PACKAGE = Path(tuttebound.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """`from .x import _name` (or from tuttebound.x) in one module; dunder names are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("tuttebound"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}"
                             f"{node.module or ''} import {name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def test_the_private_import_check_sees_one(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .leaftree import t_eff_at, _scaled_pair\n"
                      "from tuttebound.weights import _matrix\nfrom . import __version__\n")
    assert [line.split(": ", 1)[1] for line in _private_imports(module)] == [
        "from .leaftree import _scaled_pair", "from tuttebound.weights import _matrix"]
