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


def _unused_imports(path: Path) -> list[str]:
    """Names one module imports and never reads; __future__ features aside."""
    module = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:    # `import a.b` binds a
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports the package's public names for its users, not itself.
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 10
    assert [line for path in modules for line in _unused_imports(path)] == []


def test_the_unused_import_check_sees_one(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\nimport json as js\n"
                      "from .weights import INF, is_finite, parallel\n\n"
                      "def f(x) -> js.JSONDecoder:\n    return os.path.join(x) if is_finite(x) else INF\n")
    assert _unused_imports(module) == ["m.py:4: parallel"]
