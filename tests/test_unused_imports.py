"""Every module of the package and of scripts/ uses each name it imports,
so a deletion that leaves an import behind fails here."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(path: pathlib.Path) -> list:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted([*ROOT.glob("src/zicopula/*.py"), *ROOT.glob("scripts/*.py")])
    assert len(paths) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in _unused_imports(path)
    ]
    assert unused == []
