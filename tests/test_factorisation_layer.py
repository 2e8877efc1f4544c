"""Every factorisation of the package goes through stat_core's layer
(cholesky, solve_each, block_inverse) and every shared array is frozen by
stat_core.read_only, so no other module calls numpy's Cholesky or solve,
catches LinAlgError or sets an array's write flag itself."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _dotted(node) -> str:
    """'np.linalg.solve' for the expression np.linalg.solve; '' otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _bypasses(path: pathlib.Path) -> list:
    """(line, what) of each place the module factors, catches a LAPACK
    failure or freezes an array on its own."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name.endswith(("linalg.cholesky", "linalg.solve")) or name.endswith(".setflags"):
                found.append((node.lineno, name))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for expr in caught:
                if _dotted(expr).split(".")[-1] == "LinAlgError":
                    found.append((node.lineno, f"except {_dotted(expr)}"))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if _dotted(target).endswith("flags.writeable"):
                    found.append((node.lineno, _dotted(target)))
    return sorted(found)


def test_only_stat_core_factors_or_freezes():
    paths = sorted(ROOT.glob("src/zicopula/*.py"))
    assert len(paths) > 10
    stat_core = ROOT / "src/zicopula/stat_core.py"
    assert len(_bypasses(stat_core)) >= 5  # the layer itself is seen
    bypasses = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in paths
        if path != stat_core
        for line, what in _bypasses(path)
    ]
    assert bypasses == []
