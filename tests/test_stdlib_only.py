"""The package needs nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frobprime"


def _imported_roots(tree):
    """The top-level name of every absolute import in ``tree``; relative imports give "frobprime"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "frobprime" if node.level else node.module.partition(".")[0]


def test_every_module_imports_only_the_standard_library_and_frobprime():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 7
    allowed = set(sys.stdlib_module_names) | {"frobprime"}
    for path in modules:
        roots = set(_imported_roots(ast.parse(path.read_text(), str(path))))
        assert roots <= allowed, (path.name, sorted(roots - allowed))


def test_the_import_check_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import sympy\n    from numpy.linalg import norm\n    from . import arith\n")
    assert sorted(_imported_roots(tree)) == ["frobprime", "numpy", "sympy"]
