"""The package needs nothing beyond the standard library, and its start
loads only what ``frobprime test`` uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frobprime"

#: Modules a ``frobprime test`` start must not load: ``dataclasses`` pulls in
#: ``inspect``, and only the experiment subcommands need ``json`` and
#: ``statistics``.
_NOT_AT_START = ("dataclasses", "inspect", "json", "statistics")


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


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        roots = set(_imported_roots(ast.parse(path.read_text(), str(path))))
        assert "dataclasses" not in roots, path.name


def test_a_test_start_loads_no_module_it_does_not_use():
    """A fresh interpreter imports ``frobprime.cli`` and answers ``test 101``;
    of the modules it loads after start-up, none is in ``_NOT_AT_START``."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from frobprime.cli import main\n"
        "code = main(['test', '101'])\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    answer, loaded = proc.stdout.splitlines()
    assert "verdict=probable-prime" in answer
    loaded = set(loaded.split())
    assert "frobprime.cli" in loaded
    assert loaded.isdisjoint(_NOT_AT_START), sorted(loaded.intersection(_NOT_AT_START))
