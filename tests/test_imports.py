"""Every module-level import in the package is used, read off the syntax
tree, importing the package pulls in no numpy, and mpmath waits for the
first superpotential."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "air"


def _unused_imports(tree: ast.Module):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os, sys\nfrom json import dumps as d, loads\n"
                     "print(sys.argv, loads)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "d")]


def test_importing_the_package_leaves_numpy_out():
    code = ("import pkgutil, sys, air, air.cli, air.lefschetz\n"
            "for m in pkgutil.iter_modules(air.__path__):\n"
            "    __import__('air.' + m.name)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_mpmath_is_loaded_on_first_use():
    code = ("import sys, air, air.cli, air.lefschetz, air.acceptance\n"
            "print('mpmath' in sys.modules)\n"
            "air.lefschetz.critical_data(air.lefschetz.Superpotential.of("
            "[0, -1, 0, 1]))\n"
            "print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]
