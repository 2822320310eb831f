"""The exact modules hold no floating point, read off the syntax tree: no
float or complex literal and no float(...) or complex(...) call outside the
numerical fiber tracker (lefschetz.py) and the acceptance gate
(acceptance.py), which holds time budgets, random coin flips and the
tracker's step sizes."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "air"
FLOAT_MODULES = {"lefschetz.py", "acceptance.py"}


def _floats(tree: ast.AST):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"{node.func.id}("))
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name not in FLOAT_MODULES),
    ids=lambda p: p.name)
def test_no_floats_in_exact_modules(path):
    assert _floats(ast.parse(path.read_text())) == []


def test_a_float_is_reported():
    tree = ast.parse("x = 0.5\ny = float('1')\nz = 2j + complex(1, 2)\n"
                     "w = int('3') + 4\n")
    assert _floats(tree) == [(1, "0.5"), (2, "float("), (3, "2j"),
                             (3, "complex(")]
