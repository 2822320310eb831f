"""Rationals become integers by one rule, read off the syntax tree: no
function of the package reads `.denominator` or calls `lcm` except
exactgeom.clear_denominators, which every fraction-free program calls, and
an allow-list of readers that print or convert a single rational (the
rational and decimal formatters and the mpmath conversion of the fiber
tracker).  The acceptance gate (acceptance.py) checks entries by their
denominators and is not scanned."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "air"
UNSCANNED = {"acceptance.py"}
ALLOWED = {
    ("exactgeom.py", "clear_denominators"),
    ("exactgeom.py", "format_rational"),
    ("render.py", "_dec6"),
    ("lefschetz.py", "_critical_core"),
}


def _clearings(tree: ast.AST):
    """(function, line, what) for every `.denominator` read and `lcm` call,
    with the innermost enclosing function's name ("" at module level)."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Attribute) and node.attr == "denominator":
            found.append((fn, node.lineno, ".denominator"))
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "lcm"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "lcm"):
            found.append((fn, node.lineno, "lcm("))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name not in UNSCANNED),
    ids=lambda p: p.name)
def test_denominators_are_cleared_in_one_place(path):
    found = _clearings(ast.parse(path.read_text()))
    assert [f for f in found if (path.name, f[0]) not in ALLOWED] == []


def test_a_hand_cleared_denominator_is_reported():
    tree = ast.parse("def f(row):\n"
                     "    d = lcm(*[x.denominator for x in row])\n"
                     "    return math.lcm(d, 2)\n"
                     "g = q.denominator\n")
    assert _clearings(tree) == [("", 4, ".denominator"), ("f", 2, ".denominator"),
                                ("f", 2, "lcm("), ("f", 3, "lcm(")]
