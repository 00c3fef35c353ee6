"""No function body in the package writes a bound or tolerance out as a
literal: each lives in one named constant, and every detail string is
formatted from it."""
import ast
import re
from pathlib import Path

import qcorr

BOUND_TEXT = re.compile(r"\de-\d")


def bound_literals(source: str) -> list:
    """(line, literal) for each small float or bound-like string in a function
    body; docstrings are skipped."""
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {id(f.body[0].value) for f in functions if ast.get_docstring(f) is not None}
    found = {}  # keyed by node: a nested function's body is walked twice
    for f in functions:
        for node in (n for stmt in f.body for n in ast.walk(stmt)):
            if not isinstance(node, ast.Constant) or id(node) in docstrings:
                continue
            value = node.value
            if ((isinstance(value, float) and 0.0 < abs(value) < 1e-2)
                    or (isinstance(value, str) and BOUND_TEXT.search(value))):
                found[id(node)] = (node.lineno, repr(value))
    return sorted(found.values())


def test_no_bound_literals_in_function_bodies():
    sources = sorted(Path(qcorr.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        assert bound_literals(path.read_text(encoding="utf-8")) == [], path.name


def test_bound_literals_finds_what_it_should():
    source = '''
TOL = 1e-4

def check(x):
    """Passes within 1e-4."""
    def inner():
        """Nested, 2e-3."""
        return -1e-6
    return x <= 1e-4 and x > 0.5 and -x < 1e-4, f"x = {x:.2e} (tol 1e-4)"
'''
    assert bound_literals(source) == [
        (8, "1e-06"), (9, "' (tol 1e-4)'"), (9, "0.0001"), (9, "0.0001")]
