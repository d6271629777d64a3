"""The failure contract: the exception type alone decides the outcome.

Input outside a hypothesis, shape or size bound raises ConditionViolation
(SearchExhausted for a bounded search that runs out), a value of the
wrong type raises TypeError, and a broken internal invariant raises
AssertionError.  A bare ValueError is left to the command line's parse
helpers, for text that does not parse, as int() and Fraction() do.
"""

import ast
from pathlib import Path

import pytest

import contactsurgery

PACKAGE = Path(contactsurgery.__file__).parent
CONTRACT = {"ConditionViolation", "SearchExhausted", "TypeError", "AssertionError"}
PARSE_HELPERS = {"_parse_range", "_parse_pairs", "_cf"}


def _raises(path):
    """(enclosing top-level function or None, raised name, line) per raise."""
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield owner, getattr(exc, "id", None), node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_names_a_contract_type(path):
    helpers = PARSE_HELPERS if path.name == "cli.py" else set()
    stray = [
        (line, name)
        for owner, name, line in _raises(path)
        if name not in CONTRACT and not (name == "ValueError" and owner in helpers)
    ]
    assert stray == []


def test_value_error_only_in_the_parse_helpers():
    owners = [owner for owner, name, _ in _raises(PACKAGE / "cli.py") if name == "ValueError"]
    assert sorted(owners) == ["_cf", "_cf", "_parse_pairs", "_parse_range"]


def test_every_library_module_is_checked():
    library = ("contfrac", "legendrian", "seifert", "intmat", "homology", "gauge", "lattice")
    for name in library:
        assert list(_raises(PACKAGE / f"{name}.py")), name
