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
# AttributeError belongs to Python's attribute protocol, not to the outcome
# of a call: a record refuses assignment and deletion with it, as a frozen
# dataclass does, and the package root's module __getattr__ (PEP 562)
# answers a name it does not serve with it
ATTRIBUTE_PROTOCOL = {
    "_record.py": ["__delattr__", "__setattr__"],
    "__init__.py": ["__getattr__"],
}


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
    protocol = path.name in ATTRIBUTE_PROTOCOL
    stray = [
        (line, name)
        for owner, name, line in _raises(path)
        if name not in CONTRACT
        and not (name == "ValueError" and owner in helpers)
        and not (name == "AttributeError" and protocol)
    ]
    assert stray == []


@pytest.mark.parametrize("name", sorted(ATTRIBUTE_PROTOCOL))
def test_attribute_error_only_in_the_attribute_protocol(name):
    path = PACKAGE / name
    owners = sorted(
        function.name
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Raise) and node.exc.func.id == "AttributeError"
    )
    assert owners == ATTRIBUTE_PROTOCOL[name]
    raised = [raised for _, raised, _ in _raises(path) if raised == "AttributeError"]
    assert len(raised) == len(owners)


def test_value_error_only_in_the_parse_helpers():
    owners = [owner for owner, name, _ in _raises(PACKAGE / "cli.py") if name == "ValueError"]
    assert sorted(owners) == ["_cf", "_cf", "_parse_pairs", "_parse_range"]


def test_every_library_module_is_checked():
    library = ("contfrac", "legendrian", "seifert", "intmat", "homology", "gauge", "lattice")
    for name in library:
        assert list(_raises(PACKAGE / f"{name}.py")), name
