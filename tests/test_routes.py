"""Each second route shares no arithmetic with the route it checks.

A certificate here is checked by two routes to the same number, and the
check is worth something only when the routes share no arithmetic: a
wrong step that both routes run agrees with itself.  These tests read
the package's call graph from the AST of src/contactsurgery, with no
import and no run, and assert that the transitive callees of the two
routes of each pair meet only in that pair's list of shared pieces,
each with the reason it is safe to share.  The same graph shows that no
private function is left without a caller, and that every public name
is run by a subcommand or a second route, or is listed with the
ROADMAP item that keeps it.

The graph's nodes are the module-level functions, classes and names of
each module and the methods and properties of each class, a class
standing for its dunder methods, its bases and its class keywords too,
since Python calls or reads those itself.  A node refers to every
package name its code loads, resolved through the module's own
definitions and its `from .x import y` bindings, those at module level
and those inside the node's own code (cli imports the lazy layers in
the builders that run them), so a function passed as a value counts as
called; a local variable hides a module name of the same spelling.  An
attribute read `x.name` refers to every method or property called
`name` in the package, whatever x is.  Annotations are left out: they
are never evaluated.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from contactsurgery._record import Record

SRC = Path(__file__).resolve().parent.parent / "src" / "contactsurgery"
# the package root and __main__ only re-export and run cli.main
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(SRC.glob("*.py"))
    if not path.stem.startswith("__")
}

# raising an exception computes nothing, and the records' base only
# compares, hashes and prints the fields it is given, so every route may
# share them
FREE_TO_SHARE = {"errors.ConditionViolation", "errors.SearchExhausted", "_record.Record"}


class _References(ast.NodeVisitor):
    """The names loaded and the attributes read under a node, annotations left out."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attributes: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        pass

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        defaults = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
        for child in (*node.decorator_list, *defaults, *node.body):
            self.visit(child)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)


def _bound_locally(function: ast.FunctionDef) -> set[str]:
    """The parameters, assigned names and nested definitions of a function."""
    bound = set()
    for node in ast.walk(function):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not function:
            bound.add(node.name)
    return bound


def _relative_imports(statements) -> dict[str, str]:
    """The names that the `from .x import y` statements among these bind, each to 'x.y'."""
    return {
        alias.asname or alias.name: f"{statement.module}.{alias.name}"
        for statement in statements
        if isinstance(statement, ast.ImportFrom) and statement.level == 1
        for alias in statement.names
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def call_graph() -> tuple[dict[str, str], dict[str, set[str]]]:
    """(kinds, edges) over the nodes 'module.name' and 'module.Class.name'.

    kinds maps each node to "function", "class", "method" or "name" (a
    module-level assignment); edges maps it to the nodes its code refers
    to.
    """
    kinds: dict[str, str] = {}
    bodies: dict[str, tuple[str, list[ast.AST], set[str]]] = {}  # node -> (module, code, locals)
    scopes: dict[str, dict[str, str]] = {}
    methods: dict[str, set[str]] = {}
    for module, tree in TREES.items():
        scope = scopes[module] = _relative_imports(tree.body)
        for statement in tree.body:
            if isinstance(statement, ast.FunctionDef):
                node = scope[statement.name] = f"{module}.{statement.name}"
                kinds[node] = "function"
                bodies[node] = (module, [statement], _bound_locally(statement))
            elif isinstance(statement, ast.ClassDef):
                node = scope[statement.name] = f"{module}.{statement.name}"
                kinds[node] = "class"
                own = [*statement.bases, *(keyword.value for keyword in statement.keywords)]
                local = set()
                for item in statement.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        method = f"{node}.{item.name}"
                        kinds[method] = "method"
                        bodies[method] = (module, [item], _bound_locally(item))
                        methods.setdefault(item.name, set()).add(method)
                    else:
                        own.append(item)
                        if isinstance(item, ast.FunctionDef):
                            local |= _bound_locally(item)
                bodies[node] = (module, own, local)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        node = scope[target.id] = f"{module}.{target.id}"
                        kinds[node] = "name"
                        bodies[node] = (module, [statement.value], set())
    edges = {}
    for node, (module, code, local) in bodies.items():
        references = _References()
        for part in code:
            references.visit(part)
        scope = {**scopes[module], **_relative_imports(n for part in code for n in ast.walk(part))}
        edges[node] = {
            scope[name] for name in references.names - local if name in scope and scope[name] in kinds
        }
        for attribute in references.attributes:
            edges[node] |= methods.get(attribute, set())
    return kinds, edges


KINDS, EDGES = call_graph()


def reach(roots, cut=frozenset()) -> set[str]:
    """The roots and every node they reach, not following the edges in cut."""
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(callee for callee in EDGES[node] if (node, callee) not in cut)
    return seen


# name -> (first route's roots, second route's roots, edges not followed,
# {shared node: why sharing it leaves the routes independent})
ROUTE_PAIRS = {
    "omega_red long vs closed": (
        ("gauge.omega_red_long",),
        ("gauge.omega_red_closed",),
        (),
        {
            "homology.check_admissible": "the input guard of both; it computes no term",
        },
    ),
    "H1 order of mu vs mu_order": (
        (
            "homology.presentation",
            "homology.homology",
            "homology.IntegralPresentation.mu_index",
            "homology.FirstHomology.order",
        ),
        ("homology.mu_order",),
        (),
        {
            "homology._check_presentable": "the input guard of both; it computes nothing",
        },
    ),
    "chain lemma vs search": (
        ("lattice.lambda_q_certificate",),
        ("lattice.lambda_q", "lattice.embeds_in_diagonal"),
        (),
        {
            # one wrong star would feed both routes, so lambda_q's Gram is
            # checked against the hand-built path in test_lattice.py
            # (test_matches_the_hand_built_path)
            "lattice._lambda_star": "writes down lambda_q's star, the one input of both",
            "homology.presentation": "builds that star, reached only through _lambda_star",
            "homology._check_presentable": "presentation's input guard",
            "homology.IntegralPresentation": "the star's record: centre framing and legs",
            "seifert.SeifertInvariants": "the star's Seifert invariants",
            "contfrac._neg_cf_entries": "expands each leg of that star",
        },
    ),
    "Smith product vs the legs' |E|": (
        ("intmat._smith_form_mod",),
        ("homology._fiber_block",),
        (),
        {},
    ),
    "witness modulus // p vs _validate_witness": (
        ("homology.distinct_witness",),
        ("homology._validate_witness",),
        # the construction hands its witness to the check, and reads nothing back
        {("homology.distinct_witness", "homology._validate_witness")},
        {},
    ),
    # the inverse recovers the tuple from its coefficients (the round trip
    # of test_seifert.py and test_acceptance.py)
    "coefficient dictionary vs its inverse": (
        ("seifert.coefficients_from_seifert",),
        ("seifert.seifert_from_coefficients",),
        (),
        {},
    ),
    # normalize undoes any sequence of twists (test_acceptance.py)
    "normalize vs Rolfsen twists": (
        ("seifert.normalize",),
        ("seifert.rolfsen_twist",),
        (),
        {
            "seifert.SeifertInvariants": "the record both return; its guard computes no invariant",
        },
    ),
}


@pytest.mark.parametrize("pair", sorted(ROUTE_PAIRS))
def test_routes_meet_only_in_their_shared_pieces(pair):
    first, second, cut, shared = ROUTE_PAIRS[pair]
    assert set(first) | set(second) | set(shared) <= set(KINDS)
    meet = {
        node
        for node in reach(first, cut) & reach(second, cut)
        if KINDS[node] != "name" and node not in FREE_TO_SHARE
    }
    assert meet == set(shared)


def test_the_graph_sees_calls_by_value_through_tables_and_by_attribute():
    assert "homology._is_prime" in EDGES["homology.distinct_witness"]  # filter(_is_prime, ...)
    assert "cli._SUBCOMMANDS" in EDGES["cli._build_parser"]
    assert "cli._report_passed" in EDGES["cli._SUBCOMMANDS"]
    assert "homology.FirstHomology.order" in EDGES["cli.build_report"]  # h.order(...)
    assert "homology._leg_end" in EDGES["homology.FirstHomology._vertex"]
    assert "errors.ConditionViolation" in EDGES["seifert.SeifertInvariants"]  # __init__
    # annotations are never evaluated
    assert "seifert.SeifertInvariants" not in EDGES["homology.mu_order"]


def test_the_graph_reads_class_bases():
    """Each of the 13 record classes refers to the base it inherits from."""
    for layer in TREES:
        importlib.import_module(f"contactsurgery.{layer}")
    records = {f"{c.__module__.split('.')[1]}.{c.__name__}" for c in Record.__subclasses__()}
    assert len(records) == 13
    assert {node for node in KINDS if "_record.Record" in EDGES[node]} == records


def test_the_graph_binds_function_level_imports():
    """cli imports gauge, lattice and legendrian in the builders that run them."""
    for callee in (
        "gauge.omega_red_long",
        "gauge.omega_red_closed",
        "gauge.d3_certificate",
        "gauge.moy_check",
    ):
        assert callee in EDGES["cli.build_report"]
    assert "legendrian.convert" in EDGES["cli._diagram_summary"]
    assert {"gauge._omega_routes_agree", "gauge._moy_holds"} <= EDGES["cli.run_sweep"]
    assert "lattice.nonfillability_obstruction" in EDGES["cli._obstruction"]
    # a function-level import binds its names in that function alone
    assert "gauge.omega_red_long" not in EDGES["cli.run_sweep"]
    assert "legendrian.convert" not in EDGES["cli.build_report"]
    # and cli imports no lazy layer at module level
    lazy = {"gauge", "lattice", "legendrian"}
    assert not {target.split(".")[0] for target in _relative_imports(TREES["cli"].body).values()} & lazy


def _public_surface() -> set[str]:
    """Every name in a module's __all__ (cli.main among them), and every
    public method or property of a class among those."""
    public = set()
    for module, tree in TREES.items():
        for statement in tree.body:
            if isinstance(statement, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets
            ):
                public.update(f"{module}.{name}" for name in ast.literal_eval(statement.value))
    public.update(
        node
        for node, kind in KINDS.items()
        if kind == "method"
        and node.rsplit(".", 1)[0] in public
        and not node.rsplit(".", 1)[1].startswith("_")
    )
    return public


PUBLIC = _public_surface()

# The run paths start at cli.main, whose parser reaches every builder in
# cli._SUBCOMMANDS, and at the second route of each pair above.
RUN_ROOTS = ("cli.main", *(node for _, second, _, _ in ROUTE_PAIRS.values() for node in second))

# public names on no run path, each with the ROADMAP item that keeps it
NOT_ON_A_RUN_PATH = {
    "legendrian.enumerate_choices": "the stabilization choices whose d3 item 6 computes",
    "legendrian.smooth_coefficient": "the diagonal of item 6's linking matrix",
    "legendrian.StabilizationChoice": "the record enumerate_choices returns (item 6)",
    "lattice.DiagonalEmbedding.pairing": "item 5 re-checks an embedding by its dots",
    "homology.FirstHomology.class_map": "pinned by homology_golden.json; item 6 reads its rows",
    "homology.FirstHomology.free_map": "pinned by homology_golden.json; item 6 reads its rows",
}


def test_every_public_name_is_on_a_run_path_or_listed():
    """Each public name is reached from cli.main or a second route, or
    sits in NOT_ON_A_RUN_PATH, and that list holds nothing reached."""
    assert EDGES["cli._SUBCOMMANDS"] <= reach(["cli.main"])
    assert all(re.search(r"\bitem \d+", reason) for reason in NOT_ON_A_RUN_PATH.values())
    assert PUBLIC - reach(RUN_ROOTS) == set(NOT_ON_A_RUN_PATH)


def test_every_private_function_has_a_caller():
    """Every private function or method is reachable from a public name:
    a name in its module's __all__ (cli.main among them) or a public
    method or property of such a class.  Dunders are exempt."""
    private = {
        node
        for node, kind in KINDS.items()
        if kind in ("function", "method") and node.rsplit(".", 1)[1].startswith("_")
    }
    assert private - reach(PUBLIC) == set()
