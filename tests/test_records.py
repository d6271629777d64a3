"""The 13 record classes: equality, hash, repr, immutability, copies and refusals.

Each record is a fixed tuple of named fields.  Two records are equal
exactly when they are of the same class and their fields are equal;
the hash is that of the field tuple; repr lists the fields by name
(FirstHomology leaves its three row fields out); every field is
assigned once, at construction, and assignment or deletion later
raises AttributeError; copies and pickles round-trip to an equal
record.  The refusals of a constructor raise ConditionViolation with
the message pinned here.
"""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

from contactsurgery._record import Record
from contactsurgery.errors import ConditionViolation

# (module, class, ((field, value), ...), (field to change, changed value), repr)
RECORDS = [
    (
        "contfrac",
        "NegContinuedFraction",
        (("entries", (-3, -2, -4)),),
        ("entries", (-3, -2)),
        "NegContinuedFraction(entries=(-3, -2, -4))",
    ),
    (
        "seifert",
        "SeifertInvariants",
        (("g", 1), ("n", 2), ("pairs", ((5, 2), (3, 1)))),
        ("n", 3),
        "SeifertInvariants(g=1, n=2, pairs=((5, 2), (3, 1)))",
    ),
    (
        "legendrian",
        "LegendrianComponent",
        (("contact_coefficient", 1), ("stab_count", 2), ("tb", -3), ("rot", 2)),
        ("rot", -2),
        "LegendrianComponent(contact_coefficient=1, stab_count=2, tb=-3, rot=2)",
    ),
    (
        "legendrian",
        "PlusMinusDiagram",
        (("components", ()), ("root_tb", -1), ("root_rot", 0)),
        ("root_tb", -2),
        "PlusMinusDiagram(components=(), root_tb=-1, root_rot=0)",
    ),
    (
        "legendrian",
        "StabilizationChoice",
        (("signs", ((1, 0), (0, 2))), ("rotations", (1, -1))),
        ("rotations", (1, 1)),
        "StabilizationChoice(signs=((1, 0), (0, 2)), rotations=(1, -1))",
    ),
    (
        "intmat",
        "SmithForm",
        (("diagonal", (1, 6)), ("left", ((1, 0), (2, 1))), ("right", ((0, 1), (1, 0)))),
        ("diagonal", (1, 3)),
        "SmithForm(diagonal=(1, 6), left=((1, 0), (2, 1)), right=((0, 1), (1, 0)))",
    ),
    (
        "homology",
        "IntegralPresentation",
        (("n", -2), ("legs", ((-2, -2), (-3,))), ("free_rank", 2)),
        ("free_rank", 0),
        "IntegralPresentation(n=-2, legs=((-2, -2), (-3,)), free_rank=2)",
    ),
    (
        "homology",
        "FirstHomology",
        (
            ("free_rank", 2),
            ("torsion", (7,)),
            ("torsion_rows", ((1, 3),)),
            ("free_rows", ()),
            ("legs", ((-2, -4), (-3,))),
        ),
        ("torsion_rows", ((1, 4),)),
        "FirstHomology(free_rank=2, torsion=(7,))",
    ),
    (
        "homology",
        "SpinCClass",
        (("offset", 3), ("modulus", 7), ("c1_coefficient", None)),
        ("c1_coefficient", 5),
        "SpinCClass(offset=3, modulus=7, c1_coefficient=None)",
    ),
    (
        "homology",
        "Witness",
        (("alpha", 15), ("rotations", (0, 2)), ("orders", (31, 5))),
        ("alpha", 16),
        "Witness(alpha=15, rotations=(0, 2), orders=(31, 5))",
    ),
    (
        "gauge",
        "MoyVerdict",
        (
            ("reducibles_only", False),
            ("dirac_kernels_trivial", True),
            ("witness_degrees", (Fraction(1, 3), Fraction(4, 3))),
            ("representative", Fraction(7, 3)),
        ),
        ("reducibles_only", True),
        "MoyVerdict(reducibles_only=False, dirac_kernels_trivial=True,"
        " witness_degrees=(Fraction(1, 3), Fraction(4, 3)), representative=Fraction(7, 3))",
    ),
    (
        "lattice",
        "Lattice",
        (("gram", ((-2, 1), (1, -3))), ("rank", 2)),
        ("gram", ((-2, 1), (1, -2))),
        "Lattice(gram=((-2, 1), (1, -3)), rank=2)",
    ),
    (
        "lattice",
        "DiagonalEmbedding",
        (("vectors", ((1, -1, 0), (0, 1, -1))),),
        ("vectors", ((1, -1, 0),)),
        "DiagonalEmbedding(vectors=((1, -1, 0), (0, 1, -1)))",
    ),
]
IDS = [name for _, name, *_ in RECORDS]


def _class(module, name):
    return getattr(importlib.import_module(f"contactsurgery.{module}"), name)


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.fixture(params=RECORDS, ids=IDS)
def case(request):
    module, name, fields, change, expected_repr = request.param
    cls = _class(module, name)
    names = tuple(field for field, _ in fields)
    values = tuple(value for _, value in fields)
    return cls, names, values, change, expected_repr


def test_thirteen_record_classes():
    for module in {module for module, *_ in RECORDS}:
        importlib.import_module(f"contactsurgery.{module}")
    table = {(module, name) for module, name, *_ in RECORDS}
    assert len(table) == 13
    classes = {(cls.__module__.rsplit(".", 1)[1], cls.__name__) for cls in Record.__subclasses__()}
    assert table == classes


def test_positional_and_keyword_construction(case):
    cls, names, values, _, _ = case
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert _fields(positional, names) == _fields(keyword, names) == values
    assert positional == keyword


def test_equality(case):
    cls, names, values, (field, changed), _ = case
    record = cls(*values)
    twin = cls(*values)
    other = cls(**{**dict(zip(names, values)), field: changed})
    assert record == twin and not record != twin
    assert record != other and not record == other
    # a record of another class with equal fields, or the bare field tuple
    lookalike = type("Lookalike", (cls,), {})(*values)
    assert _fields(lookalike, names) == values
    assert record != lookalike and lookalike != record
    assert record != values and values != record


def test_hash_is_the_hash_of_the_field_tuple(case):
    cls, _, values, (field, changed), _ = case
    record = cls(*values)
    assert hash(record) == hash(cls(*values)) == hash(values)
    assert len({record, cls(*values)}) == 1


def test_repr(case):
    cls, _, values, _, expected_repr = case
    assert repr(cls(*values)) == expected_repr


def test_assignment_and_deletion_raise(case):
    cls, names, values, _, _ = case
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert _fields(record, names) == values


def test_copies_and_pickles_round_trip(case):
    cls, names, values, _, _ = case
    record = cls(*values)
    shallow = copy.copy(record)
    assert type(shallow) is cls and shallow == record and shallow is not record
    # a shallow copy shares its field objects
    assert all(a is b for a, b in zip(_fields(shallow, names), _fields(record, names)))
    deep = copy.deepcopy(record)
    assert type(deep) is cls and deep == record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert type(loaded) is cls and loaded == record
        assert repr(loaded) == repr(record)


def test_seifert_pairs_default_to_no_fibers():
    cls = _class("seifert", "SeifertInvariants")
    assert cls(1, 2).pairs == ()
    assert cls(1, 2) == cls(g=1, n=2) == cls(1, 2, ())
    assert repr(cls(0, -1)) == "SeifertInvariants(g=0, n=-1, pairs=())"


def test_integer_fields_are_normalized():
    expansion = _class("contfrac", "NegContinuedFraction")([-3, True * -2])
    assert type(expansion.entries) is tuple and expansion.entries == (-3, -2)
    inv = _class("seifert", "SeifertInvariants")(True, 2, [[5, 2], (3, True)])
    assert inv == _class("seifert", "SeifertInvariants")(1, 2, ((5, 2), (3, 1)))
    assert type(inv.g) is int and type(inv.pairs[0]) is tuple
    lattice = _class("lattice", "Lattice")([[-2, 1], [1, -2]], 2)
    assert lattice.gram == ((-2, 1), (1, -2)) and type(lattice.gram[0]) is tuple
    for build in (
        lambda: _class("contfrac", "NegContinuedFraction")((-2.0,)),
        lambda: _class("seifert", "SeifertInvariants")(1.0, 2),
        lambda: _class("seifert", "SeifertInvariants")(1, 2, ((5.0, 2),)),
        lambda: _class("lattice", "Lattice")(((-2.0,),), 1),
    ):
        with pytest.raises(TypeError):
            build()


REFUSALS = [
    ("contfrac", "NegContinuedFraction", ((),), "expansion needs at least one entry"),
    ("contfrac", "NegContinuedFraction", ((0, -2),), "leading entry must be <= -1, got 0"),
    ("contfrac", "NegContinuedFraction", ((-1, -2, -1),), "tail entries must be <= -2, got -1"),
    ("seifert", "SeifertInvariants", (-1, 0), "genus must be >= 0, got -1"),
    ("seifert", "SeifertInvariants", (0, 0, ((3, 1), (0, 1))), "multiplicity must be positive, got 0"),
    ("seifert", "SeifertInvariants", (0, 0, ((-2, 1),)), "multiplicity must be positive, got -2"),
    ("seifert", "SeifertInvariants", (0, 0, ((4, 2),)), "surgery coefficient -4/2 is not in lowest terms"),
    ("legendrian", "LegendrianComponent", (0, 0, -1, 0), "contact coefficient must be +1 or -1"),
    ("legendrian", "LegendrianComponent", (2, 0, -1, 0), "contact coefficient must be +1 or -1"),
    ("legendrian", "LegendrianComponent", (-1, -1, -1, 0), "stabilization count must be >= 0"),
    ("homology", "SpinCClass", (0, 0, None), "modulus must be a positive integer"),
    ("homology", "SpinCClass", (0, -3, 1), "modulus must be a positive integer"),
    ("lattice", "Lattice", (((-2,),), 2), "gram matrix must be rank x rank"),
    ("lattice", "Lattice", (((-2, 1), (1,)), 2), "gram matrix must be rank x rank"),
    ("lattice", "Lattice", (((-2, 1), (0, -2)), 2), "gram matrix must be symmetric"),
]


@pytest.mark.parametrize(
    "module, name, args, message", REFUSALS, ids=[f"{n}-{m}" for _, n, _, m in REFUSALS]
)
def test_refusals(module, name, args, message):
    with pytest.raises(ConditionViolation) as raised:
        _class(module, name)(*args)
    assert str(raised.value) == message


def test_refusals_are_checked_in_order():
    # the genus is checked before the pairs, the coefficient before the count
    with pytest.raises(ConditionViolation, match="^genus must be >= 0, got -1$"):
        _class("seifert", "SeifertInvariants")(-1, 0, ((0, 1),))
    with pytest.raises(ConditionViolation, match="^contact coefficient must be"):
        _class("legendrian", "LegendrianComponent")(0, -1, -1, 0)
    with pytest.raises(ConditionViolation, match="^gram matrix must be rank x rank$"):
        _class("lattice", "Lattice")(((-2, 1), (0,)), 2)
