"""A fresh process imports only the layers that its subcommand runs.

Each test starts a fresh interpreter, imports the package as
`python -m contactsurgery` does, runs one main(argv) with its output
captured, and reads sys.modules: the package root loads contfrac,
seifert, intmat and homology, cli imports gauge, lattice and legendrian
in the builders that run them, and no module imports dataclasses.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contactsurgery

SRC = str(Path(contactsurgery.__file__).resolve().parent.parent)
LAZY = {"contactsurgery.gauge", "contactsurgery.lattice", "contactsurgery.legendrian"}
CHILD = """
import contextlib, io, json, sys
argv, statement = json.loads(sys.argv[1])
import contactsurgery
exec(statement)
if argv is not None:
    from contactsurgery.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""


def loaded(argv, statement: str = "") -> set[str]:
    """The modules of a fresh process after it imports the package, runs
    statement and then main(argv) (no main when argv is None)."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv, statement])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return set(json.loads(done.stdout))


def test_the_root_loads_no_lazy_layer():
    modules = loaded(None)
    assert not modules & LAZY
    eager = {"contfrac", "errors", "seifert", "intmat", "homology", "_record"}
    assert {name for name in modules if name.startswith("contactsurgery.")} == {
        f"contactsurgery.{name}" for name in eager
    }
    assert "dataclasses" not in modules


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["cf", "--r=-7/5"], LAZY | {"dataclasses"}),
        (["obstruction", "--g", "3"], {"contactsurgery.gauge", "contactsurgery.legendrian"}),
        (["sweep"], {"contactsurgery.lattice", "contactsurgery.legendrian"}),
        (
            ["report", "--g", "1", "--n", "2", "--alpha", "3", "--sign", "+", "--r", "1"],
            {"contactsurgery.lattice"},
        ),
    ],
    ids=["cf", "obstruction", "sweep", "report"],
)
def test_a_subcommand_loads_only_what_it_runs(argv, absent):
    modules = loaded(argv)
    assert "contactsurgery.cli" in modules
    assert not modules & absent
    assert "dataclasses" not in modules


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["obstruction", "--g", "3"], {"lattice"}),
        (["sweep"], {"gauge"}),
        (
            ["report", "--g", "1", "--n", "2", "--alpha", "3", "--sign", "+", "--r", "1"],
            {"gauge", "legendrian"},
        ),
        (["convert", "--r=4/7"], {"legendrian"}),
    ],
    ids=["obstruction", "sweep", "report", "convert"],
)
def test_a_subcommand_loads_the_layers_it_runs(argv, layers):
    assert {f"contactsurgery.{layer}" for layer in layers} <= loaded(argv)


@pytest.mark.parametrize(
    "statement, layers",
    [
        ("contactsurgery.convert", {"legendrian"}),
        ("contactsurgery.lattice", {"lattice"}),
        ("from contactsurgery import omega_red_long", {"gauge"}),
        ("from contactsurgery import cli", set()),
        ("contactsurgery.__all__", {"gauge", "lattice", "legendrian"}),
        ("from contactsurgery import *", {"gauge", "lattice", "legendrian"}),
        ("dir(contactsurgery)", set()),
    ],
)
def test_reading_a_root_name_loads_its_layer_alone(statement, layers):
    assert {name for name in loaded(None, statement) if name in LAZY} == {
        f"contactsurgery.{layer}" for layer in layers
    }


def test_a_name_the_root_does_not_serve_loads_nothing():
    statement = (
        "try:\n    contactsurgery.no_such_name\n"
        "except AttributeError as error:\n    assert 'no_such_name' in str(error)\n"
        "else:\n    raise SystemExit(1)"
    )
    assert not loaded(None, statement) & (LAZY | {"contactsurgery.cli"})


def test_the_root_still_binds_homology_to_the_function():
    root = importlib.import_module("contactsurgery")
    module = importlib.import_module("contactsurgery.homology")
    assert root.homology is module.homology and callable(root.homology)
    assert {"convert", "lambda_q", "omega_red_long", "gauge", "__all__"} <= set(dir(root))
