"""Golden transcript of the demos.

tests/demos_golden.json maps each script in demos/ to its exact stdout.
Each demo runs as a fresh interpreter with the package source on its
path, the way a reader runs it, and must print those bytes and exit 0.
Update the file only together with a deliberate change of a demo's
narrative.  A demo shows the public surface: it imports from the
package only names in the importing module's __all__.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(Path(__file__).with_name("demos_golden.json").read_text(encoding="utf-8"))


def test_golden_covers_every_demo():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONIOENCODING"] = "utf-8"
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert result.stdout.decode("utf-8") == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_imports_only_public_names(name):
    stray = []
    for node in ast.walk(ast.parse((ROOT / "demos" / name).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            stray += [a.name for a in node.names if a.name.split(".")[0] == "contactsurgery"]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "contactsurgery":
            public = importlib.import_module(node.module).__all__
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert stray == []
