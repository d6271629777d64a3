"""Golden transcript of the command line.

tests/cli_golden.json holds, for 94 argument vectors covering every
subcommand in human and --json mode (valid inputs, invalid inputs that
exit 2, and witness searches that run out), the exact stdout, stderr
and exit code of cli.main.  Any change to a byte of output or to an
exit code fails here; update the file only together with a deliberate
change of the output contract.
"""

import json
from pathlib import Path

import pytest

from contactsurgery.cli import main

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def test_every_subcommand_in_both_modes():
    covered = {(case["argv"][0], "--json" in case["argv"]) for case in GOLDEN}
    commands = ("convert", "report", "sweep", "obstruction", "witness", "normalize", "cf")
    assert covered == {(name, mode) for name in commands for mode in (False, True)}
    assert {case["exit"] for case in GOLDEN} == {0, 2}
    # a witness search that runs out exits 2 with SearchExhausted's message
    assert any(case["stderr"].startswith("error: no valid witness") for case in GOLDEN)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_transcript(case, capsys):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
