"""Report assembly, canonical JSON rendering, and the command line surface."""

import argparse
import contextlib
import importlib
import io
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurgery import cli, gauge
from contactsurgery.cli import build_report, main, render_json
from contactsurgery.errors import ConditionViolation
from contactsurgery.gauge import omega_red_closed, omega_red_long
from contactsurgery.homology import IntegralPresentation, SpinCClass, presentation, spinc_offset

from reference import admissible_points

# the package root rebinds `homology` to the function of that name
homology_module = importlib.import_module("contactsurgery.homology")


class TestBuildReport:
    def test_top_level_keys(self):
        report = build_report(1, 2, 1, 1, 1)
        assert list(report) == [
            "input",
            "diagram",
            "homology",
            "spin_c",
            "invariants",
            "verdicts",
        ]

    def test_worked_example(self):
        report = build_report(1, 2, 1, 1, 1)
        # [DERIVED] the n = 2g, alpha = 1 coefficient is 2/3, whose chain
        # is two (+1)-pushoffs and one once-stabilized (-1)
        assert report["diagram"]["coefficient"] == Fraction(2, 3)
        assert report["diagram"]["stabilization_counts"] == [0, 0, 1]
        assert report["diagram"]["choice_count"] == 2
        assert report["homology"] == {
            "free_rank": 2,
            "torsion": [3],
            "mu_order": 3,
        }
        assert report["spin_c"] == {
            "offset": 2,
            "modulus": 3,
            "c1_coefficient": 1,
            "c1_order": 3,
        }
        inv = report["invariants"]
        assert inv["omega_red_long"] == Fraction(2, 3)
        assert inv["omega_red_closed"] == Fraction(2, 3)
        assert inv["d3_contact"] == Fraction(1, 3)
        assert inv["d3_canonical"] == Fraction(-8, 3)
        assert inv["gap"] == 3
        assert inv["moy"]["reducibles_only"] is True
        assert inv["moy"]["dirac_kernels_trivial"] is True
        assert report["verdicts"]["tight"] is True
        assert report["verdicts"]["fillable"] == "no (certified)"
        assert report["verdicts"]["all_checks_pass"] is True

    def test_cross_checks_enumerated(self):
        checks = build_report(2, 5, 3, -1, 1)["verdicts"]["checks"]
        assert set(checks) == {
            "omega_red_forms_agree",
            "gap_is_2g_plus_1",
            "mu_order_matches_closed_form",
            "c1_consistent_with_offset",
        }
        assert all(checks.values())

    def test_rejects_inadmissible(self):
        with pytest.raises(ConditionViolation):
            build_report(0, 0, 1, 1, 1)
        with pytest.raises(ConditionViolation):
            build_report(1, 2, 3, 1, 2)


class TestOneEvaluationPerReport:
    def test_one_presentation_and_homology(self, monkeypatch):
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)

            monkeypatch.setattr(cli, name, wrapper)

        counted("presentation", cli.presentation)
        counted("homology", cli.homology)
        monkeypatch.setattr(cli, "mu_order", None)  # mu is read from the one H1
        report = build_report(1, 3, 5, -1, 1)
        assert calls == ["presentation", "homology"]
        assert report["homology"]["mu_order"] == 16
        assert report["verdicts"]["checks"]["mu_order_matches_closed_form"] is True


class TestRenderJson:
    def test_fractions_become_strings(self):
        text = render_json({"x": Fraction(-4, 3), "y": [Fraction(1, 2), 5]})
        assert json.loads(text) == {"x": "-4/3", "y": ["1/2", 5]}

    def test_trailing_newline_and_stability(self):
        report = {"a": (1, 2), "b": {"c": Fraction(7, 1)}}
        first = render_json(report)
        second = render_json({"a": (1, 2), "b": {"c": Fraction(7, 1)}})
        assert first == second
        assert first.endswith("\n")

    def test_report_renders_identically_across_calls(self):
        first = render_json(build_report(1, 2, 3, 1, 1))
        second = render_json(build_report(1, 2, 3, 1, 1))
        assert first == second


class TestConvertCommand:
    def test_negative_coefficient(self, capsys):
        # [DERIVED] -4/3 = [-2,-2,-2]; the head entry absorbs one extra
        # stabilization, so the counts are [1, 0, 0] with 2 choices
        assert main(["convert", "--r=-4/3"]) == 0
        out = capsys.readouterr().out
        assert "stabilization counts: [1, 0, 0]" in out
        assert "stabilization choices: 2" in out

    def test_json_structure(self, capsys):
        assert main(["convert", "--r=-4/3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coefficient"] == "-4/3"
        assert data["stabilization_counts"] == [1, 0, 0]
        assert data["choice_count"] == 2
        assert [c["parent"] for c in data["components"]] == ["root", 0, 1]
        assert all(c["contact_coefficient"] == -1 for c in data["components"])

    def test_positive_coefficient(self, capsys):
        assert main(["convert", "--r", "3/2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["contact_coefficient"] for c in data["components"]] == [1, -1]
        assert data["stabilization_counts"] == [0, 2]

    def test_zero_rejected(self, capsys):
        assert main(["convert", "--r", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    def test_human_output(self, capsys):
        code = main(
            ["report", "--g", "1", "--n", "2", "--alpha", "1", "--sign", "+", "--r", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "torsion [3], mu order 3" in out
        assert "gap 3" in out
        assert "checks=PASS" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "report",
                "--g", "1", "--n", "2", "--alpha", "3",
                "--sign", "+", "--r", "1", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == [
            "input", "diagram", "homology", "spin_c", "invariants", "verdicts",
        ]
        assert data["input"]["sign"] == "+"
        assert data["homology"]["mu_order"] == 7
        assert data["invariants"]["omega_red_closed"] == "4/7"
        assert data["invariants"]["d3_contact"] == "3/7"
        assert data["invariants"]["gap"] == "3"
        assert data["verdicts"]["all_checks_pass"] is True

    def test_negative_rotation_via_equals_form(self, capsys):
        code = main(
            ["report", "--g", "1", "--n", "3", "--alpha", "2", "--sign", "-", "--r=-2"]
        )
        assert code == 0

    def test_inadmissible_input(self, capsys):
        code = main(
            ["report", "--g", "1", "--n", "1", "--alpha", "1", "--sign", "+", "--r", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_small_grid(self, capsys):
        code = main(
            [
                "sweep",
                "--g-range", "1..1",
                "--n-range", "2g..2g+1",
                "--alpha-range", "1..3",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_pass"] is True
        assert data["failures"] == []
        assert data["checks"]["mu_order"] == 3
        assert data["checks"]["omega_identity"] == data["checks"]["gap_law"] == 24
        assert data["checks"]["moy"] == 12

    def test_mu_only(self, capsys):
        code = main(
            [
                "sweep",
                "--g-range", "1..2",
                "--n-range", "2g..2g",
                "--alpha-range", "1..5",
                "--mu-only",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["checks"] == {
            "omega_identity": 0,
            "gap_law": 0,
            "moy": 0,
            "mu_order": 10,
        }

    def test_human_output(self, capsys):
        code = main(
            [
                "sweep",
                "--g-range", "1..1",
                "--n-range", "2g..2g",
                "--alpha-range", "1..2",
            ]
        )
        assert code == 0
        assert "all pass" in capsys.readouterr().out

    def test_empty_range(self, capsys):
        code = main(["sweep", "--g-range", "2..1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_pass"] is True
        assert all(count == 0 for count in data["checks"].values())

    def test_empty_range_with_mu_only(self, capsys):
        # an empty g range checks no genus, so it passes in both modes
        assert main(["sweep", "--g-range", "2..1", "--mu-only"]) == 0
        assert capsys.readouterr().out == (
            "omega_identity: 0 checks\ngap_law: 0 checks\nmoy: 0 checks\n"
            "mu_order: 0 checks\nall pass\n"
        )
        assert main(["sweep", "--g-range", "2..1", "--mu-only", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)["checks"].values()) == {0}

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_mu_only_obeys_the_family_genus_rule(self, mode, capsys):
        assert main(["sweep", "--g-range", "0..0", "--mu-only", *mode]) == 2
        assert capsys.readouterr() == ("", "error: need g >= 1, got 0\n")

    def test_run_sweep_refuses_genus_zero_in_both_modes(self):
        for mu_only in (True, False):
            with pytest.raises(ConditionViolation, match="^need g >= 1, got 0$"):
                cli.run_sweep((0, 0), (0, 0), (1, 3), mu_only=mu_only)

    def test_malformed_range(self, capsys):
        assert main(["sweep", "--g-range", "1-3"]) == 2


# The whole range the bench draws its sweep sub-grids from (g 1..5,
# n 2g..2g+4, alpha 1..64), as written by the earlier sweep, which
# compared Fractions; the integer checks must reproduce both documents
# byte for byte.
SWEEP_GRID = ["sweep", "--g-range", "1..5", "--n-range", "2g..2g+4", "--alpha-range", "1..64"]
SWEEP_GRID_JSON = """\
{
  "grid": {
    "g": [
      1,
      5
    ],
    "n_span": [
      0,
      4
    ],
    "alpha": [
      1,
      64
    ],
    "mu_only": false
  },
  "checks": {
    "omega_identity": 104000,
    "gap_law": 104000,
    "moy": 20800,
    "mu_order": 320
  },
  "failures": [],
  "all_pass": true
}
"""
SWEEP_GRID_MU_ONLY_JSON = """\
{
  "grid": {
    "g": [
      1,
      5
    ],
    "n_span": [
      0,
      4
    ],
    "alpha": [
      1,
      64
    ],
    "mu_only": true
  },
  "checks": {
    "omega_identity": 0,
    "gap_law": 0,
    "moy": 0,
    "mu_order": 320
  },
  "failures": [],
  "all_pass": true
}
"""


class TestSweepBound:
    """The grid's work is counted from its ranges before any evaluation."""

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("evaluated")

        monkeypatch.setattr(cli, "mu_order", refuse)
        monkeypatch.setattr(cli, "admissible_blocks", refuse)

    @pytest.mark.parametrize(
        "ranges",
        [
            ["--mu-only", "--alpha-range", "1..1000000000"],
            ["--alpha-range", "1..100000"],
            ["--g-range", "1..20001", "--alpha-range", "1..1", "--n-range", "2g..2g"],
            ["--g-range", "1..1", "--alpha-range", "1..20001", "--n-range", "1..0"],
            ["--g-range", "1..1", "--alpha-range", "1..500", "--n-range", "2g..2g"],
            ["--g-range", "1..1", "--alpha-range", "1..1", "--n-range", "0..125000"],
            ["--g-range", f"1..{10**4000}", "--alpha-range", f"1..{10**4000}"],
            # no alpha, but the g loop would still run 10^40 times
            ["--g-range", f"1..{10**40}", "--alpha-range", "0..-1", "--mu-only"],
            ["--g-range", "1..20001", "--alpha-range", "0..-1"],
        ],
    )
    def test_refused_with_one_line(self, ranges, no_evaluation, capsys):
        assert main(["sweep", *ranges, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: the sweep grid is limited to 250,000 points and 20,000 (g, alpha) blocks\n"
        )

    def test_caps_are_inclusive(self, monkeypatch):
        # evaluation stubbed out: only the counts decide
        monkeypatch.setattr(cli, "mu_order", lambda inv: 2 * inv.g * inv.pairs[0][0] + 1)
        monkeypatch.setattr(cli, "admissible_blocks", lambda g, n, alpha: [])
        # 20,000 (g, alpha) blocks; 2 * (1 + ... + 499) = 249,500 points
        assert cli.run_sweep((1, 1), (0, 0), (1, 20000), mu_only=True)["all_pass"]
        assert cli.run_sweep((1, 1), (0, 0), (1, 499))["all_pass"]
        assert cli.run_sweep((1, 20000), (0, 0), (1, 0))["all_pass"]
        with pytest.raises(ConditionViolation):
            cli.run_sweep((1, 1), (0, 0), (1, 20001), mu_only=True)
        with pytest.raises(ConditionViolation):
            cli.run_sweep((1, 1), (0, 0), (1, 500))
        with pytest.raises(ConditionViolation):
            cli.run_sweep((1, 20001), (0, 0), (1, 0))

    def test_alpha_below_one_is_refused_at_the_first_block(self):
        with pytest.raises(ConditionViolation, match="multiplicity"):
            cli.run_sweep((1, 1), (0, 0), (-500, 500))

    def test_default_grid_is_below_the_caps(self, capsys):
        # the largest test grid (104,000 points, 320 blocks) runs in TestSweepDocuments
        assert main(["sweep", "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert (checks["omega_identity"], checks["mu_order"]) == (3600, 45)


class TestSweepDocuments:
    def test_full_grid(self, capsys):
        assert main(SWEEP_GRID + ["--json"]) == 0
        assert capsys.readouterr().out == SWEEP_GRID_JSON

    def test_mu_only(self, capsys):
        assert main(SWEEP_GRID + ["--mu-only", "--json"]) == 0
        assert capsys.readouterr().out == SWEEP_GRID_MU_ONLY_JSON


class TestGapLawMutation:
    """A d3_certificate with contact offset 2g in place of 2g - 1 fails the report's gap check alone.

    The sweep reads the gap law from the omega identity's one comparison,
    not from d3_certificate, so its document does not see the mutant; the
    report test below and test_gauge's check of gap - (2g + 1) =
    omega_long - omega_closed still catch it.
    """

    @pytest.fixture(autouse=True)
    def mutated_contact_offset(self, monkeypatch):
        source = inspect.getsource(gauge.d3_certificate)
        assert source.count("(2 * g - 1) - omega_closed") == 1
        namespace = dict(vars(gauge))
        exec(source.replace("(2 * g - 1) - omega_closed", "(2 * g) - omega_closed"), namespace)
        # cli imports the name from gauge when a report is built
        monkeypatch.setattr(gauge, "d3_certificate", namespace["d3_certificate"])

    def test_sweep_document_does_not_read_d3_certificate(self, monkeypatch, capsys):
        argv = ["sweep", "--g-range", "1..2", "--n-range", "2g..2g+1", "--alpha-range", "1..4"]
        # the mutant breaks the gap law of agreeing routes (omega = 0 at g = 1)
        assert gauge.d3_certificate(1, Fraction(0), Fraction(0))["gap_law"] is False
        assert main(argv + ["--json"]) == 0
        mutated = capsys.readouterr().out
        monkeypatch.undo()
        assert gauge.d3_certificate(1, Fraction(0), Fraction(0))["gap_law"] is True
        assert main(argv + ["--json"]) == 0
        assert capsys.readouterr().out == mutated
        checks = json.loads(mutated)["checks"]
        assert checks["omega_identity"] == checks["gap_law"] == 80

    def test_report_fails_the_gap_check_only(self, capsys):
        argv = ["report", "--g", "1", "--n", "3", "--alpha", "3", "--sign", "-", "--r", "1"]
        assert main(argv + ["--json"]) == 3
        checks = json.loads(capsys.readouterr().out)["verdicts"]["checks"]
        assert checks.pop("gap_is_2g_plus_1") is False
        assert all(checks.values())


def skewed_by_a_seventh(core, *points):
    """An omega block core whose (numerator, denominator) is off by 1/7 at points alone.

    The block cores take (g, n, alpha, sign, rs) and yield one pair per
    r; report runs them on one r and the sweep on a whole block.
    """

    def skewed(g, n, alpha, sign, rs):
        for r, (num, den) in zip(rs, core(g, n, alpha, sign, rs)):
            yield (7 * num + den, 7 * den) if (g, n, alpha, sign, r) in points else (num, den)

    return skewed


def moy_failing_at(original, *target):
    """A _moy_units that fails reducibles_only at the target (g, n, alpha, k) alone."""

    def failing(g, n, alpha, ks):
        ks = tuple(ks)  # a block's offsets arrive as a generator
        for k, verdict in zip(ks, original(g, n, alpha, ks)):
            yield (False, *verdict[1:]) if (g, n, alpha, k) == target else verdict

    return failing


class TestRouteDisagreement:
    """A closed route off by 1/7 at one point must fail A1 and the gap law."""

    POINT = (1, 3, 3, -1, 1)

    @pytest.fixture(autouse=True)
    def skewed_closed_route(self, monkeypatch):
        # the closed route's block core, read by report and sweep alike
        skewed = skewed_by_a_seventh(gauge._omega_closed_ratio, self.POINT)
        monkeypatch.setattr(gauge, "_omega_closed_ratio", skewed)

    def test_sweep_records_both_failures(self, capsys):
        code = main(
            [
                "sweep",
                "--g-range", "1..1",
                "--n-range", "2g..2g+1",
                "--alpha-range", "1..3",
                "--json",
            ]
        )
        assert code == 3
        data = json.loads(capsys.readouterr().out)
        where = dict(zip(("g", "n", "alpha", "sign", "r"), self.POINT))
        assert data["failures"] == [
            {"check": "omega_identity", **where},
            {"check": "gap_law", **where},
        ]
        assert data["checks"]["omega_identity"] == data["checks"]["gap_law"] == 24
        assert data["all_pass"] is False

    def test_report_fails_checks(self, capsys):
        argv = ["report", "--g", "1", "--n", "3", "--alpha", "3", "--sign", "-", "--r", "1"]
        assert main(argv) == 3
        assert "checks=FAIL" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        checks = data["verdicts"]["checks"]
        assert not checks["omega_red_forms_agree"]
        assert not checks["gap_is_2g_plus_1"]
        assert data["invariants"]["gap"] == "20/7"


class TestLongRouteDisagreement:
    """A long route off by 1/7 at one point must fail A1 and the gap law too."""

    POINT = (1, 3, 2, 1, 0)

    @pytest.fixture(autouse=True)
    def skewed_long_route(self, monkeypatch):
        skewed = skewed_by_a_seventh(gauge._omega_long_ratio, self.POINT)
        monkeypatch.setattr(gauge, "_omega_long_ratio", skewed)

    def test_sweep_records_both_failures(self, capsys):
        argv = ["sweep", "--g-range", "1..1", "--n-range", "2g..2g+1", "--alpha-range", "1..3"]
        assert main(argv + ["--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        where = dict(zip(("g", "n", "alpha", "sign", "r"), self.POINT))
        assert data["failures"] == [
            {"check": "omega_identity", **where},
            {"check": "gap_law", **where},
        ]
        assert data["checks"]["omega_identity"] == data["checks"]["gap_law"] == 24
        assert data["all_pass"] is False

    def test_report_fails_checks(self, capsys):
        argv = ["report", "--g", "1", "--n", "3", "--alpha", "2", "--sign", "+", "--r", "0"]
        assert main(argv + ["--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        checks = data["verdicts"]["checks"]
        assert not checks["omega_red_forms_agree"]
        assert not checks["gap_is_2g_plus_1"]
        # gap = 2g + 1 + (omega_long - omega_closed) = 3 + 1/7
        assert data["invariants"]["gap"] == "22/7"


class TestMuAndMoyFailures:
    """A mu order off by one at one block, or one failed MOY verdict, is recorded alone."""

    SWEEP = ["sweep", "--g-range", "1..2", "--n-range", "2g..2g+1", "--alpha-range", "1..3"]
    # 2 g values x 2 offsets x 2*(1 + 2 + 3) points, half of them at n = 2g
    COUNTS = {"omega_identity": 48, "gap_law": 48, "moy": 24, "mu_order": 6}
    MU_ONLY_COUNTS = {"omega_identity": 0, "gap_law": 0, "moy": 0, "mu_order": 6}

    @pytest.mark.parametrize("mode, counts", [([], COUNTS), (["--mu-only"], MU_ONLY_COUNTS)])
    def test_mu_order_off_by_one(self, mode, counts, monkeypatch, capsys):
        original = homology_module.mu_order

        def skewed(inv):
            value = original(inv)
            return value + 1 if (inv.g, inv.pairs[0][0]) == (2, 3) else value

        monkeypatch.setattr(cli, "mu_order", skewed)
        assert main(self.SWEEP + mode + ["--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        assert data["failures"] == [{"check": "mu_order", "g": 2, "alpha": 3}]
        assert data["checks"] == counts
        assert data["all_pass"] is False

    def test_moy_verdict_failing_at_one_point(self, monkeypatch, capsys):
        point = (2, 4, 3, 1, 3)
        target = spinc_offset(*point).offset
        offsets = [spinc_offset(*p).offset for p in admissible_points(2, 4, 3)]
        assert offsets.count(target) == 1  # so the patch fails this point alone
        failing = moy_failing_at(gauge._moy_units, *point[:3], target)
        monkeypatch.setattr(gauge, "_moy_units", failing)
        assert main(self.SWEEP + ["--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        where = dict(zip(("g", "n", "alpha", "sign", "r"), point))
        assert data["failures"] == [{"check": "moy", **where}]
        assert data["checks"] == self.COUNTS
        assert data["all_pass"] is False


class TestFailureOrder:
    """Failures keep the sweep's point order: omega_identity, gap_law, then moy, point by point."""

    SWEEP = ["sweep", "--g-range", "1..1", "--n-range", "2g..2g+1", "--alpha-range", "1..3"]
    # the first and the last r of one (g, n, alpha, sign) block at n = 2g
    BOTH, OMEGA_ONLY = (1, 2, 3, -1, -3), (1, 2, 3, -1, 1)

    def test_exact_failure_list(self, monkeypatch, capsys):
        target = spinc_offset(*self.BOTH).offset
        offsets = [spinc_offset(*p).offset for p in admissible_points(*self.BOTH[:3])]
        assert offsets.count(target) == 1  # so the MOY patch fails BOTH alone
        skewed = skewed_by_a_seventh(gauge._omega_closed_ratio, self.BOTH, self.OMEGA_ONLY)
        monkeypatch.setattr(gauge, "_omega_closed_ratio", skewed)
        monkeypatch.setattr(gauge, "_moy_units", moy_failing_at(gauge._moy_units, 1, 2, 3, target))
        assert main(self.SWEEP + ["--json"]) == 3
        data = json.loads(capsys.readouterr().out)

        def where(check, point):
            return {"check": check, **dict(zip(("g", "n", "alpha", "sign", "r"), point))}

        assert data["failures"] == [
            where("omega_identity", self.BOTH),
            where("gap_law", self.BOTH),
            where("moy", self.BOTH),
            where("omega_identity", self.OMEGA_ONLY),
            where("gap_law", self.OMEGA_ONLY),
        ]


@st.composite
def sweep_grids(draw):
    """(g_range, n_span, alpha_range) with g <= 4, offsets <= 4 and alpha <= 40, a few wide."""
    g = draw(st.integers(1, 4))
    offset = draw(st.integers(0, 4))
    alpha = draw(st.integers(1, 40))
    return (
        (g, draw(st.integers(g, min(g + 1, 4)))),
        (offset, draw(st.integers(offset, min(offset + 1, 4)))),
        (alpha, draw(st.integers(alpha, min(alpha + 3, 40)))),
    )


def grid_blocks(g_range, n_span, alpha_range):
    """Every (g, n, alpha, sign, rs) block of a sweep grid, in sweep order."""
    for g in range(g_range[0], g_range[1] + 1):
        for alpha in range(alpha_range[0], alpha_range[1] + 1):
            for offset in range(n_span[0], n_span[1] + 1):
                for sign, rs in homology_module.admissible_blocks(g, 2 * g + offset, alpha):
                    yield g, 2 * g + offset, alpha, sign, rs


class TestBlockCoresMatchPointRoutes:
    """The sweep's block cores agree with the guarded one-point routes at every point."""

    @settings(max_examples=40, deadline=None)
    @given(sweep_grids())
    def test_block_verdicts_are_the_point_routes(self, grid):
        for g, n, alpha, sign, rs in grid_blocks(*grid):
            block = (g, n, alpha, sign, rs)
            omega = list(gauge._omega_routes_agree(*block))
            longs, closeds = gauge._omega_long_ratio(*block), gauge._omega_closed_ratio(*block)
            for r, agree, long_ratio, closed_ratio in zip(rs, omega, longs, closeds, strict=True):
                point = (g, n, alpha, sign, r)
                long_form, closed_form = omega_red_long(*point), omega_red_closed(*point)
                assert Fraction(*long_ratio) == long_form
                assert Fraction(*closed_ratio) == closed_form
                assert agree == (long_form == closed_form)
            if n != 2 * g:
                continue
            deg_k, top = Fraction((2 * g - 1) * alpha - 1, alpha), 2 * g + Fraction(1, alpha)
            for r, holds in zip(rs, gauge._moy_holds(*block), strict=True):
                verdict = gauge.moy_check(g, n, alpha, spinc_offset(g, n, alpha, sign, r).offset)
                assert holds == (
                    verdict.reducibles_only
                    and verdict.dirac_kernels_trivial
                    and deg_k < verdict.representative < top
                )

    @settings(max_examples=60, deadline=None)
    @given(
        sweep_grids(),
        st.data(),
        st.sampled_from(("first", "middle", "last")),
        st.sampled_from(("closed", "long", "moy")),
    )
    def test_a_skew_is_recorded_at_its_point_alone(self, grid, data, where, core):
        blocks = list(grid_blocks(*grid))
        if core == "moy":
            blocks = [b for b in blocks if b[1] == 2 * b[0]]
            if not blocks:
                return
        g, n, alpha, sign, rs = data.draw(st.sampled_from(blocks))
        r = rs[{"first": 0, "middle": len(rs) // 2, "last": -1}[where]]
        point = (g, n, alpha, sign, r)
        clean = cli.run_sweep(*grid)
        assert clean["all_pass"]
        if core == "moy":
            original = gauge._moy_holds

            def skewed(g_, n_, alpha_, sign_, rs_):
                for r_, holds in zip(rs_, original(g_, n_, alpha_, sign_, rs_)):
                    yield holds and (g_, n_, alpha_, sign_, r_) != point

            patch = mock.patch.object(gauge, "_moy_holds", skewed)
            checks = ("moy",)
        else:
            name = f"_omega_{core}_ratio"
            patch = mock.patch.object(gauge, name, skewed_by_a_seventh(getattr(gauge, name), point))
            checks = ("omega_identity", "gap_law")
        with patch:
            skewed_doc = cli.run_sweep(*grid)
        coordinates = dict(zip(("g", "n", "alpha", "sign", "r"), point))
        assert skewed_doc["failures"] == [{"check": c, **coordinates} for c in checks]
        assert skewed_doc["checks"] == clean["checks"]


class TestObstructionCommand:
    def test_holds(self, capsys):
        assert main(["obstruction", "--g", "1"]) == 0
        out = capsys.readouterr().out
        assert "obstruction holds: True" in out

    def test_json(self, capsys):
        assert main(["obstruction", "--g", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["q"] == 4
        assert data["embeddable"] is False
        assert data["embedding"] is None

    def test_gap_genus(self, capsys):
        assert main(["obstruction", "--g", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_an_embedding_exits_3(self, monkeypatch, capsys):
        # lambda_3's star with w framed -3, not -2, breaks a hypothesis of
        # the chain lemma: a bug, not a verdict
        def mutated(inv):
            star = presentation(inv)
            return IntegralPresentation(star.n, (*star.legs[:2], (-3,)), star.free_rank)

        monkeypatch.setattr("contactsurgery.lattice.presentation", mutated)
        assert main(["obstruction", "--g", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cross-check failed: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_largest_q_still_certifies(self, capsys):
        assert main(["obstruction", "--g", "741", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["q"], data["obstruction_holds"]) == (40, True)

    @pytest.mark.parametrize("g, q", [(780, 41), (999000, 1415), (4499999, 3001)])
    def test_certifies_above_the_old_search_limit(self, g, q, capsys):
        assert main(["obstruction", "--g", str(g), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["q"], data["rank"], data["obstruction_holds"]) == (q, 2 * q, True)

    @pytest.mark.parametrize(
        "g, q",
        [
            (4501500, 3002),
            pytest.param(10**1000 * (10**1000 + 1) // 2, 10**1000 + 2, id="g-about-1e2000"),
        ],
    )
    def test_above_the_chain_bound(self, g, q, monkeypatch, capsys):
        def refuse(inv):
            raise AssertionError("a leg was built")

        monkeypatch.setattr("contactsurgery.lattice.presentation", refuse)
        assert main(["obstruction", "--g", str(g)]) == 2
        message = f"error: q = {q} is above the chain bound q <= 3001 (g <= 4499999)\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("g, q", [(45, 11), (55, 12), (66, 13), (78, 14)])
    def test_large_genus_on_a_shallow_stack(self, g, q, capsys):
        # the search keeps its own stack, so the call needs only a few
        # dozen Python frames above this one at any q
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            code = main(["obstruction", "--g", str(g), "--json"])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["q"] == q
        assert data["obstruction_holds"] is True
        assert data["embedding"] is None


class TestWitnessCommand:
    def test_json(self, capsys):
        assert main(["witness", "--g", "1", "--count", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "g": 1,
            "count": 2,
            "alpha": 7,
            "rotations": [3, 5],
            "orders": [5, 3],
        }

    def test_exhaustion_is_invalid_input(self, capsys):
        assert main(["witness", "--g", "1", "--count", "2", "--max-base", "1"]) == 2

    def test_large_count_exhausts_with_exit_2(self, capsys):
        assert main(["witness", "--g", "1", "--count", "50", "--max-base", "60"]) == 2
        assert capsys.readouterr().err == "error: no valid witness with base elements <= 60\n"

    @pytest.mark.parametrize(
        "options",
        [
            ["--g", "1", "--count", "1000000"],
            ["--g", "1", "--count", "20000", "--max-base", "300000"],
            ["--g", "1" + "0" * 1000, "--count", "2"],
            ["--g", "1000000000001", "--count", "2"],
            ["--g", "1", "--count", "101"],
            ["--g", "1", "--count", "2", "--max-base", "1000001"],
        ],
    )
    def test_bounds_refused_with_one_line(self, options, capsys):
        assert main(["witness", *options, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: witness needs g <= 10^12, count <= 100 and max_base <= 10^6\n"

    def test_largest_document_under_one_megabyte(self, capsys):
        argv = ["witness", "--g", "1000000000000", "--count", "100", "--max-base", "1000000"]
        assert main(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)["rotations"]) == 100
        assert len(out.encode("utf-8")) < 1 << 20

    def test_skewed_c1_fails_the_cross_check_with_exit_3(self, monkeypatch, capsys):
        original = homology_module.spinc_offset

        def skewed(*args):
            cls = original(*args)
            return SpinCClass(cls.offset, cls.modulus, cls.c1_coefficient + 2)

        monkeypatch.setattr(homology_module, "spinc_offset", skewed)
        assert main(["witness", "--g", "1", "--count", "2", "--json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: cross-check failed:"
            " witness order disagrees with the c1 order of its rotation\n"
        )


class TestNormalizeCommand:
    def test_absorbs_overflow(self, capsys):
        code = main(["normalize", "--g", "1", "--n", "3", "--pairs", "5/7", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["normal_form"] == {"g": 1, "n": 4, "pairs": [[5, 2]]}
        assert data["e_invariant"] == "22/5"

    def test_no_pairs(self, capsys):
        assert main(["normalize", "--g", "0", "--n", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["normal_form"] == {"g": 0, "n": 5, "pairs": []}

    def test_malformed_pairs(self, capsys):
        assert main(["normalize", "--g", "0", "--n", "5", "--pairs", "5-7"]) == 2


class TestCfCommand:
    def test_expand(self, capsys):
        assert main(["cf", "--r=-7/5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"] == [-2, -2, -3]
        assert data["stabilization_counts"] == [1, 0, 1]

    def test_evaluate(self, capsys):
        # leading-dash values need the --flag=value form
        assert main(["cf", "--entries=-2,-2,-3"]) == 0
        assert "value: -7/5" in capsys.readouterr().out

    def test_exactly_one_input(self, capsys):
        assert main(["cf"]) == 2
        capsys.readouterr()
        assert main(["cf", "--r=-2", "--entries", "-2"]) == 2

    def test_nonnegative_rejected(self, capsys):
        assert main(["cf", "--r", "1/2"]) == 2


class TestChainBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cf", "--r=-1/1000000000"],
            ["cf", "--r=-1/1000000000000", "--json"],
            ["convert", "--r=1/1000000000"],
            ["convert", "--r=-1/1000000000", "--json"],
            ["convert", "--r=2/2000000001"],
            ["report", "--g", "1", "--n", "1000000000", "--alpha", "3", "--sign", "+", "--r", "1"],
        ],
    )
    def test_refused_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 3000" in err

    @pytest.mark.parametrize("argv", [["cf", "--r=-1e5000"], ["convert", "--r=-1e5000", "--json"]])
    def test_integer_beyond_str_limit_is_invalid_input(self, argv, capsys):
        # 10^5000 has more digits than Python converts to str by default
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBoundedArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["convert", "--r=1e100000000"], "the exponent of --r must be at most 4300"),
            (["cf", "--r=-1e100000000"], "the exponent of --r must be at most 4300"),
            (["cf", "--r=-1e-1_000_000_000", "--json"], "the exponent of --r must be at most 4300"),
            (["convert", "--r=-1E4301"], "the exponent of --r must be at most 4300"),
            (["convert", "--r=1/2", "--tb=-10000000000000"], "--tb must lie within -10^12..10^12"),
            (["convert", "--r=1/2", "--rot=1000000000001", "--json"],
             "--rot must lie within -10^12..10^12"),
        ],
    )
    def test_refused_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "r, entries",
        [("-1e3", [-1000]), ("-1.5E1", [-15]), ("-1e0_2", [-100]), ("-25e-1", [-3, -2])],
    )
    def test_exponents_within_the_bound_are_read(self, r, entries, capsys):
        assert main(["cf", f"--r={r}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == entries

    def test_tb_and_rot_at_the_bound_are_accepted(self, capsys):
        assert main(["convert", "--r=-4/3", "--tb=-1000000000000", "--rot=1000000000000"]) == 0


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "contactsurgery",
                "report", "--g", "1", "--n", "2", "--alpha", "1",
                "--sign", "+", "--r", "1", "--json",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["verdicts"]["all_checks_pass"] is True

    def test_unknown_flag_exits_via_parser(self):
        with pytest.raises(SystemExit):
            main(["report", "--sign", "?"])

    @pytest.mark.parametrize("argv", [["normalize", "--g=--", "--n=0"], ["cf", "--r=--"]])
    def test_double_dash_value_exits_via_parser(self, argv, capsys):
        # argparse parses --flag=-- as an empty list, not as a string
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "an option value cannot be '--'" in capsys.readouterr().err


def _outcome(argv) -> tuple:
    """(exit code, stdout, stderr) of one main call, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


# command names (also as values and as prefixes), separators, unknown and
# abbreviated options, every option flag, and a few values
_FLAGS = sorted({flag for _, options, _ in cli._SUBCOMMANDS.values() for flag, _ in options})
_TOKENS = [
    *cli._SUBCOMMANDS, "rep", "obs", "--", "-h", "--he", "-x", *_FLAGS, "--json",
    "--r=report", "1", "0", "+", "-7/5", "--r=-7/5", "5/12,3/1", "1..2",
]
_ARGV_EXAMPLES = [
    [], ["-h"], *([name, "-h"] for name in cli._SUBCOMMANDS), ["--", "report"],
    ["-x", "report"], ["cf", "--r", "report"], ["rep", "--g", "1"], ["report", "--he"],
    ["cf", "--r", "report", "-h"], ["report", "-h", "sweep"], ["bogus"], ["report"], ["--json"],
]


def _with_examples(test):
    for argv in _ARGV_EXAMPLES:
        test = example(argv)(test)
    return test


def _parser_inits(monkeypatch, argvs) -> list[int]:
    """ArgumentParser.__init__ calls of each main(argv) in turn, from an empty cache."""
    calls = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._subparser.cache_clear()
    counts = []
    for argv in argvs:
        calls.clear()
        with contextlib.suppress(SystemExit):
            main(argv)
        counts.append(len(calls))
    return counts


class TestParserFilter:
    """main builds a subparser only for the subcommands its argv names.

    Every name keeps its help line; the subparsers action's parser_class
    maps a name that is not a token of argv to None, and argparse reads
    only the names and help lines for usage, -h and its errors.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_TOKENS), max_size=7))
    @_with_examples
    def test_same_outcome_as_the_full_parser(self, argv):
        full = cli._build_parser
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("COLUMNS", "80")
            # the reference builds every subparser anew, past the cache
            patch.setattr(cli, "_build_parser", lambda _: full(list(cli._SUBCOMMANDS)))
            patch.setattr(cli, "_subparser", cli._subparser.__wrapped__)
            expected = _outcome(argv)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("COLUMNS", "80")
            assert _outcome(argv) == expected

    @given(st.lists(st.sampled_from(_TOKENS), max_size=7))
    @_with_examples
    def test_help_only_on_the_named_subcommands(self, argv):
        parser = cli._build_parser(argv)
        (subparsers,) = (
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        )
        assert "[-h]" in parser.format_usage()
        assert list(subparsers.choices) == list(cli._SUBCOMMANDS)
        assert [(action.dest, action.help) for action in subparsers._get_subactions()] == [
            (name, help_text) for name, (help_text, _, _) in cli._SUBCOMMANDS.items()
        ]
        for name, subparser in subparsers.choices.items():
            if name in argv:
                assert "[-h]" in subparser.format_usage(), name
            else:
                assert subparser is None, name

    @pytest.mark.parametrize(
        "argv, inits", [(["cf", "--r=-7/5"], 2), (["cf", "--r", "report"], 3), (["bogus"], 1)]
    )
    def test_one_parser_per_named_subcommand(self, argv, inits, monkeypatch, capsys):
        """With the cache empty, a call builds the top-level parser and one
        per named subcommand; the same argv again builds only the top-level one."""
        counts = _parser_inits(monkeypatch, [argv, argv])
        assert counts == [inits, 1]

    def test_each_subparser_is_built_once_per_process(self, monkeypatch, capsys):
        argvs = [["cf", "--r=-7/5"], ["cf", "--r=-7/5"], ["cf", "--r", "report"], ["bogus"]]
        assert _parser_inits(monkeypatch, argvs) == [2, 1, 2, 1]

    def test_argv_none_reads_sys_argv(self, monkeypatch, capsys):
        argv = ["obstruction", "--g", "1", "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["contactsurgery", *argv])
        assert main() == 0
        assert capsys.readouterr() == expected

    def test_tuple_argv(self, capsys):
        assert main(["cf", "--r=-7/5"]) == 0
        expected = capsys.readouterr()
        assert main(("cf", "--r=-7/5")) == 0
        assert capsys.readouterr() == expected


# one short valid call per subcommand, and the pairs whose options differ
_VALID_ARGV = [
    ["convert", "--r=-4/3"], ["convert", "--r=4/7", "--tb=-2", "--json"],
    ["report", "--g", "1", "--n", "2", "--alpha", "3", "--sign", "+", "--r", "1"],
    ["sweep", "--g-range", "1..1", "--alpha-range", "1..2"], ["sweep", "--mu-only", "--json"],
    ["obstruction", "--g", "1"], ["witness", "--g", "1", "--count", "2", "--json"],
    ["normalize", "--g", "1", "--n", "3", "--pairs", "5/12,3/1"],
    ["normalize", "--g", "0", "--n", "1"],
    ["cf", "--r=-7/5"], ["cf", "--entries=-2,-3", "--json"],
]


def _fresh_outcome(argv) -> tuple:
    """_outcome of argv with every subparser built anew."""
    cli._subparser.cache_clear()
    return _outcome(argv)


class TestParserCache:
    """Each subparser is built once per process and carries no state from
    one main call to the next: a warm call's exit code, stdout and stderr
    are those of the same argv right after cache_clear()."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["60", "80", "120"]),
                st.sampled_from(_VALID_ARGV)
                | st.sampled_from(_ARGV_EXAMPLES)
                | st.lists(st.sampled_from(_TOKENS), max_size=7),
            ),
            max_size=5,
        )
    )
    def test_warm_calls_match_fresh_ones(self, sequence):
        def outcomes(run) -> list:
            results = []
            with pytest.MonkeyPatch.context() as patch:
                for columns, argv in sequence:
                    patch.setenv("COLUMNS", columns)
                    results.append(run(argv))
            return results

        # the second pass finds every subparser it names in the cache
        warm = outcomes(_outcome) + outcomes(_outcome)
        assert cli._subparser.cache_info().currsize <= len(cli._SUBCOMMANDS)
        assert warm == outcomes(_fresh_outcome) * 2

    def test_help_wraps_at_the_width_of_each_call(self, monkeypatch):
        widths = ("60", "120", "60")
        warm, fresh = [], []
        cli._subparser.cache_clear()
        for columns in widths:
            monkeypatch.setenv("COLUMNS", columns)
            warm.append(_outcome(["report", "-h"]))
        for columns in widths:
            monkeypatch.setenv("COLUMNS", columns)
            fresh.append(_fresh_outcome(["report", "-h"]))
        assert warm == fresh
        assert warm[0] != warm[1]

    @pytest.mark.parametrize(
        "first, second",
        [
            (["report", "--sign", "?"], _VALID_ARGV[2]),
            (["cf", "--r=-7/5"], ["cf", "--entries=-2,-3"]),
            (["sweep", "--mu-only", "--json"], ["sweep", "--json"]),
        ],
    )
    def test_a_call_leaves_nothing_to_the_next(self, first, second, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        expected = _fresh_outcome(first), _fresh_outcome(second)
        cli._subparser.cache_clear()
        assert (_outcome(first), _outcome(second)) == expected
        assert cli._subparser.cache_info().currsize == 1

    def test_plain_sweep_after_mu_only_reads_false(self, capsys):
        assert main(["sweep", "--mu-only", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"]["mu_only"] is True
        assert main(["sweep", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"]["mu_only"] is False
