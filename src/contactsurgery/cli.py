"""Command line driver tying the pipeline together.

Subcommands: convert, report, sweep, obstruction, witness, normalize, cf,
all from one table, _SUBCOMMANDS.  Every call builds the top-level
parser with all seven names and help lines, and its parser_class hands
out each subcommand's parser (with -h, options and --json) from
_subparser, which builds it on its first call and reuses it in every
later call in the same process, so main(argv) may be called in process
as often as needed.  A fresh process imports only the layers its
subcommand runs: importing cli loads contfrac, seifert, intmat and
homology (through the package root), and the builders that run gauge,
lattice or legendrian import them in their first line, once per call
and never per point: build_report and run_sweep import gauge,
_diagram_summary (convert and report) imports legendrian, and
_obstruction imports lattice.  So a fresh cf, normalize or witness
loads none of the three, obstruction loads lattice alone and sweep
gauge alone.
Each subcommand is a document builder (parsed arguments -> dict) and a
text renderer (dict -> lines) that reads only that document.  Every
numeric value is exact; --json emits the document in canonical form
(rationals as "p/q" strings, stable key order, byte-identical for
identical inputs), the default is the short human listing rendered from
the same document.  The --json bytes are those of
json.dumps(document, indent=2, default=str) and a newline, pinned by a
reference test against that call; render_json writes them without
json's pure-Python encoder, and renders documents only: a value that no
builder emits (a float, a tuple, a subclass, a non-str key) raises
TypeError.  main alone writes output and picks the exit code.

Exit codes: 0 success, 2 invalid input, 3 internal cross-check failure.
A 3 means two routes to the same quantity disagreed, which is a bug
detector, never a mathematical outcome.

Note on negative arguments: values starting with a dash must be passed
in --flag=value form (e.g. --r=-4/3), since "-4/3" alone parses as an
option string.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .contfrac import NegContinuedFraction, neg_cf_expand, neg_cf_value, stabilization_counts
from .errors import ConditionViolation
from .homology import (
    admissible_blocks,
    check_admissible,
    distinct_witness,
    homology,
    mu_order,
    presentation,
    spinc_offset,
)
from .seifert import SeifertInvariants, coefficients_from_seifert, normalize

__all__ = ["build_report", "render_json", "main"]

# Python's default digit limit for int <-> str: 10**e above it cannot be printed
_EXPONENT_LIMIT = 4300
# fibers of normalize: e_invariant's Fraction sum grows quadratically in them; the
# first 1,000 primes as p/1 (lcm about 10^3392) run in about 15 ms (Python 3.11,
# shared 2-vCPU VM), and an lcm of the multiplicities below _LCM_LIMIT keeps the
# sum's denominator printable (computed once: 10**4300 takes about 40 us); the
# e invariant's numerator and the normal form's n are held below it too
_PAIRS_LIMIT = 1000
_LCM_LIMIT = 10**_EXPONENT_LIMIT
# |tb| and |rot| of convert: the longest chain then writes under 1 MB of JSON
_TB_ROT_LIMIT = 10**12
# |g|, |n| and |alpha| of report (|r| <= alpha by admissibility): the report's
# largest integers then have about 3,000 digits, below Python's digit limit
_REPORT_LIMIT = 10**1000
# sweep work (best of five in-process runs, Python 3.11, shared 2-vCPU VM): a point,
# one omega comparison on the block cores, costs about 1.2 us (about 1.6 us at
# n = 2g with its MOY verdict) and a (g, alpha) block, one closed-form mu order,
# about 4 us; the largest grid runs in about 0.3 s as one process, and the
# genus-50 MOY grid (249,500 points at n = 2g) in about 0.4 s
_SWEEP_POINT_LIMIT = 250_000
_SWEEP_BLOCK_LIMIT = 20_000


# exact type -> its JSON text, by json's own C functions where it has one; a
# subclass is not matched, and _render refuses it
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    Fraction: lambda value: encode_basestring_ascii(str(value)),
}


def render_json(document: dict) -> str:
    """Canonical JSON: insertion-ordered keys, rationals as strings.

    The bytes are those of json.dumps(document, indent=2, default=str)
    plus a newline; tests/reference.py keeps that call as the reference.
    CPython's json runs its pure-Python encoder whenever indent is set,
    so each container is joined here in one pass, with its scalars
    rendered by the C functions json itself calls.  Only documents are
    rendered; any other value raises TypeError (see _render).
    """
    return _render(document, "\n") + "\n"


def _render(value, newline: str) -> str:
    """value as json.dumps(value, indent=2, default=str) writes it at the
    depth whose line break and indent are newline.

    A document holds str-keyed dicts, lists and the exact types of
    _SCALARS.  Any other value (a float, a tuple, a set, a subclass)
    raises TypeError naming its type, and a key that is not a str raises
    encode_basestring_ascii's TypeError.  The traversal is json's, keys
    before their values, so an integer above Python's digit limit raises
    the same ValueError at the same value.  Documents are trees, so
    json's circular-reference check is not kept.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    kind = type(value)
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _render(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        items = [_render(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"a document holds no {kind.__name__} value")


def _diagram_summary(coefficient: Fraction, tb: int = -1, rot: int = 0) -> dict:
    from .legendrian import convert

    diagram = convert(coefficient, tb, rot)
    return {
        "coefficient": coefficient,
        "components": [
            {
                "contact_coefficient": c.contact_coefficient,
                "stabilizations": c.stab_count,
                "parent": "root" if i == 0 else i - 1,
                "tb": c.tb,
                "rot": c.rot,
            }
            for i, c in enumerate(diagram.components)
        ],
        "stabilization_counts": list(diagram.stab_counts),
        "choice_count": diagram.choice_count,
    }


def build_report(g: int, n: int, alpha: int, sign: int, r: int) -> dict:
    """Full structure report; raises ConditionViolation on bad input.

    The verdicts section carries the internal cross-checks: the two
    omega_red routes, the gap law, the mu order read off H1 against its
    closed form, and offset/c1 consistency.  Each omega_red route is
    evaluated once; the d3 pair, the gap and the fillability verdict all
    come from those two values.
    """
    from .gauge import d3_certificate, moy_check, omega_red_closed, omega_red_long

    check_admissible(g, n, alpha, sign, r)
    inv = SeifertInvariants(g, n, ((alpha, 1),))
    coefficient = coefficients_from_seifert(inv)[0]
    p = presentation(inv)
    h = homology(p)
    mu = h.order(p.mu_index)
    spinc = spinc_offset(g, n, alpha, sign, r)
    long_form = omega_red_long(g, n, alpha, sign, r)
    closed_form = omega_red_closed(g, n, alpha, sign, r)
    verdict = d3_certificate(g, long_form, closed_form)
    moy = moy_check(g, n, alpha, spinc.offset)
    checks = {
        "omega_red_forms_agree": long_form == closed_form,
        "gap_is_2g_plus_1": verdict["gap_law"],
        "mu_order_matches_closed_form": mu == n * alpha + 1,
        "c1_consistent_with_offset": (
            spinc.c1_coefficient is None
            or (alpha + 2 + 2 * spinc.offset - spinc.c1_coefficient) % spinc.modulus == 0
        ),
    }
    return {
        "input": {
            "g": g,
            "n": n,
            "alpha": alpha,
            "sign": "+" if sign == 1 else "-",
            "r": r,
        },
        "diagram": _diagram_summary(coefficient),
        "homology": {
            "free_rank": h.free_rank,
            "torsion": list(h.torsion),
            "mu_order": mu,
        },
        "spin_c": {
            "offset": spinc.offset,
            "modulus": spinc.modulus,
            "c1_coefficient": spinc.c1_coefficient,
            "c1_order": None if spinc.c1_coefficient is None else spinc.c1_order,
        },
        "invariants": {
            "omega_red_long": long_form,
            "omega_red_closed": closed_form,
            "d3_contact": verdict["d3_contact"],
            "d3_canonical": verdict["d3_canonical"],
            "gap": verdict["gap"],
            "degree_representative": moy.representative,
            "moy": {
                "reducibles_only": moy.reducibles_only,
                "dirac_kernels_trivial": moy.dirac_kernels_trivial,
                "witness_degrees": list(moy.witness_degrees),
            },
        },
        "verdicts": {
            "tight": verdict["tight"],
            "fillable": verdict["fillable"],
            "checks": checks,
            "all_checks_pass": all(checks.values()),
        },
    }


def run_sweep(
    g_range: tuple[int, int],
    n_span: tuple[int, int],
    alpha_range: tuple[int, int],
    mu_only: bool = False,
) -> dict:
    """Identity-suite sweep; n_span holds offsets added to 2g.

    One loop serves both modes: mu_only is the empty offset span (0, -1),
    so it counts no points and evaluates none.  Every g of the grid must
    satisfy the family's g >= 1 (homology.check_admissible at n = 2g)
    before its first (g, alpha) block, in either mode.  Per block, one
    homology.mu_order is checked against 2g*alpha + 1.  That is not an
    independent route: at (alpha, 1) and n = 2g, mu_order's closed form
    is |n*alpha + beta|, the same expression; the independent mu
    cross-checks are the report's H1, a Smith elimination modulo |E| on
    the k x k fiber block (mu_order_matches_closed_form), and the tests.  Per point of
    the grid over the offsets: the omega_red closed-form identity, the
    gap law, and at n = 2g the MOY verdict with its sandwich inequality.

    The points come as (sign, range of r) blocks from
    homology.admissible_blocks, which checks each (g, n, alpha) once and
    yields only the rotations that check_admissible accepts, so no point
    is put through that check.  Each block is handed whole to two
    guard-free verdict generators of gauge, which alone knows the cores'
    integer formats and computes the r-free terms once per block:
    gauge._omega_routes_agree cross-multiplies the unreduced pairs of the
    two omega_red cores once per r, and at n = 2g gauge._moy_holds reads
    the MOY verdict at each r's offset from homology._spinc_offset with
    the sandwich deg K < representative < 2g + 1/alpha.  A block whose
    verdicts all hold records nothing; otherwise its r range is zipped
    with those verdicts, so failures keep the grid's point order: sign +1
    with r ascending, then sign -1.  The long core still asserts rho in
    (0, 1) at every point.  The gap law is read from the identity
    comparison itself, never from gauge.d3_certificate:
    by the algebra in that function's docstring, the gap is 2g + 1
    exactly when the routes agree, so a failed identity is recorded as
    omega_identity and then gap_law, each counted once per point.
    Counts are exact and added up per (g, n, alpha, sign) block; any failure
    is recorded with its coordinates.  Before any evaluation the work is
    counted from the ranges: 2*sum(alpha) points per (g, n) and one mu
    order per (g, alpha) block, or one empty block per g when the alpha
    range is empty.  Above _SWEEP_POINT_LIMIT points or
    _SWEEP_BLOCK_LIMIT blocks it raises ConditionViolation, and so it
    does for g < 1, after the size check.
    """
    from .gauge import _moy_holds, _omega_routes_agree

    def size(low: int, high: int) -> int:
        return max(0, high - low + 1)

    span = (0, -1) if mu_only else n_span
    gs, alphas = size(*g_range), size(*alpha_range)
    # 2*sum(alpha) = (first + last) * alphas per (g, n); a range reaching
    # alpha < 1 undercounts, but fails at its first block
    points = gs * alphas * size(*span) * (alpha_range[0] + alpha_range[1])
    # an empty alpha range still walks every g once
    if points > _SWEEP_POINT_LIMIT or gs * max(alphas, 1) > _SWEEP_BLOCK_LIMIT:
        raise ConditionViolation(
            f"the sweep grid is limited to {_SWEEP_POINT_LIMIT:,} points"
            f" and {_SWEEP_BLOCK_LIMIT:,} (g, alpha) blocks"
        )
    counts = {"omega_identity": 0, "gap_law": 0, "moy": 0, "mu_order": 0}
    failures: list[dict] = []

    def fail(kind: str, point: tuple) -> None:
        failures.append({"check": kind, **dict(zip(("g", "n", "alpha", "sign", "r"), point))})

    for g in range(g_range[0], g_range[1] + 1):
        check_admissible(g, 2 * g, 1, 1, 1)
        for alpha in range(alpha_range[0], alpha_range[1] + 1):
            inv = SeifertInvariants(g, 2 * g, ((alpha, 1),))
            counts["mu_order"] += 1
            if mu_order(inv) != 2 * g * alpha + 1:
                failures.append({"check": "mu_order", "g": g, "alpha": alpha})
            for offset in range(span[0], span[1] + 1):
                n = 2 * g + offset
                for sign, rs in admissible_blocks(g, n, alpha):
                    counts["omega_identity"] += len(rs)
                    counts["gap_law"] += len(rs)
                    agree = list(_omega_routes_agree(g, n, alpha, sign, rs))
                    if offset == 0:
                        counts["moy"] += len(rs)
                        moy = list(_moy_holds(g, n, alpha, sign, rs))
                    else:  # no MOY verdict above n = 2g
                        moy = [True] * len(rs)
                    if all(agree) and all(moy):  # nothing to record in this block
                        continue
                    for r, omega_ok, moy_ok in zip(rs, agree, moy):
                        point = (g, n, alpha, sign, r)
                        if not omega_ok:
                            fail("omega_identity", point)
                            fail("gap_law", point)
                        if not moy_ok:
                            fail("moy", point)
    return {
        "grid": {
            "g": list(g_range),
            "n_span": list(n_span),
            "alpha": list(alpha_range),
            "mu_only": mu_only,
        },
        "checks": counts,
        "failures": failures,
        "all_pass": not failures,
    }


def _parse_range(text: str, g_relative: bool = False) -> tuple:
    """Parse 'a..b' with optional '2g' / '2g+k' terms when g_relative."""

    def term(t: str) -> int:
        t = t.strip()
        if g_relative:
            if t == "2g":
                return 0
            if t.startswith("2g+"):
                return int(t[3:])
        return int(t)

    lo, _, hi = text.partition("..")
    if not _:
        raise ValueError(f"range must look like 'a..b', got {text!r}")
    return term(lo), term(hi)


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        alpha, _, beta = chunk.partition("/")
        if not _:
            raise ValueError(f"pair must look like 'alpha/beta', got {chunk!r}")
        pairs.append((int(alpha), int(beta)))
    return tuple(pairs)


def _rational(text: str) -> Fraction:
    """The --r value of convert and cf, with its exponent bounded.

    Fraction(text) accepts exponent notation and computes 10**exponent
    before anything can look at the value, so an exponent above
    _EXPONENT_LIMIT is refused first; every other text goes to Fraction
    unchanged, with Fraction's own error messages.
    """
    _, marker, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if marker and digits.isdecimal():
        if len(digits) > len(str(_EXPONENT_LIMIT)) or int(digits) > _EXPONENT_LIMIT:
            raise ConditionViolation(f"the exponent of --r must be at most {_EXPONENT_LIMIT}")
    return Fraction(text)


def _convert(args) -> dict:
    for flag, value in (("tb", args.tb), ("rot", args.rot)):
        if abs(value) > _TB_ROT_LIMIT:
            raise ConditionViolation(f"--{flag} must lie within -10^12..10^12")
    return _diagram_summary(_rational(args.r), args.tb, args.rot)


def _convert_text(doc: dict) -> list[str]:
    lines = [f"contact {doc['coefficient']}-surgery as a (+1)/(-1) chain:"]
    for i, c in enumerate(doc["components"]):
        lines.append(
            f"  #{i} ({'+1' if c['contact_coefficient'] == 1 else '-1'})"
            f" stabilizations={c['stabilizations']} parent={c['parent']}"
            f" tb={c['tb']} rot={c['rot']}"
        )
    lines.append(f"stabilization counts: {doc['stabilization_counts']}")
    lines.append(f"stabilization choices: {doc['choice_count']}")
    return lines


def _report(args) -> dict:
    for flag in ("g", "n", "alpha"):
        if abs(getattr(args, flag)) > _REPORT_LIMIT:
            raise ConditionViolation(f"--{flag} must lie within -10^1000..10^1000")
    return build_report(args.g, args.n, args.alpha, 1 if args.sign == "+" else -1, args.r)


def _report_text(doc: dict) -> list[str]:
    inp = doc["input"]
    hom = doc["homology"]
    spc = doc["spin_c"]
    inv = doc["invariants"]
    ver = doc["verdicts"]
    return [
        f"input: g={inp['g']} n={inp['n']} alpha={inp['alpha']}"
        f" sign={inp['sign']} r={inp['r']}",
        f"surgery coefficient: {doc['diagram']['coefficient']}"
        f" ({len(doc['diagram']['components'])} components,"
        f" {doc['diagram']['choice_count']} choices)",
        f"homology: free rank {hom['free_rank']},"
        f" torsion {hom['torsion']}, mu order {hom['mu_order']}",
        f"spin_c: offset {spc['offset']} (mod {spc['modulus']}),"
        f" c1 coefficient {spc['c1_coefficient']}, c1 order {spc['c1_order']}",
        f"omega_red: long {inv['omega_red_long']},"
        f" closed {inv['omega_red_closed']}",
        f"d3: contact {inv['d3_contact']}, canonical {inv['d3_canonical']},"
        f" gap {inv['gap']}",
        f"moy: reducibles_only={inv['moy']['reducibles_only']}"
        f" dirac_kernels_trivial={inv['moy']['dirac_kernels_trivial']}",
        f"verdicts: tight={ver['tight']} fillable={ver['fillable']}"
        f" checks={'PASS' if ver['all_checks_pass'] else 'FAIL'}",
    ]


def _report_passed(doc: dict) -> bool:
    """The checks pass, fillable reads "no (certified)" exactly when the
    gap is nonzero, and at n = 2g the MOY verdict holds as in sweep
    (gauge._moy_holds): both criteria, and deg K < representative <
    2g + 1/alpha with deg K = 2g - 2 + (alpha - 1)/alpha.  Above n = 2g
    no MOY field is checked, as sweep records no MOY verdict there."""
    inp, invariants, verdicts = doc["input"], doc["invariants"], doc["verdicts"]
    certified = verdicts["fillable"] == "no (certified)"
    if not verdicts["all_checks_pass"] or certified != (invariants["gap"] != 0):
        return False
    g = inp["g"]
    if inp["n"] != 2 * g:
        return True
    moy, unit = invariants["moy"], Fraction(1, inp["alpha"])
    return (
        moy["reducibles_only"]
        and moy["dirac_kernels_trivial"]
        and 2 * g - 1 - unit < invariants["degree_representative"] < 2 * g + unit
    )


def _sweep(args) -> dict:
    g_range = _parse_range(args.g_range)
    alpha_range = _parse_range(args.alpha_range)
    n_span = _parse_range(args.n_range, g_relative=True)
    return run_sweep(g_range, n_span, alpha_range, mu_only=args.mu_only)


def _sweep_text(doc: dict) -> list[str]:
    lines = [f"{kind}: {count} checks" for kind, count in doc["checks"].items()]
    lines.append("all pass" if doc["all_pass"] else f"FAILURES: {doc['failures']}")
    return lines


def _sweep_passed(doc: dict) -> bool:
    return doc["all_pass"]


def _obstruction(args) -> dict:
    from .lattice import nonfillability_obstruction

    return nonfillability_obstruction(args.g)


def _obstruction_text(doc: dict) -> list[str]:
    return [
        f"g={doc['g']}: d={doc['d']}, lattice rank {doc['rank']} (q={doc['q']})",
        f"embeddable in a diagonal lattice: {doc['embeddable']}",
        f"obstruction holds: {doc['obstruction_holds']}",
        doc["narrative"],
    ]


def _witness(args) -> dict:
    witness = distinct_witness(args.g, args.count, max_base=args.max_base)
    return {
        "g": args.g,
        "count": args.count,
        "alpha": witness.alpha,
        "rotations": list(witness.rotations),
        "orders": list(witness.orders),
    }


def _witness_text(doc: dict) -> list[str]:
    return [
        f"alpha = {doc['alpha']}",
        f"rotations = {doc['rotations']}",
        f"c1 orders = {doc['orders']} (pairwise distinct)",
    ]


def _normalize(args) -> dict:
    pairs = _parse_pairs(args.pairs) if args.pairs else ()
    lcm = 1
    for alpha, _ in pairs:
        lcm = math.lcm(lcm, alpha)
        if len(pairs) > _PAIRS_LIMIT or lcm >= _LCM_LIMIT:
            raise ConditionViolation(
                f"--pairs takes at most {_PAIRS_LIMIT} fibers,"
                f" whose multiplicities have an lcm below 10^{_EXPONENT_LIMIT}"
            )
    inv = SeifertInvariants(args.g, args.n, pairs)
    normal, e = normalize(inv), inv.e_invariant
    # the normal form's n lies within len(pairs) of e, so it may pass the bound alone
    if abs(e.numerator) >= _LCM_LIMIT or abs(normal.n) >= _LCM_LIMIT:
        raise ConditionViolation(
            "the e invariant's numerator and the normal form's n"
            f" must lie below 10^{_EXPONENT_LIMIT} in absolute value"
        )
    return {
        "input": {"g": inv.g, "n": inv.n, "pairs": [list(p) for p in inv.pairs]},
        "normal_form": {
            "g": normal.g,
            "n": normal.n,
            "pairs": [list(p) for p in normal.pairs],
        },
        "e_invariant": e,
    }


def _normalize_text(doc: dict) -> list[str]:
    normal = doc["normal_form"]
    return [
        f"normal form: g={normal['g']} n={normal['n']}"
        f" pairs={[tuple(p) for p in normal['pairs']]}",
        f"e invariant: {doc['e_invariant']}",
    ]


def _cf(args) -> dict:
    if (args.r is None) == (args.entries is None):
        raise ValueError("pass exactly one of --r or --entries")
    if args.r is not None:
        coefficient = _rational(args.r)
        cf = neg_cf_expand(coefficient)
        return {
            "coefficient": coefficient,
            "entries": list(cf.entries),
            "stabilization_counts": stabilization_counts(cf),
        }
    tokens = [t.strip() for t in args.entries.split(",")]
    if not all(t.removeprefix("-").isdigit() for t in tokens):
        raise ValueError(f"entries must be a comma list of integers, got {args.entries!r}")
    cf = NegContinuedFraction(tuple(int(t) for t in tokens))
    return {"entries": list(cf.entries), "value": neg_cf_value(cf)}


def _cf_text(doc: dict) -> list[str]:
    if "value" in doc:
        return [f"value: {doc['value']}"]
    return [
        f"entries: {doc['entries']}",
        f"stabilization counts: {doc['stabilization_counts']}",
    ]


def _no_pass_flag(doc: dict) -> bool:
    return True


# name -> (help, ((flag, keyword arguments), ...), set_defaults), in the
# order of the top-level usage line; --json is added after the options
_SUBCOMMANDS = {
    "convert": (
        "rational contact surgery to a (+1)/(-1) chain",
        (
            ("--r", dict(required=True, help="surgery coefficient, e.g. 4/7 or -4/3")),
            ("--tb", dict(type=int, default=-1, help="root Thurston-Bennequin number")),
            ("--rot", dict(type=int, default=0, help="root rotation number")),
        ),
        dict(build=_convert, render=_convert_text),
    ),
    "report": (
        "full invariant report for one structure",
        (
            ("--g", dict(type=int, required=True)),
            ("--n", dict(type=int, required=True)),
            ("--alpha", dict(type=int, required=True)),
            ("--sign", dict(choices=["+", "-"], required=True)),
            ("--r", dict(type=int, required=True)),
        ),
        dict(build=_report, render=_report_text, passed=_report_passed),
    ),
    "sweep": (
        "identity suite over a parameter grid",
        (
            ("--g-range", dict(default="1..3")),
            (
                "--n-range",
                dict(
                    default="2g..2g+4",
                    help="n relative to 2g: terms are 2g, 2g+k, or a bare offset k",
                ),
            ),
            ("--alpha-range", dict(default="1..15")),
            ("--mu-only", dict(action="store_true", help="check only mu orders")),
        ),
        dict(build=_sweep, render=_sweep_text, passed=_sweep_passed),
    ),
    "obstruction": (
        "diagonal lattice non-embedding certificate",
        (("--g", dict(type=int, required=True)),),
        dict(build=_obstruction, render=_obstruction_text),
    ),
    "witness": (
        "alpha certifying pairwise distinct structures",
        (
            ("--g", dict(type=int, required=True)),
            ("--count", dict(type=int, required=True)),
            ("--max-base", dict(type=int, default=10000)),
        ),
        dict(build=_witness, render=_witness_text),
    ),
    "normalize": (
        "Seifert invariants to normal form",
        (
            ("--g", dict(type=int, required=True)),
            ("--n", dict(type=int, required=True)),
            ("--pairs", dict(default="", help="comma list alpha/beta, e.g. 5/12,3/1")),
        ),
        dict(build=_normalize, render=_normalize_text),
    ),
    "cf": (
        "negative continued fraction expand/evaluate",
        (
            ("--r", dict(help="rational to expand, e.g. -7/5")),
            ("--entries", dict(help="comma list to evaluate, e.g. -2,-2,-3")),
        ),
        dict(build=_cf, render=_cf_text),
    ),
}


_PROG = "contactsurgery"


@functools.cache
def _subparser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built once per process.

    It depends on the _SUBCOMMANDS entry of name alone, and parsing only
    reads it: argparse builds each help formatter, with the terminal
    width of that moment, when it formats usage, help or an error.
    """
    _, options, defaults = _SUBCOMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"{_PROG} {name}")
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    # added last, so every usage line and option listing ends with it
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(**defaults)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The parser: every subcommand with its help line and _subparser(name).

    The top-level usage, help and errors read only the names and help
    lines of the subparsers action; its parser_class returns the cached
    _subparser(name), with -h, options and --json, for every name, so a
    call builds the top-level parser alone once each subparser is built.
    """
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description=(
            "Exact invariants of contact surgeries on Seifert fibered spaces. "
            "Negative values must use --flag=value form, e.g. --r=-4/3."
        ),
    )
    # report and sweep override this with their document's pass flag
    parser.set_defaults(passed=_no_pass_flag)
    # argparse passes prog="contactsurgery <name>", which _subparser sets itself
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda command, **_: _subparser(command),
    )
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, command=name)
    return parser


def main(argv: list[str] | tuple[str, ...] | None = None) -> int:
    """Run one subcommand: build its document, write it, exit 0, 2 or 3."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse parses --flag=-- as []
        parser.error("an option value cannot be '--'")
    try:
        document = args.build(args)
        # rendered before writing: an integer above Python's digit limit
        # for str() (say from --r=-1e5000) is refused here, not midway
        text = render_json(document) if args.json else "\n".join(args.render(document)) + "\n"
    except (ValueError, ZeroDivisionError) as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    except AssertionError as error:  # an internal cross-check, as in distinct_witness
        sys.stderr.write(f"error: cross-check failed: {error}\n")
        return 3
    sys.stdout.write(text)
    return 0 if args.passed(document) else 3


if __name__ == "__main__":
    sys.exit(main())
