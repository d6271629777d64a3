"""Acceptance gate: ten exact-arithmetic criteria, one test and verdict line each.

Every comparison below is exact rational equality (tolerance zero).  Each
test prints a single "<id> ...: PASS/FAIL" line; the test fails iff the
line says FAIL.
"""

import math
import random
from fractions import Fraction

from contactsurgery.contfrac import neg_cf_expand, neg_cf_value
from contactsurgery.gauge import d3_certificate, moy_check, omega_red_closed, omega_red_long
from contactsurgery.homology import Witness, distinct_witness, mu_order, spinc_offset
from contactsurgery.lattice import (
    Lattice,
    embeds_in_diagonal,
    lambda_q,
    nonfillability_obstruction,
)
from contactsurgery.legendrian import convert, enumerate_choices
from contactsurgery.seifert import (
    SeifertInvariants,
    coefficients_from_seifert,
    normalize,
    rolfsen_twist,
    seifert_from_coefficients,
)


def _verdict(name: str, failures: list, checked: int) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status} ({checked} checks" + (
        ")" if not failures else f", first failure {failures[0]})"
    ))
    assert not failures, f"{name}: FAIL at {failures[:3]}"


def _admissible(alpha: int, sign: int) -> list[int]:
    low = -alpha + (1 if sign == 1 else 0)
    high = alpha - (0 if sign == 1 else 1)
    return [r for r in range(low, high + 1) if (r - alpha) % 2 == 0]


def _full_grid():
    for g in range(1, 4):
        for n in range(2 * g, 2 * g + 5):
            for alpha in range(1, 16):
                for sign in (1, -1):
                    for r in _admissible(alpha, sign):
                        yield g, n, alpha, sign, r


def test_a1_correction_term_identity():
    failures, checked = [], 0
    for point in _full_grid():
        checked += 1
        if omega_red_long(*point) != omega_red_closed(*point):
            failures.append(point)
    _verdict("A1 correction-term identity", failures, checked)


def test_a2_d3_gap_law():
    failures, checked = [], 0
    for point in _full_grid():
        checked += 1
        g = point[0]
        verdict = d3_certificate(g, omega_red_long(*point), omega_red_closed(*point))
        if verdict["d3_contact"] - verdict["d3_canonical"] != 2 * g + 1:
            failures.append(point)
    _verdict("A2 d3 gap law", failures, checked)


def test_a3_mu_order_closed_form():
    failures, checked = [], 0
    for g in range(1, 6):
        for alpha in range(1, 51):
            checked += 1
            inv = SeifertInvariants(g, 2 * g, ((alpha, 1),))
            if mu_order(inv) != 2 * g * alpha + 1:
                failures.append((g, alpha))
    _verdict("A3 mu-order closed form", failures, checked)


def test_a4_degree_window_verdict():
    failures, checked = [], 0
    for g in range(1, 4):
        for alpha in range(1, 16):
            deg_k = Fraction((2 * g - 1) * alpha - 1, alpha)
            for sign in (1, -1):
                for r in _admissible(alpha, sign):
                    checked += 1
                    k = spinc_offset(g, 2 * g, alpha, sign, r).offset
                    verdict = moy_check(g, 2 * g, alpha, k)
                    rep = verdict.representative
                    sandwich = deg_k < rep < 2 * g + Fraction(1, alpha)
                    if not (
                        verdict.reducibles_only
                        and verdict.dirac_kernels_trivial
                        and sandwich
                    ):
                        failures.append((g, alpha, sign, r))
    _verdict("A4 degree-window verdict", failures, checked)


def test_a5_conversion_anchor():
    failures, checked = [], 0
    for alpha in range(1, 21):
        checked += 1
        diagram = convert(Fraction(alpha + 1, 2 * alpha + 1))
        choices = enumerate_choices(diagram)
        shape_ok = (
            tuple(c.contact_coefficient for c in diagram.components) == (1, 1, -1)
            and diagram.stab_counts == (0, 0, alpha)
            and diagram.choice_count == alpha + 1
            and len(choices) == alpha + 1
            and len({c.signs for c in choices}) == alpha + 1
        )
        if not shape_ok:
            failures.append(alpha)
    _verdict("A5 conversion anchor", failures, checked)


def test_a6_rotation_partition():
    failures, checked = [], 0
    for n in (3, 4, 5):
        m = n - 2
        for alpha in range(1, 7):
            checked += 1
            coefficient = Fraction((m + 1) * alpha + 1, (m + 2) * alpha + 1)
            diagram = convert(coefficient)
            choices = enumerate_choices(diagram)
            # component 2 is the single-stabilization pushoff whose sign
            # selects the branch; the final rotation labels the structure
            plus = sorted(c.final_rot for c in choices if c.signs[2] == (1, 0))
            minus = sorted(c.final_rot for c in choices if c.signs[2] == (0, 1))
            if not (
                len(choices) == 2 * alpha
                and plus == list(range(-alpha + 2, alpha + 1, 2))
                and minus == list(range(-alpha, alpha - 1, 2))
            ):
                failures.append((n, alpha))
    _verdict("A6 rotation partition", failures, checked)


def test_a7_lattice_obstruction():
    failures, checked = [], 0
    embeddable = [
        Lattice(gram=((-1,),), rank=1),
        Lattice(gram=((-2,),), rank=1),
        Lattice(gram=((-2, 1), (1, -2)), rank=2),
    ]
    for lat in embeddable:
        checked += 1
        emb = embeds_in_diagonal(lat)
        sound = emb is not None and all(
            emb.pairing(i, j) == lat.gram[i][j]
            for i in range(lat.rank)
            for j in range(lat.rank)
        )
        if not sound:
            failures.append(lat.gram)
    checked += 1
    if embeds_in_diagonal(lambda_q(3)) is not None:
        failures.append("lambda_3 embedded")
    checked += 1
    if not nonfillability_obstruction(1)["obstruction_holds"]:
        failures.append("genus-1 obstruction failed")
    _verdict("A7 lattice obstruction", failures, checked)


def test_a8_distinctness_witness():
    failures, checked = [], 1
    # distinct_witness self-validates its result against the c1 orders
    # of spinc_offset before returning; the frozen value pins the search order
    witness = distinct_witness(1, 2)
    if witness != Witness(alpha=7, rotations=(3, 5), orders=(5, 3)):
        failures.append(witness)
    _verdict("A8 distinctness witness", failures, checked)


def test_a9_continued_fraction_round_trip():
    failures, checked = [], 0
    for q in range(1, 201):
        for p in range(-200, 0):
            if math.gcd(-p, q) != 1:
                continue
            checked += 1
            r = Fraction(p, q)
            if neg_cf_value(neg_cf_expand(r)) != r:
                failures.append(r)
    _verdict("A9 continued-fraction round trip", failures, checked)


def test_a10_normal_form_round_trip():
    failures, checked = [], 0
    rng = random.Random(20260819)
    for _ in range(1000):
        checked += 1
        g = rng.randint(1, 3)
        n = rng.randint(2 * g, 2 * g + 5)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            alpha = rng.randint(2, 15)
            beta = rng.choice(
                [b for b in range(1, alpha) if math.gcd(alpha, b) == 1]
            )
            pairs.append((alpha, beta))
        inv = SeifertInvariants(g, n, tuple(pairs))
        scrambled = inv
        for i in range(len(pairs)):
            for _ in range(rng.randint(0, 2)):
                scrambled = rolfsen_twist(scrambled, i, rng.choice((1, -1)))
        ok = (
            scrambled.e_invariant == inv.e_invariant
            and normalize(scrambled) == inv
            and normalize(scrambled).e_invariant == scrambled.e_invariant
            and seifert_from_coefficients(g, coefficients_from_seifert(inv)) == inv
        )
        if not ok:
            failures.append((inv, scrambled))
    _verdict("A10 normal-form round trip", failures, checked)
