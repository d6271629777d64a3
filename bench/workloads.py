"""Seeded operation streams and their exact references.

Each workload is an endless stream of blocks of `Op`s drawn from
`random.Random` seeded by the workload name and the run seed, so one
seed always yields the same inputs in the same order.  Blocks have a
fixed composition (op kinds and, where cost depends on size, stratified
size draws), and runs end on a block boundary, so every run exercises
the same mix and only the concrete inputs change.

Every reference below is computed here, with integer recursions and
`fractions.Fraction`, never by the function under test.  All comparisons
are exact equality.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple


def package(name: str):
    """A contactsurgery submodule.  Attribute access happens at call time,
    so functions swapped in by the tracer are the ones that run."""
    return importlib.import_module(f"contactsurgery.{name}")


@dataclass
class Op:
    """One operation: `run` calls the program, `check` judges its output.

    key is a canonical text of the input, used for the input digest and
    in failure reports.
    points counts the admissible (g, n, alpha, sign, r) points the op
    evaluates, the base of gauge.omega_evals_per_point.  defect marks
    inputs that hit a known defect, so their failures can be told apart.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    points: int = 0
    defect: bool = False


# ----------------------------------------------------------------------
# independent exact references


def neg_cf_entries(p: int, q: int) -> list[int]:
    """Negative continued fraction of p/q < 0 (q > 0) by integer Euclid."""
    entries = []
    while True:
        c = p // q
        entries.append(c)
        rem = p - c * q  # 0 <= rem < q
        if rem == 0:
            return entries
        p, q = -q, rem


def neg_cf_fraction(entries: list[int]) -> tuple[int, int]:
    """Evaluate c0 - 1/(c1 - 1/(...)) as (p, q) with q > 0 and gcd 1."""
    p, q = entries[-1], 1
    for c in reversed(entries[:-1]):
        p, q = c * p - q, p
    if q < 0:
        p, q = -p, -q
    return p, q


def stabilization_reference(p: int, q: int) -> list[int]:
    """Stabilization counts of the (+1)/(-1) chain for r = p/q != 0."""
    if p < 0:
        entries = neg_cf_entries(p, q)
        return [-entries[0] - 1] + [-c - 2 for c in entries[1:]]
    if p == 1:
        return [0] * q
    k = q // p + 1
    return [0] * k + stabilization_reference(-p, k * p - q)  # residual p/(q - kp) < 0


def valid_d(g: int) -> int | None:
    """The d with d(d+1) <= 2g <= d(d+2) - 1, if any."""
    d = 1
    while d * (d + 1) <= 2 * g:
        if 2 * g <= d * (d + 2) - 1:
            return d
        d += 1
    return None


def meridian_order(n: int, pairs: list[tuple[int, int]]) -> int:
    """Order of the tracked meridian by exact elimination on the star tree.

    Solves A y = e_mu for the star-shaped linking matrix A (legs from
    the negative continued fractions of -alpha/beta) leaf to centre and
    back; the order of [e_mu] in coker A is the lcm of the denominators
    of y.  mu is the leaf of the first leg (the centre when there is
    none).  Needs e != 0, so A is invertible.
    """
    legs = [neg_cf_entries(-a, b) for a, b in pairs]
    # forward pass: each leg collapses to d (pivot) and b (rhs) at its head
    pivots, rhs = [], []
    centre_coeff, centre_rhs = Fraction(n), Fraction(int(not legs))
    for index, leg in enumerate(legs):
        d = [Fraction(0)] * len(leg)
        b = [Fraction(0)] * len(leg)
        for j in reversed(range(len(leg))):
            source = Fraction(int(index == 0 and j == len(leg) - 1))
            if j == len(leg) - 1:
                d[j], b[j] = Fraction(leg[j]), source
            else:
                d[j] = leg[j] - 1 / d[j + 1]
                b[j] = source - b[j + 1] / d[j + 1]
        pivots.append(d)
        rhs.append(b)
        centre_coeff -= 1 / d[0]
        centre_rhs -= b[0] / d[0]
    y0 = centre_rhs / centre_coeff
    order = y0.denominator
    for d, b in zip(pivots, rhs):
        previous = y0
        for dj, bj in zip(d, b):
            previous = (bj - previous) / dj
            order = math.lcm(order, previous.denominator)
    return order


def full_rank(rows: list[list[int]]) -> bool:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank == len(m)


# ----------------------------------------------------------------------
# CLI requests


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def cli_call(argv: list[str]) -> CliResult:
    """cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = package("cli").main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(argv: list[str], check_ok, points: int = 0, defect: bool = False) -> Op:
    """A request that must exit 0; check_ok gets stdout (parsed if --json)."""
    as_json = "--json" in argv

    def check(result) -> bool:
        code, out, err = result
        if code != 0 or err:
            return False
        return bool(check_ok(json.loads(out) if as_json else out.splitlines()))

    return Op(" ".join(argv), lambda: cli_call(argv), check, points, defect)


def invalid_op(argv: list[str]) -> Op:
    """A parseable request with invalid values: exit 2, one error line."""

    def check(result) -> bool:
        code, out, err = result
        return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    return Op(" ".join(argv), lambda: cli_call(argv), check)


def _log_uniform(rng: random.Random, top: int) -> int:
    return max(1, int(10 ** rng.uniform(0, math.log10(top))))


def _admissible_r(rng: random.Random, alpha: int, sign: int) -> int:
    low = -alpha + 2 if sign == 1 else -alpha
    return low + 2 * rng.randrange(alpha)


def _report_argv(g, n, alpha, sign, r, as_json):
    argv = ["report", "--g", str(g), f"--n={n}", "--alpha", str(alpha),
            "--sign", "+" if sign == 1 else "-", f"--r={r}"]
    return argv + ["--json"] if as_json else argv


def report_op(rng: random.Random, as_json: bool) -> Op:
    g = rng.randint(1, 4)
    n = 2 * g + rng.randint(0, 4)
    alpha = _log_uniform(rng, 10**6)
    sign = rng.choice((1, -1))
    r = _admissible_r(rng, alpha, sign)
    mu, gap = n * alpha + 1, 2 * g + 1

    def ok_json(doc) -> bool:
        return (
            doc["input"] == {"g": g, "n": n, "alpha": alpha, "sign": "+" if sign == 1 else "-", "r": r}
            and doc["invariants"]["gap"] == str(gap)
            and doc["homology"]["mu_order"] == mu
            and all(v is True for v in doc["verdicts"]["checks"].values())
            and doc["verdicts"]["all_checks_pass"] is True
        )

    def ok_text(lines) -> bool:
        return (
            lines[2].endswith(f"mu order {mu}")
            and lines[5].endswith(f"gap {gap}")
            and lines[-1] == "verdicts: tight=True fillable=no (certified) checks=PASS"
        )

    argv = _report_argv(g, n, alpha, sign, r, as_json)
    return cli_op(argv, ok_json if as_json else ok_text, points=1)


def _long_negative(rng: random.Random, head_max: int) -> tuple[int, int]:
    """A negative rational with a long expansion, as (p, q)."""
    entries = [-rng.randint(1, head_max)]
    entries += [rng.choice((-2, -2, -2, -2, -3, -4, -6)) for _ in range(rng.randint(5, 60))]
    return neg_cf_fraction(entries)


def _surgery_coefficient(rng: random.Random) -> tuple[int, int]:
    shape = rng.randrange(6)
    if shape < 3:
        return _long_negative(rng, 4)
    if shape == 3:
        return 1, rng.randint(1, 30)
    # p/q > 0 whose residual after k (+1)-steps has a long expansion
    a, b = _long_negative(rng, 4)
    a = -a
    if a < b:
        a, b = b, a
    if a == b:
        a += 1
    k = rng.randint(1, 6)
    return a, k * a - b


def convert_op(rng: random.Random, as_json: bool) -> Op:
    p, q = _surgery_coefficient(rng)
    counts = stabilization_reference(p, q)
    choices = math.prod(s + 1 for s in counts)
    plus = q if p == 1 else (q // p + 1 if p > 0 else 0)
    tb, rot = rng.randint(-5, -1), rng.randint(-3, 3)

    def ok_json(doc) -> bool:
        cumulative, components = 0, []
        for i, s in enumerate(counts):
            cumulative += s
            components.append({
                "contact_coefficient": 1 if i < plus else -1,
                "stabilizations": s,
                "parent": "root" if i == 0 else i - 1,
                "tb": tb - cumulative,
                "rot": rot - cumulative,
            })
        return (
            doc["coefficient"] == str(Fraction(p, q))
            and doc["components"] == components
            and doc["stabilization_counts"] == counts
            and doc["choice_count"] == choices
        )

    def ok_text(lines) -> bool:
        return (
            len(lines) == len(counts) + 3
            and lines[-2] == f"stabilization counts: {counts}"
            and lines[-1] == f"stabilization choices: {choices}"
        )

    argv = ["convert", f"--r={Fraction(p, q)}", f"--tb={tb}", f"--rot={rot}"]
    argv += ["--json"] if as_json else []
    return cli_op(argv, ok_json if as_json else ok_text)


def cf_expand_op(rng: random.Random, as_json: bool) -> Op:
    p, q = _long_negative(rng, 40)
    r = Fraction(p, q)

    def evaluates_back(entries) -> bool:
        return (
            entries[0] <= -1
            and all(c <= -2 for c in entries[1:])
            and neg_cf_fraction(entries) == (p, q)
        )

    def ok_json(doc) -> bool:
        entries = doc["entries"]
        return (
            doc["coefficient"] == str(r)
            and evaluates_back(entries)
            and doc["stabilization_counts"] == [-entries[0] - 1] + [-c - 2 for c in entries[1:]]
        )

    def ok_text(lines) -> bool:
        return lines[0].startswith("entries: ") and evaluates_back(
            ast.literal_eval(lines[0].removeprefix("entries: "))
        )

    argv = ["cf", f"--r={r}"] + (["--json"] if as_json else [])
    return cli_op(argv, ok_json if as_json else ok_text)


def cf_value_op(rng: random.Random, as_json: bool) -> Op:
    entries = [-rng.randint(1, 50)] + [-rng.randint(2, 9) for _ in range(rng.randint(3, 40))]
    value = Fraction(*neg_cf_fraction(entries))

    def ok_json(doc) -> bool:
        return doc["entries"] == entries and doc["value"] == str(value)

    def ok_text(lines) -> bool:
        return lines == [f"value: {value}"]

    argv = ["cf", "--entries=" + ",".join(map(str, entries))] + (["--json"] if as_json else [])
    return cli_op(argv, ok_json if as_json else ok_text)


def normalize_op(rng: random.Random, as_json: bool) -> Op:
    g, n = rng.randint(0, 3), rng.randint(-5, 5)
    pairs = []
    while len(pairs) < rng.randint(2, 5):
        alpha = rng.randint(1, 50)
        beta = rng.randint(-3 * alpha, 3 * alpha)
        if beta == 0 or math.gcd(alpha, beta) == 1:
            pairs.append((alpha, beta))
    e = n + sum((Fraction(b, a) for a, b in pairs), Fraction(0))

    def ok_json(doc) -> bool:
        normal = doc["normal_form"]
        normal_e = normal["n"] + sum((Fraction(b, a) for a, b in normal["pairs"]), Fraction(0))
        return (
            doc["input"] == {"g": g, "n": n, "pairs": [list(p) for p in pairs]}
            and doc["e_invariant"] == str(e)
            and normal["g"] == g
            and normal_e == e
            and all(a > b >= 1 for a, b in normal["pairs"])
        )

    def ok_text(lines) -> bool:
        return lines[0].startswith(f"normal form: g={g} n=") and lines[1] == f"e invariant: {e}"

    argv = ["normalize", "--g", str(g), f"--n={n}", "--pairs=" + ",".join(f"{a}/{b}" for a, b in pairs)]
    argv += ["--json"] if as_json else []
    return cli_op(argv, ok_json if as_json else ok_text)


def _witness_valid(g: int, count: int, alpha: int, rotations: list[int], orders: list[int]) -> bool:
    modulus = 2 * g * alpha + 1
    return (
        len(rotations) == count
        and all(modulus % p == 0 and (p - alpha) % 2 == 0 and -alpha <= p <= alpha for p in rotations)
        and orders == [modulus // p for p in rotations]
        and len(set(orders)) == count
    )


def witness_op(rng: random.Random, as_json: bool) -> Op:
    # --count above about 12 is left out: the search has no time bound
    # and an in-process call cannot be given a deadline.
    g, count = rng.randint(1, 3), rng.randint(2, 8)

    def ok_json(doc) -> bool:
        return (doc["g"], doc["count"]) == (g, count) and _witness_valid(
            g, count, doc["alpha"], doc["rotations"], doc["orders"]
        )

    def ok_text(lines) -> bool:
        alpha = int(lines[0].removeprefix("alpha = "))
        rotations = ast.literal_eval(lines[1].removeprefix("rotations = "))
        orders = ast.literal_eval(lines[2].removeprefix("c1 orders = ").removesuffix(" (pairwise distinct)"))
        return _witness_valid(g, count, alpha, rotations, orders)

    argv = ["witness", "--g", str(g), "--count", str(count)] + (["--json"] if as_json else [])
    return cli_op(argv, ok_json if as_json else ok_text)


def obstruction_op(g: int, as_json: bool = True) -> Op:
    q = valid_d(g) + 2

    def ok_json(doc) -> bool:
        return (
            (doc["g"], doc["q"], doc["rank"]) == (g, q, 2 * q)
            and doc["embeddable"] is False
            and doc["embedding"] is None
            and doc["obstruction_holds"] is True
        )

    def ok_text(lines) -> bool:
        return lines[0].startswith(f"g={g}: ") and lines[2] == "obstruction holds: True"

    argv = ["obstruction", "--g", str(g)] + (["--json"] if as_json else [])
    # q >= 11 overflows the Python stack in the exhaustive search today
    return cli_op(argv, ok_json if as_json else ok_text, defect=q >= 11)


VALID_GENERA = [g for g in range(1, 60) if valid_d(g) is not None]
GENERA_BY_Q = {q: [g for g in VALID_GENERA if valid_d(g) + 2 == q] for q in range(3, 13)}
SMALL_GENERA = GENERA_BY_Q[3] + GENERA_BY_Q[4] + GENERA_BY_Q[5]
INVALID_GENERA = [g for g in range(1, 60) if valid_d(g) is None]


def invalid_ops(rng: random.Random) -> list[Op]:
    """The invalid share of a cli-requests block: exit 2 on each."""
    g = rng.randint(1, 4)
    alpha = rng.randint(2, 500)
    sign = rng.choice((1, -1))
    ops = []
    for _ in range(2):  # r of the wrong parity
        r = _admissible_r(rng, alpha, sign) + rng.choice((1, -1))
        ops.append(invalid_op(_report_argv(g, 2 * g, alpha, sign, r, True)))
    for _ in range(2):  # n < 2g
        n = 2 * g - rng.randint(1, 2 * g + 2)
        ops.append(invalid_op(_report_argv(g, n, alpha, sign, _admissible_r(rng, alpha, sign), True)))
    for _ in range(2):  # r = 0
        ops.append(invalid_op(["convert", "--r=0", "--json"]))
    ops.append(invalid_op(["obstruction", "--g", str(rng.choice(INVALID_GENERA)), "--json"]))
    return ops


# ----------------------------------------------------------------------
# workload streams: each yields blocks (lists of ops) of fixed composition


def stratified(rng: random.Random, strata: int, cycle: int = 4) -> Iterator[list[float]]:
    """Blocks of `strata` values in [0, 1), one in each stratum [i, i+1)/strata.

    Over every `cycle` consecutive blocks each stratum is also hit once
    in each of its `cycle` sub-strata, so a run of whole blocks samples
    the size distribution evenly, tail included.
    """
    while True:
        orders = [rng.sample(range(cycle), cycle) for _ in range(strata)]
        for b in range(cycle):
            yield [(i + (orders[i][b] + rng.random()) / cycle) / strata for i in range(strata)]


def sweep_grid(rng: random.Random) -> Iterator[list[Op]]:
    """Blocks of 10 `sweep --json` sub-grids, g <= 5, n <= 2g+4, alpha <= 64.

    Each block has two sub-grids per genus and point targets stratified
    over [120, 360], so op sizes are comparable from seed to seed.
    """
    for draws in stratified(rng, 10):
        genera = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        rng.shuffle(genera)
        block = []
        for g, u in zip(genera, draws):
            target = 120 + 240 * u
            width = rng.choice((1, 2))
            o0 = rng.randint(0, 5 - width)
            o1 = o0 + width - 1
            a0 = a1 = rng.randint(1, 60)
            # widen the alpha window while that brings the point count closer to target
            while True:
                grown = (a0, a1 + 1) if a1 < 64 else (a0 - 1, a1)
                now, then = (2 * width * sum(range(a, b + 1)) for a, b in ((a0, a1), grown))
                if abs(then - target) >= abs(now - target):
                    break
                a0, a1 = grown
            block.append(sweep_op(g, o0, o1, a0, a1))
        yield block


def sweep_op(g: int, o0: int, o1: int, a0: int, a1: int) -> Op:
    alphas = range(a0, a1 + 1)
    points = 2 * (o1 - o0 + 1) * sum(alphas)
    expected = {
        "grid": {"g": [g, g], "n_span": [o0, o1], "alpha": [a0, a1], "mu_only": False},
        "checks": {
            "omega_identity": points,
            "gap_law": points,
            "moy": 2 * sum(alphas) if o0 == 0 else 0,
            "mu_order": len(alphas),
        },
        "failures": [],
        "all_pass": True,
    }
    argv = ["sweep", "--g-range", f"{g}..{g}", "--n-range", f"2g+{o0}..2g+{o1}",
            "--alpha-range", f"{a0}..{a1}", "--json"]
    return cli_op(argv, lambda doc: doc == expected, points=points)


def cli_requests(rng: random.Random) -> Iterator[list[Op]]:
    """Blocks of 40 requests: 33 valid over seven subcommands, 7 invalid.

    The slowest kind, obstruction, is 5% of the block, so p90 lies
    inside the dense cluster of report requests.
    """
    makers = (
        [(report_op, True)] * 8 + [(report_op, False)] * 2
        + [(convert_op, True)] * 3 + [(convert_op, False)]
        + [(cf_expand_op, True)] * 3 + [(cf_expand_op, False)]
        + [(cf_value_op, True)] * 4 + [(cf_value_op, False)]
        + [(normalize_op, True)] * 3 + [(normalize_op, False)]
        + [(witness_op, True)] * 3 + [(witness_op, False)]
    )
    while True:
        block = [make(rng, as_json) for make, as_json in makers]
        block += [obstruction_op(rng.choice(SMALL_GENERA), as_json) for as_json in (True, False)]
        block += invalid_ops(rng)
        rng.shuffle(block)
        yield block


def plumbing_homology(rng: random.Random) -> Iterator[list[Op]]:
    """Blocks of 40 homology ops with stratified presentation sizes.

    Sizes follow a fixed distribution: 95% uniform over 20..120
    vertices and 5% over 120..250, so every block holds one tail op
    in each half of the tail; one to three fibers, evenly.
    Presentations above about 250 vertices are left out: the dense
    Smith form is O(n^3) and they take seconds to minutes each.
    """
    for draws in stratified(rng, 40):
        sizes = [round(20 + u / 0.95 * 100 if u < 0.95 else 120 + (u - 0.95) / 0.05 * 130) for u in draws]
        fibers = [1, 2, 3] * 13 + rng.sample([1, 2, 3], 1)
        rng.shuffle(sizes)
        rng.shuffle(fibers)
        yield [homology_op(rng, size, count) for size, count in zip(sizes, fibers)]


def homology_op(rng: random.Random, size: int, fibers: int) -> Op:
    """homology(presentation(inv)) plus mu_order(inv) on one normal form.

    One long leg and up to two short ones; the leg holding the meridian
    is drawn at random, so both shapes reach the kernel.
    """
    lengths = [rng.randint(1, 4) for _ in range(fibers - 1)]
    lengths.insert(rng.randrange(fibers), size - 1 - sum(lengths))
    pairs = []
    for length in lengths:
        p, q = neg_cf_fraction([rng.choice((-2,) * 7 + (-3, -4, -5)) for _ in range(length)])
        pairs.append((-p, q))
    g = rng.randint(0, 3)
    alphas = math.prod(a for a, _ in pairs)
    while True:
        n = rng.randint(-2, 6)
        e_times_alphas = n * alphas + sum(b * alphas // a for a, b in pairs)
        if e_times_alphas != 0:
            break
    expected_mu = meridian_order(n, pairs)
    if fibers == 1 and expected_mu != abs(n * pairs[0][0] + pairs[0][1]):
        raise AssertionError("meridian reference disagrees with n*alpha + beta")
    seifert = package("seifert")

    def run():
        hom = package("homology")
        inv = seifert.SeifertInvariants(g, n, tuple(pairs))
        h = hom.homology(hom.presentation(inv))
        return h.free_rank, h.torsion, hom.mu_order(inv)

    def check(result) -> bool:
        free_rank, torsion, mu = result
        return (
            free_rank == 2 * g
            and all(d > 1 for d in torsion)
            and all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
            and math.prod(torsion) == abs(e_times_alphas)
            and mu == expected_mu
        )

    return Op(f"homology g={g} n={n} pairs={pairs}", run, check)


def lattice_search(rng: random.Random) -> Iterator[list[Op]]:
    """Blocks of 26: one obstruction per q = 3..10, two at q >= 11, and
    sixteen embedding searches, four per rank 2..5, on lattices that do
    embed.  With 24 passing ops per block, p50 lies inside the embedding
    searches and p90 inside the q = 8 obstructions, away from the edges
    between clusters of similar cost."""
    while True:
        block = [obstruction_op(rng.choice(GENERA_BY_Q[q])) for q in range(3, 11)]
        block += [obstruction_op(rng.choice(GENERA_BY_Q[11] + GENERA_BY_Q[12])) for _ in range(2)]
        block += [embedding_op(rng, rank) for rank in (2, 3, 4, 5) for _ in range(4)]
        rng.shuffle(block)
        yield block


def embedding_op(rng: random.Random, rank: int) -> Op:
    """embeds_in_diagonal on Gram = -V V^T for random full-rank rows V."""
    width = rng.randint(rank, rank + 2)
    while True:
        rows = [[rng.choice((0, 0, 1, -1)) for _ in range(width)] for _ in range(rank)]
        if full_rank(rows):
            break
    gram = tuple(
        tuple(-sum(x * y for x, y in zip(u, v)) for v in rows) for u in rows
    )

    def run():
        lattice = package("lattice")
        embedding = lattice.embeds_in_diagonal(lattice.Lattice(gram=gram, rank=rank))
        return None if embedding is None else embedding.vectors

    def check(vectors) -> bool:
        return (
            vectors is not None
            and len(vectors) == rank
            and len({len(v) for v in vectors}) == 1
            and all(
                -sum(x * y for x, y in zip(vectors[i], vectors[j])) == gram[i][j]
                for i in range(rank)
                for j in range(rank)
            )
        )

    return Op(f"embeds_in_diagonal gram={gram}", run, check)


WORKLOADS = {
    "sweep-grid": sweep_grid,
    "cli-requests": cli_requests,
    "plumbing-homology": plumbing_homology,
    "lattice-search": lattice_search,
}


def blocks(name: str, seed: int) -> Iterator[list[Op]]:
    """The workload's blocks for one seed; the same seed, the same ops."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
