"""First homology of the surgered manifolds and torsion Spin^c bookkeeping.

A Seifert fibration M(g, n; (alpha_i, beta_i)) has a star-shaped surgery
presentation: a central unknot framed n, one chain per exceptional fiber
with framings given by the negative continued fraction of -alpha_i/beta_i.
First homology is Z^{2g} plus the cokernel of the linking matrix.

The cokernel is computed in two steps.  First every leaf chain (a path
of degree <= 2 vertices that starts at a leaf and is joined by +-1
entries) collapses by unimodular moves: the relation at each chain
vertex writes the next generator as an exact integer multiple of the
leaf generator, following the continued-fraction convergent recurrence
(the plumbing calculus of Neumann, Trans. AMS 268, 1981).  What remains
of a star with k chains is a (k+1)-generator core: the centre, one leaf
per chain, the centre's relation and each chain's head relation.  Then
the Smith normal form of that core, with generator tracking, gives the
invariant factors and exact coordinates for every original generator.
Those coordinates are relative to the Smith basis of the core, so they
are fixed only up to an automorphism of the torsion group; orders of
classes do not depend on that choice.  `presentation` builds the dense
n x n matrix, so this route costs O(n^2) in the number n of vertices.

mu_order, the order of the tracked class mu below, takes a second
route with no chain and no matrix: the Seifert presentation, the same
(k+1)-generator core written straight from (g, n; (alpha_i, beta_i)) as
the centre relation n x_0 + sum beta_i t_i and one relation
x_0 - alpha_i t_i per fiber.  Its cost does not depend on leg length,
and it shares only the Smith form with the first route.

The tracked class mu is the meridian of the terminal vertex of the first
chain: the fiber class whose order controls how many torsion Spin^c
structures the fibration supports.  For M(g, 2g; (alpha, 1)) that order
is 2g*alpha + 1, and a Spin^c structure is pinned down by its offset j in
t = t_can + j * PD(mu).  First Chern classes are multiples of PD(mu);
the canonical structure carries c1(t_can) = (alpha + 2) * PD(mu), which
makes c1 of the offset-j structure (alpha + 2 + 2j) * PD(mu) and in
particular c1 = r * PD(mu) at offset (r - alpha - 2)/2.  spinc_offset
is the one place this arithmetic is done, for every admissible
(g, n, alpha, sign, r); c1 is reported only at n = 2g.

distinct_witness turns that arithmetic into a certificate by direct
construction: the first `count` primes p = 2g*a + 1, used as rotation
numbers, give c1 classes of pairwise distinct orders (2g*alpha + 1)/p at
an alpha built from their product, which forces the corresponding
contact structures apart.  Each order it returns is checked against the
c1 order that spinc_offset gives for that rotation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice

from .contfrac import neg_cf_expand
from .errors import ConditionViolation, SearchExhausted
from .intmat import smith_normal_form
from .seifert import SeifertInvariants

__all__ = [
    "IntegralPresentation",
    "FirstHomology",
    "SpinCClass",
    "Witness",
    "presentation",
    "homology",
    "mu_order",
    "spinc_offset",
    "check_admissible",
    "admissible_points",
    "distinct_witness",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# witness bounds: every candidate 2g*a + 1 is at most 2 * 10^18 + 1, and the
# largest document (count = 100) is about 0.15 MB
_G_LIMIT = 10**12
_COUNT_LIMIT = 100
_BASE_LIMIT = 10**6


@dataclass(frozen=True)
class IntegralPresentation:
    """Linking matrix of the star-shaped surgery presentation.

    Vertex 0 is the central unknot (framing n); each exceptional fiber
    contributes a chain, central vertex joined to the chain's first
    entry.  mu_index is the column of the tracked meridian: the terminal
    vertex of the first chain, or the central vertex when there is none.
    free_rank carries the 2g surface summand of H1 alongside the matrix.
    """

    matrix: tuple[tuple[int, ...], ...]
    mu_index: int
    free_rank: int


@dataclass(frozen=True)
class FirstHomology:
    """H1 = Z^free_rank + sum Z/d for d in torsion (d_1 | d_2 | ...).

    class_map[j] gives the torsion coordinates of the j-th meridian
    generator, free_map[j] its coordinates on cokernel copies of Z
    (present only when the linking matrix is singular).  Coordinates are
    taken in the Smith basis of the collapsed core, so they are fixed
    only up to an automorphism of the group; the order of each class is
    basis-free.
    """

    free_rank: int
    torsion: tuple[int, ...]
    class_map: tuple[tuple[int, ...], ...]
    free_map: tuple[tuple[int, ...], ...]

    def order(self, j: int) -> int:
        """Order of the j-th meridian generator; raises if it has a free part."""
        if any(c != 0 for c in self.free_map[j]):
            raise ConditionViolation("meridian class has infinite order")
        order = 1
        for coordinate, d in zip(self.class_map[j], self.torsion):
            order = math.lcm(order, d // math.gcd(coordinate, d))
        return order


@dataclass(frozen=True)
class SpinCClass:
    """A torsion Spin^c structure written relative to the canonical one.

    offset is the coefficient j in t = t_can + j * PD(mu), reduced modulo
    the order of mu; c1_coefficient is c1(t) as a multiple of PD(mu) when
    that multiple is pinned down (central framing n = 2g), None otherwise.
    """

    offset: int
    modulus: int
    c1_coefficient: int | None

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")

    @property
    def c1_order(self) -> int:
        """Order of c1 in the cyclic group generated by PD(mu)."""
        if self.c1_coefficient is None:
            raise ConditionViolation("c1 is not pinned down for this structure")
        return self.modulus // math.gcd(self.c1_coefficient, self.modulus)


@dataclass(frozen=True)
class Witness:
    """Parameters certifying `len(rotations)` pairwise distinct structures."""

    alpha: int
    rotations: tuple[int, ...]
    orders: tuple[int, ...]


def presentation(inv: SeifertInvariants) -> IntegralPresentation:
    """Star-shaped linking matrix of M(g, n; pairs).

    Pairs must satisfy alpha >= beta >= 1 (see _check_presentable).
    """
    _check_presentable(inv)
    legs = [
        list(neg_cf_expand(Fraction(-alpha, beta))) for alpha, beta in inv.pairs
    ]
    size = 1 + sum(len(leg) for leg in legs)
    m = [[0] * size for _ in range(size)]
    m[0][0] = inv.n
    index = 1
    first_leg_end = 0
    for leg_number, leg in enumerate(legs):
        previous = 0  # chains hang off the central vertex
        for framing in leg:
            m[index][index] = framing
            m[previous][index] = 1
            m[index][previous] = 1
            previous = index
            index += 1
        if leg_number == 0:
            first_leg_end = previous
    return IntegralPresentation(
        matrix=tuple(tuple(row) for row in m),
        mu_index=first_leg_end,
        free_rank=2 * inv.g,
    )


def homology(p: IntegralPresentation) -> FirstHomology:
    """Cokernel of the linking matrix with tracked meridian generators.

    Leaf chains collapse first (see _collapse): each generator x_j
    becomes multiple_j times a core generator, and the cokernel of the
    matrix equals the cokernel of the small core matrix.  With
    D = S C T the Smith form of the core C, the quotient Z^m / C Z^m is
    Z^m / D Z^m under x -> Sx, so generator j lands at multiple_j times
    the column of S of its core generator, read modulo the diagonal.  A
    matrix with nothing to collapse is its own core.  Raises ValueError
    unless the matrix is square.
    """
    core, root, multiple = _collapse(p.matrix)
    return _cokernel(core, root, multiple, p.free_rank)


def _check_presentable(inv: SeifertInvariants) -> None:
    """Raise unless every pair satisfies alpha >= beta >= 1.

    That is normal form plus the boundary case alpha = beta = 1, whose
    chain is a single (-1)-framed vertex.
    """
    for alpha, beta in inv.pairs:
        if not (alpha >= beta >= 1):
            raise ConditionViolation(
                f"pair ({alpha},{beta}) is not presentable; need alpha >= beta >= 1"
            )


def _cokernel(core, root, multiple, free_rank: int) -> FirstHomology:
    """Z^free_rank plus the cokernel of core, tracking x_j = multiple[j] * e_root[j].

    Generator rows, relation columns; see `homology` for how the Smith
    form's left transform gives the coordinates.
    """
    snf = smith_normal_form(core)
    torsion_rows = [i for i, d in enumerate(snf.diagonal) if d > 1]
    free_rows = [i for i, d in enumerate(snf.diagonal) if d == 0]
    torsion = tuple(snf.diagonal[i] for i in torsion_rows)
    class_map = tuple(
        tuple(snf.left[i][r] * a % snf.diagonal[i] for i in torsion_rows)
        for r, a in zip(root, multiple)
    )
    free_map = tuple(
        tuple(snf.left[i][r] * a for i in free_rows) for r, a in zip(root, multiple)
    )
    return FirstHomology(
        free_rank=free_rank + len(free_rows),
        torsion=torsion,
        class_map=class_map,
        free_map=free_map,
    )


def _leaf_chains(matrix, support) -> list[list[int]]:
    """Vertex-disjoint leaf chains v_0, ..., v_m (m >= 1) of a symmetric matrix.

    v_0 is a leaf (one off-diagonal neighbour), every later vertex has at
    most two neighbours and consecutive vertices are joined by +-1
    entries.  So each v_j with j < m has all its neighbours among
    v_{j-1} and v_{j+1}; only the head v_m may touch the rest.
    """
    degree = [len(s) - (matrix[v][v] != 0) for v, s in enumerate(support)]
    far_ends = set()  # a chain along a whole path ends at another leaf
    chains = []
    for leaf, leaf_degree in enumerate(degree):
        if leaf_degree != 1 or leaf in far_ends:
            continue
        chain = [leaf]
        ahead = [v for v in support[leaf] if v != leaf]
        # a walk never enters an earlier chain: by symmetry that chain
        # would have crossed the same +-1 edge into this degree <= 2 vertex
        while ahead:
            step, last = ahead[0], chain[-1]
            if degree[step] > 2 or abs(matrix[last][step]) != 1:
                break
            chain.append(step)
            ahead = [v for v in support[step] if v not in (step, last)]
        if len(chain) > 1:
            chains.append(chain)
            far_ends.add(chain[-1])
    return chains


def _collapse(matrix) -> tuple[list[list[int]], list[int], list[int]]:
    """Collapse the leaf chains of a linking matrix into a small core.

    Column r of the matrix is the relation at vertex r.  Along a chain
    v_0, ..., v_m the relation at v_j has coefficient +-1 on x_{v_{j+1}},
    so it writes x_{v_{j+1}} = a_{j+1} x_{v_0} with

        a_0 = 1,  a_{j+1} = -s_j (b_j a_{j-1} + c_j a_j)

    where s_j is the entry joining v_j to v_{j+1}, b_j the one joining
    it to v_{j-1} (0 at the leaf) and c_j its framing: the
    continued-fraction convergent recurrence.  These unimodular moves
    spend the relations at v_0, ..., v_{m-1} and the generators
    x_{v_1}, ..., x_{v_m}; the head relation at v_m is kept.  Chains are
    looked for only in symmetric matrices.  The core has one row per
    remaining generator and one column per remaining relation.  Returns
    (core, root, multiple): x_j = multiple[j] times core generator
    number root[j].
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("linking matrix must be square")
    support = [list(compress(range(size), row)) for row in matrix]
    root = list(range(size))
    multiple = [1] * size
    spent = [False] * size
    if all(matrix[j][i] == matrix[i][j] for i in range(size) for j in support[i]):
        for chain in _leaf_chains(matrix, support):
            before, a = 0, 1
            for j, (v, w) in enumerate(zip(chain, chain[1:])):
                back = matrix[v][chain[j - 1]] if j else 0
                before, a = a, -matrix[v][w] * (back * before + matrix[v][v] * a)
                root[w], multiple[w] = chain[0], a
                spent[v] = True
    kept = [i for i in range(size) if root[i] == i]
    relations = [r for r in range(size) if not spent[r]]
    position = {i: k for k, i in enumerate(kept)}
    column = {r: k for k, r in enumerate(relations)}
    core = [[0] * len(relations) for _ in kept]
    for i, row in enumerate(matrix):
        target = core[position[root[i]]]
        for r in support[i]:
            if not spent[r]:
                target[column[r]] += row[r] * multiple[i]
    return core, [position[r] for r in root], multiple


def mu_order(inv: SeifertInvariants) -> int:
    """Order of the tracked fiber meridian in H1, from the Seifert presentation.

    No plumbing matrix is built.  Collapsing a leg -alpha/beta =
    [c_1, ..., c_m] (c_1 next to the centre) from its terminal generator
    t gives x_{v_j} = a_j t with a_m = 1, a_{m+1} = 0 and
    a_{j-1} = -(c_j a_j + a_{j+1}); the ratios -a_{j-1}/a_j are the tails
    [c_j, ..., c_m], so -a_0/a_1 = -alpha/beta with a_0, a_1 coprime and
    positive: x_{v_1} = beta t and the head relation is x_0 - alpha t.
    Modulo the free Z^{2g}, H1 is therefore the cokernel of the
    (k+1) x (k+1) core on x_0, t_1, ..., t_k with relations

        n x_0 + sum beta_i t_i   (centre),    x_0 - alpha_i t_i   (fiber i)

    (Neumann-Raymond 1978; Neumann, Trans. AMS 268, 1981).  One Smith
    form of the core gives the order of mu = t_1, or of x_0 when there
    are no fibers: O(k^3), independent of leg length, so the chain bound
    of `contfrac` does not apply here, as no chain is built.
    `homology(presentation(inv))` stays the independent route.

    Equals |n*alpha + beta| on a single fiber (alpha, beta); in particular
    2g*alpha + 1 on M(g, 2g; (alpha, 1)).  Pairs must satisfy
    alpha >= beta >= 1, as for `presentation`.  Raises if the class has a
    free component (possible only for singular presentations, e = 0,
    which the n >= 2g family never produces).
    """
    _check_presentable(inv)
    k = len(inv.pairs)
    core = [[inv.n] + [1] * k]
    for i, (alpha, beta) in enumerate(inv.pairs, 1):
        row = [0] * (k + 1)
        row[0], row[i] = beta, -alpha
        core.append(row)
    mu = 1 if k else 0
    return _cokernel(core, [mu], [1], 2 * inv.g).order(0)


def spinc_offset(g: int, n: int, alpha: int, sign: int, r: int) -> SpinCClass:
    """Offset of t_{xi^sign_r} from the canonical Spin^c structure.

    offset = (r - alpha - 2)/2 for sign +1 and the same shifted by
    -alpha*(n - 2g) for sign -1, reduced modulo n*alpha + 1.  The
    admissible ranges are -alpha < r <= alpha (sign +1) and
    -alpha <= r < alpha (sign -1), with r = alpha (mod 2).  c1 is pinned
    down only at n = 2g, where it equals (alpha + 2 + 2*offset) * PD(mu),
    that is r * PD(mu).
    """
    check_admissible(g, n, alpha, sign, r)
    modulus = n * alpha + 1
    shift = 0 if sign == 1 else 2 * alpha * (n - 2 * g)
    offset = ((r - alpha - 2 - shift) // 2) % modulus
    c1 = (alpha + 2 + (r - alpha - 2 - shift)) % modulus if n == 2 * g else None
    return SpinCClass(offset=offset, modulus=modulus, c1_coefficient=c1)


def check_admissible(g: int, n: int, alpha: int, sign: int, r: int) -> None:
    """Validate the (g, n, alpha, sign, r) range shared across the family.

    Needs g >= 1, n >= 2g, alpha >= 1, r = alpha (mod 2), and
    -alpha < r <= alpha for sign +1, -alpha <= r < alpha for sign -1.
    """
    if g < 1:
        raise ConditionViolation(f"need g >= 1, got {g}")
    if n < 2 * g:
        raise ConditionViolation(f"need n >= 2g, got n={n}, g={g}")
    if alpha < 1:
        raise ConditionViolation(f"need alpha >= 1, got {alpha}")
    if sign not in (1, -1):
        raise ConditionViolation(f"sign must be +1 or -1, got {sign}")
    if (r - alpha) % 2 != 0:
        raise ConditionViolation(f"r = {r} must have the parity of alpha = {alpha}")
    if sign == 1 and not (-alpha < r <= alpha):
        raise ConditionViolation(f"sign +1 needs -alpha < r <= alpha, got r = {r}")
    if sign == -1 and not (-alpha <= r < alpha):
        raise ConditionViolation(f"sign -1 needs -alpha <= r < alpha, got r = {r}")


def admissible_points(g: int, n: int, alpha: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Every point (g, n, alpha, sign, r) over this (g, n, alpha) that check_admissible accepts.

    Sign +1 first with r = 2 - alpha, 4 - alpha, ..., alpha, then sign -1
    with r = -alpha, 2 - alpha, ..., alpha - 2: alpha values of r each.
    Raises ConditionViolation, as check_admissible does, when g, n or
    alpha is out of range; the check runs when iteration starts.
    """
    check_admissible(g, n, alpha, 1, alpha)
    for sign, low in ((1, 2 - alpha), (-1, -alpha)):
        for r in range(low, low + 2 * alpha, 2):
            yield g, n, alpha, sign, r


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24.

    The prime bases 2..41 are proven sufficient below
    3,317,044,064,679,887,385,961,981 (Sorenson and Webster, Math. Comp.
    86, 2017); the witness bounds keep every candidate below 2.1 * 10^18.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def distinct_witness(g: int, count: int, max_base: int = 10000) -> Witness:
    """Construct alpha and rotation numbers with pairwise distinct c1 orders.

    The rotations are the first `count` primes p_i = 2g*a_i + 1 (bases
    a_1 < ... < a_count).  With a = (prod p_i - 1)/(2g), integral since
    each p_i = 1 mod 2g, alpha is a when a is odd, else a*(2g+1) + 1,
    which keeps prod p_i dividing 2g*alpha + 1; so the c1 orders
    (2g*alpha + 1)/p_i are pairwise distinct.

    Rotations must be admissible, p_i <= alpha.  For count >= 2 this
    always holds: prod p_i >= (2g + 1) * p_count, so a > p_count.  For
    count = 1 the candidate (p,) is tried at each prime p in turn until
    p <= alpha, that is at the first even base.  The result is canonical.
    Raises ConditionViolation above g = 10^12, count = 100 or max_base =
    10^6, before any search, and SearchExhausted if the construction
    needs a base above max_base.
    """
    if g < 1 or count < 1:
        raise ConditionViolation("need g >= 1 and count >= 1")
    if g > _G_LIMIT or count > _COUNT_LIMIT or max_base > _BASE_LIMIT:
        raise ConditionViolation("witness needs g <= 10^12, count <= 100 and max_base <= 10^6")
    primes = filter(_is_prime, (2 * g * a + 1 for a in range(1, max_base + 1)))
    first = tuple(islice(primes, count - 1))
    for p_top in primes:
        rotations = (*first, p_top)
        a = (math.prod(rotations) - 1) // (2 * g)
        alpha = a if a % 2 == 1 else a * (2 * g + 1) + 1
        if p_top > alpha:
            continue
        modulus = 2 * g * alpha + 1
        orders = tuple(modulus // p for p in rotations)
        witness = Witness(alpha=alpha, rotations=rotations, orders=orders)
        _validate_witness(g, witness)
        return witness
    raise SearchExhausted(f"no valid witness with base elements <= {max_base}")


def _validate_witness(g: int, witness: Witness) -> None:
    """Recompute each order as the order of c1 = rotation * PD(mu).

    spinc_offset at n = 2g and sign +1 is admissible for every rotation,
    which is odd like alpha and at most alpha; its c1 order is
    modulus / gcd(rotation, modulus), an independent check on the
    search's modulus // rotation.
    """
    seen = set()
    for rotation, order in zip(witness.rotations, witness.orders):
        cls = spinc_offset(g, 2 * g, witness.alpha, 1, rotation)
        if cls.c1_order != order:
            raise AssertionError("witness order disagrees with the c1 order of its rotation")
        seen.add(cls.c1_order)
    if len(seen) != len(witness.rotations):
        raise AssertionError("witness orders are not pairwise distinct")
