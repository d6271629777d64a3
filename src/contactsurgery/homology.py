"""First homology of the surgered manifolds and torsion Spin^c bookkeeping.

A Seifert fibration M(g, n; (alpha_i, beta_i)) has a star-shaped surgery
presentation: a central unknot framed n, one leg (a chain of unknots) per
exceptional fiber with framings given by the negative continued fraction
of -alpha_i/beta_i.
First homology is Z^{2g} plus the cokernel of the linking matrix.

`presentation` keeps that star as it is built: the centre's framing n and
the framings of each leg, with no dense matrix.  `homology` collapses
each leg from its terminal vertex t by the continued-fraction
convergent recurrence, which writes every leg vertex as an exact
integer multiple of t (the plumbing calculus of Neumann, Trans. AMS
268, 1981).  What remains of a star with k legs is the (k+1)-generator
Seifert core on the centre and the k terminal vertices, with the
centre's relation and each leg's head relation.  The first leg's head
relation has the centre's coefficient 1, so it eliminates the centre,
which leaves the k x k fiber block on the terminal vertices; its |det|
is |E|, for the Euler numerator E below, read off the legs.  One
kernel, the Smith elimination modulo |det| of `intmat`, runs on every
star.  When E is nonzero it runs on the block modulo |E| and gives the
invariant factors and a left transform S with entries in [0, |E|).  A
singular block (E = 0) is handed over, in O(k) from the legs' ends, as
a nonsingular matrix with the same torsion, its |det| and the free rows
(`_singular_block`), in one of three cases: no leg and n = 0 (the
cokernel Z), two or more zero heads a_0 (hand-built stars only), or
every head nonzero, where the block has rank k - 1.  Each free row is an
exact primitive functional on the block's generators that vanishes on
its relations; no exact elimination runs.  `homology` walks each leg
once, for its ends alone, and the result holds the torsion and free
rows and each leg's framings (shared with the presentation),
O(k * t) for t such rows, and keeps no vertex multiple.
A vertex's multiple is walked off its leg when it is read: order(j)
walks from the leg's terminal vertex to j, and class_map and free_map
walk every leg once.  Those coordinates are relative to the basis
the elimination picks, so they are fixed only up to an automorphism of
the torsion group; orders of classes do not depend on that choice.
The cost is linear in the number of vertices plus one elimination of
k rows on residues modulo the torsion order.

mu_order, the order of the tracked class mu below, solves that core in
closed form straight from (g, n; (alpha_i, beta_i)), with no leg, no
matrix and no Smith form: O(k) integer operations over the Euler
numerator E = n prod alpha_j + sum_j beta_j prod_{i != j} alpha_i.  It
shares nothing with the elimination behind `homology`, which computes
its own E from the legs, so the two routes check each other;
tests/test_routes.py checks on the call graph that they meet only in
the input guard _check_presentable.

The tracked class mu is the meridian of the terminal vertex of the first
leg: the fiber class whose order controls how many torsion Spin^c
structures the fibration supports.  For M(g, 2g; (alpha, 1)) that order
is 2g*alpha + 1, and a Spin^c structure is pinned down by its offset j in
t = t_can + j * PD(mu).  First Chern classes are multiples of PD(mu);
the canonical structure carries c1(t_can) = (alpha + 2) * PD(mu), which
makes c1 of the offset-j structure (alpha + 2 + 2j) * PD(mu) and in
particular c1 = r * PD(mu) at offset (r - alpha - 2)/2.  spinc_offset
is the one place this arithmetic is done, for every admissible
(g, n, alpha, sign, r); c1 is reported only at n = 2g.  Its offset
comes from the unguarded _spinc_offset, which takes a whole
(g, n, alpha, sign) block of rotations: the sweep reaches it through
gauge._moy_holds on the blocks of admissible_blocks, which are
admissible by construction, and spinc_offset runs it on one r.

distinct_witness turns that arithmetic into a certificate by direct
construction: the first `count` primes p = 2g*a + 1, used as rotation
numbers, give c1 classes of pairwise distinct orders (2g*alpha + 1)/p at
an alpha built from their product, which forces the corresponding
contact structures apart.  Each order it returns is checked against the
c1 order that spinc_offset gives for that rotation, by a check that
calls nothing the construction calls (tests/test_routes.py).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from itertools import islice

from ._record import Record
from .contfrac import _neg_cf_entries
from .errors import ConditionViolation, SearchExhausted
from .intmat import _bezout, _smith_form_mod
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
    "admissible_blocks",
    "distinct_witness",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# witness bounds: every candidate 2g*a + 1 is at most 2 * 10^18 + 1, and the
# largest document (count = 100) is about 0.15 MB
_G_LIMIT = 10**12
_COUNT_LIMIT = 100
_BASE_LIMIT = 10**6


class IntegralPresentation(Record):
    """The star-shaped surgery presentation, kept as a star: fields n, legs, free_rank.

    The central unknot is framed n; legs holds one tuple of framings
    per exceptional fiber, the first entry next to the centre.
    free_rank carries the 2g surface summand of H1.  Vertices are
    numbered as in `matrix`: the centre is 0, then each leg in turn from
    the centre outwards.
    """

    __slots__ = ("n", "legs", "free_rank")

    @property
    def mu_index(self) -> int:
        """Vertex of the tracked meridian: the first leg's terminal vertex, else the centre."""
        return len(self.legs[0]) if self.legs else 0

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense linking matrix, built on each access."""
        size = 1 + sum(map(len, self.legs))
        m = [[0] * size for _ in range(size)]
        m[0][0] = self.n
        index = 1
        for leg in self.legs:
            previous = 0  # legs hang off the central vertex
            for framing in leg:
                m[index][index] = framing
                m[previous][index] = m[index][previous] = 1
                previous = index
                index += 1
        return tuple(map(tuple, m))


class FirstHomology(Record):
    """H1 = Z^free_rank + sum Z/d for d in torsion (d_1 | d_2 | ...).

    Fields free_rank, torsion, torsion_rows, free_rows, legs; repr shows
    the first two.

    Every meridian generator is an integer multiple a * e_r of a
    generator e_r of the fiber block: the vertices of leg r are its
    multiples a_j times e_r, the terminal one e_r itself, and the centre
    is a_0 of the first leg times e_0 (e_0 itself with no leg).
    torsion_rows are the rows of the left transform S on the torsion
    diagonal entries, residues modulo the torsion order (|E| on a
    nonsingular block), which every d divides.  free_rows are exact
    primitive functionals on the block generators that vanish on the
    relations, one per copy of Z in the block's cokernel and none on a
    nonsingular block; on a star whose heads are all nonzero the one free
    row is the block's primitive left kernel (see `_singular_block`).
    The coordinates of a vertex are column r of those rows times a.
    legs holds the framings the multiples are walked from, and no
    multiple is kept, so the state stays O(k * t) for k legs and t
    torsion and free rows, however many vertices are read.  order(j)
    walks vertex j's leg from its terminal vertex to j alone (no step
    for a terminal vertex such as the tracked meridian), and class_map
    and free_map walk every leg once on each access.  Coordinates are
    taken in the basis the elimination picks, so they are fixed only up
    to an automorphism of the group; the order of each class is
    basis-free.
    """

    __slots__ = ("free_rank", "torsion", "torsion_rows", "free_rows", "legs")
    _hidden = ("torsion_rows", "free_rows", "legs")

    @property
    def class_map(self) -> tuple[tuple[int, ...], ...]:
        """Torsion coordinates of every meridian generator, reduced modulo each d."""
        return tuple(
            tuple(row[r] * a % d for row, d in zip(self.torsion_rows, self.torsion))
            for r, a in self._vertices()
        )

    @property
    def free_map(self) -> tuple[tuple[int, ...], ...]:
        """Coordinates of every meridian generator on the cokernel copies of Z
        (empty unless the linking matrix is singular)."""
        return tuple(tuple(row[r] * a for row in self.free_rows) for r, a in self._vertices())

    def order(self, j: int) -> int:
        """Order of the j-th meridian generator; raises if it has a free part.

        Indexes the vertices as class_map does, negative j from the end,
        and computes vertex j's coordinates alone (see `_vertex`).
        """
        r, a = self._vertex(j)
        if any(row[r] * a for row in self.free_rows):
            raise ConditionViolation("meridian class has infinite order")
        order = 1
        for row, d in zip(self.torsion_rows, self.torsion):
            order = math.lcm(order, d // math.gcd(row[r] * a, d))
        return order

    def _vertices(self) -> Iterator[tuple[int, int]]:
        """(r, a) for every vertex, in vertex order: one walk of each leg."""
        if not self.legs:
            yield 0, 1
        for r, leg in enumerate(self.legs):
            after, a, tail = 0, 1, []
            for framing in reversed(leg):
                tail.append(a)
                after, a = a, -(framing * a + after)
            if r == 0:
                yield 0, a  # the centre
            for a in reversed(tail):
                yield r, a

    def _vertex(self, j: int) -> tuple[int, int]:
        """(r, a) for vertex j alone, negative j from the end.

        Finds j's leg from the leg lengths and walks it from the terminal
        vertex (a = 1) inwards to j: the centre is the first leg's
        position -1, so it walks that whole leg.
        """
        j = operator.index(j)
        count = 1 + sum(map(len, self.legs))
        if not -count <= j < count:
            raise ConditionViolation(f"no meridian generator {j} among {count} vertices")
        if not self.legs:
            return 0, 1
        i = j % count - 1  # position in the leg; the centre is -1 in the first
        for r, leg in enumerate(self.legs):
            if i < len(leg):
                break
            i -= len(leg)
        return r, _leg_end(leg[i + 1 :])[0]


class SpinCClass(Record):
    """A torsion Spin^c structure written relative to the canonical one.

    offset is the coefficient j in t = t_can + j * PD(mu), reduced modulo
    the order of mu; c1_coefficient is c1(t) as a multiple of PD(mu) when
    that multiple is pinned down (central framing n = 2g), None otherwise.
    """

    __slots__ = ("offset", "modulus", "c1_coefficient")

    def __init__(self, offset: int, modulus: int, c1_coefficient: int | None) -> None:
        offset, modulus = operator.index(offset), operator.index(modulus)
        if c1_coefficient is not None:
            c1_coefficient = operator.index(c1_coefficient)
        if modulus < 1:
            raise ConditionViolation("modulus must be a positive integer")
        super().__init__(offset, modulus, c1_coefficient)

    @property
    def c1_order(self) -> int:
        """Order of c1 in the cyclic group generated by PD(mu)."""
        if self.c1_coefficient is None:
            raise ConditionViolation("c1 is not pinned down for this structure")
        return self.modulus // math.gcd(self.c1_coefficient, self.modulus)


class Witness(Record):
    """Parameters certifying `len(rotations)` pairwise distinct structures.

    Fields alpha, rotations, orders: the multiplicity, the rotation
    numbers, and the c1 order of the structure each rotation yields.
    """

    __slots__ = ("alpha", "rotations", "orders")


def presentation(inv: SeifertInvariants) -> IntegralPresentation:
    """Star-shaped presentation of M(g, n; pairs): one leg -alpha/beta per fiber.

    Pairs must satisfy alpha >= beta >= 1 (see _check_presentable); each
    leg is the negative continued fraction of -alpha/beta, expanded by
    the integer Euclid loop of `contfrac` on the coprime pair, so it
    obeys the chain bound there.
    """
    _check_presentable(inv)
    legs = tuple(_neg_cf_entries(-alpha, beta) for alpha, beta in inv.pairs)
    return IntegralPresentation(inv.n, legs, 2 * inv.g)


def homology(p: IntegralPresentation) -> FirstHomology:
    """First homology of the star with tracked meridian generators.

    Leg i with framings c_1, ..., c_m (c_1 next to the centre) collapses
    from its terminal vertex t_i: with a_m = 1, a_{m+1} = 0 and
    a_{j-1} = -(c_j a_j + a_{j+1}), the relations at vertices m, ..., 2
    write vertex j as a_j t_i.  The relation at vertex 1 becomes the head
    relation x_0 - a_0 t_i, and vertex 1 enters the centre's relation as
    a_1 t_i.  The ratios -a_{j-1}/a_j are the tails [c_j, ..., c_m], so on
    a leg -alpha/beta the coprime pair (a_0, a_1) is (alpha, beta), and
    the cokernel is that of the Seifert core (see `mu_order`).  The first
    head relation sets x_0 = a_0 t_1, which leaves the k x k fiber block
    B of `_fiber_block` with |det B| = |E|.  With D = S B T, the quotient
    Z^k / B Z^k is Z^k / D Z^k under x -> Sx, so vertex j lands at a_j
    times the column of S of its block generator, read modulo the
    diagonal; the centre is a_0 times t_1's column.  When E != 0, S and
    D come from the elimination modulo |E|; when E = 0, `_singular_block`
    hands the same elimination a nonsingular matrix with the torsion of
    B's cokernel, its |det| and the free rows.  AssertionError is raised
    unless the torsion multiplies to that modulus.  Each leg is walked
    once here for its ends (a_0, a_1) alone; the result holds the rows of
    S and the legs, and walks a vertex's multiple a_j when the vertex is
    read (see FirstHomology).  Linear in the vertex count, plus one
    elimination of k rows.
    """
    ends = [_leg_end(leg) for leg in p.legs]
    matrix, modulus = _fiber_block(p.n, ends)
    free_rows = ()
    if not modulus:
        matrix, modulus, free_rows = _singular_block(matrix, ends)
    diagonal, left = _smith_form_mod(matrix, abs(modulus))
    return FirstHomology(  # by position: the base binds keywords about 1 us slower
        p.free_rank + len(free_rows),
        tuple(d for d in diagonal if d > 1),  # torsion
        tuple(row for row, d in zip(left, diagonal) if d > 1),  # torsion_rows
        free_rows,
        p.legs,
    )


def _leg_end(framings: tuple[int, ...]) -> tuple[int, int]:
    """(a_j, a_{j+1}) for framings c_{j+1}, ..., c_m, the tail of a leg
    past vertex j: the recurrence of `homology`, walked in from the
    terminal vertex (a_m = 1).  A whole leg gives (a_0, a_1)."""
    after, a = 0, 1
    for framing in reversed(framings):
        after, a = a, -(framing * a + after)
    return a, after


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


def _fiber_block(n: int, ends) -> tuple[list[list[int]], int]:
    """The k x k block on t_1, ..., t_k and its determinant up to sign, E.

    ends holds one (a_0, a_1) per leg.  Generator rows, relation
    columns: the centre's relation n x_0 + sum a_1 t_i and each leg's
    head relation x_0 - a_0 t_i (on a leg -alpha/beta, (a_0, a_1) =
    (alpha, beta): the core of Neumann-Raymond 1978, see Neumann, Trans.
    AMS 268, 1981).  The first head relation has x_0's coefficient 1, so
    it eliminates x_0 = a_01 t_1: row t_1 is [n a_01 + a_11, a_01, ...,
    a_01] and row t_i is [a_1i, 0, ..., -a_0i, ..., 0].  With no leg the
    block is [[n]] on x_0.  |det| of the block is |E| with
    E = n prod a_0j + sum_i a_1i prod_{j != i} a_0j, built leg by leg by
    (P, E') -> (P a_0, E' a_0 + a_1 P) from (1, 0), with no division, so
    a head a_0 = 0 of a hand-built presentation needs no care.
    """
    if not ends:
        return [[n]], n
    (head, first), k = ends[0], len(ends)
    block = [[n * head + first] + [head] * (k - 1)]
    for i, (a0, a1) in enumerate(ends[1:], 1):
        row = [0] * k
        row[0], row[i] = a1, -a0
        block.append(row)
    product, euler = 1, 0
    for a0, a1 in ends:
        product, euler = product * a0, euler * a0 + a1 * product
    return block, n * product + euler


def _singular_block(block, ends) -> tuple[list[list[int]], int, tuple[tuple[int, ...], ...]]:
    """A nonsingular stand-in for a singular fiber block (E = 0).

    Returns (A, M, free rows): Z^k / A Z^k is the torsion of the block's
    cokernel, M = |det A|, and the free rows are exact primitive
    functionals on Z^k that vanish on the block's relations, so x ->
    (S x, the free rows at x), for the S that `_smith_form_mod(A, M)`
    returns, identifies the block's cokernel with its torsion plus
    Z^(free rows).  Read off the legs' ends (a_0i, a_1i) by O(k) lcm,
    gcd and Bezout steps:

    - no leg: the block is [[0]] and the cokernel Z, so A = [[1]].
    - two or more zero heads (one alone makes E != 0): x_0 = 0, t_i has
      order |a_0i| on a nonzero head, and the centre relation
      sum a_1i t_i, whose zero-head coefficients are +-1, eliminates the
      first zero head t_f; A is diag(a_0i, or 1 on a zero head) with
      column f replaced by (a_1i), M the product of the nonzero |a_0i|,
      and each other zero head j gives the free row x_f - a_1f a_1j x_j.
    - every head nonzero: B has rank k - 1.  E = 0 makes
      sum a_1i / a_0i = -n an integer, so each prime's highest power
      among the heads divides two of them, and L, the lcm of the heads,
      is also the lcm of the heads past the first.  B's primitive left
      kernel is w_i = L / a_0i (signed so w_0 > 0) and its primitive
      right kernel r = (L, a_1i L / a_0i for i >= 2).  `_unit_dual`
      gives v . w = 1 and u . r = 1, so A = B + v u^T has cokernel
      Z^k / (B Z^k + Z v), the torsion of B's cokernel, since A r = v.
      adj B = c r w^T, whose (0, 0) entry prod_{i >= 2} (-a_0i) is
      c L w_0, gives det A = u^T adj(B) v = c, so M = |prod a_0i| / L^2,
      and w is the one free row.
    """
    if not ends:
        return [[1]], 1, ((1,),)
    k = len(ends)
    zero = [i for i, (head, _) in enumerate(ends) if not head]
    if zero:
        first, sign = zero[0], ends[zero[0]][1]
        matrix = [[(head or 1) * (i == j) for j in range(k)] for i, (head, _) in enumerate(ends)]
        for row, (_, end) in zip(matrix, ends):
            row[first] = end
        free_rows = tuple(
            tuple(int(i == first) - sign * ends[j][1] * (i == j) for i in range(k)) for j in zero[1:]
        )
        return matrix, math.prod(abs(head) for head, _ in ends if head), free_rows
    heads = [head for head, _ in ends]
    lcm = math.lcm(*heads)
    w = [lcm // head if heads[0] > 0 else -lcm // head for head in heads]
    r = [lcm] + [end * lcm // head for head, end in ends[1:]]
    v, u = _unit_dual(w), _unit_dual(r)
    matrix = [[b + x * y for b, y in zip(row, u)] for row, x in zip(block, v)]
    return matrix, abs(math.prod(heads)) // lcm**2, (tuple(w),)


def _unit_dual(u: list[int]) -> list[int]:
    """x with x . u = 1, for a primitive u with u_0 > 0: a Bezout chain.

    After step i, x . u = g = gcd(u_0, ..., u_i): the next entry y takes
    (g, s, t) = `intmat._bezout`(g, y), and x becomes s x with t at i.
    The pairing is checked at the end, so a wrong step raises
    AssertionError rather than reach the matrix it corrects.
    """
    x, g = [1] + [0] * (len(u) - 1), u[0]
    for i, y in enumerate(u[1:], 1):
        g, s, x[i] = _bezout(g, y)
        x[:i] = [s * c for c in x[:i]]
    if sum(map(operator.mul, x, u)) != 1:
        raise AssertionError("the Bezout chain does not pair to 1")
    return x


def mu_order(inv: SeifertInvariants) -> int:
    """Order of the tracked fiber meridian in H1, in closed form.

    No leg, no matrix and no Smith form.  Modulo the free Z^{2g}, H1 is
    the cokernel of the Seifert core C on x_0, t_1, ..., t_k (see
    `_fiber_block`) with columns n x_0 + sum beta_j t_j and
    x_0 - alpha_j t_j, and the order of
    mu = t_1 is the lcm of the denominators of the solution y of
    C y = e_{t_1}.  With Q = prod_{j >= 2} alpha_j,
    s_j = beta_j Q / alpha_j and E = alpha_1 (n Q + sum_{j >= 2} s_j)
    + beta_1 Q, the Euler numerator
    n prod alpha_j + sum_j beta_j prod_{i != j} alpha_i:

        y_0 = Q / E,   y_1 = -(n Q + sum s_j) / E,   y_j = s_j / E (j >= 2).

    Coordinate y_i = u_i / E has reduced denominator |E| / gcd(u_i, E),
    so the lcm over all of them is |E| / gcd(E, u_0, ..., u_k); u_1 is
    an integer combination of Q and the s_j, so that is
    |E| / gcd(E, Q, s_2, ..., s_k).  With no fibers the class is x_0,
    with y_0 = 1/n: order |n|.  O(k) big-integer operations, whatever
    the leg lengths, so the chain bound of `contfrac` does not apply
    here; `homology(presentation(inv))`, which reads alpha_j and beta_j
    off the legs, computes its own E and eliminates modulo |E|, is the
    independent second route.

    Equals |n*alpha + beta| on a single fiber (alpha, beta); in particular
    2g*alpha + 1 on M(g, 2g; (alpha, 1)).  Pairs must satisfy
    alpha >= beta >= 1, as for `presentation`.  Raises if the class has
    infinite order, which happens exactly when E = 0 (e = 0, a singular
    core, which the n >= 2g family never produces).
    """
    _check_presentable(inv)
    if not inv.pairs:
        euler, numerators = inv.n, (1,)
    else:
        (alpha_1, beta_1), others = inv.pairs[0], inv.pairs[1:]
        q = math.prod(alpha for alpha, _ in others)
        numerators = (q, *(beta * (q // alpha) for alpha, beta in others))
        euler = alpha_1 * (inv.n * q + sum(numerators[1:])) + beta_1 * q
    if euler == 0:
        raise ConditionViolation("meridian class has infinite order")
    return abs(euler) // math.gcd(euler, *numerators)


def _spinc_offset(g: int, n: int, alpha: int, sign: int, rs) -> Iterator[int]:
    """spinc_offset's offset per r of an admissible (g, n, alpha, sign) block, unguarded.

    The shift and the modulus are computed once per block.
    """
    shift = 0 if sign == 1 else 2 * alpha * (n - 2 * g)
    base, modulus = alpha + 2 + shift, n * alpha + 1
    for r in rs:
        yield ((r - base) // 2) % modulus


def spinc_offset(g: int, n: int, alpha: int, sign: int, r: int) -> SpinCClass:
    """Offset of t_{xi^sign_r} from the canonical Spin^c structure.

    offset = (r - alpha - 2)/2 for sign +1 and the same shifted by
    -alpha*(n - 2g) for sign -1, reduced modulo n*alpha + 1.  The
    admissible ranges are -alpha < r <= alpha (sign +1) and
    -alpha <= r < alpha (sign -1), with r = alpha (mod 2).  c1 is pinned
    down only at n = 2g, where it equals (alpha + 2 + 2*offset) * PD(mu),
    that is r * PD(mu).  Every argument must be an integer (TypeError
    otherwise).
    """
    check_admissible(g, n, alpha, sign, r)
    modulus = n * alpha + 1
    c1 = r % modulus if n == 2 * g else None  # the sign -1 shift is 0 at n = 2g
    (offset,) = _spinc_offset(g, n, alpha, sign, (r,))
    return SpinCClass(offset=offset, modulus=modulus, c1_coefficient=c1)


def check_admissible(g: int, n: int, alpha: int, sign: int, r: int) -> None:
    """Validate the (g, n, alpha, sign, r) range shared across the family.

    Needs g >= 1, n >= 2g, alpha >= 1, r = alpha (mod 2), and
    -alpha < r <= alpha for sign +1, -alpha <= r < alpha for sign -1.
    Every argument must be an integer (TypeError otherwise).
    """
    g, n, alpha, sign, r = map(operator.index, (g, n, alpha, sign, r))
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


def admissible_blocks(g: int, n: int, alpha: int) -> Iterator[tuple[int, range]]:
    """The admissible rotations over this (g, n, alpha), as one (sign, range of r) per sign.

    Sign +1 first with r = 2 - alpha, 4 - alpha, ..., alpha, then sign -1
    with r = -alpha, 2 - alpha, ..., alpha - 2: alpha values of r each,
    exactly those that check_admissible accepts.  The grid is enumerated
    here alone, and the sweep hands each range whole to the block cores
    of gauge.  Raises ConditionViolation, as check_admissible does, when
    g, n or alpha is out of range, and TypeError when one is not an
    integer; the checks run once, when iteration starts.
    """
    check_admissible(g, n, alpha, 1, alpha)
    for sign, low in ((1, 2 - alpha), (-1, -alpha)):
        yield sign, range(low, low + 2 * alpha, 2)


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
    needs a base above max_base.  A float g, count or max_base raises
    TypeError.
    """
    g, count, max_base = map(operator.index, (g, count, max_base))
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
