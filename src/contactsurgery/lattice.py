"""Negative definite lattices and diagonal embedding obstructions.

lambda_q builds the rank-2q lattice spanned by a path of (-2)-vectors
v_1, ..., v_{2q-1} (consecutive products 1) and one extra vector w with
w.w = 1 - q attached to v_q; it is the intersection lattice whose
non-embeddability into every diagonal lattice D_m = (Z^m, -identity)
obstructs negative definite fillings.

embeds_in_diagonal decides that embeddability by certified exhaustive
search.  Writing each basis vector as an integer coordinate row V_i with
gram_ij = -<V_i, V_j> (Euclidean pairing), a vector of square -s has
coordinates bounded by floor(sqrt(s)) and support at most s, so
m = sum |gram_ii| columns suffice for any embedding that exists at all.
Columns of D_m can be permuted and negated freely; the search collapses
that symmetry by demanding canonical assignments: within each class of
columns that share the same history (the column of values already placed
above), coordinates must not increase, and on columns with all-zero
history they must be nonnegative.  Every embedding is column-equivalent
to exactly one canonical assignment, so an empty search certifies
non-embeddability for every m.

The search runs on an explicit stack, so no rank reaches Python's
recursion limit, and a node costs O(rank); its order and cut are those
of a plain recursion over columns, so the first embedding found, or
None, is the same.  Its cost still grows about as q^3 on lambda_q, so
nonfillability_obstruction refuses q above _Q_LIMIT (g above 759)
before building anything.

nonfillability_obstruction only ever meets q >= 3, where lambda_q embeds
in no diagonal lattice (Lisca, Geom. Topol. 11 (2007)): an embedding
found there would mean the search is wrong, so it raises AssertionError
(exit 3 on the command line) rather than reporting that the obstruction
fails.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import ConditionViolation
from .seifert import d_range

__all__ = [
    "Lattice",
    "DiagonalEmbedding",
    "lambda_q",
    "is_negative_definite",
    "embeds_in_diagonal",
    "nonfillability_obstruction",
]

_Q_LIMIT = 40  # largest lambda_q the obstruction searches: about 0.2 s, g <= 759


@dataclass(frozen=True)
class Lattice:
    """A finite-rank lattice given by its Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    rank: int

    def __post_init__(self) -> None:
        gram = tuple(tuple(operator.index(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        if len(gram) != self.rank or any(len(row) != self.rank for row in gram):
            raise ConditionViolation("gram matrix must be rank x rank")
        for i in range(self.rank):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ConditionViolation("gram matrix must be symmetric")


@dataclass(frozen=True)
class DiagonalEmbedding:
    """Rows are images of the lattice basis in D_m, columns D_m coordinates."""

    vectors: tuple[tuple[int, ...], ...]

    def pairing(self, i: int, j: int) -> int:
        """The D_m product of rows i and j: minus the Euclidean dot."""
        return -sum(a * b for a, b in zip(self.vectors[i], self.vectors[j]))


def lambda_q(q: int) -> Lattice:
    """The rank-2q obstruction lattice.

    A path v_1, ..., v_{2q-1} of square -2 vectors with consecutive
    products 1, plus w with w.w = 1 - q and w.v_q = 1.  q = 1 would make
    w a square-0 vector, degenerating the form.
    """
    if q <= 1:
        raise ConditionViolation(f"need q >= 2, got {q}")
    rank = 2 * q
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank - 1):  # vectors v_1 .. v_{2q-1} at indices 0 .. 2q-2
        gram[i][i] = -2
        if i + 1 < rank - 1:
            gram[i][i + 1] = 1
            gram[i + 1][i] = 1
    w = rank - 1
    gram[w][w] = 1 - q
    gram[w][q - 1] = 1  # attached to v_q
    gram[q - 1][w] = 1
    return Lattice(gram=tuple(tuple(row) for row in gram), rank=rank)


def is_negative_definite(lattice: Lattice) -> bool:
    """Sylvester test: k-th leading principal minor has sign (-1)^k.

    One Bareiss pass without pivoting: after step k the pivot at (k, k)
    is the (k+1)-th leading principal minor, so the test stops at the
    first pivot of the wrong sign (zero included), before dividing by it.
    """
    m = [list(row) for row in lattice.gram]
    n = lattice.rank
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot * (-1) ** (k + 1) <= 0:
            return False
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * m[k][j]) // prev
        prev = pivot
    return True


def embeds_in_diagonal(lattice: Lattice) -> DiagonalEmbedding | None:
    """Search every diagonal lattice for an isometric image of `lattice`.

    Returns the first embedding in canonical search order (coordinate
    values ascending, vectors placed in basis order), or None, which by
    the completeness bound certifies that no embedding exists in any
    D_m.  Requires a negative definite Gram matrix.

    The search is depth first on an explicit stack, one frame per open
    column of the vector being placed: [column, next value, upper bound,
    norm left, dots left].  Each placed row is entered once into column
    views: the history of every column and the row's squared length
    after it, which is all the Cauchy-Schwarz cut needs, at one product
    per placed row.  When a vector's placement starts, whether each
    column shares the previous column's class and whether it is fresh
    follow from the last row in one pass over the columns.  Once the
    norm is used up, the rest of the row is forced to zero and the row
    is accepted or rejected at once.
    """
    if not is_negative_definite(lattice):
        raise ConditionViolation("embedding search needs a negative definite form")
    gram = lattice.gram
    rank = lattice.rank
    columns = sum(-gram[i][i] for i in range(rank))
    placed: list[list[int]] = []
    history: list[list[int]] = [[] for _ in range(columns)]  # placed[j][c] by c
    tail: list[list[int]] = [[] for _ in range(columns)]  # |placed[j][c+1:]|^2 by c
    levels: list[tuple] = []  # per open vector: coordinates, same, fresh
    stack: list[list] = []

    def open_vector(i: int, same: list[bool], fresh: list[bool]) -> tuple:
        levels.append(([0] * columns, same, fresh))
        norm = -gram[i][i]
        bound = math.isqrt(norm)
        targets = [-gram[j][i] for j in range(i)]  # required Euclidean dots
        stack.append([0, 0 if fresh[0] else -bound, bound, norm, targets])
        return levels[-1]

    if rank == 0:
        return DiagonalEmbedding(vectors=())
    vector, same, fresh = open_vector(0, [False] + [True] * (columns - 1), [True] * columns)
    while stack:
        frame = stack[-1]
        col, value, high, norm_left, dots_left = frame
        if value > high:
            stack.pop()
            vector[col] = 0
            if col == 0 and placed:  # vector exhausted: reopen the one before
                levels.pop()
                placed.pop()
                for c in range(columns):
                    history[c].pop()
                    tail[c].pop()
                vector, same, fresh = levels[-1]
            continue
        frame[1] = value + 1
        vector[col] = value
        left = norm_left - value * value
        dots = (
            dots_left
            if fresh[col]
            else [d - value * h for d, h in zip(dots_left, history[col])]
        )
        # Cauchy-Schwarz cut: remaining dot d against a row of remaining
        # squared length t needs d^2 <= t * left
        if any(d * d > t * left for d, t in zip(dots, tail[col])):
            continue
        nxt = col + 1
        if left == 0:
            # the rest of the row is zero, and the cut has made every dot
            # 0; a zero is refused only right after a negative value in
            # the same class, by the non-increasing rule
            if nxt < columns and same[nxt] and value < 0:
                continue
            row = vector[:]
            placed.append(row)
            if len(placed) == rank:
                return DiagonalEmbedding(vectors=_trim([tuple(v) for v in placed]))
            after = 0
            for c in range(columns - 1, -1, -1):
                history[c].append(row[c])
                tail[c].append(after)
                after += row[c] * row[c]
            vector, same, fresh = open_vector(
                len(placed),
                [False] + [same[c] and row[c - 1] == row[c] for c in range(1, columns)],
                [f and not x for f, x in zip(fresh, row)],
            )
        elif nxt < columns:
            bound = math.isqrt(left)
            # sign symmetry of unused columns; non-increasing within the
            # previous column's history class
            low = 0 if fresh[nxt] else -bound
            high = min(bound, value) if same[nxt] else bound
            stack.append([nxt, low, high, left, dots])
    return None


def _trim(vectors: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    used = max(
        (i + 1 for v in vectors for i, x in enumerate(v) if x != 0), default=1
    )
    return tuple(v[:used] for v in vectors)


def nonfillability_obstruction(g: int) -> dict:
    """The diagonal-lattice obstruction at genus g.

    Picks d with d(d+1) <= 2g <= d(d+2) - 1, builds lambda_{d+2}, and
    searches all diagonal lattices.  A lattice that would have to embed
    in a diagonal lattice by diagonalization of a negative definite
    filling, but does not, certifies that no such filling exists.
    Raises ConditionViolation, before any search, when g < 1 (from
    d_range), when no such d exists, or when q = d + 2 exceeds _Q_LIMIT.
    An embedding found by the search raises AssertionError, since
    q >= 3 rules one out, so the document's embedding keys always read
    the same.
    """
    d = d_range(g)
    if d is None:
        raise ConditionViolation(f"no d with d(d+1) <= 2g <= d(d+2)-1 for g = {g}")
    q = d + 2
    if q > _Q_LIMIT:
        g_max = ((_Q_LIMIT - 2) * _Q_LIMIT - 1) // 2
        raise ConditionViolation(
            f"q = {q} is above the search limit q <= {_Q_LIMIT} (g <= {g_max})"
        )
    lattice = lambda_q(q)
    if embeds_in_diagonal(lattice) is not None:
        raise AssertionError(f"lambda_{q} embeds in a diagonal lattice, against the q >= 3 lemma")
    return {
        "g": g,
        "d": d,
        "q": q,
        "rank": lattice.rank,
        "embeddable": False,
        "embedding": None,
        "obstruction_holds": True,
        "narrative": (
            "a negative definite filling forces the lattice into a diagonal "
            "form; the certified search found none, so no negative definite "
            "filling exists"
        ),
    }
