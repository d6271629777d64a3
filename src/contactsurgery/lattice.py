"""Negative definite lattices and diagonal embedding obstructions.

lambda_q is the rank-2q lattice spanned by a path of (-2)-vectors
v_1, ..., v_{2q-1} (consecutive products 1) and one extra vector w with
w.w = 1 - q attached to v_q; it is the intersection lattice whose
non-embeddability into every diagonal lattice D_m = (Z^m, -identity)
obstructs negative definite fillings.  It is read off
homology.presentation of a three-leg star, not built by hand.

lambda_q_certificate proves that non-embeddability in O(q) by the chain
lemma, from the hypotheses it checks on the same star, and
nonfillability_obstruction reads its answer there, with no search.  The
certificate answers for every q the star can be built for: each leg
obeys the chain bound of `contfrac`, so 2 <= q <= 3001 (g <= 4499999),
and _lambda_star, which builds the star for lambda_q and the
certificate, refuses any other q before any leg is built.

embeds_in_diagonal decides embeddability of any negative definite
lattice by certified exhaustive search; on lambda_q it is the
certificate's independent second route, run by the tests.  The two
routes share only lambda_q's star, _lambda_star and the `presentation`
behind it, which tests/test_routes.py checks on the call graph.
Writing each basis vector as an integer coordinate row V_i with gram_ij =
-<V_i, V_j> (Euclidean pairing), a vector of square -s has coordinates
bounded by floor(sqrt(s)) and support at most s, so m = sum |gram_ii|
columns suffice for any embedding that exists at all.  Columns of D_m
can be permuted and negated freely; the search collapses that symmetry
by demanding canonical assignments: within each class of columns that
share the same history (the column of values already placed above),
coordinates must not increase, and on columns with all-zero history
they must be nonnegative.  Every embedding is column-equivalent to
exactly one canonical assignment, so an empty search certifies
non-embeddability for every m.  The fresh columns, those with all-zero
history, are always a suffix and one class, so a vector takes positive
values there and then zeros; it reaches at most its norm of them, and
the search never needs the bound m itself.  The search has a fixed work
bound: past _NODE_BUDGET nodes it raises SearchExhausted rather than
run on, since on dense forms of rank 6 it can take millions of nodes;
lambda_q stays within it up to q = 496.

The search runs on an explicit stack, so no rank reaches Python's
recursion limit; its order is that of a plain recursion over columns,
and its cuts skip only subtrees that hold no embedding, so the first
embedding found, or None, is the same.  It keeps only the nonzero
column entries and the nonzero remaining dots, so a node costs
O(nonzeros), not O(rank); the column classes and the rows that end at a
column are read off those column entries, not kept beside them.  On
lambda_q, where a vector meets one or two placed rows, each vector still
walks the used columns, most of them at the forced value 0, so the
search grows about as 4 q^2 nodes.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator

from ._record import Record
from .contfrac import _CHAIN_LIMIT
from .errors import ConditionViolation, SearchExhausted
from .homology import IntegralPresentation, presentation
from .seifert import SeifertInvariants, d_range

# search nodes before the search gives up; lambda_q takes 7,320 at
# q = 40, 164,792 at q = 200 and 996,064 at q = 496, the last q within it
_NODE_BUDGET = 1_000_000

__all__ = [
    "Lattice",
    "DiagonalEmbedding",
    "lambda_q",
    "lambda_q_certificate",
    "is_negative_definite",
    "embeds_in_diagonal",
    "nonfillability_obstruction",
]


class Lattice(Record):
    """A finite-rank lattice given by its Gram matrix."""

    __slots__ = ("gram", "rank")

    def __init__(self, gram: tuple[tuple[int, ...], ...], rank: int) -> None:
        gram = tuple(tuple(operator.index(x) for x in row) for row in gram)
        rank = operator.index(rank)
        if len(gram) != rank or any(len(row) != rank for row in gram):
            raise ConditionViolation("gram matrix must be rank x rank")
        if gram != tuple(zip(*gram)):
            raise ConditionViolation("gram matrix must be symmetric")
        super().__init__(gram, rank)


class DiagonalEmbedding(Record):
    """Field vectors: rows are images of the lattice basis in D_m, columns D_m coordinates."""

    __slots__ = ("vectors",)

    def pairing(self, i: int, j: int) -> int:
        """The D_m product of rows i and j: minus the Euclidean dot."""
        return -sum(a * b for a, b in zip(self.vectors[i], self.vectors[j]))


def _lambda_star(q: int) -> IntegralPresentation:
    """The presentation of lambda_q's star M(0, -2; (q, q-1), (q, q-1), (q-1, 1)).

    Raises ConditionViolation, before building anything, when q <= 1,
    where the star has no presentation, and when a leg would exceed the
    chain bound of `contfrac` (q > 3001).
    """
    if q <= 1:
        raise ConditionViolation(f"need q >= 2, got {q}")
    if q - 1 > _CHAIN_LIMIT:
        q_max = _CHAIN_LIMIT + 1
        g_max = ((q_max - 2) * q_max - 1) // 2
        raise ConditionViolation(f"q = {q} is above the chain bound q <= {q_max} (g <= {g_max})")
    return presentation(SeifertInvariants(0, -2, ((q, q - 1), (q, q - 1), (q - 1, 1))))


def lambda_q(q: int) -> Lattice:
    """The rank-2q obstruction lattice.

    A path v_1, ..., v_{2q-1} of square -2 vectors with consecutive
    products 1, plus w with w.w = 1 - q and w.v_q = 1.  q = 1 would make
    w a square-0 vector, degenerating the form.  It is the plumbing
    lattice of the star M(0, -2; (q, q-1), (q, q-1), (q-1, 1)), read off
    its presentation: the first leg reversed (v_1 .. v_{q-1}), the centre
    v_q, the second leg (v_{q+1} .. v_{2q-1}) and the one-vertex third
    leg w.  The star is _lambda_star's, so q runs over 2..3001.
    """
    matrix = _lambda_star(q).matrix
    pick = operator.itemgetter(*range(q - 1, -1, -1), *range(q, 2 * q))
    return Lattice(gram=tuple(map(pick, pick(matrix))), rank=2 * q)


def is_negative_definite(lattice: Lattice) -> bool:
    """Sylvester test: k-th leading principal minor has sign (-1)^k.

    One fraction-free (Bareiss) elimination without pivoting: after step
    k the pivot p_k at (k, k) is the (k+1)-th leading principal minor, so
    the test stops at the first pivot of the wrong sign (zero included),
    before dividing by it.  A row whose entry in the pivot column is zero
    would only be scaled by p_k / p_{k-1}, so it is skipped; the scalings
    it skipped telescope to p_k / p_s, with p_s the pivot of its last
    update, so when it is next touched its step divides by p_s instead,
    exactly.  On a tree such as lambda_q a step touches one or two rows,
    and the pass costs O(rank^2) rather than O(rank^3).  It is the
    package's one Bareiss pass; the tests check it against each leading
    minor by the determinant of `tests/reference.py`.
    """
    m = [list(row) for row in lattice.gram]
    n = lattice.rank
    pivots = [1]  # pivots[k]: the k-th leading minor, 1 for k = 0
    level = [0] * n  # row i is exact up to pivots[k] / pivots[level[i]]
    for k in range(n):
        top = m[k]
        stale = pivots[level[k]]
        if stale != pivots[k]:
            for j in range(k, n):
                top[j] = top[j] * pivots[k] // stale
        pivot = top[k]
        if pivot * (-1) ** (k + 1) <= 0:
            return False
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            if lead:
                stale = pivots[level[i]]
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - lead * top[j]) // stale
                level[i] = k + 1
        pivots.append(pivot)
    return True


def embeds_in_diagonal(lattice: Lattice) -> DiagonalEmbedding | None:
    """Search every diagonal lattice for an isometric image of `lattice`.

    Returns the first embedding in canonical search order (coordinate
    values ascending, vectors placed in basis order), or None, which by
    the completeness bound certifies that no embedding exists in any
    D_m.  Requires a negative definite Gram matrix.  Raises
    SearchExhausted once the search passes _NODE_BUDGET nodes, with no
    answer either way.

    The search is depth first on an explicit stack, one frame per column
    of each vector on the current path: [column, next value, upper bound,
    norm left, dots left], the dots a dict of the nonzero remaining
    Euclidean dots by placed row.  The open vector's frames are the top
    of the stack, so a row is read off them when it is placed, and it
    stops at its last nonzero entry.  The rows placed use a prefix of the
    columns; every later column is fresh, and the fresh columns form one
    class.  Each placed row is entered once into two views of the used
    columns: every column's history as its nonzero (row, value) pairs in
    row order, and the row's squared length after each column, which is
    all the Cauchy-Schwarz cut needs.  The rest is read off these views:
    two columns share a class when their histories are equal, a row ends
    at a column of its history where its squared length after it is 0,
    and the used columns are those with a nonempty history.  A value
    updates the dots only where the column's history is nonzero, and the
    cut runs only over the nonzero dots, since a zero dot always passes,
    so a node costs O(nonzeros) rather than O(rank).

    Two rules skip subtrees that hold no embedding.  A row h that ends
    at a column must settle its dot d there, so the column takes the one
    value d / h, or none when h does not divide d.  A fresh column takes
    no zero: the fresh class is nonnegative and non-increasing, so after
    a zero the rest of the row is zero, with norm still to place.  A
    column left with no value opens no frame, except a vector's column
    0, whose give-up reopens the vector before.  Two histories are
    compared only where the class could change the column's range: after
    a value below the next column's bound, or after a negative value
    where a zero tail would follow.  The state of the search is O(rank x
    used columns) plus one frame per column reached, whatever the
    diagonal.  Once the norm is used up, the rest of the row is forced
    to zero and the row is accepted or rejected at once.
    """
    if not is_negative_definite(lattice):
        raise ConditionViolation("embedding search needs a negative definite form")
    return _search(lattice)[0]


def _search(lattice: Lattice) -> tuple[DiagonalEmbedding | None, int]:
    """embeds_in_diagonal's search, on a form already known definite,
    with its node count: the first canonical embedding and the nodes
    spent to reach it, or None and the nodes of the whole search."""
    embeddings = _embeddings(lattice)
    try:
        return next(embeddings)
    except StopIteration as done:
        return None, done.value


def _embeddings(lattice: Lattice) -> Iterator[tuple[DiagonalEmbedding, int]]:
    """Every canonical embedding of a definite form, in search order.

    Yields each with the node count so far, a node being one step of the
    loop: one value tried or one column given up.  Returns the node
    count of the whole search.  Canonical embeddings are one per class
    of embeddings under permuting and negating columns, so the yields
    count those classes.  Raises SearchExhausted at node
    _NODE_BUDGET + 1.
    """
    gram = lattice.gram
    rank = lattice.rank
    if rank == 0:
        yield DiagonalEmbedding(()), 0
        return 0
    # the placed rows stop at their last nonzero entry, and the columns
    # they use are a prefix 0..used-1, each with a nonempty history:
    # every later column is fresh
    placed: list[list[int]] = []
    # history[c]: the pairs (j, placed[j][c]) with placed[j][c] nonzero,
    # by row; columns c - 1 and c share a class when their histories agree
    history: list[list[tuple[int, int]]] = []
    tails: list[list[int]] = []  # tails[j][c] = |placed[j][c+1:]|^2
    used = 0
    stack: list[list] = []
    budget = _NODE_BUDGET
    isqrt = math.isqrt
    nodes = 0
    nxt, value, left, dots = 0, 0, -gram[0][0], {}
    while True:
        # open the frame of column nxt for a vector of norm left and
        # remaining dots `dots`, the previous column holding `value`
        bound = isqrt(left)
        if nxt < used:
            # non-increasing within the previous column's history class
            low = -bound
            high = value if nxt and value < bound and history[nxt - 1] == history[nxt] else bound
            for j, h in history[nxt]:
                if not tails[j][nxt]:
                    # row j ends here, so it must settle its dot here
                    forced, rest = divmod(dots.get(j, 0), h)
                    if rest or not low <= forced <= high:
                        low = high + 1
                    else:
                        low = high = forced
                    break
        else:
            # a fresh column takes a positive value, non-increasing after
            # the first: after a zero the rest of the row would be zero,
            # with norm left to place
            low = 1
            high = value if nxt > used and value < bound else bound
        if low <= high or nxt == 0:  # column 0's give-up reopens the vector before
            stack.append([nxt, low, high, left, dots])
        while stack:
            nodes += 1
            if nodes > budget:
                raise SearchExhausted(f"embedding search gave up after {budget} nodes")
            frame = stack[-1]
            col, value, high, norm_left, dots = frame
            if value > high:
                stack.pop()
                if col == 0 and placed:  # vector exhausted: reopen the one before
                    tails.pop()
                    for c, x in enumerate(placed.pop()):
                        if x:
                            history[c].pop()
                    while history and not history[-1]:  # the fresh columns the row took
                        history.pop()
                    used = len(history)
                continue
            frame[1] = value + 1
            left = norm_left - value * value
            if col < used:
                if value:
                    dots = dots.copy()
                    for j, h in history[col]:
                        d = dots.pop(j, 0) - value * h
                        if d:
                            dots[j] = d
                # Cauchy-Schwarz cut: remaining dot d against a row of
                # remaining squared length t needs d^2 <= t * left, which
                # a zero dot always meets, so only the nonzero dots are
                # kept and checked; past the used columns none is left
                cut = False
                for j, d in dots.items():
                    if d * d > tails[j][col] * left:
                        cut = True
                        break
                if cut:
                    continue
            nxt = col + 1
            if left:
                break  # open column nxt
            # the rest of the row is zero, and the cut has made every dot
            # 0; a zero is refused only right after a negative value in
            # the same class, by the non-increasing rule
            if nxt < used and value < 0 and history[col] == history[nxt]:
                continue
            # the open vector has one frame per column, on top of the stack
            row = [top[1] - 1 for top in stack[-nxt:]]
            i = len(placed)
            if i + 1 == rank:
                yield DiagonalEmbedding(_pad([*placed, row])), nodes
                continue
            placed.append(row)
            history.extend([] for _ in range(nxt - used))
            used = len(history)
            tail = []
            after = 0
            for c in range(nxt - 1, -1, -1):
                tail.append(after)
                x = row[c]
                if x:
                    history[c].append((i, x))
                    after += x * x
            tail.reverse()
            tails.append(tail)
            i += 1
            nxt, left = 0, -gram[i][i]
            dots = {j: -gram[j][i] for j in range(i) if gram[j][i]}  # required Euclidean dots
            break
        else:
            return nodes


def _pad(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows as vectors of one length: the columns any of them uses."""
    width = max(map(len, rows))
    return tuple(tuple(row + [0] * (width - len(row))) for row in rows)


def lambda_q_certificate(q: int) -> IntegralPresentation:
    """Prove that lambda_q embeds in no diagonal lattice, in O(q).

    Reads the star M(0, -2; (q, q-1), (q, q-1), (q-1, 1)) of lambda_q
    from `presentation`, checks the hypotheses of the argument below on
    its legs and returns it: the centre v_q is framed -2, the first and
    the second leg are q - 1 entries of -2 each (v_{q-1}, ..., v_1 and
    v_{q+1}, ..., v_{2q-1}), the third leg is the one vertex w framed
    1 - q, and q >= 3.  A star that breaks one raises AssertionError;
    that includes q = 2, where the lemma fails.  The star is
    _lambda_star's, which raises ConditionViolation, before any leg is
    built, when q <= 1 and when q > 3001.  (Lisca, Geom. Topol. 11
    (2007); Greene, Ann. of Math. 177 (2013).)

    Chain lemma.  Let v_1, ..., v_k be (-2)-vectors of D_m with
    v_i.v_{i+1} = 1 and v_i.v_j = 0 for |i - j| > 1, the chain A_k.  For
    k >= 4, up to permuting and negating the coordinates e_1, ..., e_m,
    v_i = e_i - e_{i+1} for every i.  A (-2)-vector is +-e_a +- e_b with
    a != b; product 1 is Euclidean dot -1, so consecutive vectors share
    exactly one coordinate.  Hence v_1 = e_1 - e_2 and, after swapping
    e_1 with -e_2 (which fixes v_1) and negating a new coordinate,
    v_2 = e_2 - e_3.  Induction: given v_i = e_i - e_{i+1} for i < j, the vector v_j has dot
    -1 with v_{j-1} = e_{j-1} - e_j, so it has +1 on e_j or -1 on
    e_{j-1}, not both.  If v_j = e_j +- e_x, then x is new (an old x
    would meet v_x or v_{x-1}), and negating e_x makes v_j = e_j -
    e_{j+1}.  If v_j = -e_{j-1} +- e_x, its dot with v_{j-2} is 1 unless
    v_j = -e_{j-2} - e_{j-1}, whose dot with v_{j-3} is 1 in turn.  So
    for j >= 4 the step is forced.

    The exception A_3 = D_3.  At j = 3 there is no v_0, and v_3 =
    -e_1 - e_2 is a second embedding of A_3: the roots e_1 - e_2,
    e_2 - e_3, -e_1 - e_2 of D_3.  It does not extend to A_4: a v_4 with
    coefficients c_1, c_2 on e_1, e_2 would need c_1 + c_2 = 1 (dot -1
    with v_3) and c_1 = c_2 (dot 0 with v_1).  So A_4 has one
    embedding, and the induction runs on from there.  (The tests count
    the canonical embeddings of A_k by search: one for k = 1, ..., 11
    except two for k = 3.)

    The bound on w.  The (-2)-chain v_1, ..., v_{2q-1} has length
    2q - 1 >= 5, so v_i = e_i - e_{i+1}.  w.v_q = 1 and w.v_i = 0 for
    i != q, so w has one value a on e_1, ..., e_q and one value b on
    e_{q+1}, ..., e_{2q}, with a - b = -1.  Consecutive integers are not
    both 0, so |w|^2 >= q(a^2 + b^2) >= q.  But w.w = 1 - q gives
    |w|^2 = q - 1 < q: lambda_q embeds in no D_m.
    """
    star = _lambda_star(q)
    first, second, w = star.legs
    chain = (-2,) * (q - 1)
    for holds, hypothesis in (
        (star.n == -2, "the centre is framed -2"),
        (first == chain, f"the first leg is {q - 1} entries of -2"),
        (second == chain, f"the second leg is {q - 1} entries of -2"),
        (w == (1 - q,), f"w is one vertex framed {1 - q}"),
        (len(first) + 1 + len(second) >= 5, "the (-2)-chain has length 2q - 1 >= 5"),
    ):
        if not holds:
            raise AssertionError(
                f"lambda_{q} certificate: the star breaks the hypothesis that {hypothesis}"
            )
    return star


def nonfillability_obstruction(g: int) -> dict:
    """The diagonal-lattice obstruction at genus g.

    Picks d with d(d+1) <= 2g <= d(d+2) - 1 and certifies, by the chain
    lemma of lambda_q_certificate, that lambda_{d+2} embeds in no
    diagonal lattice.  A lattice that would have to embed in a diagonal
    lattice by diagonalization of a negative definite filling, but does
    not, certifies that no such filling exists.  Raises
    ConditionViolation, before building anything, when g < 1 (from
    d_range), when no such d exists, or when q = d + 2 exceeds the chain
    bound 3001 (g > 4499999).  A star that breaks the lemma's hypotheses
    raises AssertionError, so the document's embedding keys always read
    the same.  So does a d outside its window around 2g, and a rank,
    read off the certified legs, other than 2q: the printed q and rank
    are checked, not only computed.
    """
    g = operator.index(g)
    d = d_range(g)
    if d is None:
        raise ConditionViolation(f"no d with d(d+1) <= 2g <= d(d+2)-1 for g = {g}")
    if not d * (d + 1) <= 2 * g <= d * (d + 2) - 1:
        raise AssertionError(f"d = {d} breaks d(d+1) <= 2g <= d(d+2)-1 at g = {g}")
    q = d + 2
    star = lambda_q_certificate(q)
    rank = 1 + sum(map(len, star.legs))
    if rank != 2 * q:
        raise AssertionError(f"the certified star has {rank} vertices, not 2q = {2 * q}")
    return {
        "g": g,
        "d": d,
        "q": q,
        "rank": rank,
        "embeddable": False,
        "embedding": None,
        "obstruction_holds": True,
        "narrative": (
            "a negative definite filling forces the lattice into a diagonal "
            "form; by the chain lemma its (-2)-chain of length 2q - 1 >= 5 "
            "embeds there only as e_i - e_(i+1), so the extra vector w would "
            "need norm at least q, not q - 1: no negative definite filling exists"
        ),
    }
